//! The CyberOrgs hierarchy: creation, resource grants and releases,
//! local admission, dissolution, and lockstep time.

use core::fmt;
use std::collections::BTreeMap;

use rota_admission::{AdmissionPolicy, AdmissionRequest, Decision, RotaPolicy};
use rota_interval::{TickDuration, TimePoint};
use rota_logic::State;
use rota_resource::{ResourceSet, ResourceSetError};

use crate::org::{Org, OrgName};

/// Errors from hierarchy operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CyberOrgsError {
    /// The named organization does not exist.
    UnknownOrg(OrgName),
    /// An organization with that name already exists.
    DuplicateOrg(OrgName),
    /// The requested carve is not covered by the source org's expiring
    /// (uncommitted) resources — isolating it would break commitments.
    InsufficientFreeResources {
        /// The org that was asked to give resources up.
        org: OrgName,
        /// Underlying resource diagnostic.
        detail: String,
    },
    /// The org still has admitted computations executing.
    HasCommitments(OrgName),
    /// The org still has child organizations.
    HasChildren(OrgName),
    /// The root cannot be dissolved.
    RootOrg,
    /// Resource arithmetic overflowed.
    Resource(ResourceSetError),
}

impl fmt::Display for CyberOrgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CyberOrgsError::UnknownOrg(o) => write!(f, "unknown organization {o}"),
            CyberOrgsError::DuplicateOrg(o) => write!(f, "organization {o} already exists"),
            CyberOrgsError::InsufficientFreeResources { org, detail } => {
                write!(f, "{org} cannot free the requested resources: {detail}")
            }
            CyberOrgsError::HasCommitments(o) => {
                write!(f, "{o} still hosts admitted computations")
            }
            CyberOrgsError::HasChildren(o) => write!(f, "{o} still has child organizations"),
            CyberOrgsError::RootOrg => f.write_str("the root organization cannot be dissolved"),
            CyberOrgsError::Resource(e) => write!(f, "resource error: {e}"),
        }
    }
}

impl std::error::Error for CyberOrgsError {}

impl From<ResourceSetError> for CyberOrgsError {
    fn from(e: ResourceSetError) -> Self {
        CyberOrgsError::Resource(e)
    }
}

/// A CyberOrgs-style hierarchy of resource encapsulations.
///
/// The paper's closing proposal: "the context in which we hope to use
/// ROTA is that of resource encapsulations of the type defined by the
/// CyberOrgs model, where the reasoning only needs to concern itself
/// with resources available **inside the encapsulation**." Each [`OrgName`]
/// owns a private ROTA state; admission reasons only over that state, so
/// decision cost scales with the org, not the system (experiment E11
/// measures the effect). Resources move between parent and child through
/// explicit [`grant`](CyberOrgs::grant) / [`release`](CyberOrgs::release)
/// operations that are only permitted on *expiring* (uncommitted)
/// resources — encapsulation never breaks an existing assurance.
///
/// # Examples
///
/// ```
/// use rota_cyberorgs::{CyberOrgs, OrgName};
/// use rota_interval::{TimeInterval, TimePoint};
/// use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
///
/// let theta = ResourceSet::from_terms([ResourceTerm::new(
///     Rate::new(8),
///     TimeInterval::from_ticks(0, 32)?,
///     LocatedType::cpu(Location::new("l1")),
/// )])?;
/// let mut orgs = CyberOrgs::new("root", theta, TimePoint::ZERO);
/// let carve = ResourceSet::from_terms([ResourceTerm::new(
///     Rate::new(4),
///     TimeInterval::from_ticks(0, 32)?,
///     LocatedType::cpu(Location::new("l1")),
/// )])?;
/// orgs.create_org("root", "tenant", carve)?;
/// assert_eq!(orgs.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CyberOrgs {
    root: OrgName,
    orgs: BTreeMap<OrgName, Org>,
    now: TimePoint,
}

impl CyberOrgs {
    /// Creates a hierarchy whose root owns `theta` at time `t0`.
    pub fn new(root: impl Into<OrgName>, theta: ResourceSet, t0: TimePoint) -> Self {
        let root = root.into();
        let mut orgs = BTreeMap::new();
        orgs.insert(root.clone(), Org::new(None, theta, t0));
        CyberOrgs {
            root,
            orgs,
            now: t0,
        }
    }

    /// The root organization's name.
    pub fn root(&self) -> &OrgName {
        &self.root
    }

    /// Current (lockstep) time.
    pub fn now(&self) -> TimePoint {
        self.now
    }

    /// Number of organizations.
    pub fn len(&self) -> usize {
        self.orgs.len()
    }

    /// Whether the hierarchy is empty (never true: the root persists).
    pub fn is_empty(&self) -> bool {
        self.orgs.is_empty()
    }

    /// The names of all organizations, in order.
    pub fn org_names(&self) -> impl Iterator<Item = &OrgName> {
        self.orgs.keys()
    }

    /// The local state of `org`.
    ///
    /// # Errors
    ///
    /// [`CyberOrgsError::UnknownOrg`].
    pub fn state(&self, org: impl Into<OrgName>) -> Result<&State, CyberOrgsError> {
        let org = org.into();
        self.orgs
            .get(&org)
            .map(|o| &o.state)
            .ok_or(CyberOrgsError::UnknownOrg(org))
    }

    /// The parent of `org` (`None` for the root).
    ///
    /// # Errors
    ///
    /// [`CyberOrgsError::UnknownOrg`].
    pub fn parent(&self, org: impl Into<OrgName>) -> Result<Option<&OrgName>, CyberOrgsError> {
        let org = org.into();
        self.orgs
            .get(&org)
            .map(|o| o.parent.as_ref())
            .ok_or(CyberOrgsError::UnknownOrg(org))
    }

    fn take_free(&mut self, org: &OrgName, carve: &ResourceSet) -> Result<(), CyberOrgsError> {
        let entry = self
            .orgs
            .get_mut(org)
            .ok_or_else(|| CyberOrgsError::UnknownOrg(org.clone()))?;
        let free = entry.state.expiring_resources();
        if !free.dominates(carve) {
            return Err(CyberOrgsError::InsufficientFreeResources {
                org: org.clone(),
                detail: "carve exceeds the org's expiring resources".into(),
            });
        }
        let (theta, rho, now) = entry.state.clone().into_parts();
        let theta = theta.relative_complement(carve).map_err(|e| {
            CyberOrgsError::InsufficientFreeResources {
                org: org.clone(),
                detail: e.to_string(),
            }
        })?;
        entry.state = State::with_commitments(theta, rho, now);
        Ok(())
    }

    fn give(&mut self, org: &OrgName, theta: ResourceSet) -> Result<(), CyberOrgsError> {
        let entry = self
            .orgs
            .get_mut(org)
            .ok_or_else(|| CyberOrgsError::UnknownOrg(org.clone()))?;
        entry.state.acquire(theta).map_err(|e| match e {
            rota_logic::TransitionError::Resource(r) => CyberOrgsError::Resource(r),
            other => CyberOrgsError::InsufficientFreeResources {
                org: org.clone(),
                detail: other.to_string(),
            },
        })?;
        Ok(())
    }

    /// Creates `child` under `parent`, isolating `carve` out of the
    /// parent's expiring resources as the child's private pool.
    ///
    /// # Errors
    ///
    /// [`CyberOrgsError::DuplicateOrg`], [`CyberOrgsError::UnknownOrg`],
    /// or [`CyberOrgsError::InsufficientFreeResources`] when the carve
    /// would disturb the parent's commitments.
    pub fn create_org(
        &mut self,
        parent: impl Into<OrgName>,
        child: impl Into<OrgName>,
        carve: ResourceSet,
    ) -> Result<(), CyberOrgsError> {
        let parent = parent.into();
        let child = child.into();
        if self.orgs.contains_key(&child) {
            return Err(CyberOrgsError::DuplicateOrg(child));
        }
        if !self.orgs.contains_key(&parent) {
            return Err(CyberOrgsError::UnknownOrg(parent));
        }
        self.take_free(&parent, &carve)?;
        self.orgs.insert(
            child.clone(),
            Org::new(Some(parent.clone()), carve, self.now),
        );
        self.orgs
            .get_mut(&parent)
            .expect("checked above")
            .children
            .push(child);
        Ok(())
    }

    /// Grants additional resources from `parent`'s free pool to `child`.
    ///
    /// # Errors
    ///
    /// [`CyberOrgsError::UnknownOrg`] or
    /// [`CyberOrgsError::InsufficientFreeResources`].
    pub fn grant(
        &mut self,
        parent: impl Into<OrgName>,
        child: impl Into<OrgName>,
        theta: ResourceSet,
    ) -> Result<(), CyberOrgsError> {
        let parent = parent.into();
        let child = child.into();
        if !self.orgs.contains_key(&child) {
            return Err(CyberOrgsError::UnknownOrg(child));
        }
        self.take_free(&parent, &theta)?;
        self.give(&child, theta)
    }

    /// Returns resources from `org`'s free pool to its parent.
    ///
    /// # Errors
    ///
    /// [`CyberOrgsError::UnknownOrg`] (or the root, which has no parent),
    /// or [`CyberOrgsError::InsufficientFreeResources`].
    pub fn release(
        &mut self,
        org: impl Into<OrgName>,
        theta: ResourceSet,
    ) -> Result<(), CyberOrgsError> {
        let org = org.into();
        let parent = self
            .orgs
            .get(&org)
            .ok_or_else(|| CyberOrgsError::UnknownOrg(org.clone()))?
            .parent
            .clone()
            .ok_or(CyberOrgsError::RootOrg)?;
        self.take_free(&org, &theta)?;
        self.give(&parent, theta)
    }

    /// Dissolves a childless, idle org, returning all its resources to
    /// its parent.
    ///
    /// # Errors
    ///
    /// [`CyberOrgsError::RootOrg`], [`CyberOrgsError::HasChildren`],
    /// [`CyberOrgsError::HasCommitments`], or
    /// [`CyberOrgsError::UnknownOrg`].
    pub fn dissolve(&mut self, org: impl Into<OrgName>) -> Result<(), CyberOrgsError> {
        let org = org.into();
        let entry = self
            .orgs
            .get(&org)
            .ok_or_else(|| CyberOrgsError::UnknownOrg(org.clone()))?;
        let Some(parent) = entry.parent.clone() else {
            return Err(CyberOrgsError::RootOrg);
        };
        if !entry.children.is_empty() {
            return Err(CyberOrgsError::HasChildren(org));
        }
        if !entry.state.rho().is_empty() {
            return Err(CyberOrgsError::HasCommitments(org));
        }
        let entry = self.orgs.remove(&org).expect("present above");
        let (theta, _, _) = entry.state.into_parts();
        self.orgs
            .get_mut(&parent)
            .expect("parents outlive children")
            .children
            .retain(|c| c != &org);
        self.give(&parent, theta)
    }

    /// Admits a request **inside** `org`, reasoning only over the org's
    /// private resources (the paper's complexity amelioration). Uses the
    /// ROTA policy; accepted commitments are installed in the org's
    /// state.
    ///
    /// # Errors
    ///
    /// [`CyberOrgsError::UnknownOrg`]. Policy refusals are returned as
    /// `Ok(Decision::Reject(…))`.
    pub fn admit(
        &mut self,
        org: impl Into<OrgName>,
        request: &AdmissionRequest,
    ) -> Result<Decision, CyberOrgsError> {
        let org = org.into();
        let entry = self
            .orgs
            .get_mut(&org)
            .ok_or_else(|| CyberOrgsError::UnknownOrg(org.clone()))?;
        let decision = RotaPolicy.decide(&entry.state, request);
        if let Decision::Accept(commitments) = &decision {
            for c in commitments {
                entry
                    .state
                    .accommodate(c.clone())
                    .expect("policy checked the deadline guard");
            }
        }
        Ok(decision)
    }

    /// Advances every organization one tick in lockstep, each executing
    /// its own commitments greedily.
    pub fn tick(&mut self) {
        for org in self.orgs.values_mut() {
            let assignments = org.state.greedy_assignments();
            org.state
                .step(&assignments)
                .expect("greedy assignments are always valid");
        }
        self.now += TickDuration::DELTA;
    }

    /// Runs the whole hierarchy to `horizon`.
    pub fn run_until(&mut self, horizon: TimePoint) {
        while self.now < horizon {
            self.tick();
        }
    }

    /// Whether any org has a late commitment (never happens when all
    /// admission goes through [`admit`](CyberOrgs::admit)).
    pub fn any_late(&self) -> bool {
        self.orgs.values().any(|o| o.state.any_late())
    }

    /// Total commitments across all orgs.
    pub fn total_commitments(&self) -> usize {
        self.orgs.values().map(|o| o.state.rho().len()).sum()
    }
}

impl fmt::Display for CyberOrgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cyberorgs[{} orgs @ {}, {} commitments]",
            self.orgs.len(),
            self.now,
            self.total_commitments()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_actor::{
        ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
    };
    use rota_interval::TimeInterval;
    use rota_resource::{LocatedType, Location, Rate, ResourceTerm};

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::from_ticks(s, e).unwrap()
    }

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn theta(rate: u64, s: u64, e: u64) -> ResourceSet {
        [ResourceTerm::new(Rate::new(rate), iv(s, e), cpu("l1"))]
            .into_iter()
            .collect()
    }

    fn request(name: &str, evals: usize, d: u64) -> AdmissionRequest {
        let mut gamma = ActorComputation::new(format!("{name}-actor"), "l1");
        for _ in 0..evals {
            gamma.push(ActionKind::evaluate());
        }
        AdmissionRequest::price(
            DistributedComputation::single(name, gamma, TimePoint::ZERO, TimePoint::new(d))
                .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        )
    }

    #[test]
    fn create_carves_from_parent() {
        let mut orgs = CyberOrgs::new("root", theta(8, 0, 32), TimePoint::ZERO);
        orgs.create_org("root", "tenant", theta(5, 0, 32)).unwrap();
        assert_eq!(orgs.len(), 2);
        assert_eq!(
            orgs.state("root")
                .unwrap()
                .theta()
                .rate_at(&cpu("l1"), TimePoint::ZERO),
            Rate::new(3)
        );
        assert_eq!(
            orgs.state("tenant")
                .unwrap()
                .theta()
                .rate_at(&cpu("l1"), TimePoint::ZERO),
            Rate::new(5)
        );
        assert_eq!(orgs.parent("tenant").unwrap(), Some(&OrgName::new("root")));
        assert_eq!(orgs.parent("root").unwrap(), None);
    }

    #[test]
    fn carve_cannot_exceed_free() {
        let mut orgs = CyberOrgs::new("root", theta(4, 0, 32), TimePoint::ZERO);
        let err = orgs
            .create_org("root", "greedy", theta(5, 0, 32))
            .unwrap_err();
        assert!(matches!(
            err,
            CyberOrgsError::InsufficientFreeResources { .. }
        ));
        // committed resources are protected too
        let r = request("job", 2, 32);
        assert!(orgs.admit("root", &r).unwrap().is_accept());
        // 16 units reserved in (0,4): carving all 4/tick of (0,32) breaks it
        let err = orgs
            .create_org("root", "greedy", theta(4, 0, 32))
            .unwrap_err();
        assert!(matches!(
            err,
            CyberOrgsError::InsufficientFreeResources { .. }
        ));
    }

    #[test]
    fn local_admission_and_execution() {
        let mut orgs = CyberOrgs::new("root", theta(8, 0, 32), TimePoint::ZERO);
        orgs.create_org("root", "tenant", theta(4, 0, 32)).unwrap();
        assert!(orgs
            .admit("tenant", &request("t-job", 2, 32))
            .unwrap()
            .is_accept());
        assert!(orgs
            .admit("root", &request("r-job", 2, 32))
            .unwrap()
            .is_accept());
        assert_eq!(orgs.total_commitments(), 2);
        orgs.run_until(TimePoint::new(32));
        assert_eq!(orgs.total_commitments(), 0);
        assert!(!orgs.any_late());
        assert_eq!(orgs.now(), TimePoint::new(32));
    }

    #[test]
    fn encapsulation_bounds_admission() {
        // The tenant's pool is 2/tick over (0,8) = 16 units: one job fits,
        // two do not — even though the root still has plenty.
        let mut orgs = CyberOrgs::new("root", theta(8, 0, 8), TimePoint::ZERO);
        orgs.create_org("root", "tenant", theta(2, 0, 8)).unwrap();
        assert!(orgs
            .admit("tenant", &request("one", 2, 8))
            .unwrap()
            .is_accept());
        assert!(!orgs
            .admit("tenant", &request("two", 2, 8))
            .unwrap()
            .is_accept());
        assert!(orgs
            .admit("root", &request("rooty", 2, 8))
            .unwrap()
            .is_accept());
    }

    #[test]
    fn grant_and_release_move_free_resources() {
        let mut orgs = CyberOrgs::new("root", theta(8, 0, 16), TimePoint::ZERO);
        orgs.create_org("root", "tenant", theta(2, 0, 16)).unwrap();
        orgs.grant("root", "tenant", theta(3, 0, 16)).unwrap();
        assert_eq!(
            orgs.state("tenant")
                .unwrap()
                .theta()
                .rate_at(&cpu("l1"), TimePoint::ZERO),
            Rate::new(5)
        );
        orgs.release("tenant", theta(1, 0, 16)).unwrap();
        assert_eq!(
            orgs.state("root")
                .unwrap()
                .theta()
                .rate_at(&cpu("l1"), TimePoint::ZERO),
            Rate::new(4)
        );
        // releasing from the root is meaningless
        assert!(matches!(
            orgs.release("root", theta(1, 0, 16)),
            Err(CyberOrgsError::RootOrg)
        ));
    }

    #[test]
    fn dissolve_returns_resources_and_guards() {
        let mut orgs = CyberOrgs::new("root", theta(8, 0, 16), TimePoint::ZERO);
        orgs.create_org("root", "a", theta(4, 0, 16)).unwrap();
        orgs.create_org("a", "b", theta(2, 0, 16)).unwrap();
        // a has a child: refuse
        assert!(matches!(
            orgs.dissolve("a"),
            Err(CyberOrgsError::HasChildren(_))
        ));
        // b busy: refuse
        assert!(orgs
            .admit("b", &request("busy", 1, 16))
            .unwrap()
            .is_accept());
        assert!(matches!(
            orgs.dissolve("b"),
            Err(CyberOrgsError::HasCommitments(_))
        ));
        orgs.run_until(TimePoint::new(8));
        // b idle now: dissolve both, resources flow home
        orgs.dissolve("b").unwrap();
        orgs.dissolve("a").unwrap();
        assert_eq!(orgs.len(), 1);
        assert_eq!(
            orgs.state("root")
                .unwrap()
                .theta()
                .rate_at(&cpu("l1"), TimePoint::new(8)),
            Rate::new(8)
        );
        assert!(matches!(
            orgs.dissolve("root"),
            Err(CyberOrgsError::RootOrg)
        ));
    }

    #[test]
    fn unknown_and_duplicate_orgs() {
        let mut orgs = CyberOrgs::new("root", theta(8, 0, 16), TimePoint::ZERO);
        assert!(matches!(
            orgs.create_org("ghost", "x", ResourceSet::new()),
            Err(CyberOrgsError::UnknownOrg(_))
        ));
        orgs.create_org("root", "x", ResourceSet::new()).unwrap();
        assert!(matches!(
            orgs.create_org("root", "x", ResourceSet::new()),
            Err(CyberOrgsError::DuplicateOrg(_))
        ));
        assert!(matches!(
            orgs.admit("ghost", &request("r", 1, 16)),
            Err(CyberOrgsError::UnknownOrg(_))
        ));
        assert!(orgs.state("ghost").is_err());
        assert!(orgs.parent("ghost").is_err());
        assert!(matches!(
            orgs.grant("root", "ghost", ResourceSet::new()),
            Err(CyberOrgsError::UnknownOrg(_))
        ));
    }

    #[test]
    fn display_and_names() {
        let orgs = CyberOrgs::new("root", theta(1, 0, 2), TimePoint::ZERO);
        assert!(orgs.to_string().starts_with("cyberorgs[1 orgs"));
        assert_eq!(orgs.org_names().count(), 1);
        assert_eq!(orgs.root().as_str(), "root");
        assert!(!orgs.is_empty());
        let err = CyberOrgsError::HasCommitments(OrgName::new("x"));
        assert!(err.to_string().contains("admitted computations"));
    }
}
