//! Resource sets `Θ` — collections of resource terms over many located
//! types, kept in the paper's simplified (aggregated) normal form.

use core::fmt;

use rota_interval::{TimeInterval, TimePoint};

use crate::located::LocatedType;
use crate::profile::{add_rates, subtract_rates, InsufficientRateError, Patch, ResourceProfile};
use crate::rate::{OverflowError, Quantity, Rate};
use crate::term::ResourceTerm;

/// Error from [`ResourceSet`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceSetError {
    /// Arithmetic exceeded `u64`.
    Overflow,
    /// A relative complement was requested that is not defined: the paper
    /// defines `Θ₁ \ Θ₂` only when every term of `Θ₂` is dominated by
    /// availability in `Θ₁`.
    NotDominated {
        /// The located type at which coverage fails.
        located: LocatedType,
        /// First instant of shortfall.
        at: TimePoint,
        /// Rate available there.
        available: Rate,
        /// Rate demanded there.
        demanded: Rate,
    },
}

impl fmt::Display for ResourceSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceSetError::Overflow => f.write_str("resource arithmetic overflowed u64"),
            ResourceSetError::NotDominated {
                located,
                at,
                available,
                demanded,
            } => write!(
                f,
                "relative complement undefined: {located} at {at} has {available}, demanded {demanded}"
            ),
        }
    }
}

impl std::error::Error for ResourceSetError {}

impl From<OverflowError> for ResourceSetError {
    fn from(_: OverflowError) -> Self {
        ResourceSetError::Overflow
    }
}

/// A set `Θ` of resource terms, stored simplified: one canonical
/// [`ResourceProfile`] per located type.
///
/// Union (`∪`) aggregates rates where intervals overlap — the paper's
/// simplification — and relative complement (`\`) is defined exactly when
/// the subtrahend is everywhere dominated, per the paper's definition.
///
/// # Examples
///
/// The paper's first worked example — terms of different located types do
/// not interact:
///
/// ```
/// use rota_interval::TimeInterval;
/// use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
///
/// let l1 = Location::new("l1");
/// let l2 = Location::new("l2");
/// let mut theta = ResourceSet::new();
/// theta.insert(ResourceTerm::new(
///     Rate::new(5), TimeInterval::from_ticks(0, 3)?, LocatedType::cpu(l1.clone())))?;
/// theta.insert(ResourceTerm::new(
///     Rate::new(5), TimeInterval::from_ticks(0, 5)?, LocatedType::network(l1, l2)))?;
/// assert_eq!(theta.to_terms().len(), 2); // distinct ξ: no aggregation
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceSet {
    /// One non-empty profile per located type, sorted by type: a set
    /// spans a few to a few dozen types, found by binary search.
    profiles: Vec<(LocatedType, ResourceProfile)>,
}

impl ResourceSet {
    /// Creates the empty resource set.
    pub fn new() -> Self {
        ResourceSet {
            profiles: Vec::new(),
        }
    }

    /// Builds a set from any collection of terms, simplifying: the terms
    /// are sorted by located type (stably, so a group keeps its order)
    /// and each group is summed in one pass when sorted, by balanced
    /// pairwise merges otherwise, so `n` terms in any order cost
    /// O(n log n). The result equals inserting the terms one by one.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::Overflow`] if aggregated rates exceed
    /// `u64`.
    pub fn from_terms<I>(terms: I) -> Result<Self, ResourceSetError>
    where
        I: IntoIterator<Item = ResourceTerm>,
    {
        let mut terms: Vec<ResourceTerm> = terms.into_iter().filter(|t| !t.is_null()).collect();
        terms.sort_by(|a, b| a.located().cmp(b.located()));
        let mut profiles = Vec::new();
        for group in terms.chunk_by(|a, b| a.located() == b.located()) {
            let segments = group.iter().map(|t| (t.interval(), t.rate()));
            profiles.push((
                group[0].located().clone(),
                ResourceProfile::from_segments(segments)?,
            ));
        }
        Ok(ResourceSet { profiles })
    }

    /// Where `located` is, or would be inserted, in `profiles`.
    fn slot(&self, located: &LocatedType) -> Result<usize, usize> {
        self.profiles.binary_search_by(|(lt, _)| lt.cmp(located))
    }

    /// The stored profile for `located`, if any.
    fn get(&self, located: &LocatedType) -> Option<&ResourceProfile> {
        self.slot(located).ok().map(|i| &self.profiles[i].1)
    }

    /// Whether the set holds no resource at all.
    pub fn is_empty(&self) -> bool {
        self.profiles.iter().all(|(_, p)| p.is_empty())
    }

    /// The located types with any availability, in order.
    pub fn located_types(&self) -> impl Iterator<Item = &LocatedType> {
        self.profiles
            .iter()
            .filter(|(_, p)| !p.is_empty())
            .map(|(lt, _)| lt)
    }

    /// The availability profile for `located` (empty profile if absent).
    pub fn profile(&self, located: &LocatedType) -> &ResourceProfile {
        self.get(located).unwrap_or(&EMPTY_PROFILE)
    }

    /// Whether any availability of `located` exists — `!profile(located).is_empty()`
    /// without cloning the profile.
    pub fn supplies(&self, located: &LocatedType) -> bool {
        self.get(located).is_some_and(|p| !p.is_empty())
    }

    /// Inserts (unions) a term into the set — the paper's `Θ ∪ {[r]^τ_ξ}`
    /// with simplification.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::Overflow`] if the aggregated rate
    /// exceeds `u64`.
    pub fn insert(&mut self, term: ResourceTerm) -> Result<(), ResourceSetError> {
        if term.is_null() {
            return Ok(());
        }
        match self.slot(term.located()) {
            Ok(i) => self.profiles[i].1.add(term.interval(), term.rate())?,
            Err(i) => {
                let mut profile = ResourceProfile::new();
                profile.add(term.interval(), term.rate())?;
                self.profiles.insert(i, (term.located().clone(), profile));
            }
        }
        Ok(())
    }

    /// Set union `Θ₁ ∪ Θ₂` with simplification.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::Overflow`] on rate overflow.
    pub fn union(&self, other: &ResourceSet) -> Result<ResourceSet, ResourceSetError> {
        let mut out = self.clone();
        out.add_set(other)?;
        Ok(out)
    }

    /// In-place union `Θ₁ := Θ₁ ∪ Θ₂`: per located type of `other`, only
    /// the segments its span overlaps or meets are recomputed and spliced
    /// in; every other segment and type is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::Overflow`] on rate overflow; `self` is
    /// unchanged on error.
    pub fn add_set(&mut self, other: &ResourceSet) -> Result<(), ResourceSetError> {
        if self.profiles.is_empty() {
            self.profiles = other.profiles.clone();
            return Ok(());
        }
        self.splice_each(other, |_, ours, theirs| Ok(ours.patch(theirs, add_rates)?))
    }

    /// Relative complement `Θ₁ \ Θ₂`, defined (per the paper) only when
    /// every demanded term is dominated by availability.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::NotDominated`] describing the first
    /// shortfall when the complement is undefined; `self` is not modified
    /// (the operation is non-destructive).
    pub fn relative_complement(
        &self,
        other: &ResourceSet,
    ) -> Result<ResourceSet, ResourceSetError> {
        let mut out = self.clone();
        out.subtract_set(other)?;
        Ok(out)
    }

    /// In-place relative complement `Θ₁ := Θ₁ \ Θ₂`, recomputing per
    /// located type of `other` only the segments its span overlaps or
    /// meets.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::NotDominated`] describing the first
    /// shortfall when `other` is not dominated; `self` is unchanged on
    /// error.
    pub fn subtract_set(&mut self, other: &ResourceSet) -> Result<(), ResourceSetError> {
        self.splice_each(other, |located, ours, theirs| {
            ours.patch(theirs, subtract_rates)
                .map_err(|e| ResourceSetError::NotDominated {
                    located: located.clone(),
                    at: e.at(),
                    available: e.available(),
                    demanded: e.demanded(),
                })
        })
    }

    /// Patches each profile of a type in `other` with `patch(type, ours,
    /// theirs)`, all or nothing: every patch is computed before any is
    /// applied. When `self` holds every patched type, the patches apply
    /// in place; otherwise the new types are merged in, in one pass.
    /// Profiles left empty are dropped.
    fn splice_each(
        &mut self,
        other: &ResourceSet,
        patch: impl Fn(
            &LocatedType,
            &ResourceProfile,
            &ResourceProfile,
        ) -> Result<Patch, ResourceSetError>,
    ) -> Result<(), ResourceSetError> {
        let mut patches = Vec::with_capacity(other.profiles.len());
        for (lt, theirs) in &other.profiles {
            let slot = self.slot(lt);
            let ours = slot.map_or(&EMPTY_PROFILE, |i| &self.profiles[i].1);
            patches.push((lt, slot, patch(lt, ours, theirs)?));
        }
        let fresh = patches.iter().filter(|(_, slot, _)| slot.is_err()).count();
        if fresh == 0 {
            let mut emptied = false;
            for (_, slot, patch) in patches {
                if let Ok(i) = slot {
                    let profile = &mut self.profiles[i].1;
                    profile.apply(patch);
                    emptied |= profile.is_empty();
                }
            }
            if emptied {
                self.profiles.retain(|(_, p)| !p.is_empty());
            }
            return Ok(());
        }
        let ours = std::mem::take(&mut self.profiles);
        let mut merged = Vec::with_capacity(ours.len() + fresh);
        let mut patches = patches.into_iter().peekable();
        let mut push = |lt: LocatedType, mut profile: ResourceProfile, patch: Option<Patch>| {
            if let Some(patch) = patch {
                profile.apply(patch);
            }
            if !profile.is_empty() {
                merged.push((lt, profile));
            }
        };
        for (lt, profile) in ours {
            while let Some((new, _, patch)) = patches.next_if(|(new, _, _)| **new < lt) {
                push(new.clone(), ResourceProfile::new(), Some(patch));
            }
            let patch = patches.next_if(|(new, _, _)| **new == lt);
            push(lt, profile, patch.map(|(_, _, patch)| patch));
        }
        for (new, _, patch) in patches {
            push(new.clone(), ResourceProfile::new(), Some(patch));
        }
        self.profiles = merged;
        Ok(())
    }

    /// Consumes `rate` of `located` over `window` in place — the `ξ ↦ a`
    /// step of a transition rule.
    ///
    /// # Errors
    ///
    /// Returns [`InsufficientRateError`] if availability falls short; the
    /// set is unchanged on error.
    pub fn consume(
        &mut self,
        located: &LocatedType,
        window: TimeInterval,
        rate: Rate,
    ) -> Result<(), InsufficientRateError> {
        let Ok(i) = self.slot(located) else {
            return ResourceProfile::new().subtract(window, rate);
        };
        let profile = &mut self.profiles[i].1;
        let consumed = profile.subtract(window, rate);
        if profile.is_empty() {
            self.profiles.remove(i);
        }
        consumed
    }

    /// Rate of `located` available at tick `t`.
    pub fn rate_at(&self, located: &LocatedType, t: TimePoint) -> Rate {
        self.get(located)
            .map(|p| p.rate_at(t))
            .unwrap_or(Rate::ZERO)
    }

    /// Total quantity of `located` deliverable within `window` — the
    /// paper's `⋃ₛᵈ Θ` aggregate used by the satisfaction function `f`.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::Overflow`] if the integral exceeds
    /// `u64`.
    pub fn quantity_over(
        &self,
        located: &LocatedType,
        window: &TimeInterval,
    ) -> Result<Quantity, ResourceSetError> {
        Ok(self
            .get(located)
            .map(|p| p.quantity_over(window))
            .transpose()?
            .unwrap_or(Quantity::ZERO))
    }

    /// Removes, per located type, every tick on which `claimed` has any
    /// availability — regardless of rate. This is the tick-granular
    /// complement used to compute expiring resources: ROTA's transition
    /// rules hand a located type's whole tick to one consumer, so a tick
    /// with any reservation on it offers nothing to anyone else.
    #[must_use]
    pub fn exclude_support(&self, claimed: &ResourceSet) -> ResourceSet {
        self.map_profiles(|lt, p| {
            p.extent()
                .map(|extent| p.exclude_within(claimed.profile(lt), &extent))
        })
    }

    /// [`exclude_support`](ResourceSet::exclude_support) restricted to
    /// `types` and clamped to `window`, in one pass per type over the
    /// segments that overlap the window: the result holds only those
    /// located types within the window, and nothing else is read. With an
    /// empty `claimed` this is plain restriction to `types` and `window`.
    #[must_use]
    pub fn exclude_support_within<'a>(
        &self,
        claimed: &ResourceSet,
        types: impl IntoIterator<Item = &'a LocatedType>,
        window: &TimeInterval,
    ) -> ResourceSet {
        let mut out = ResourceSet::new();
        for lt in types {
            if let Some(p) = self.get(lt) {
                out.keep(lt, p.exclude_within(claimed.profile(lt), window));
            }
        }
        out
    }

    /// The part of the set on the located types `keep` accepts, every
    /// interval kept.
    #[must_use]
    pub fn restrict(&self, keep: impl Fn(&LocatedType) -> bool) -> ResourceSet {
        self.map_profiles(|lt, p| keep(lt).then(|| p.clone()))
    }

    /// Restricts the whole set to `window` — "the union of all resources
    /// in Θ which exist in the interval (s, d)".
    #[must_use]
    pub fn clamp(&self, window: &TimeInterval) -> ResourceSet {
        self.map_profiles(|_, p| Some(p.clamp(window)))
    }

    /// The set of the non-empty profiles `f` makes of each of this set's,
    /// in type order, so no type is searched for.
    fn map_profiles(
        &self,
        f: impl Fn(&LocatedType, &ResourceProfile) -> Option<ResourceProfile>,
    ) -> ResourceSet {
        let profiles = self
            .profiles
            .iter()
            .filter_map(|(lt, p)| Some((lt.clone(), f(lt, p).filter(|p| !p.is_empty())?)))
            .collect();
        ResourceSet { profiles }
    }

    /// Stores `profile` for `located`, replacing what was there, unless
    /// it is empty. Types kept in type order append at the end.
    fn keep(&mut self, located: &LocatedType, profile: ResourceProfile) {
        if profile.is_empty() {
            return;
        }
        match self.slot(located) {
            Ok(i) => self.profiles[i].1 = profile,
            Err(i) => self.profiles.insert(i, (located.clone(), profile)),
        }
    }

    /// Expires everything before `t` (the expiration rules' effect of
    /// advancing time).
    pub fn truncate_before(&mut self, t: TimePoint) {
        for (_, p) in &mut self.profiles {
            p.truncate_before(t);
        }
        self.profiles.retain(|(_, p)| !p.is_empty());
    }

    /// The latest instant with any availability.
    pub fn horizon(&self) -> Option<TimePoint> {
        self.profiles.iter().filter_map(|(_, p)| p.horizon()).max()
    }

    /// The canonical term decomposition — one term per maximal
    /// constant-rate segment per located type, sorted.
    pub fn to_terms(&self) -> Vec<ResourceTerm> {
        let mut out = Vec::new();
        for (lt, p) in &self.profiles {
            for (iv, r) in p.segments() {
                out.push(ResourceTerm::new(*r, *iv, lt.clone()));
            }
        }
        out
    }

    /// Number of terms in the canonical decomposition.
    pub fn term_count(&self) -> usize {
        self.profiles.iter().map(|(_, p)| p.segments().len()).sum()
    }

    /// Whether `self` pointwise dominates `other` for every located type.
    pub fn dominates(&self, other: &ResourceSet) -> bool {
        other.profiles.iter().all(|(lt, demand)| {
            self.get(lt)
                .map(|have| have.dominates(demand))
                .unwrap_or_else(|| demand.is_empty())
        })
    }
}

/// The profile of a type a set does not hold.
static EMPTY_PROFILE: ResourceProfile = ResourceProfile::new();

impl FromIterator<ResourceTerm> for ResourceSet {
    /// Collects terms into a simplified set.
    ///
    /// # Panics
    ///
    /// Panics on rate overflow; use [`ResourceSet::from_terms`] for a
    /// fallible build.
    fn from_iter<I: IntoIterator<Item = ResourceTerm>>(iter: I) -> Self {
        ResourceSet::from_terms(iter).expect("rate overflow while collecting ResourceSet")
    }
}

impl Extend<ResourceTerm> for ResourceSet {
    /// # Panics
    ///
    /// Panics on rate overflow; use [`ResourceSet::insert`] for a fallible
    /// build.
    fn extend<I: IntoIterator<Item = ResourceTerm>>(&mut self, iter: I) {
        for term in iter {
            self.insert(term)
                .expect("rate overflow while extending ResourceSet");
        }
    }
}

impl fmt::Display for ResourceSet {
    /// Prints the canonical term decomposition as a set.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms = self.to_terms();
        if terms.is_empty() {
            return f.write_str("{}");
        }
        f.write_str("{")?;
        let mut first = true;
        for t in terms {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{t}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::located::Location;

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::from_ticks(s, e).unwrap()
    }

    fn cpu(loc: &str) -> LocatedType {
        LocatedType::cpu(Location::new(loc))
    }

    fn net(a: &str, b: &str) -> LocatedType {
        LocatedType::network(Location::new(a), Location::new(b))
    }

    fn term(lt: LocatedType, r: u64, s: u64, e: u64) -> ResourceTerm {
        ResourceTerm::new(Rate::new(r), iv(s, e), lt)
    }

    /// Paper worked example 1: distinct located types do not aggregate.
    #[test]
    fn paper_example_distinct_types() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 3), term(net("l1", "l2"), 5, 0, 5)]
            .into_iter()
            .collect();
        let terms = theta.to_terms();
        assert_eq!(terms.len(), 2);
        assert_eq!(terms[0], term(cpu("l1"), 5, 0, 3));
        assert_eq!(terms[1], term(net("l1", "l2"), 5, 0, 5));
    }

    /// Paper worked example 2: same type overlapping terms aggregate.
    /// [5]^(0,3) ∪ [5]^(0,5) = [10]^(0,3) ∪ [5]^(3,5).
    #[test]
    fn paper_example_aggregation() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 3), term(cpu("l1"), 5, 0, 5)]
            .into_iter()
            .collect();
        assert_eq!(
            theta.to_terms(),
            vec![term(cpu("l1"), 10, 0, 3), term(cpu("l1"), 5, 3, 5)]
        );
    }

    /// Paper worked example 3: relative complement splits around the
    /// demanded window. [5]^(0,3) \ [3]^(1,2) = [5]^(0,1) ∪ [2]^(1,2) ∪ [5]^(2,3).
    #[test]
    fn paper_example_relative_complement() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 3)].into_iter().collect();
        let demand: ResourceSet = [term(cpu("l1"), 3, 1, 2)].into_iter().collect();
        let rest = theta.relative_complement(&demand).unwrap();
        assert_eq!(
            rest.to_terms(),
            vec![
                term(cpu("l1"), 5, 0, 1),
                term(cpu("l1"), 2, 1, 2),
                term(cpu("l1"), 5, 2, 3),
            ]
        );
    }

    #[test]
    fn complement_undefined_when_not_dominated() {
        let theta: ResourceSet = [term(cpu("l1"), 2, 0, 3)].into_iter().collect();
        let demand: ResourceSet = [term(cpu("l1"), 3, 1, 2)].into_iter().collect();
        let err = theta.relative_complement(&demand).unwrap_err();
        match err {
            ResourceSetError::NotDominated {
                located,
                at,
                available,
                demanded,
            } => {
                assert_eq!(located, cpu("l1"));
                assert_eq!(at, TimePoint::new(1));
                assert_eq!(available, Rate::new(2));
                assert_eq!(demanded, Rate::new(3));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn complement_undefined_for_missing_type() {
        let theta = ResourceSet::new();
        let demand: ResourceSet = [term(cpu("l1"), 1, 0, 1)].into_iter().collect();
        assert!(matches!(
            theta.relative_complement(&demand),
            Err(ResourceSetError::NotDominated { .. })
        ));
    }

    #[test]
    fn complement_roundtrip_restores_semantics() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 10), term(net("l1", "l2"), 4, 2, 8)]
            .into_iter()
            .collect();
        let demand: ResourceSet = [term(cpu("l1"), 2, 3, 6), term(net("l1", "l2"), 4, 2, 5)]
            .into_iter()
            .collect();
        let rest = theta.relative_complement(&demand).unwrap();
        let rebuilt = rest.union(&demand).unwrap();
        assert_eq!(rebuilt, theta);
    }

    #[test]
    fn union_is_commutative() {
        let a: ResourceSet = [term(cpu("l1"), 5, 0, 3), term(cpu("l2"), 1, 1, 9)]
            .into_iter()
            .collect();
        let b: ResourceSet = [term(cpu("l1"), 2, 2, 6)].into_iter().collect();
        assert_eq!(a.union(&b).unwrap(), b.union(&a).unwrap());
    }

    #[test]
    fn consume_and_queries() {
        let mut theta: ResourceSet = [term(cpu("l1"), 5, 0, 5)].into_iter().collect();
        theta.consume(&cpu("l1"), iv(0, 2), Rate::new(5)).unwrap();
        assert!(theta.supplies(&cpu("l1")));
        assert!(!theta.supplies(&cpu("l2")));
        assert_eq!(theta.rate_at(&cpu("l1"), TimePoint::new(1)), Rate::ZERO);
        assert_eq!(theta.rate_at(&cpu("l1"), TimePoint::new(3)), Rate::new(5));
        assert_eq!(
            theta.quantity_over(&cpu("l1"), &iv(0, 5)).unwrap(),
            Quantity::new(15)
        );
        // over-consumption is rejected and state preserved
        assert!(theta.consume(&cpu("l1"), iv(0, 5), Rate::new(1)).is_err());
        assert_eq!(
            theta.quantity_over(&cpu("l1"), &iv(0, 5)).unwrap(),
            Quantity::new(15)
        );
    }

    #[test]
    fn consume_to_exhaustion_prunes() {
        let mut theta: ResourceSet = [term(cpu("l1"), 5, 0, 5)].into_iter().collect();
        theta.consume(&cpu("l1"), iv(0, 5), Rate::new(5)).unwrap();
        assert!(theta.is_empty());
        assert!(!theta.supplies(&cpu("l1")));
        assert_eq!(theta.located_types().count(), 0);
    }

    #[test]
    fn clamp_and_truncate() {
        let mut theta: ResourceSet = [term(cpu("l1"), 5, 0, 10), term(cpu("l2"), 3, 8, 12)]
            .into_iter()
            .collect();
        let window = theta.clamp(&iv(0, 4));
        assert_eq!(window.to_terms(), vec![term(cpu("l1"), 5, 0, 4)]);
        theta.truncate_before(TimePoint::new(10));
        assert_eq!(theta.to_terms(), vec![term(cpu("l2"), 3, 10, 12)]);
    }

    #[test]
    fn exclude_support_is_tick_granular() {
        // availability rate 5 over (0,6); claim rate 1 over (2,4):
        // the whole ticks (2,4) disappear, regardless of the claimed rate.
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 6)].into_iter().collect();
        let claimed: ResourceSet = [term(cpu("l1"), 1, 2, 4)].into_iter().collect();
        let free = theta.exclude_support(&claimed);
        assert_eq!(
            free.to_terms(),
            vec![term(cpu("l1"), 5, 0, 2), term(cpu("l1"), 5, 4, 6)]
        );
        // other types unaffected
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 6), term(cpu("l2"), 3, 0, 6)]
            .into_iter()
            .collect();
        let free = theta.exclude_support(&claimed);
        assert_eq!(
            free.quantity_over(&cpu("l2"), &iv(0, 6)).unwrap(),
            Quantity::new(18)
        );
        // claiming a type we do not have is a no-op
        let alien: ResourceSet = [term(cpu("l9"), 1, 0, 6)].into_iter().collect();
        assert_eq!(theta.exclude_support(&alien), theta);
    }

    #[test]
    fn dominates_checks_all_types() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 10), term(cpu("l2"), 3, 0, 10)]
            .into_iter()
            .collect();
        let small: ResourceSet = [term(cpu("l1"), 4, 2, 8), term(cpu("l2"), 3, 1, 3)]
            .into_iter()
            .collect();
        assert!(theta.dominates(&small));
        let too_much: ResourceSet = [term(cpu("l3"), 1, 0, 1)].into_iter().collect();
        assert!(!theta.dominates(&too_much));
        assert!(theta.dominates(&ResourceSet::new()));
    }

    #[test]
    fn null_terms_ignored() {
        let mut theta = ResourceSet::new();
        theta
            .insert(ResourceTerm::new(Rate::ZERO, iv(0, 5), cpu("l1")))
            .unwrap();
        assert!(theta.is_empty());
        assert_eq!(theta.term_count(), 0);
    }

    #[test]
    fn horizon_spans_types() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 10), term(cpu("l2"), 3, 8, 12)]
            .into_iter()
            .collect();
        assert_eq!(theta.horizon(), Some(TimePoint::new(12)));
        assert_eq!(ResourceSet::new().horizon(), None);
    }

    /// A set of up to 7 terms over two located types, rates 1–4, on
    /// ticks 0–16: overlapping, meeting and separated segments.
    fn arb_set() -> impl proptest::strategy::Strategy<Value = ResourceSet> {
        use proptest::prelude::*;
        proptest::collection::vec((0u8..2, 0u64..16, 1u64..6, 1u64..5), 0..7).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(l, s, len, r)| term(cpu(&format!("l{l}")), r, s, (s + len).min(16)))
                .collect()
        })
    }

    /// `self ∘ other` by merging every whole profile with `op`, in type
    /// order, stopping at the first error — what the splices must equal.
    fn merged<E>(
        ours: &ResourceSet,
        theirs: &ResourceSet,
        op: impl Fn(TimePoint, Rate, Rate) -> Result<Rate, E>,
        error: impl Fn(&LocatedType, E) -> ResourceSetError,
    ) -> Result<ResourceSet, ResourceSetError> {
        let mut out = ours.clone();
        for (lt, p) in &theirs.profiles {
            let have = ours.profile(lt).segments();
            let segments =
                crate::profile::zip(have, p.segments(), &op).map_err(|e| error(lt, e))?;
            let terms = segments
                .iter()
                .map(|(iv, r)| ResourceTerm::new(*r, *iv, lt.clone()));
            out.profiles.retain(|(kept, _)| kept != lt);
            out.profiles
                .extend(ResourceSet::from_terms(terms)?.profiles);
            out.profiles.sort_by(|a, b| a.0.cmp(&b.0));
        }
        Ok(out)
    }

    proptest::proptest! {
        /// Splicing `add_set` and `subtract_set` equal whole-profile
        /// merges: same set (so canonical), same error, and on error the
        /// set is unchanged.
        #[test]
        fn splices_equal_whole_profile_merges(a in arb_set(), b in arb_set()) {
            let sum = merged(&a, &b, add_rates, |_, _| ResourceSetError::Overflow);
            let mut spliced = a.clone();
            proptest::prop_assert_eq!(spliced.add_set(&b).map(|()| spliced.clone()), sum);
            let whole = a.union(&b).unwrap();
            for (from, take) in [(&a, &b), (&b, &a), (&whole, &b)] {
                let difference = merged(from, take, subtract_rates, |lt, e| {
                    ResourceSetError::NotDominated {
                        located: lt.clone(),
                        at: e.at(),
                        available: e.available(),
                        demanded: e.demanded(),
                    }
                });
                let mut spliced = from.clone();
                let result = spliced.subtract_set(take);
                proptest::prop_assert_eq!(result.is_err(), difference.is_err());
                match difference {
                    Ok(expected) => proptest::prop_assert_eq!(&spliced, &expected),
                    Err(expected) => {
                        proptest::prop_assert_eq!(result, Err(expected));
                        proptest::prop_assert_eq!(&spliced, from);
                    }
                }
            }
        }
    }

    /// The set as it was stored before it became a sorted vector: a
    /// `BTreeMap` from located type to profile, with each operation's
    /// former body. The reference the model test runs beside the set.
    mod model {
        use std::collections::BTreeMap;

        use super::*;

        pub type Model = BTreeMap<LocatedType, ResourceProfile>;

        static EMPTY: ResourceProfile = ResourceProfile::new();

        fn keep(out: &mut Model, lt: &LocatedType, profile: ResourceProfile) {
            if !profile.is_empty() {
                out.insert(lt.clone(), profile);
            }
        }

        pub fn from_terms(terms: &[ResourceTerm]) -> Result<Model, ResourceSetError> {
            let mut groups: BTreeMap<LocatedType, Vec<(TimeInterval, Rate)>> = BTreeMap::new();
            for term in terms.iter().filter(|t| !t.is_null()) {
                let group = groups.entry(term.located().clone()).or_default();
                group.push((term.interval(), term.rate()));
            }
            let mut out = Model::new();
            for (lt, segments) in groups {
                out.insert(lt, ResourceProfile::from_segments(segments)?);
            }
            Ok(out)
        }

        pub fn insert(m: &mut Model, term: &ResourceTerm) -> Result<(), ResourceSetError> {
            if term.is_null() {
                return Ok(());
            }
            m.entry(term.located().clone())
                .or_default()
                .add(term.interval(), term.rate())?;
            Ok(())
        }

        pub fn splice(
            m: &mut Model,
            other: &Model,
            subtract: bool,
        ) -> Result<(), ResourceSetError> {
            let mut patches = Vec::new();
            for (lt, theirs) in other {
                let ours = m.get(lt).unwrap_or(&EMPTY);
                let patch = if subtract {
                    ours.patch(theirs, subtract_rates).map_err(|e| {
                        ResourceSetError::NotDominated {
                            located: lt.clone(),
                            at: e.at(),
                            available: e.available(),
                            demanded: e.demanded(),
                        }
                    })?
                } else {
                    ours.patch(theirs, add_rates)?
                };
                patches.push((lt, patch));
            }
            for (lt, patch) in patches {
                match m.get_mut(lt) {
                    Some(profile) => {
                        profile.apply(patch);
                        if profile.is_empty() {
                            m.remove(lt);
                        }
                    }
                    None => {
                        let mut profile = ResourceProfile::new();
                        profile.apply(patch);
                        keep(m, lt, profile);
                    }
                }
            }
            Ok(())
        }

        pub fn consume(
            m: &mut Model,
            lt: &LocatedType,
            window: TimeInterval,
            rate: Rate,
        ) -> Result<(), InsufficientRateError> {
            let profile = m.entry(lt.clone()).or_default();
            let consumed = profile.subtract(window, rate);
            if profile.is_empty() {
                m.remove(lt);
            }
            consumed
        }

        pub fn exclude_support(m: &Model, claimed: &Model) -> Model {
            let mut out = Model::new();
            for (lt, p) in m {
                if let Some(extent) = p.extent() {
                    keep(
                        &mut out,
                        lt,
                        p.exclude_within(claimed.get(lt).unwrap_or(&EMPTY), &extent),
                    );
                }
            }
            out
        }

        pub fn exclude_support_within(
            m: &Model,
            claimed: &Model,
            types: &[LocatedType],
            window: &TimeInterval,
        ) -> Model {
            let mut out = Model::new();
            for lt in types {
                if let Some(p) = m.get(lt) {
                    keep(
                        &mut out,
                        lt,
                        p.exclude_within(claimed.get(lt).unwrap_or(&EMPTY), window),
                    );
                }
            }
            out
        }

        pub fn restrict(m: &Model, keep_type: impl Fn(&LocatedType) -> bool) -> Model {
            let mut out = Model::new();
            for (lt, p) in m {
                if keep_type(lt) {
                    keep(&mut out, lt, p.clone());
                }
            }
            out
        }

        pub fn clamp(m: &Model, window: &TimeInterval) -> Model {
            let mut out = Model::new();
            for (lt, p) in m {
                keep(&mut out, lt, p.clamp(window));
            }
            out
        }

        pub fn dominates(m: &Model, other: &Model) -> bool {
            other.iter().all(|(lt, demand)| {
                m.get(lt)
                    .map(|have| have.dominates(demand))
                    .unwrap_or_else(|| demand.is_empty())
            })
        }

        pub fn truncate_before(m: &mut Model, t: TimePoint) {
            for p in m.values_mut() {
                p.truncate_before(t);
            }
            m.retain(|_, p| !p.is_empty());
        }
    }

    /// One of five located types: nodes and links, so both variants'
    /// order shows.
    fn located(i: u8) -> LocatedType {
        match i % 5 {
            4 => net("l1", "l0"),
            3 => net("l0", "l1"),
            n => cpu(&format!("l{n}")),
        }
    }

    fn arb_terms() -> impl proptest::strategy::Strategy<Value = Vec<ResourceTerm>> {
        use proptest::prelude::*;
        proptest::collection::vec((0u8..5, 0u64..16, 1u64..6, 0u64..5), 0..6).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(l, s, len, r)| term(located(l), r, s, s + len))
                .collect()
        })
    }

    /// An operation of the set, with its operands.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(ResourceTerm),
        FromTerms(Vec<ResourceTerm>),
        AddSet(Vec<ResourceTerm>),
        SubtractSet(Vec<ResourceTerm>),
        Consume(u8, TimeInterval, Rate),
        ExcludeSupport(Vec<ResourceTerm>),
        ExcludeSupportWithin(Vec<ResourceTerm>, Vec<u8>, TimeInterval),
        Restrict(u8),
        Clamp(TimeInterval),
        TruncateBefore(TimePoint),
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let window = (0u64..18, 1u64..8).prop_map(|(s, len)| iv(s, s + len));
        prop_oneof![
            (0u8..5, 0u64..16, 1u64..6, 0u64..5).prop_map(|(l, s, len, r)| Op::Insert(term(
                located(l),
                r,
                s,
                s + len
            ))),
            arb_terms().prop_map(Op::FromTerms),
            arb_terms().prop_map(Op::AddSet),
            arb_terms().prop_map(Op::SubtractSet),
            (0u8..5, window.clone(), 0u64..4).prop_map(|(l, w, r)| Op::Consume(l, w, Rate::new(r))),
            arb_terms().prop_map(Op::ExcludeSupport),
            (
                arb_terms(),
                proptest::collection::vec(0u8..5, 0..4),
                window.clone()
            )
                .prop_map(|(terms, types, w)| Op::ExcludeSupportWithin(terms, types, w)),
            (0u8..32).prop_map(Op::Restrict),
            window.prop_map(Op::Clamp),
            (0u64..20).prop_map(|t| Op::TruncateBefore(TimePoint::new(t))),
        ]
    }

    /// Everything the set shows of itself equals the model's.
    fn assert_agrees(set: &ResourceSet, model: &model::Model) {
        assert!(set.profiles.iter().map(|(lt, p)| (lt, p)).eq(model.iter()));
        assert!(set.located_types().eq(model.keys()));
        let terms = model.iter().flat_map(|(lt, p)| {
            p.segments()
                .iter()
                .map(|(iv, r)| ResourceTerm::new(*r, *iv, lt.clone()))
        });
        assert!(set.to_terms().into_iter().eq(terms));
        assert_eq!(set.is_empty(), model.is_empty());
        assert_eq!(
            set.term_count(),
            model.values().map(|p| p.segments().len()).sum()
        );
        assert_eq!(
            set.horizon(),
            model.values().filter_map(|p| p.horizon()).max()
        );
        for i in 0..5 {
            let lt = located(i);
            let profile = model.get(&lt).cloned().unwrap_or_default();
            assert_eq!(set.profile(&lt), &profile);
            assert_eq!(set.supplies(&lt), !profile.is_empty());
            assert_eq!(
                set.rate_at(&lt, TimePoint::new(3)),
                profile.rate_at(TimePoint::new(3))
            );
            assert_eq!(
                set.quantity_over(&lt, &iv(2, 9)).unwrap(),
                profile.quantity_over(&iv(2, 9)).unwrap()
            );
        }
    }

    /// `ResourceSet::from_terms` beside the model's, which must agree.
    fn both(terms: &[ResourceTerm]) -> (ResourceSet, model::Model) {
        let set = ResourceSet::from_terms(terms.iter().cloned()).unwrap();
        let model = model::from_terms(terms).unwrap();
        assert_agrees(&set, &model);
        (set, model)
    }

    proptest::proptest! {
        /// Random operation sequences give the sorted-vector set the
        /// results, order, equality and errors of the `BTreeMap` it
        /// replaced.
        #[test]
        fn set_matches_its_btree_model(
            start in arb_terms(),
            ops in proptest::collection::vec(arb_op(), 0..12),
        ) {
            let (mut set, mut model) = both(&start);
            for op in ops {
                let (before, before_model) = (set.clone(), model.clone());
                match op {
                    Op::Insert(t) => {
                        proptest::prop_assert_eq!(set.insert(t.clone()), model::insert(&mut model, &t));
                    }
                    Op::FromTerms(terms) => (set, model) = both(&terms),
                    Op::AddSet(terms) => {
                        let (other, other_model) = both(&terms);
                        proptest::prop_assert_eq!(
                            set.add_set(&other),
                            model::splice(&mut model, &other_model, false)
                        );
                        proptest::prop_assert_eq!(set == other, model == other_model);
                    }
                    Op::SubtractSet(terms) => {
                        let (other, other_model) = both(&terms);
                        proptest::prop_assert_eq!(
                            set.subtract_set(&other),
                            model::splice(&mut model, &other_model, true)
                        );
                        proptest::prop_assert_eq!(set == other, model == other_model);
                    }
                    Op::Consume(l, window, rate) => {
                        proptest::prop_assert_eq!(
                            set.consume(&located(l), window, rate),
                            model::consume(&mut model, &located(l), window, rate)
                        );
                    }
                    Op::ExcludeSupport(terms) => {
                        let (claimed, claimed_model) = both(&terms);
                        let out = set.exclude_support(&claimed);
                        assert_agrees(&out, &model::exclude_support(&model, &claimed_model));
                    }
                    Op::ExcludeSupportWithin(terms, types, window) => {
                        let (claimed, claimed_model) = both(&terms);
                        let types: Vec<LocatedType> = types.into_iter().map(located).collect();
                        let out = set.exclude_support_within(&claimed, &types, &window);
                        let expected =
                            model::exclude_support_within(&model, &claimed_model, &types, &window);
                        assert_agrees(&out, &expected);
                    }
                    Op::Restrict(mask) => {
                        let keep = |lt: &LocatedType| (0..5).any(|i| mask >> i & 1 == 1 && *lt == located(i));
                        assert_agrees(&set.restrict(keep), &model::restrict(&model, keep));
                    }
                    Op::Clamp(window) => {
                        assert_agrees(&set.clamp(&window), &model::clamp(&model, &window));
                    }
                    Op::TruncateBefore(t) => {
                        set.truncate_before(t);
                        model::truncate_before(&mut model, t);
                    }
                }
                assert_agrees(&set, &model);
                proptest::prop_assert_eq!(set == before, model == before_model);
                proptest::prop_assert_eq!(
                    set.dominates(&before),
                    model::dominates(&model, &before_model)
                );
                proptest::prop_assert_eq!(
                    before.dominates(&set),
                    model::dominates(&before_model, &model)
                );
            }
        }
    }

    #[test]
    fn display_set_notation() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 3)].into_iter().collect();
        assert_eq!(theta.to_string(), "{[5]^(0,3)_⟨cpu, l1⟩}");
        assert_eq!(ResourceSet::new().to_string(), "{}");
    }
}
