//! Resource sets `Θ` — collections of resource terms over many located
//! types, kept in the paper's simplified (aggregated) normal form.

use core::fmt;
use std::collections::BTreeMap;

use rota_interval::{TimeInterval, TimePoint};

use crate::located::LocatedType;
use crate::profile::{InsufficientRateError, ResourceProfile};
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
    profiles: BTreeMap<LocatedType, ResourceProfile>,
}

impl ResourceSet {
    /// Creates the empty resource set.
    pub fn new() -> Self {
        ResourceSet {
            profiles: BTreeMap::new(),
        }
    }

    /// Builds a set from any collection of terms, simplifying: the terms
    /// are grouped by located type and each group is summed in one
    /// pass when sorted, by balanced pairwise merges otherwise, so `n`
    /// terms in any order cost O(n log n). The result equals inserting
    /// the terms one by one.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::Overflow`] if aggregated rates exceed
    /// `u64`.
    pub fn from_terms<I>(terms: I) -> Result<Self, ResourceSetError>
    where
        I: IntoIterator<Item = ResourceTerm>,
    {
        let mut groups: BTreeMap<LocatedType, Vec<(TimeInterval, Rate)>> = BTreeMap::new();
        for term in terms {
            if !term.is_null() {
                let group = groups.entry(term.located().clone()).or_default();
                group.push((term.interval(), term.rate()));
            }
        }
        let mut profiles = BTreeMap::new();
        for (located, segments) in groups {
            profiles.insert(located, ResourceProfile::from_segments(segments)?);
        }
        Ok(ResourceSet { profiles })
    }

    /// Whether the set holds no resource at all.
    pub fn is_empty(&self) -> bool {
        self.profiles.values().all(ResourceProfile::is_empty)
    }

    /// The located types with any availability, in order.
    pub fn located_types(&self) -> impl Iterator<Item = &LocatedType> {
        self.profiles
            .iter()
            .filter(|(_, p)| !p.is_empty())
            .map(|(lt, _)| lt)
    }

    /// The availability profile for `located` (empty profile if absent).
    pub fn profile(&self, located: &LocatedType) -> ResourceProfile {
        self.profiles.get(located).cloned().unwrap_or_default()
    }

    /// Whether any availability of `located` exists — `!profile(located).is_empty()`
    /// without cloning the profile.
    pub fn supplies(&self, located: &LocatedType) -> bool {
        self.profiles.get(located).is_some_and(|p| !p.is_empty())
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
        self.profiles
            .entry(term.located().clone())
            .or_default()
            .add(term.interval(), term.rate())?;
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

    /// In-place union `Θ₁ := Θ₁ ∪ Θ₂`: one sweep per located type of
    /// `other`, leaving every other type untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::Overflow`] on rate overflow; `self` is
    /// unchanged on error.
    pub fn add_set(&mut self, other: &ResourceSet) -> Result<(), ResourceSetError> {
        self.merge_with(other, |_, have, add| Ok(have.sum(add)?))
    }

    /// Relative complement `Θ₁ \ Θ₂`, defined (per the paper) only when
    /// every demanded term is dominated by availability.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::NotDominated`] describing the first
    /// shortfall when the complement is undefined; `self` is not modified
    /// (the operation is non-destructive).
    pub fn relative_complement(&self, other: &ResourceSet) -> Result<ResourceSet, ResourceSetError> {
        let mut out = self.clone();
        out.subtract_set(other)?;
        Ok(out)
    }

    /// In-place relative complement `Θ₁ := Θ₁ \ Θ₂`: one sweep per located
    /// type of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::NotDominated`] describing the first
    /// shortfall when `other` is not dominated; `self` is unchanged on
    /// error.
    pub fn subtract_set(&mut self, other: &ResourceSet) -> Result<(), ResourceSetError> {
        self.merge_with(other, |located, have, sub| {
            have.difference(sub)
                .map_err(|e| ResourceSetError::NotDominated {
                    located: located.clone(),
                    at: e.at(),
                    available: e.available(),
                    demanded: e.demanded(),
                })
        })
    }

    /// Replaces each profile of a type in `other` by `op(type, ours,
    /// theirs)`, all or nothing: every result is computed before any is
    /// stored.
    fn merge_with(
        &mut self,
        other: &ResourceSet,
        op: impl Fn(
            &LocatedType,
            &ResourceProfile,
            &ResourceProfile,
        ) -> Result<ResourceProfile, ResourceSetError>,
    ) -> Result<(), ResourceSetError> {
        let empty = ResourceProfile::new();
        let mut merged = Vec::with_capacity(other.profiles.len());
        for (lt, theirs) in &other.profiles {
            let ours = self.profiles.get(lt).unwrap_or(&empty);
            merged.push((lt, op(lt, ours, theirs)?));
        }
        for (lt, profile) in merged {
            if profile.is_empty() {
                self.profiles.remove(lt);
            } else {
                self.profiles.insert(lt.clone(), profile);
            }
        }
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
        let profile = self.profiles.entry(located.clone()).or_default();
        profile.subtract(window, rate)?;
        if profile.is_empty() {
            self.profiles.remove(located);
        }
        Ok(())
    }

    /// Rate of `located` available at tick `t`.
    pub fn rate_at(&self, located: &LocatedType, t: TimePoint) -> Rate {
        self.profiles
            .get(located)
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
            .profiles
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
        self.exclude_support_within(claimed, self.profiles.keys())
    }

    /// [`exclude_support`](ResourceSet::exclude_support) restricted to
    /// `types`: the result holds only those located types, and no other
    /// type's profile is read. With an empty `claimed` this is plain
    /// restriction to `types`.
    #[must_use]
    pub fn exclude_support_within<'a>(
        &self,
        claimed: &ResourceSet,
        types: impl IntoIterator<Item = &'a LocatedType>,
    ) -> ResourceSet {
        let mut out = ResourceSet::new();
        for lt in types {
            let Some(p) = self.profiles.get(lt) else {
                continue;
            };
            let trimmed = match claimed.profiles.get(lt) {
                Some(c) => p.exclude(&c.support()),
                None => p.clone(),
            };
            if !trimmed.is_empty() {
                out.profiles.insert(lt.clone(), trimmed);
            }
        }
        out
    }

    /// Restricts the whole set to `window` — "the union of all resources
    /// in Θ which exist in the interval (s, d)".
    #[must_use]
    pub fn clamp(&self, window: &TimeInterval) -> ResourceSet {
        let mut out = ResourceSet::new();
        for (lt, p) in &self.profiles {
            let clamped = p.clamp(window);
            if !clamped.is_empty() {
                out.profiles.insert(lt.clone(), clamped);
            }
        }
        out
    }

    /// Expires everything before `t` (the expiration rules' effect of
    /// advancing time).
    pub fn truncate_before(&mut self, t: TimePoint) {
        for p in self.profiles.values_mut() {
            p.truncate_before(t);
        }
        self.prune();
    }

    /// The resource available during `window` that the rest of the set's
    /// consumers do not need — everything here, clamped. Exposed as a
    /// building block for Θ_expire computations in the logic crate.
    #[must_use]
    pub fn expiring_within(&self, window: &TimeInterval) -> ResourceSet {
        self.clamp(window)
    }

    /// The latest instant with any availability.
    pub fn horizon(&self) -> Option<TimePoint> {
        self.profiles.values().filter_map(ResourceProfile::horizon).max()
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
        self.profiles.values().map(|p| p.segments().len()).sum()
    }

    /// Whether `self` pointwise dominates `other` for every located type.
    pub fn dominates(&self, other: &ResourceSet) -> bool {
        other.profiles.iter().all(|(lt, demand)| {
            self.profiles
                .get(lt)
                .map(|have| have.dominates(demand))
                .unwrap_or_else(|| demand.is_empty())
        })
    }

    fn prune(&mut self) {
        self.profiles.retain(|_, p| !p.is_empty());
    }
}

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
        let theta: ResourceSet = [
            term(cpu("l1"), 5, 0, 3),
            term(net("l1", "l2"), 5, 0, 5),
        ]
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
        assert_eq!(free.quantity_over(&cpu("l2"), &iv(0, 6)).unwrap(), Quantity::new(18));
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

    #[test]
    fn display_set_notation() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 3)].into_iter().collect();
        assert_eq!(theta.to_string(), "{[5]^(0,3)_⟨cpu, l1⟩}");
        assert_eq!(ResourceSet::new().to_string(), "{}");
    }
}
