//! Resource sets `Θ` — collections of resource terms over many located
//! types, kept in the paper's simplified (aggregated) normal form.

use core::fmt;
use std::collections::BTreeMap;

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
    pub fn profile(&self, located: &LocatedType) -> &ResourceProfile {
        static EMPTY: ResourceProfile = ResourceProfile::new();
        self.profiles.get(located).unwrap_or(&EMPTY)
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

    /// In-place union `Θ₁ := Θ₁ ∪ Θ₂`: per located type of `other`, only
    /// the segments its span overlaps or meets are recomputed and spliced
    /// in; every other segment and type is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceSetError::Overflow`] on rate overflow; `self` is
    /// unchanged on error.
    pub fn add_set(&mut self, other: &ResourceSet) -> Result<(), ResourceSetError> {
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
    /// applied.
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
            patches.push((lt, patch(lt, self.profile(lt), theirs)?));
        }
        for (lt, patch) in patches {
            match self.profiles.get_mut(lt) {
                Some(profile) => {
                    profile.apply(patch);
                    if profile.is_empty() {
                        self.profiles.remove(lt);
                    }
                }
                None => {
                    let mut profile = ResourceProfile::new();
                    profile.apply(patch);
                    self.keep(lt, profile);
                }
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
        let consumed = profile.subtract(window, rate);
        if profile.is_empty() {
            self.profiles.remove(located);
        }
        consumed
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
        let mut out = ResourceSet::new();
        for (lt, p) in &self.profiles {
            if let Some(extent) = p.extent() {
                out.keep(lt, p.exclude_within(claimed.profile(lt), &extent));
            }
        }
        out
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
            if let Some(p) = self.profiles.get(lt) {
                out.keep(lt, p.exclude_within(claimed.profile(lt), window));
            }
        }
        out
    }

    /// The part of the set on the located types `keep` accepts, every
    /// interval kept.
    #[must_use]
    pub fn restrict(&self, keep: impl Fn(&LocatedType) -> bool) -> ResourceSet {
        let mut out = ResourceSet::new();
        for (lt, p) in &self.profiles {
            if keep(lt) {
                out.keep(lt, p.clone());
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
            out.keep(lt, p.clamp(window));
        }
        out
    }

    /// Stores `profile` for `located` unless it is empty.
    fn keep(&mut self, located: &LocatedType, profile: ResourceProfile) {
        if !profile.is_empty() {
            self.profiles.insert(located.clone(), profile);
        }
    }

    /// Expires everything before `t` (the expiration rules' effect of
    /// advancing time).
    pub fn truncate_before(&mut self, t: TimePoint) {
        for p in self.profiles.values_mut() {
            p.truncate_before(t);
        }
        self.prune();
    }

    /// The latest instant with any availability.
    pub fn horizon(&self) -> Option<TimePoint> {
        self.profiles
            .values()
            .filter_map(ResourceProfile::horizon)
            .max()
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
            let have = ours.profiles.get(lt).map(|p| p.segments()).unwrap_or(&[]);
            let segments =
                crate::profile::zip(have, p.segments(), &op).map_err(|e| error(lt, e))?;
            let terms = segments
                .iter()
                .map(|(iv, r)| ResourceTerm::new(*r, *iv, lt.clone()));
            out.profiles.remove(lt);
            out.profiles
                .extend(ResourceSet::from_terms(terms)?.profiles);
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

    #[test]
    fn display_set_notation() {
        let theta: ResourceSet = [term(cpu("l1"), 5, 0, 3)].into_iter().collect();
        assert_eq!(theta.to_string(), "{[5]^(0,3)_⟨cpu, l1⟩}");
        assert_eq!(ResourceSet::new().to_string(), "{}");
    }
}
