//! Property-based tests for resource terms, profiles and sets.

use proptest::prelude::*;
use rota_interval::{IntervalSet, TimeInterval, TimePoint};
use rota_resource::{LocatedType, Location, Rate, ResourceProfile, ResourceSet, ResourceTerm};

const MAX_TICK: u64 = 24;

fn arb_interval() -> impl Strategy<Value = TimeInterval> {
    (0..MAX_TICK).prop_flat_map(|s| {
        ((s + 1)..=MAX_TICK).prop_map(move |e| TimeInterval::from_ticks(s, e).expect("s < e"))
    })
}

fn arb_located() -> impl Strategy<Value = LocatedType> {
    prop_oneof![
        (0u8..3).prop_map(|i| LocatedType::cpu(Location::new(format!("l{i}")))),
        (0u8..2).prop_map(|i| LocatedType::memory(Location::new(format!("l{i}")))),
        Just(LocatedType::network(
            Location::new("l0"),
            Location::new("l1")
        )),
    ]
}

fn arb_term() -> impl Strategy<Value = ResourceTerm> {
    (arb_located(), arb_interval(), 1u64..20)
        .prop_map(|(lt, iv, r)| ResourceTerm::new(Rate::new(r), iv, lt))
}

fn arb_terms(max: usize) -> impl Strategy<Value = Vec<ResourceTerm>> {
    proptest::collection::vec(arb_term(), 0..max)
}

fn arb_profile() -> impl Strategy<Value = ResourceProfile> {
    proptest::collection::vec((arb_interval(), 1u64..20), 0..6).prop_map(|parts| {
        let mut p = ResourceProfile::new();
        for (iv, r) in parts {
            p.add(iv, Rate::new(r))
                .expect("small rates cannot overflow");
        }
        p
    })
}

/// Semantic view of a set: rate per (located type, tick).
fn rate_everywhere(set: &ResourceSet) -> Vec<(LocatedType, u64, u64)> {
    let mut out = Vec::new();
    let types: Vec<LocatedType> = set.located_types().cloned().collect();
    for lt in types {
        for t in 0..=MAX_TICK {
            let r = set.rate_at(&lt, TimePoint::new(t)).units_per_tick();
            if r > 0 {
                out.push((lt.clone(), t, r));
            }
        }
    }
    out
}

proptest! {
    /// Building a set is order-insensitive: same terms, any order, same
    /// canonical form. (Simplification is canonical.)
    #[test]
    fn set_construction_is_order_insensitive(terms in arb_terms(8)) {
        let forward = ResourceSet::from_terms(terms.clone()).unwrap();
        let mut shuffled = terms;
        shuffled.reverse();
        let backward = ResourceSet::from_terms(shuffled).unwrap();
        prop_assert_eq!(forward, backward);
    }

    /// to_terms() roundtrips: rebuilding from the canonical decomposition
    /// reproduces the set exactly.
    #[test]
    fn to_terms_roundtrip(terms in arb_terms(8)) {
        let set = ResourceSet::from_terms(terms).unwrap();
        let rebuilt = ResourceSet::from_terms(set.to_terms()).unwrap();
        prop_assert_eq!(set, rebuilt);
    }

    /// Union is pointwise rate addition.
    #[test]
    fn union_is_pointwise_sum(a in arb_terms(5), b in arb_terms(5)) {
        let sa = ResourceSet::from_terms(a).unwrap();
        let sb = ResourceSet::from_terms(b).unwrap();
        let u = sa.union(&sb).unwrap();
        for (lt, t, r) in rate_everywhere(&u) {
            let expect = sa.rate_at(&lt, TimePoint::new(t)).units_per_tick()
                + sb.rate_at(&lt, TimePoint::new(t)).units_per_tick();
            prop_assert_eq!(r, expect);
        }
        // and commutative
        prop_assert_eq!(u, sb.union(&sa).unwrap());
    }

    /// Whenever the relative complement is defined,
    /// (Θ₁ \ Θ₂) ∪ Θ₂ == Θ₁; when undefined, dominance indeed fails.
    #[test]
    fn complement_inverts_union(a in arb_terms(6), b in arb_terms(3)) {
        let theta = ResourceSet::from_terms(a).unwrap();
        let demand = ResourceSet::from_terms(b).unwrap();
        match theta.relative_complement(&demand) {
            Ok(rest) => {
                prop_assert!(theta.dominates(&demand));
                prop_assert_eq!(rest.union(&demand).unwrap(), theta);
            }
            Err(_) => prop_assert!(!theta.dominates(&demand)),
        }
    }

    /// quantity_over equals the tick-by-tick sum of rates.
    #[test]
    fn quantity_is_tickwise_sum(terms in arb_terms(6), win in arb_interval(), lt in arb_located()) {
        let set = ResourceSet::from_terms(terms).unwrap();
        let q = set.quantity_over(&lt, &win).unwrap().units();
        let manual: u64 = win
            .ticks()
            .map(|t| set.rate_at(&lt, t).units_per_tick())
            .sum();
        prop_assert_eq!(q, manual);
    }

    /// clamp restricts support without changing in-window rates.
    #[test]
    fn clamp_preserves_in_window(terms in arb_terms(6), win in arb_interval(), lt in arb_located()) {
        let set = ResourceSet::from_terms(terms).unwrap();
        let clamped = set.clamp(&win);
        for t in 0..=MAX_TICK {
            let tp = TimePoint::new(t);
            let expect = if win.contains_tick(tp) {
                set.rate_at(&lt, tp)
            } else {
                Rate::ZERO
            };
            prop_assert_eq!(clamped.rate_at(&lt, tp), expect);
        }
    }

    /// truncate_before zeroes history and keeps the future.
    #[test]
    fn truncate_semantics(terms in arb_terms(6), cut in 0..=MAX_TICK, lt in arb_located()) {
        let set = ResourceSet::from_terms(terms).unwrap();
        let mut cut_set = set.clone();
        cut_set.truncate_before(TimePoint::new(cut));
        for t in 0..=MAX_TICK {
            let tp = TimePoint::new(t);
            let expect = if t >= cut { set.rate_at(&lt, tp) } else { Rate::ZERO };
            prop_assert_eq!(cut_set.rate_at(&lt, tp), expect);
        }
    }

    /// Profile dominance matches pointwise comparison.
    #[test]
    fn dominance_is_pointwise(p in arb_profile(), q in arb_profile()) {
        let pointwise = (0..=MAX_TICK).all(|t| {
            p.rate_at(TimePoint::new(t)) >= q.rate_at(TimePoint::new(t))
        });
        prop_assert_eq!(p.dominates(&q), pointwise);
    }

    /// min_rate_over is the minimum of rate_at across the window.
    #[test]
    fn min_rate_matches_pointwise(p in arb_profile(), win in arb_interval()) {
        let manual = win
            .ticks()
            .map(|t| p.rate_at(t).units_per_tick())
            .min()
            .expect("non-empty interval");
        prop_assert_eq!(p.min_rate_over(&win).units_per_tick(), manual);
    }

    /// Consuming then re-adding restores the profile (within a dominated
    /// window).
    #[test]
    fn consume_restore_roundtrip(win in arb_interval(), base in 1u64..20, bite in 1u64..20) {
        let lt = LocatedType::cpu(Location::new("l1"));
        let mut set = ResourceSet::from_terms(
            [ResourceTerm::new(Rate::new(base.max(bite)), TimeInterval::from_ticks(0, MAX_TICK).unwrap(), lt.clone())],
        ).unwrap();
        let original = set.clone();
        set.consume(&lt, win, Rate::new(bite.min(base))).unwrap();
        set.insert(ResourceTerm::new(Rate::new(bite.min(base)), win, lt)).unwrap();
        prop_assert_eq!(set, original);
    }

    /// `support` is exactly the ticks with non-zero rate.
    #[test]
    fn support_matches_tickwise_reference(p in arb_profile()) {
        let reference: IntervalSet = (0..=MAX_TICK)
            .map(TimePoint::new)
            .filter(|&t| !p.rate_at(t).is_zero())
            .map(TimeInterval::tick)
            .collect();
        prop_assert_eq!(p.support(), reference);
    }

    /// `exclude_within` keeps exactly the ticks of the window that the
    /// claimed profile does not supply, in canonical form.
    #[test]
    fn exclude_matches_tickwise_reference(
        p in arb_profile(),
        claimed in arb_profile(),
        window in arb_interval(),
    ) {
        let mut reference = ResourceProfile::new();
        for t in (0..=MAX_TICK).map(TimePoint::new) {
            if window.contains_tick(t) && claimed.rate_at(t).is_zero() {
                reference.add(TimeInterval::tick(t), p.rate_at(t)).unwrap();
            }
        }
        prop_assert_eq!(p.exclude_within(&claimed, &window), reference);
    }

    /// In-place `add_set` / `subtract_set` agree with `union` /
    /// `relative_complement` and are exact inverses.
    #[test]
    fn in_place_add_subtract_roundtrip(a in arb_terms(6), b in arb_terms(4)) {
        let a = ResourceSet::from_terms(a).unwrap();
        let b = ResourceSet::from_terms(b).unwrap();
        let mut sum = a.clone();
        sum.add_set(&b).unwrap();
        prop_assert_eq!(&sum, &a.union(&b).unwrap());
        let mut back = sum.clone();
        back.subtract_set(&b).unwrap();
        prop_assert_eq!(&back, &a);
        prop_assert_eq!(&back, &sum.relative_complement(&b).unwrap());
        // A failed subtraction leaves the set untouched.
        let mut untouched = a.clone();
        if untouched.subtract_set(&sum).is_err() {
            prop_assert_eq!(untouched, a);
        }
    }

    /// `exclude_support` drops exactly the claimed ticks of each type, and
    /// the restricted exclusion is it with every other located type
    /// dropped, clamped to the window.
    #[test]
    fn exclude_support_within_restricts(
        theta in arb_terms(8),
        claimed in arb_terms(5),
        wanted in proptest::collection::vec(arb_located(), 0..3),
        window in arb_interval(),
    ) {
        let theta = ResourceSet::from_terms(theta).unwrap();
        let claimed = ResourceSet::from_terms(claimed).unwrap();
        let full = theta.exclude_support(&claimed);
        let mut tickwise = ResourceSet::new();
        for lt in theta.located_types() {
            for t in (0..=MAX_TICK).map(TimePoint::new) {
                if claimed.rate_at(lt, t).is_zero() {
                    let term = ResourceTerm::new(theta.rate_at(lt, t), TimeInterval::tick(t), lt.clone());
                    tickwise.insert(term).unwrap();
                }
            }
        }
        prop_assert_eq!(&full, &tickwise);
        let reference: ResourceSet = full
            .to_terms()
            .into_iter()
            .filter(|t| wanted.contains(t.located()))
            .collect();
        prop_assert_eq!(
            theta.exclude_support_within(&claimed, &wanted, &window),
            reference.clamp(&window)
        );
    }

    /// Term dominance (`exceeds`) is a strict partial order on same-typed
    /// terms: irreflexive and transitive.
    #[test]
    fn exceeds_is_strict_partial_order(a in arb_term(), b in arb_term(), c in arb_term()) {
        prop_assert!(!a.exceeds(&a));
        if a.exceeds(&b) && b.exceeds(&c) {
            prop_assert!(a.exceeds(&c));
        }
        if a.exceeds(&b) {
            prop_assert!(!b.exceeds(&a));
        }
    }
}
