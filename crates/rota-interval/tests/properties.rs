//! Property-based tests for the interval algebra substrate.

use proptest::prelude::*;
use rota_interval::{
    compose, compose_sets, AllenRelation, IntervalSet, RelationSet, TimeInterval, TimePoint,
    ALL_RELATIONS,
};

fn arb_interval(max: u64) -> impl Strategy<Value = TimeInterval> {
    (0..max).prop_flat_map(move |s| {
        ((s + 1)..=max).prop_map(move |e| TimeInterval::from_ticks(s, e).expect("s < e"))
    })
}

fn arb_relation_set() -> impl Strategy<Value = RelationSet> {
    (0u16..(1 << 13)).prop_map(RelationSet::from_bits)
}

fn arb_interval_set(max: u64) -> impl Strategy<Value = IntervalSet> {
    proptest::collection::vec(arb_interval(max), 0..8).prop_map(|ivs| ivs.into_iter().collect())
}

proptest! {
    /// Exactly one basic relation holds, and inversion mirrors argument
    /// swapping.
    #[test]
    fn relate_total_and_inverse(a in arb_interval(50), b in arb_interval(50)) {
        let r = AllenRelation::relate(&a, &b);
        prop_assert_eq!(r.inverse(), AllenRelation::relate(&b, &a));
        prop_assert_eq!(r.inverse().inverse(), r);
    }

    /// Composition soundness on arbitrary (large-domain) intervals: the
    /// actual a–c relation is always admitted by the composed constraint.
    #[test]
    fn composition_sound(
        a in arb_interval(60),
        b in arb_interval(60),
        c in arb_interval(60),
    ) {
        let ab = AllenRelation::relate(&a, &b);
        let bc = AllenRelation::relate(&b, &c);
        let ac = AllenRelation::relate(&a, &c);
        prop_assert!(compose(ab, bc).contains(ac));
    }

    /// compose_sets is monotone in both arguments.
    #[test]
    fn compose_sets_monotone(s1 in arb_relation_set(), s2 in arb_relation_set(), r in 0usize..13) {
        let extra = ALL_RELATIONS[r];
        let wider = compose_sets(s1.with(extra), s2);
        prop_assert!(compose_sets(s1, s2).is_subset(wider));
        let wider2 = compose_sets(s1, s2.with(extra));
        prop_assert!(compose_sets(s1, s2).is_subset(wider2));
    }

    /// RelationSet converse is involutive and distributes over union.
    #[test]
    fn relation_set_converse_laws(s1 in arb_relation_set(), s2 in arb_relation_set()) {
        prop_assert_eq!(s1.converse().converse(), s1);
        prop_assert_eq!(
            s1.union(s2).converse(),
            s1.converse().union(s2.converse())
        );
    }

    /// Interval intersection is the tick-wise conjunction.
    #[test]
    fn interval_intersection_semantics(a in arb_interval(40), b in arb_interval(40), t in 0u64..41) {
        let t = TimePoint::new(t);
        let both = a.contains_tick(t) && b.contains_tick(t);
        match a.intersect(&b) {
            Some(i) => prop_assert_eq!(i.contains_tick(t), both),
            None => prop_assert!(!both),
        }
    }

    /// IntervalSet operations agree with per-tick boolean semantics.
    #[test]
    fn interval_set_boolean_semantics(
        a in arb_interval_set(30),
        b in arb_interval_set(30),
        t in 0u64..31,
    ) {
        let t = TimePoint::new(t);
        prop_assert_eq!(
            a.union(&b).contains_tick(t),
            a.contains_tick(t) || b.contains_tick(t)
        );
        prop_assert_eq!(
            a.intersect(&b).contains_tick(t),
            a.contains_tick(t) && b.contains_tick(t)
        );
        prop_assert_eq!(
            a.difference(&b).contains_tick(t),
            a.contains_tick(t) && !b.contains_tick(t)
        );
    }

    /// IntervalSet normal form: sorted, disjoint, non-adjacent; and
    /// insertion order is irrelevant.
    #[test]
    fn interval_set_normal_form(ivs in proptest::collection::vec(arb_interval(30), 0..8)) {
        let forward: IntervalSet = ivs.clone().into_iter().collect();
        let mut reversed = ivs.clone();
        reversed.reverse();
        let backward: IntervalSet = reversed.into_iter().collect();
        prop_assert_eq!(&forward, &backward);
        for w in forward.spans().windows(2) {
            prop_assert!(w[0].end() < w[1].start());
        }
    }

    /// The one-sweep difference equals the tick-by-tick reference exactly,
    /// normal form included.
    #[test]
    fn difference_matches_tickwise_reference(
        a in arb_interval_set(40),
        b in arb_interval_set(40),
    ) {
        let reference: IntervalSet = a
            .ticks()
            .filter(|&t| !b.contains_tick(t))
            .map(TimeInterval::tick)
            .collect();
        prop_assert_eq!(a.difference(&b), reference);
    }

    /// Building from sorted intervals (the append path of `insert`) gives
    /// the same normal form as any other order.
    #[test]
    fn sorted_build_matches_any_order(ivs in proptest::collection::vec(arb_interval(30), 0..10)) {
        let mut sorted = ivs.clone();
        sorted.sort_by_key(|iv| (iv.start(), iv.end()));
        let from_sorted: IntervalSet = sorted.into_iter().collect();
        let tickwise: IntervalSet = ivs
            .iter()
            .flat_map(|iv| iv.ticks())
            .map(TimeInterval::tick)
            .collect();
        prop_assert_eq!(&from_sorted, &ivs.into_iter().collect::<IntervalSet>());
        prop_assert_eq!(from_sorted, tickwise);
    }

    /// (a \ b) ∪ (a ∩ b) == a — difference and intersection partition a set.
    #[test]
    fn difference_partitions(a in arb_interval_set(30), b in arb_interval_set(30)) {
        let rebuilt = a.difference(&b).union(&a.intersect(&b));
        prop_assert_eq!(rebuilt, a);
    }

    /// Total duration is additive across the partition by b.
    #[test]
    fn duration_additive(a in arb_interval_set(30), b in arb_interval_set(30)) {
        let d = a.difference(&b).total_duration().ticks()
            + a.intersect(&b).total_duration().ticks();
        prop_assert_eq!(d, a.total_duration().ticks());
    }
}
