//! Property-based tests for computation representation.

use proptest::prelude::*;
use rota_actor::{
    segment_demands, ActionKind, ActorComputation, ComplexRequirement, Granularity, ResourceDemand,
    SimpleRequirement, TableCostModel,
};
use rota_interval::TimeInterval;
use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};

fn arb_action() -> impl Strategy<Value = ActionKind> {
    prop_oneof![
        (0u8..3).prop_map(|i| ActionKind::send("peer", Location::new(format!("l{i}")))),
        (1u64..16).prop_map(ActionKind::evaluate_units),
        Just(ActionKind::evaluate()),
        Just(ActionKind::create("child")),
        Just(ActionKind::Ready),
        (0u8..3).prop_map(|i| ActionKind::migrate(Location::new(format!("l{i}")))),
    ]
}

fn arb_computation() -> impl Strategy<Value = ActorComputation> {
    proptest::collection::vec(arb_action(), 0..12).prop_map(|actions| {
        let mut gamma = ActorComputation::new("a1", "l0");
        for a in actions {
            gamma.push(a);
        }
        gamma
    })
}

proptest! {
    /// Segmentation preserves the aggregate demand at any granularity.
    #[test]
    fn segmentation_preserves_totals(gamma in arb_computation()) {
        let phi = TableCostModel::paper();
        let demands = gamma.action_demands(&phi);
        for g in [Granularity::PerAction, Granularity::MaximalRun] {
            let segs = segment_demands(demands.clone(), g);
            let mut total = ResourceDemand::new();
            for s in &segs {
                total.merge(s);
            }
            prop_assert_eq!(&total, &gamma.total_demand(&phi));
        }
    }

    /// Maximal-run segmentation never produces more segments than
    /// per-action, and every merged segment is single-typed.
    #[test]
    fn maximal_run_is_coarser(gamma in arb_computation()) {
        let phi = TableCostModel::paper();
        let demands = gamma.action_demands(&phi);
        let fine = segment_demands(demands.clone(), Granularity::PerAction);
        let coarse = segment_demands(demands, Granularity::MaximalRun);
        prop_assert!(coarse.len() <= fine.len());
        // no two consecutive coarse segments share the same sole type
        for w in coarse.windows(2) {
            if let (Some(a), Some(b)) = (w[0].sole_located_type(), w[1].sole_located_type()) {
                prop_assert_ne!(a, b);
            }
        }
    }

    /// Locations are origin until the first migrate, and every location
    /// change is justified by a migrate action.
    #[test]
    fn location_threading(gamma in arb_computation()) {
        let locs = gamma.locations();
        prop_assert_eq!(locs.len(), gamma.len());
        let mut here = gamma.origin().clone();
        for (action, loc) in gamma.actions().iter().zip(&locs) {
            prop_assert_eq!(loc, &here);
            if let Some(dest) = action.migration_target() {
                here = dest.clone();
            }
        }
        prop_assert_eq!(gamma.final_location(), here);
    }

    /// Progress walks every action exactly once, in order.
    #[test]
    fn progress_walks_in_order(gamma in arb_computation()) {
        let mut p = gamma.progress();
        let mut walked = 0usize;
        while let Some((idx, action)) = p.possible_action() {
            prop_assert_eq!(idx, walked);
            prop_assert_eq!(action, &gamma.actions()[idx]);
            prop_assert!(p.is_possible(idx));
            prop_assert!(!p.is_possible(idx + 1));
            p.complete_next();
            walked += 1;
        }
        prop_assert_eq!(walked, gamma.len());
        prop_assert!(p.is_complete());
    }

    /// f(Θ, ρ) is monotone in Θ: adding resources never unsatisfies a
    /// simple requirement.
    #[test]
    fn satisfaction_monotone(
        q in 1u64..40,
        base_rate in 0u64..12,
        extra_rate in 0u64..12,
    ) {
        let lt = LocatedType::cpu(Location::new("l1"));
        let window = TimeInterval::from_ticks(0, 6).unwrap();
        let rho = SimpleRequirement::new(
            ResourceDemand::single(lt.clone(), Quantity::new(q)),
            window,
        );
        let base = ResourceSet::from_terms(
            (base_rate > 0).then(|| ResourceTerm::new(Rate::new(base_rate), window, lt.clone())),
        ).unwrap();
        let mut bigger = base.clone();
        if extra_rate > 0 {
            bigger.insert(ResourceTerm::new(Rate::new(extra_rate), window, lt)).unwrap();
        }
        if rho.satisfied_by(&base) {
            prop_assert!(rho.satisfied_by(&bigger));
        }
    }

    /// The complex requirement's induced simple requirement is exactly the
    /// total demand over the window.
    #[test]
    fn complex_as_simple_totals(gamma in arb_computation()) {
        let phi = TableCostModel::paper();
        let window = TimeInterval::from_ticks(0, 100).unwrap();
        let complex = ComplexRequirement::of_actor(&gamma, &phi, window, Granularity::MaximalRun);
        let simple = complex.as_simple();
        prop_assert_eq!(simple.demand(), &gamma.total_demand(&phi));
        prop_assert_eq!(simple.window(), window);
    }
}
