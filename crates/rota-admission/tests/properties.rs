//! Property-based tests for admission control: accounting consistency,
//! policy soundness ordering, and controller robustness under random
//! request streams.

use proptest::prelude::*;
use rota_actor::{
    ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
};
use rota_admission::{
    AdmissionController, AdmissionPolicy, AdmissionRequest, Decision, ExecutionStrategy,
    GreedyEdfPolicy, NaiveTotalPolicy, OptimisticPolicy, RotaPolicy,
};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::State;
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};

const HORIZON: u64 = 24;

fn cpu(i: u8) -> LocatedType {
    LocatedType::cpu(Location::new(format!("l{i}")))
}

fn theta(rate: u64) -> ResourceSet {
    ResourceSet::from_terms((0..2u8).map(|i| {
        ResourceTerm::new(
            Rate::new(rate),
            TimeInterval::from_ticks(0, HORIZON).unwrap(),
            cpu(i),
        )
    }))
    .unwrap()
}

#[derive(Debug, Clone)]
struct Job {
    node: u8,
    evals: usize,
    start: u64,
    slack: u64,
}

fn arb_job() -> impl Strategy<Value = Job> {
    (0u8..2, 1usize..4, 0u64..HORIZON - 4, 2u64..16).prop_map(|(node, evals, start, slack)| Job {
        node,
        evals,
        start,
        slack,
    })
}

fn to_request(job: &Job, k: usize) -> AdmissionRequest {
    let mut gamma = ActorComputation::new(format!("j{k}-actor"), format!("l{}", job.node));
    for _ in 0..job.evals {
        gamma.push(ActionKind::evaluate());
    }
    let deadline = (job.start + job.slack).min(HORIZON).max(job.start + 1);
    AdmissionRequest::price(
        DistributedComputation::single(
            format!("j{k}"),
            gamma,
            TimePoint::new(job.start),
            TimePoint::new(deadline),
        )
        .unwrap(),
        &TableCostModel::paper(),
        Granularity::MaximalRun,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Controller accounting is conserved: every accepted request
    /// eventually resolves as completed, missed or withdrawn, and the
    /// counters are consistent at every tick.
    #[test]
    fn accounting_is_conserved(jobs in proptest::collection::vec(arb_job(), 0..12), rate in 1u64..6) {
        let mut ctl = AdmissionController::new(RotaPolicy, theta(rate), TimePoint::ZERO);
        for (k, job) in jobs.iter().enumerate() {
            let _ = ctl.submit(&to_request(job, k));
            let s = ctl.stats();
            prop_assert_eq!(s.accepted + s.rejected, (k + 1) as u64);
            prop_assert_eq!(
                s.completed + s.missed + s.withdrawn + ctl.in_flight() as u64,
                s.accepted
            );
        }
        ctl.run_until(TimePoint::new(HORIZON + 1));
        let s = ctl.stats();
        prop_assert_eq!(ctl.in_flight(), 0);
        prop_assert_eq!(s.completed + s.missed + s.withdrawn, s.accepted);
        // ROTA assurance, always:
        prop_assert_eq!(s.missed, 0);
    }

    /// ROTA acceptance implies EDF-simulated feasibility: anything ROTA
    /// admits, the (complete-for-closed-runs) EDF simulation also deems
    /// feasible at the same state.
    #[test]
    fn rota_accepts_only_edf_feasible(job in arb_job(), rate in 1u64..6) {
        let state = State::new(theta(rate), TimePoint::ZERO);
        let request = to_request(&job, 0);
        if RotaPolicy.decide(&state, &request).is_accept() {
            prop_assert!(
                GreedyEdfPolicy.decide(&state, &request).is_accept(),
                "ROTA admitted something EDF simulation rejects"
            );
        }
    }

    /// Optimistic accepts a superset of every policy's acceptances on a
    /// fresh state.
    #[test]
    fn optimistic_is_the_upper_bound(job in arb_job(), rate in 1u64..6) {
        let state = State::new(theta(rate), TimePoint::ZERO);
        let request = to_request(&job, 0);
        let optimistic = OptimisticPolicy.decide(&state, &request).is_accept();
        for policy in [
            &RotaPolicy as &dyn AdmissionPolicy,
            &NaiveTotalPolicy,
            &GreedyEdfPolicy,
        ] {
            if policy.decide(&state, &request).is_accept() {
                prop_assert!(optimistic, "{} accepted but optimistic refused", policy.name());
            }
        }
    }

    /// Decisions never mutate the state they were asked about.
    #[test]
    fn decide_is_pure(job in arb_job(), rate in 1u64..6) {
        let state = State::new(theta(rate), TimePoint::ZERO);
        let snapshot = state.clone();
        let request = to_request(&job, 0);
        for policy in [
            &RotaPolicy as &dyn AdmissionPolicy,
            &NaiveTotalPolicy,
            &OptimisticPolicy,
            &GreedyEdfPolicy,
        ] {
            let _ = policy.decide(&state, &request);
            prop_assert_eq!(&state, &snapshot, "{} mutated the state", policy.name());
        }
    }

    /// Cancel works exactly for not-yet-started admitted computations,
    /// and frees capacity for later admissions.
    #[test]
    fn cancel_respects_leave_guard(start in 2u64..10, rate in 2u64..6) {
        let mut ctl = AdmissionController::new(RotaPolicy, theta(rate), TimePoint::ZERO);
        let job = Job { node: 0, evals: 2, start, slack: 12 };
        let request = to_request(&job, 0);
        let actors = request.actor_names();
        if let Decision::Reject(_) = ctl.submit(&request) {
            return Ok(()); // infeasible at this rate; nothing to test
        }
        // before start: cancel succeeds
        let mut early = ctl.clone();
        prop_assert!(early.cancel(&actors));
        prop_assert_eq!(early.stats().withdrawn, 1);
        prop_assert_eq!(early.in_flight(), 0);
        // unknown computations never cancel
        prop_assert!(!early.cancel(&actors));
        // after start: cancel refuses
        ctl.run_until(TimePoint::new(start + 1));
        if ctl.in_flight() > 0 {
            prop_assert!(!ctl.cancel(&actors));
        }
    }

    /// Under any random request stream, running any policy to quiescence
    /// terminates and the EDF strategy never panics.
    #[test]
    fn controllers_terminate(jobs in proptest::collection::vec(arb_job(), 0..10)) {
        for strategy in [ExecutionStrategy::FirstEntitled, ExecutionStrategy::EarliestDeadline] {
            let mut ctl = AdmissionController::new(OptimisticPolicy, theta(3), TimePoint::ZERO)
                .with_strategy(strategy);
            for (k, job) in jobs.iter().enumerate() {
                let _ = ctl.submit(&to_request(job, k));
            }
            ctl.run_until(TimePoint::new(HORIZON + 1));
            prop_assert_eq!(ctl.in_flight(), 0);
        }
    }

    /// The demand a request carries is its requirement's total demand,
    /// at either granularity, for computations of several actors that
    /// evaluate, send and migrate across locations.
    #[test]
    fn carried_demand_is_the_total_demand(
        actors in proptest::collection::vec(
            (0u8..4, proptest::collection::vec((0u8..3, 0u8..4), 0..5)),
            0..4,
        ),
        per_action in any::<bool>(),
    ) {
        let actors = actors
            .into_iter()
            .enumerate()
            .map(|(k, (origin, actions))| {
                let mut gamma = ActorComputation::new(format!("a{k}"), format!("l{origin}"));
                for (kind, at) in actions {
                    gamma.push(match kind {
                        0 => ActionKind::evaluate(),
                        1 => ActionKind::send("peer", format!("l{at}").as_str()),
                        _ => ActionKind::migrate(format!("l{at}").as_str()),
                    });
                }
                gamma
            })
            .collect();
        let lambda =
            DistributedComputation::new("job", actors, TimePoint::ZERO, TimePoint::new(HORIZON))
                .unwrap();
        let granularity = if per_action {
            Granularity::PerAction
        } else {
            Granularity::MaximalRun
        };
        let request = AdmissionRequest::price(lambda, &TableCostModel::paper(), granularity);
        prop_assert_eq!(request.demand(), &request.requirement().total_demand());
    }
}
