//! Differential property sweep over the ROTA theorems.
//!
//! The admission service ([`RotaPolicy`]) and the logic layer
//! ([`rota::logic::theorems`], [`ModelChecker`]) implement the same
//! paper results through different code paths. These properties drive
//! randomized workloads through both and demand agreement in **both
//! directions of each iff**:
//!
//! * Theorem 3 (Meet Deadline): on an unloaded system, the policy
//!   admits a computation iff [`theorems::meets_deadline`] constructs a
//!   witness path — and the witness completes by the deadline.
//! * Theorem 4 (Accommodate Additional): under accumulated prior
//!   commitments, the policy admits iff
//!   [`theorems::accommodate_additional`] finds a schedule over the
//!   expiring resources.
//! * The model checker's `satisfy` atom agrees with the policy verdict
//!   on the same state.
//! * Soundness end to end: everything the policy admits completes with
//!   no deadline misses when the controller executes greedily.

use proptest::prelude::*;
use rota::logic::theorems;
use rota::prelude::*;

/// All generated jobs live inside `(0, HORIZON)`; resources are offered
/// over the full horizon.
const HORIZON: u64 = 48;
const NODES: u8 = 3;

#[derive(Debug, Clone)]
struct Job {
    node: u8,
    evals: Vec<u64>,
    start: u64,
    duration: u64,
}

fn arb_job() -> impl Strategy<Value = Job> {
    (
        0u8..NODES,
        proptest::collection::vec(1u64..6, 1..4),
        0u64..8,
        1u64..24,
    )
        .prop_map(|(node, evals, start, duration)| Job {
            node,
            evals,
            start,
            duration,
        })
}

/// Per-node CPU rates; each node offers its rate over the whole horizon.
fn arb_theta() -> impl Strategy<Value = ResourceSet> {
    proptest::collection::vec(1u64..5, 3usize..4).prop_map(|rates| {
        rates
            .into_iter()
            .enumerate()
            .map(|(node, rate)| {
                ResourceTerm::new(
                    Rate::new(rate),
                    TimeInterval::from_ticks(0, HORIZON).expect("HORIZON > 0"),
                    LocatedType::cpu(Location::new(format!("l{node}"))),
                )
            })
            .collect::<ResourceSet>()
    })
}

fn computation(job: &Job, index: usize) -> DistributedComputation {
    let mut gamma = ActorComputation::new(format!("actor{index}"), format!("l{}", job.node));
    for &units in &job.evals {
        gamma = gamma.then(ActionKind::evaluate_units(units));
    }
    DistributedComputation::single(
        format!("job{index}"),
        gamma,
        TimePoint::new(job.start),
        TimePoint::new(job.start + job.duration),
    )
    .expect("duration >= 1 by construction")
}

fn to_request(job: &Job, index: usize) -> AdmissionRequest {
    AdmissionRequest::price(
        computation(job, index),
        &TableCostModel::paper(),
        Granularity::MaximalRun,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3, both directions: policy accept on an empty state
    /// ⇔ a deadline witness exists; the witness completes on time and
    /// drains its requirement.
    #[test]
    fn meet_deadline_iff_policy_accepts_on_empty_state(
        theta in arb_theta(),
        jobs in proptest::collection::vec(arb_job(), 1..8),
    ) {
        for (index, job) in jobs.iter().enumerate() {
            let request = to_request(job, index);
            let state = State::new(theta.clone(), TimePoint::ZERO);
            let accepted = RotaPolicy.decide(&state, &request).is_accept();
            let part = request.requirement().parts()[0].clone();
            let actor = ActorName::new(format!("actor{index}"));
            let witness = theorems::meets_deadline(&theta, &actor, &part, TimePoint::ZERO);
            prop_assert_eq!(
                accepted,
                witness.is_some(),
                "job {}: policy and Theorem 3 disagree ({:?})",
                index,
                job
            );
            if let Some(witness) = witness {
                prop_assert!(witness.completion() <= TimePoint::new(job.start + job.duration));
                prop_assert!(witness.path().current().rho().is_empty());
            }
        }
    }

    /// Theorem 4, both directions, under accumulated load: at every
    /// step the policy verdict matches `accommodate_additional` on the
    /// identical state, and accepted work is folded into the state so
    /// later verdicts face real contention (rejections do occur).
    #[test]
    fn accommodate_additional_iff_policy_accepts_under_load(
        theta in arb_theta(),
        jobs in proptest::collection::vec(arb_job(), 1..10),
    ) {
        let mut state = State::new(theta, TimePoint::ZERO);
        for (index, job) in jobs.iter().enumerate() {
            let request = to_request(job, index);
            let accepted = RotaPolicy.decide(&state, &request).is_accept();
            let part = request.requirement().parts()[0].clone();
            let actor = ActorName::new(format!("actor{index}"));
            let admission = theorems::accommodate_additional(&state, &actor, &part);
            prop_assert_eq!(
                accepted,
                admission.is_ok(),
                "job {}: policy and Theorem 4 disagree ({:?})",
                index,
                job
            );
            if let Ok(admission) = admission {
                state = admission.into_state();
            }
        }
    }

    /// The model checker's `satisfy` atom is the policy verdict
    /// expressed as a formula: both reduce to Theorem 2 scheduling over
    /// the expiring resources, so they must agree on every state.
    #[test]
    fn model_checker_satisfy_agrees_with_policy(
        theta in arb_theta(),
        jobs in proptest::collection::vec(arb_job(), 1..8),
    ) {
        let checker = ModelChecker::greedy(16);
        for (index, job) in jobs.iter().enumerate() {
            let request = to_request(job, index);
            let state = State::new(theta.clone(), TimePoint::ZERO);
            let formula = Formula::SatisfyConcurrent(request.requirement().clone());
            prop_assert_eq!(
                checker.holds(&state, &formula),
                RotaPolicy.decide(&state, &request).is_accept(),
                "job {}: model checker and policy disagree ({:?})",
                index,
                job
            );
        }
    }

    /// Soundness: everything the controller admits under ROTA completes
    /// greedily with zero deadline misses — the operational reading of
    /// Theorems 3 + 4 combined.
    #[test]
    fn every_accepted_job_completes_before_its_deadline(
        theta in arb_theta(),
        jobs in proptest::collection::vec(arb_job(), 1..10),
    ) {
        let mut controller = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
        let phi = TableCostModel::paper();
        let mut accepted = 0u64;
        for (index, job) in jobs.iter().enumerate() {
            let request = AdmissionRequest::price(
                computation(job, index),
                &phi,
                Granularity::MaximalRun,
            );
            accepted += u64::from(controller.submit(&request).is_accept());
        }
        controller.run_until(TimePoint::new(HORIZON));
        let stats = controller.stats();
        prop_assert_eq!(stats.accepted, accepted);
        prop_assert_eq!(stats.missed, 0, "an admitted job missed its deadline");
        prop_assert_eq!(stats.completed, accepted, "an admitted job never completed");
    }
}

/// The differential oracle only means something if the generated
/// distribution exercises both verdicts: a starved node must reject,
/// a generous one must accept.
#[test]
fn generators_exercise_both_verdicts() {
    let theta: ResourceSet = [ResourceTerm::new(
        Rate::new(1),
        TimeInterval::from_ticks(0, HORIZON).expect("horizon"),
        LocatedType::cpu(Location::new("l0")),
    )]
    .into_iter()
    .collect();
    let state = State::new(theta, TimePoint::ZERO);
    let cheap = Job {
        node: 0,
        evals: vec![1],
        start: 0,
        duration: 20,
    };
    let greedy = Job {
        node: 0,
        evals: vec![5, 5, 5],
        start: 0,
        duration: 2,
    };
    assert!(RotaPolicy
        .decide(&state, &to_request(&cheap, 0))
        .is_accept());
    assert!(!RotaPolicy
        .decide(&state, &to_request(&greedy, 1))
        .is_accept());
}
