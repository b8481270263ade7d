//! Integration tests for the paper's Section-VI future-work extensions:
//! interacting actors (workflows), migration-choice planning, and
//! CyberOrgs resource encapsulation.

use rota::logic::{choose_plan, schedule_workflow, PlanObjective, WorkflowRequirement};
use rota::prelude::*;

fn iv(s: u64, e: u64) -> TimeInterval {
    TimeInterval::from_ticks(s, e).unwrap()
}

fn cpu(l: &str) -> LocatedType {
    LocatedType::cpu(Location::new(l))
}

fn cpu_set(rate: u64, s: u64, e: u64, l: &str) -> ResourceSet {
    [ResourceTerm::new(Rate::new(rate), iv(s, e), cpu(l))]
        .into_iter()
        .collect()
}

/// A request-reply interaction: the "server" actor can only respond
/// after the "client" actor has computed and sent its request.
#[test]
fn workflow_request_reply_executes_in_order() {
    let phi = TableCostModel::paper();
    let window = iv(0, 32);
    let client = ActorComputation::new("client", "l1")
        .then(ActionKind::evaluate())
        .then(ActionKind::send("server", "l2"));
    let server = ActorComputation::new("server", "l2")
        .then(ActionKind::evaluate())
        .then(ActionKind::send("client", "l1"));
    let parts = vec![
        ComplexRequirement::of_actor(&client, &phi, window, Granularity::MaximalRun),
        ComplexRequirement::of_actor(&server, &phi, window, Granularity::MaximalRun),
    ];
    let wf = WorkflowRequirement::new(parts, vec![(0, 1)], window).unwrap();

    let theta: ResourceSet = [
        ResourceTerm::new(Rate::new(4), window, cpu("l1")),
        ResourceTerm::new(Rate::new(4), window, cpu("l2")),
        ResourceTerm::new(
            Rate::new(4),
            window,
            LocatedType::network(Location::new("l1"), Location::new("l2")),
        ),
        ResourceTerm::new(
            Rate::new(4),
            window,
            LocatedType::network(Location::new("l2"), Location::new("l1")),
        ),
    ]
    .into_iter()
    .collect();

    let schedules = schedule_workflow(&theta, &wf, TimePoint::ZERO).unwrap();
    // server starts only after the client's completion
    assert!(schedules[1].segments()[0].requirement().window().start() >= schedules[0].completion());

    // Install both commitments and execute: everything completes.
    let mut state = rota::logic::State::new(theta, TimePoint::ZERO);
    for (schedule, name) in schedules.into_iter().zip(["client", "server"]) {
        state
            .accommodate(schedule.into_commitment(ActorName::new(name), TimePoint::new(32)))
            .unwrap();
    }
    state.run_greedy(TimePoint::new(32));
    assert!(state.rho().is_empty());
    assert!(!state.any_late());
}

/// The paper's migrate-or-stay comparison, through the public planner
/// API, in a contended system.
#[test]
fn planner_picks_migration_exactly_when_it_helps() {
    let phi = TableCostModel::paper();
    let window = iv(0, 40);
    let a = ActorName::new("a1");
    let stay = ActorComputation::new("a1", "l1")
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate());
    let migrate = ActorComputation::new("a1", "l1")
        .then(ActionKind::migrate("l2"))
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate())
        .then(ActionKind::migrate("l1"));
    let alternatives = vec![
        ComplexRequirement::of_actor(&stay, &phi, window, Granularity::MaximalRun),
        ComplexRequirement::of_actor(&migrate, &phi, window, Granularity::MaximalRun),
    ];

    // Balanced system: staying avoids migration overhead.
    let theta = cpu_set(4, 0, 40, "l1")
        .union(&cpu_set(4, 0, 40, "l2"))
        .unwrap();
    let state = rota::logic::State::new(theta, TimePoint::ZERO);
    let choice = choose_plan(&state, &a, &alternatives, PlanObjective::EarliestCompletion)
        .expect("both feasible");
    assert_eq!(choice.index, 0);

    // Starved home node: migration wins despite its overhead.
    let theta = cpu_set(1, 0, 40, "l1")
        .union(&cpu_set(8, 0, 40, "l2"))
        .unwrap();
    let state = rota::logic::State::new(theta, TimePoint::ZERO);
    let choice = choose_plan(&state, &a, &alternatives, PlanObjective::EarliestCompletion)
        .expect("both feasible");
    assert_eq!(choice.index, 1);

    // Install the winner and verify it executes cleanly.
    let mut installed = choice.admission.into_state();
    installed.run_greedy(TimePoint::new(40));
    assert!(installed.rho().is_empty());
    assert!(!installed.any_late());
}

/// CyberOrgs end to end through the umbrella crate: multi-tenant
/// isolation with assurance inside each org.
#[test]
fn cyberorgs_multi_tenant_isolation() {
    let phi = TableCostModel::paper();
    let pool = cpu_set(8, 0, 64, "l1");
    let mut orgs = CyberOrgs::new("provider", pool, TimePoint::ZERO);
    orgs.create_org("provider", "tenant-a", cpu_set(4, 0, 64, "l1"))
        .unwrap();
    orgs.create_org("provider", "tenant-b", cpu_set(3, 0, 64, "l1"))
        .unwrap();

    let job = |name: &str, evals: usize| {
        let mut gamma = ActorComputation::new(format!("{name}-actor"), "l1");
        for _ in 0..evals {
            gamma.push(ActionKind::evaluate());
        }
        AdmissionRequest::price(
            DistributedComputation::single(name, gamma, TimePoint::ZERO, TimePoint::new(64))
                .unwrap(),
            &phi,
            Granularity::MaximalRun,
        )
    };

    // tenant-a's slice holds 256 units: 2 jobs of 128 fit, a third not.
    assert!(orgs.admit("tenant-a", &job("a1", 16)).unwrap().is_accept());
    assert!(orgs.admit("tenant-a", &job("a2", 16)).unwrap().is_accept());
    assert!(!orgs.admit("tenant-a", &job("a3", 16)).unwrap().is_accept());
    // tenant-b is unaffected by tenant-a's saturation
    assert!(orgs.admit("tenant-b", &job("b1", 16)).unwrap().is_accept());
    // and the provider's remaining 1/tick slice still admits small work
    assert!(orgs.admit("provider", &job("p1", 4)).unwrap().is_accept());

    orgs.run_until(TimePoint::new(64));
    assert_eq!(orgs.total_commitments(), 0);
    assert!(!orgs.any_late());
}

/// Orgs can be reorganized live — grants and dissolution — without
/// disturbing running work.
#[test]
fn cyberorgs_reorganization_preserves_assurance() {
    let phi = TableCostModel::paper();
    let pool = cpu_set(8, 0, 64, "l1");
    let mut orgs = CyberOrgs::new("provider", pool, TimePoint::ZERO);
    orgs.create_org("provider", "tenant", cpu_set(2, 0, 64, "l1"))
        .unwrap();
    let job = |name: &str, evals: usize| {
        let mut gamma = ActorComputation::new(format!("{name}-actor"), "l1");
        for _ in 0..evals {
            gamma.push(ActionKind::evaluate());
        }
        AdmissionRequest::price(
            DistributedComputation::single(name, gamma, TimePoint::ZERO, TimePoint::new(64))
                .unwrap(),
            &phi,
            Granularity::MaximalRun,
        )
    };
    // t1 reserves the tenant's first 32 ticks (64 units at 2/tick).
    assert!(orgs.admit("tenant", &job("t1", 8)).unwrap().is_accept());
    // t2 needs 128 units but only ticks (32,64) at 2/tick remain: refuse.
    assert!(!orgs.admit("tenant", &job("t2", 16)).unwrap().is_accept());
    // Grant more capacity mid-flight; the unreserved ticks now carry
    // 6/tick = 192 units, so the refused job fits.
    orgs.grant("provider", "tenant", cpu_set(4, 0, 64, "l1"))
        .unwrap();
    assert!(orgs.admit("tenant", &job("t2", 16)).unwrap().is_accept());
    orgs.run_until(TimePoint::new(64));
    assert!(!orgs.any_late());
    assert_eq!(orgs.total_commitments(), 0);
    // Idle tenant can now be dissolved; resources return to the provider.
    orgs.dissolve("tenant").unwrap();
    assert_eq!(orgs.len(), 1);
}
