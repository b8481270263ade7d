//! A multi-tenant provider built from the paper's future-work pieces:
//! CyberOrgs encapsulation for isolation, the plan chooser for
//! migrate-or-stay decisions, and a precedence workflow for an
//! interacting pipeline — all with per-tenant deadline assurance.
//!
//! Run with: `cargo run --example multi_tenant`

use rota::logic::{
    choose_plan, schedule_workflow, theorems, PlanObjective, State, WorkflowRequirement,
};
use rota::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iv = |s, e| TimeInterval::from_ticks(s, e).unwrap();
    let cpu = |l: &str| LocatedType::cpu(Location::new(l));
    let cpu_set = |rate: u64, l: &str| -> ResourceSet {
        [ResourceTerm::new(Rate::new(rate), iv(0, 64), cpu(l))]
            .into_iter()
            .collect()
    };
    let phi = TableCostModel::paper();

    // ── A provider with two nodes, carved into tenant orgs. ─────────────
    let pool = cpu_set(8, "l1").union(&cpu_set(8, "l2"))?;
    let mut orgs = CyberOrgs::new("provider", pool, TimePoint::ZERO);
    orgs.create_org(
        "provider",
        "acme",
        cpu_set(4, "l1").union(&cpu_set(2, "l2"))?,
    )?;
    orgs.create_org("provider", "globex", cpu_set(2, "l1"))?;
    println!("orgs         : {orgs}");

    // ── acme decides where to run a heavy job: stay on l1 or migrate. ───
    let stay = ActorComputation::new("acme-heavy", "l1").then(ActionKind::evaluate_units(24));
    let migrate = ActorComputation::new("acme-heavy", "l1")
        .then(ActionKind::migrate("l2"))
        .then(ActionKind::evaluate_units(24));
    let window = iv(0, 24);
    let alternatives = vec![
        ComplexRequirement::of_actor(&stay, &phi, window, Granularity::MaximalRun),
        ComplexRequirement::of_actor(&migrate, &phi, window, Granularity::MaximalRun),
    ];
    let acme_state = orgs.state("acme")?.clone();
    let choice = choose_plan(
        &acme_state,
        &ActorName::new("acme-heavy"),
        &alternatives,
        PlanObjective::EarliestCompletion,
    )
    .expect("acme has capacity for at least one plan");
    println!(
        "acme plan    : {} (completes at {})",
        if choice.index == 0 {
            "stay on l1"
        } else {
            "migrate to l2"
        },
        choice.admission.schedule().completion()
    );

    // ── globex runs an interacting pipeline: producer then consumer. ────
    let producer = ActorComputation::new("globex-producer", "l1").then(ActionKind::evaluate());
    let consumer = ActorComputation::new("globex-consumer", "l1").then(ActionKind::evaluate());
    let parts = vec![
        ComplexRequirement::of_actor(&producer, &phi, iv(0, 32), Granularity::MaximalRun),
        ComplexRequirement::of_actor(&consumer, &phi, iv(0, 32), Granularity::MaximalRun),
    ];
    let wf = WorkflowRequirement::new(parts, vec![(0, 1)], iv(0, 32))?;
    let globex_free = orgs.state("globex")?.expiring_resources();
    let schedules = schedule_workflow(&globex_free, &wf, TimePoint::ZERO)?;
    println!(
        "globex flow  : producer done {}, consumer starts {} and is done {}",
        schedules[0].completion(),
        schedules[1].segments()[0].requirement().window().start(),
        schedules[1].completion()
    );

    // ── The provider keeps its own slice and admits ad-hoc work. ────────
    let adhoc = ComplexRequirement::of_actor(
        &ActorComputation::new("ops-job", "l2").then(ActionKind::evaluate()),
        &phi,
        iv(0, 16),
        Granularity::MaximalRun,
    );
    let provider_state: State = orgs.state("provider")?.clone();
    let admitted =
        theorems::accommodate_additional(&provider_state, &ActorName::new("ops-job"), &adhoc)?;
    println!(
        "provider     : ops-job admitted, completes at {}",
        admitted.schedule().completion()
    );

    // ── Every org executes its own slice; nobody is ever late. ──────────
    let _ = orgs.admit(
        "acme",
        &AdmissionRequest::price(
            DistributedComputation::single(
                "acme-batch",
                ActorComputation::new("acme-batch", "l1").then(ActionKind::evaluate()),
                TimePoint::ZERO,
                TimePoint::new(32),
            )?,
            &phi,
            Granularity::MaximalRun,
        ),
    )?;
    orgs.run_until(TimePoint::new(64));
    println!(
        "t=64         : {} commitments left, any late: {}",
        orgs.total_commitments(),
        orgs.any_late()
    );
    assert!(!orgs.any_late());
    Ok(())
}
