//! Quickstart: the paper's headline question, end to end.
//!
//! "Can we know at time T whether a distributed multi-agent computation A
//! can complete its execution by deadline D?"
//!
//! Run with: `cargo run --example quickstart`

use rota::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Describe the system's resources as ROTA resource terms. ──────
    // Node l1 offers 4 CPU units per tick for 20 ticks; the link l1→l2
    // offers 4 network units per tick for the same span.
    let l1 = Location::new("l1");
    let l2 = Location::new("l2");
    let span = TimeInterval::from_ticks(0, 20)?;
    let theta = ResourceSet::from_terms([
        ResourceTerm::new(Rate::new(4), span, LocatedType::cpu(l1.clone())),
        ResourceTerm::new(
            Rate::new(4),
            span,
            LocatedType::network(l1.clone(), l2.clone()),
        ),
    ])?;
    println!("resources Θ = {theta}");

    // ── 2. Describe a computation by its actions (Section IV). ──────────
    // An actor at l1 evaluates two expressions, then reports its result
    // to a peer at l2 — all of it due by t = 20.
    let gamma = ActorComputation::new("worker", "l1")
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate())
        .then(ActionKind::send("collector", "l2"));
    let job =
        DistributedComputation::single("report-job", gamma, TimePoint::ZERO, TimePoint::new(20))?;
    println!("computation  = {job}");

    // ── 3. Price it with Φ and ask the logic (Theorems 2–4). ────────────
    let phi = TableCostModel::paper();
    let request = AdmissionRequest::price(job, &phi, Granularity::MaximalRun);
    println!("requirement  = {}", request.requirement());

    let mut controller = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
    match controller.submit(&request) {
        Decision::Accept(commitments) => {
            for c in &commitments {
                println!("admitted     : {c}");
            }
        }
        Decision::Reject(reason) => {
            println!("rejected     : {reason}");
            return Ok(());
        }
    }

    // ── 4. Execute. ROTA-admitted work never misses its deadline. ───────
    controller.run_until(TimePoint::new(20));
    let stats = controller.stats();
    println!(
        "outcome      : {} completed, {} missed (assurance holds: {})",
        stats.completed,
        stats.missed,
        stats.missed == 0
    );
    assert_eq!(stats.missed, 0);
    Ok(())
}
