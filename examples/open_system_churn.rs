//! An open system in motion: resources join for bounded leases
//! (the acquisition rule — leaving is the lease's end), computations
//! arrive over time, and the controller reasons about *future*
//! availability before committing to any deadline.
//!
//! Run with: `cargo run --example open_system_churn`

use rota::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let l1 = Location::new("l1");
    let cpu = LocatedType::cpu(l1.clone());
    let phi = TableCostModel::paper();

    // The system starts almost empty: a trickle of 1 unit/tick.
    let trickle = ResourceSet::from_terms([ResourceTerm::new(
        Rate::new(1),
        TimeInterval::from_ticks(0, 40)?,
        cpu.clone(),
    )])?;
    let mut controller = AdmissionController::new(RotaPolicy, trickle, TimePoint::ZERO);

    let job = |name: &str, evals: usize, s: u64, d: u64| {
        let mut gamma = ActorComputation::new(format!("{name}-actor"), "l1");
        for _ in 0..evals {
            gamma.push(ActionKind::evaluate());
        }
        AdmissionRequest::price(
            DistributedComputation::single(name, gamma, TimePoint::new(s), TimePoint::new(d))
                .unwrap(),
            &phi,
            Granularity::MaximalRun,
        )
    };

    // t=0: a hungry job (4 evaluations = 32 CPU units by t=12) cannot be
    // assured on the trickle alone — ROTA *refuses* rather than gambling.
    let hungry = job("hungry", 4, 0, 12);
    match controller.submit(&hungry) {
        Decision::Reject(reason) => println!("t=0  reject hungry: {reason}"),
        Decision::Accept(_) => unreachable!("12 units < 32 demanded"),
    }

    // t=0: a donated lease joins — 4 units/tick over (2, 12). ROTA's
    // resource terms carry their own departure time: no leave event needed.
    let lease = ResourceSet::from_terms([ResourceTerm::new(
        Rate::new(4),
        TimeInterval::from_ticks(2, 12)?,
        cpu.clone(),
    )])?;
    controller.offer_resources(lease)?;
    println!("t=0  lease joined: 4/Δt on ⟨cpu,l1⟩ over (2,12)");

    // Re-submitting now succeeds: 1×12 + 4×10 = 52 ≥ 32 with a feasible
    // placement, and the schedule is pinned tick by tick.
    match controller.submit(&hungry) {
        Decision::Accept(commitments) => {
            println!("t=0  admit hungry: {}", commitments[0]);
        }
        Decision::Reject(reason) => unreachable!("now feasible: {reason}"),
    }

    // A second job can only claim what would otherwise expire.
    let modest = job("modest", 1, 0, 12);
    match controller.submit(&modest) {
        Decision::Accept(c) => println!("t=0  admit modest: {}", c[0]),
        Decision::Reject(reason) => println!("t=0  reject modest: {reason}"),
    }

    controller.run_until(TimePoint::new(14));
    let stats = controller.stats();
    println!(
        "t=14 done: accepted {}, rejected {}, completed {}, missed {}",
        stats.accepted, stats.rejected, stats.completed, stats.missed
    );
    assert_eq!(stats.missed, 0);
    Ok(())
}
