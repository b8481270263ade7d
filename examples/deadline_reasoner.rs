//! A guided tour of the logic itself — the paper, section by section,
//! with the library's API: Table I relations, the Section III worked
//! examples, the Φ cost table, the transition rules, and the Figure-1
//! formula semantics with ◇/□.
//!
//! Run with: `cargo run --example deadline_reasoner`

use rota::logic::{theorems, Commitment};
use rota::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Section III: Table I, the interval algebra. ──────────────────────
    let tau1 = TimeInterval::from_ticks(0, 3)?;
    let tau2 = TimeInterval::from_ticks(3, 5)?;
    println!(
        "Table I  : {tau1} {} {tau2}",
        AllenRelation::relate(&tau1, &tau2)
    );

    // ── Section III: the worked resource-set calculations. ──────────────
    let cpu_l1 = LocatedType::cpu(Location::new("l1"));
    let t = |r: u64, s: u64, e: u64| {
        ResourceTerm::new(
            Rate::new(r),
            TimeInterval::from_ticks(s, e).unwrap(),
            cpu_l1.clone(),
        )
    };
    let aggregated = ResourceSet::from_terms([t(5, 0, 3), t(5, 0, 5)])?;
    println!("example 2: [5]^(0,3) ∪ [5]^(0,5) = {aggregated}");
    let complement = ResourceSet::from_terms([t(5, 0, 3)])?
        .relative_complement(&ResourceSet::from_terms([t(3, 1, 2)])?)?;
    println!("example 3: [5]^(0,3) \\ [3]^(1,2) = {complement}");

    // ── Section IV: the cost function Φ on the five primitives. ─────────
    let phi = TableCostModel::paper();
    let a1 = ActorName::new("a1");
    let l1 = Location::new("l1");
    for action in [
        ActionKind::send("a2", "l2"),
        ActionKind::evaluate(),
        ActionKind::create("b"),
        ActionKind::Ready,
        ActionKind::migrate("l2"),
    ] {
        println!("Φ(a1, {action}) = {}", phi.demand(&a1, &l1, &action));
    }

    // ── Section V: states, transition rules, a recorded path σ. ─────────
    let theta = ResourceSet::from_terms([t(4, 0, 12)])?;
    let gamma = ActorComputation::new("a1", "l1")
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate());
    let rho = ComplexRequirement::of_actor(
        &gamma,
        &phi,
        TimeInterval::from_ticks(0, 12)?,
        Granularity::MaximalRun,
    );

    // Theorem 2: find the breakpoints.
    let schedule = theorems::sequential_accommodation(&theta, &rho)?;
    println!(
        "Theorem 2: schedulable, completes at {} (deadline t12)",
        schedule.completion()
    );

    // Theorem 3: construct the witness path.
    let witness =
        theorems::meets_deadline(&theta, &a1, &rho, TimePoint::ZERO).expect("Theorem 2 said yes");
    println!(
        "Theorem 3: witness path with {} states, completion {}",
        witness.path().len(),
        witness.completion()
    );

    // Theorem 4: admit a second computation into the expiring resources.
    let state = State::new(theta, TimePoint::ZERO);
    let admitted = theorems::accommodate_additional(&state, &a1, &rho)?;
    let second = theorems::accommodate_additional(admitted.state(), &ActorName::new("a2"), &rho)?;
    println!(
        "Theorem 4: second computation admitted, completes at {}",
        second.schedule().completion()
    );

    // ── Figure 1: formulas with ◇ and □ over the transition tree. ───────
    let state = second.into_state();
    let checker = ModelChecker::greedy(24);
    let probe = rota::actor::SimpleRequirement::new(
        ResourceDemand::single(cpu_l1.clone(), Quantity::new(8)),
        TimeInterval::from_ticks(0, 12)?,
    );
    let atom = Formula::SatisfySimple(probe);
    println!(
        "⊨ satisfy(ρ)   : {} (8 spare units remain in Θ_expire)",
        checker.holds(&state, &atom)
    );
    println!(
        "⊨ ◇satisfy(ρ) : {}",
        checker.holds(&state, &atom.clone().eventually())
    );
    println!(
        "⊨ □satisfy(ρ) : {} (the window eventually closes)",
        checker.holds(&state, &atom.always())
    );

    // And the transition rules, raw: drive a path by hand.
    let mut sigma = ComputationPath::new(State::new(
        ResourceSet::from_terms([t(4, 0, 4)])?,
        TimePoint::ZERO,
    ));
    sigma.accommodate(Commitment::opportunistic(
        a1.clone(),
        [rota::actor::SimpleRequirement::new(
            ResourceDemand::single(cpu_l1, Quantity::new(8)),
            TimeInterval::from_ticks(0, 4)?,
        )],
        TimePoint::new(4),
    ))?;
    sigma.step(&[(LocatedType::cpu(Location::new("l1")), a1.clone())])?; // sequential rule
    sigma.step(&[(LocatedType::cpu(Location::new("l1")), a1)])?; // completes
    sigma.step_expire(); // expiration rule
    println!("path σ    : {sigma}");
    Ok(())
}
