//! End-to-end reproduction of every concrete exhibit in the paper:
//! Table I, the Section III worked examples, the Section IV cost table,
//! the Section V transition rules, and the four theorems.

use rota::logic::{theorems, Commitment, State, TransitionError};
use rota::prelude::*;

fn iv(s: u64, e: u64) -> TimeInterval {
    TimeInterval::from_ticks(s, e).unwrap()
}

fn cpu(l: &str) -> LocatedType {
    LocatedType::cpu(Location::new(l))
}

fn cpu_term(r: u64, s: u64, e: u64) -> ResourceTerm {
    ResourceTerm::new(Rate::new(r), iv(s, e), cpu("l1"))
}

/// Table I: all seven canonical relations (plus inverses) realized.
#[test]
fn table_i_relations() {
    use AllenRelation::*;
    let cases = [
        (iv(0, 2), iv(3, 5), Before),
        (iv(1, 4), iv(1, 4), Equals),
        (iv(2, 3), iv(1, 5), During),
        (iv(0, 3), iv(3, 5), Meets),
        (iv(0, 3), iv(2, 5), Overlaps),
        (iv(1, 3), iv(1, 5), Starts),
        (iv(3, 5), iv(1, 5), Finishes),
    ];
    for (a, b, rel) in cases {
        assert_eq!(AllenRelation::relate(&a, &b), rel);
        assert_eq!(AllenRelation::relate(&b, &a), rel.inverse());
    }
}

/// Section III, worked example 1: distinct located types do not combine.
#[test]
fn section3_example1_distinct_types() {
    let net = LocatedType::network(Location::new("l1"), Location::new("l2"));
    let theta = ResourceSet::from_terms([
        cpu_term(5, 0, 3),
        ResourceTerm::new(Rate::new(5), iv(0, 5), net.clone()),
    ])
    .unwrap();
    assert_eq!(theta.term_count(), 2);
    assert_eq!(
        theta.quantity_over(&cpu("l1"), &iv(0, 5)).unwrap().units(),
        15
    );
    assert_eq!(theta.quantity_over(&net, &iv(0, 5)).unwrap().units(), 25);
}

/// Section III, worked example 2: same-type aggregation.
/// [5]^(0,3) ∪ [5]^(0,5) = [10]^(0,3) ∪ [5]^(3,5).
#[test]
fn section3_example2_aggregation() {
    let theta = ResourceSet::from_terms([cpu_term(5, 0, 3), cpu_term(5, 0, 5)]).unwrap();
    assert_eq!(
        theta.to_terms(),
        vec![cpu_term(10, 0, 3), cpu_term(5, 3, 5)]
    );
}

/// Section III, worked example 3: relative complement.
/// [5]^(0,3) \ [3]^(1,2) = [5]^(0,1) ∪ [2]^(1,2) ∪ [5]^(2,3).
#[test]
fn section3_example3_relative_complement() {
    let theta = ResourceSet::from_terms([cpu_term(5, 0, 3)]).unwrap();
    let demand = ResourceSet::from_terms([cpu_term(3, 1, 2)]).unwrap();
    let rest = theta.relative_complement(&demand).unwrap();
    assert_eq!(
        rest.to_terms(),
        vec![cpu_term(5, 0, 1), cpu_term(2, 1, 2), cpu_term(5, 2, 3)]
    );
}

/// Section III: the dominance caveat — total quantity over an interval is
/// not enough; availability must cover the requirement's window.
#[test]
fn section3_dominance_caveat() {
    let spread = cpu_term(2, 0, 100); // 200 units total
    let burst = cpu_term(10, 10, 12); // 20 units total
    assert!(spread.total_quantity().unwrap() > burst.total_quantity().unwrap());
    assert!(!spread.can_supply(&burst));
}

/// Section IV-A: the Φ cost table with the paper's constants.
#[test]
fn section4_cost_table() {
    let phi = TableCostModel::paper();
    let a1 = ActorName::new("a1");
    let l1 = Location::new("l1");
    let net12 = LocatedType::network(l1.clone(), Location::new("l2"));

    let d = phi.demand(&a1, &l1, &ActionKind::send("a2", "l2"));
    assert_eq!(d.amount(&net12).units(), 4);

    let d = phi.demand(&a1, &l1, &ActionKind::evaluate());
    assert_eq!(d.amount(&cpu("l1")).units(), 8);

    let d = phi.demand(&a1, &l1, &ActionKind::create("b"));
    assert_eq!(d.amount(&cpu("l1")).units(), 5);

    let d = phi.demand(&a1, &l1, &ActionKind::Ready);
    assert_eq!(d.amount(&cpu("l1")).units(), 1);

    let d = phi.demand(&a1, &l1, &ActionKind::migrate("l2"));
    assert_eq!(d.amount(&cpu("l1")).units(), 3);
    assert_eq!(d.amount(&cpu("l2")).units(), 3);
    assert_eq!(d.amount(&net12).units(), 0); // the paper's {0}_network
}

/// Definition 1 / Axiom 1: possible actions are strictly sequential.
#[test]
fn section4_possible_actions() {
    let gamma = ActorComputation::new("a1", "l1")
        .then(ActionKind::evaluate())
        .then(ActionKind::send("a2", "l2"));
    let mut progress = gamma.progress();
    assert!(progress.is_possible(0));
    assert!(!progress.is_possible(1));
    progress.complete_next();
    assert!(progress.is_possible(1));
    progress.complete_next();
    assert!(progress.is_complete());
}

/// Section V-A: the sequential transition rule — one ξ ↦ a per Δt,
/// requirement shrinking by rate × Δt.
#[test]
fn section5_sequential_transition() {
    let theta = ResourceSet::from_terms([cpu_term(4, 0, 6)]).unwrap();
    let mut state = State::new(theta, TimePoint::ZERO);
    state
        .accommodate(Commitment::opportunistic(
            ActorName::new("a1"),
            [SimpleRequirement::new(
                ResourceDemand::single(cpu("l1"), Quantity::new(8)),
                iv(0, 6),
            )],
            TimePoint::new(6),
        ))
        .unwrap();
    state.step(&[(cpu("l1"), ActorName::new("a1"))]).unwrap();
    assert_eq!(state.now(), TimePoint::new(1));
    assert_eq!(state.total_remaining_demand().amount(&cpu("l1")).units(), 4);
}

/// Section V-A: the expiration rule — unclaimed resources vanish as time
/// advances.
#[test]
fn section5_expiration_rule() {
    let theta = ResourceSet::from_terms([cpu_term(4, 0, 6)]).unwrap();
    let mut state = State::new(theta, TimePoint::ZERO);
    state.step_expire();
    state.step_expire();
    assert_eq!(
        state
            .theta()
            .quantity_over(&cpu("l1"), &iv(0, 6))
            .unwrap()
            .units(),
        16,
        "two ticks of rate 4 expired"
    );
}

/// Section V-A: acquisition at any time; accommodation guarded by t < d;
/// leave guarded by t < s.
#[test]
fn section5_instantaneous_rules_and_guards() {
    let mut state = State::new(ResourceSet::new(), TimePoint::new(5));
    state
        .acquire(ResourceSet::from_terms([cpu_term(2, 0, 10)]).unwrap())
        .unwrap();
    // past availability was clipped
    assert_eq!(
        state
            .theta()
            .quantity_over(&cpu("l1"), &iv(0, 10))
            .unwrap()
            .units(),
        10
    );
    // accommodation after deadline rejected
    let stale = Commitment::opportunistic(
        ActorName::new("a1"),
        [SimpleRequirement::new(
            ResourceDemand::single(cpu("l1"), Quantity::new(1)),
            iv(0, 4),
        )],
        TimePoint::new(4),
    );
    assert!(matches!(
        state.accommodate(stale),
        Err(TransitionError::DeadlinePassed { .. })
    ));
    // leave after start rejected
    let started = Commitment::opportunistic(
        ActorName::new("a2"),
        [SimpleRequirement::new(
            ResourceDemand::single(cpu("l1"), Quantity::new(1)),
            iv(5, 9),
        )],
        TimePoint::new(9),
    );
    state.accommodate(started).unwrap();
    assert!(matches!(
        state.leave(&ActorName::new("a2")),
        Err(TransitionError::AlreadyStarted { .. })
    ));
}

/// Theorems 1–4 in one flow, at the paper's level of generality.
#[test]
fn section5_theorems_combined() {
    let theta = ResourceSet::from_terms([cpu_term(4, 0, 16)]).unwrap();
    let phi = TableCostModel::paper();
    let gamma = ActorComputation::new("a1", "l1")
        .then(ActionKind::evaluate())
        .then(ActionKind::create("b"))
        .then(ActionKind::Ready);
    let rho = ComplexRequirement::of_actor(&gamma, &phi, iv(0, 16), Granularity::MaximalRun);

    // Theorem 1 on the first action alone.
    let simple = SimpleRequirement::new(
        phi.demand(gamma.actor(), gamma.origin(), &gamma.actions()[0]),
        iv(0, 16),
    );
    assert!(theorems::single_action_accommodation(&theta, &simple, true));

    // Theorem 2.
    let schedule = theorems::sequential_accommodation(&theta, &rho).unwrap();
    assert!(schedule.completion() <= TimePoint::new(16));

    // Theorem 3.
    let witness = theorems::meets_deadline(&theta, gamma.actor(), &rho, TimePoint::ZERO).unwrap();
    assert!(witness.path().current().rho().is_empty());

    // Theorem 4: admit twice, run, nothing late.
    let base = State::new(theta, TimePoint::ZERO);
    let first = theorems::accommodate_additional(&base, &ActorName::new("a1"), &rho).unwrap();
    let second =
        theorems::accommodate_additional(first.state(), &ActorName::new("a2"), &rho).unwrap();
    let mut state = second.into_state();
    state.run_greedy(TimePoint::new(16));
    assert!(state.rho().is_empty());
    assert!(!state.any_late());
}

/// Figure 1: the satisfaction relation, including temporal operators.
#[test]
fn figure1_semantics() {
    let theta = ResourceSet::from_terms([cpu_term(2, 0, 8)]).unwrap();
    let state = State::new(theta, TimePoint::ZERO);
    let checker = ModelChecker::greedy(16);
    let atom = Formula::SatisfySimple(SimpleRequirement::new(
        ResourceDemand::single(cpu("l1"), Quantity::new(16)),
        iv(0, 8),
    ));
    // exactly the full capacity: satisfiable now…
    assert!(checker.holds(&state, &atom));
    assert!(checker.holds(&state, &atom.clone().eventually()));
    // …but not forever (the window erodes as time passes).
    assert!(!checker.holds(&state, &atom.clone().always()));
    // and an impossible demand is never satisfiable.
    let impossible = Formula::SatisfySimple(SimpleRequirement::new(
        ResourceDemand::single(cpu("l1"), Quantity::new(17)),
        iv(0, 8),
    ));
    assert!(!checker.holds(&state, &impossible.clone().eventually()));
    assert!(checker.holds(&state, &impossible.not().always()));
}
