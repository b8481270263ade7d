//! Soundness of scoped snapshots: every standard policy decides a
//! request on the obtainable resources restricted to the request's
//! scope — its demanded located types over its window `[s, d)`, what a
//! two-phase commit's snapshots and basis carry — exactly as on the
//! whole of them: the same verdict, the same commitments, the same
//! reject reason. And ROTA's refutation, the total-supply bound it
//! checks before it schedules, is sound: whatever it refutes has no
//! schedule.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use rota_actor::{
    ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
};
use rota_admission::{
    standard_policies, AdmissionPolicy, AdmissionRequest, Decision, RejectReason, RotaPolicy,
};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::{schedule_concurrent, Scope, State};
use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};

/// Locations `l0`..`l2`; a basis and a request draw from the same ones,
/// so some basis types are demanded and others are not.
const LOCATIONS: usize = 3;
/// Ticks a basis term may reach; requests close by tick 30.
const HORIZON: u64 = 36;

fn location(i: usize) -> Location {
    Location::new(format!("l{i}"))
}

/// Located type `i` of the `LOCATIONS + LOCATIONS²` there are: a CPU,
/// then every link (self-links included, the cost model never uses
/// them).
fn located(i: usize) -> LocatedType {
    if i < LOCATIONS {
        LocatedType::cpu(location(i))
    } else {
        let link = i - LOCATIONS;
        LocatedType::network(location(link / LOCATIONS), location(link % LOCATIONS))
    }
}

/// A fragmented basis: terms of rate 0–4 over short, overlapping
/// intervals anywhere in `[0, HORIZON)`, on any located type.
fn arb_basis() -> impl Strategy<Value = Vec<(usize, u64, u64, u64)>> {
    proptest::collection::vec(
        (
            0..LOCATIONS + LOCATIONS * LOCATIONS,
            0u64..5,
            0u64..HORIZON - 1,
            1u64..16,
        ),
        0..64,
    )
}

fn basis(terms: &[(usize, u64, u64, u64)]) -> ResourceSet {
    ResourceSet::from_terms(terms.iter().map(|&(lt, rate, start, len)| {
        let end = (start + len).min(HORIZON);
        ResourceTerm::new(
            Rate::new(rate),
            TimeInterval::from_ticks(start, end).unwrap(),
            located(lt),
        )
    }))
    .unwrap()
}

/// One actor: its origin and one or two actions, each `(verb, location, work)`
/// with verb 0–2 an evaluate of `work` units, 3 a send to `location`
/// and 4 a migration there.
type Actor = (usize, Vec<(u8, usize, u64)>);

/// One to three actors, whose origins may coincide (shared types) or
/// not, and a window `[s, d)` with `s` in 0–15 and `d ≤ 30`.
fn arb_request() -> impl Strategy<Value = (Vec<Actor>, u64, u64)> {
    let action = (0u8..5, 0..LOCATIONS, 1u64..6);
    let actor = (0..LOCATIONS, proptest::collection::vec(action, 1..3));
    (proptest::collection::vec(actor, 1..4), 0u64..16, 1u64..15)
}

fn request(shape: &(Vec<Actor>, u64, u64)) -> AdmissionRequest {
    named_request("", shape)
}

/// [`request`] with every actor name prefixed by `tag`, so requests with
/// different tags can be committed side by side.
fn named_request(tag: &str, (actors, start, span): &(Vec<Actor>, u64, u64)) -> AdmissionRequest {
    let actors = actors
        .iter()
        .enumerate()
        .map(|(i, (origin, actions))| {
            let mut gamma = ActorComputation::new(format!("{tag}a{i}"), location(*origin));
            for &(verb, at, work) in actions {
                gamma.push(match verb {
                    0..=2 => ActionKind::evaluate_units(work),
                    3 => {
                        ActionKind::send(format!("{tag}a{}", (i + 1) % actors.len()), location(at))
                    }
                    _ => ActionKind::migrate(location(at)),
                });
            }
            gamma
        })
        .collect();
    let lambda = DistributedComputation::new(
        format!("{tag}job"),
        actors,
        TimePoint::new(*start),
        TimePoint::new(start + span),
    )
    .unwrap();
    AdmissionRequest::price(lambda, &TableCostModel::paper(), Granularity::MaximalRun)
}

/// A basis on which every type the request demands has, over its
/// window `[s, d)`, at least the demand in total, but in the reverse of
/// the order the actors' segments need the types: the type whose first
/// use comes latest is supplied first. An actor that needs two types
/// one after the other then fits every total and no schedule, so ROTA
/// cannot refute it and only the scheduler rejects it. The `noise`
/// terms that lie on undemanded types or outside the window ride
/// along, so a scope still cuts the basis.
fn reversed_basis(noise: &[(usize, u64, u64, u64)], request: &AdmissionRequest) -> ResourceSet {
    let window = request.window();
    let demand = request.requirement().total_demand();
    let mut types: Vec<(usize, &LocatedType, Quantity)> = demand
        .iter()
        .map(|(located, amount)| {
            let first_use = request
                .requirement()
                .parts()
                .iter()
                .filter_map(|part| {
                    part.segments()
                        .iter()
                        .position(|segment| !segment.amount(located).is_zero())
                })
                .min()
                .unwrap_or(0);
            (first_use, located, amount)
        })
        .collect();
    types.sort_by_key(|(first_use, ..)| std::cmp::Reverse(*first_use));
    let (s, d) = (window.start().ticks(), window.end().ticks());
    let block = ((d - s) / types.len().max(1) as u64).max(1);
    let last = types.len().saturating_sub(1);
    let supply = types.iter().enumerate().map(|(k, (_, located, amount))| {
        let start = (s + k as u64 * block).min(d - 1);
        let end = if k == last { d } else { (start + block).min(d) };
        let rate = amount.units().div_ceil(end - start);
        ResourceTerm::new(
            Rate::new(rate),
            TimeInterval::from_ticks(start, end).unwrap(),
            (*located).clone(),
        )
    });
    let outside = basis(noise).to_terms().into_iter().filter(|term| {
        demand.amount(term.located()).is_zero()
            || term.interval().end() <= window.start()
            || term.interval().start() >= window.end()
    });
    ResourceSet::from_terms(supply.chain(outside).collect::<Vec<_>>()).unwrap()
}

/// A basis and a request: one draw in two pairs a random basis with
/// the request, the other a [`reversed_basis`] of it.
type Case = (Vec<(usize, u64, u64, u64)>, (Vec<Actor>, u64, u64), bool);

fn arb_case() -> impl Strategy<Value = Case> {
    (arb_basis(), arb_request(), 0u8..2).prop_map(|(terms, shape, arm)| (terms, shape, arm == 1))
}

/// The case's basis and priced request.
fn case((terms, shape, reversed): &Case) -> (ResourceSet, AdmissionRequest) {
    let request = request(shape);
    let basis = if *reversed {
        reversed_basis(terms, &request)
    } else {
        basis(terms)
    };
    (basis, request)
}

/// The request's scope, as a two-phase commit's router takes it.
fn scope_of(request: &AdmissionRequest) -> Scope {
    Scope::of(&request.requirement().total_demand(), request.window())
}

/// `basis` restricted to `scope`, as a participant's shards answer a
/// scoped snapshot: Θ_expire of the state, within the scope.
fn scoped(basis: &ResourceSet, scope: &Scope) -> ResourceSet {
    State::new(basis.clone(), TimePoint::ZERO).expiring_in(scope.types(), scope.window())
}

/// ROTA's refutation of `request` on the whole supply of `state`, and
/// the Θ_expire it read that supply from.
fn refutation(state: &State, request: &AdmissionRequest) -> (Option<RejectReason>, ResourceSet) {
    let window = request.window();
    let demand = request.requirement().total_demand();
    let expiring = state.expiring_in(demand.located_types(), window);
    let supply = |located: &LocatedType| -> Option<Quantity> {
        expiring.quantity_over(located, &window).ok()
    };
    (RotaPolicy.refute(request, &supply), expiring)
}

/// A live state: `basis` with each of `earlier` that ROTA accepts
/// committed in turn, then `ticks` greedy steps.
fn live_state(basis: ResourceSet, earlier: &[(Vec<Actor>, u64, u64)], ticks: u64) -> State {
    let mut state = State::new(basis, TimePoint::ZERO);
    for (k, shape) in earlier.iter().enumerate() {
        let request = named_request(&format!("e{k}"), shape);
        if let Decision::Accept(commitments) = RotaPolicy.decide(&state, &request) {
            for commitment in commitments {
                state.accommodate(commitment).unwrap();
            }
        }
    }
    for _ in 0..ticks {
        let assignments = state.greedy_assignments();
        state.step(&assignments).unwrap();
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_500))]

    #[test]
    fn every_standard_policy_decides_alike_on_the_scoped_basis(drawn in arb_case()) {
        let (whole, request) = case(&drawn);
        let scoped = scoped(&whole, &scope_of(&request));
        for row in standard_policies() {
            let on_whole = row.policy.decide(&State::new(whole.clone(), TimePoint::ZERO), &request);
            let on_scope = row.policy.decide(&State::new(scoped.clone(), TimePoint::ZERO), &request);
            prop_assert_eq!(on_whole, on_scope, "policy {}", row.name);
        }
    }

    /// On a live state, where commitments hold reserved ticks and time
    /// has moved, ROTA's window-bounded decision equals its decision on
    /// a fresh state over the whole of Θ_expire, the whole-horizon
    /// reference.
    #[test]
    fn rota_decides_a_live_state_as_on_its_whole_expiring_set(
        terms in arb_basis(),
        earlier in proptest::collection::vec(arb_request(), 1..6),
        ticks in 0u64..6,
        shape in arb_request(),
    ) {
        let state = live_state(basis(&terms), &earlier, ticks);
        let request = request(&shape);
        let reference = State::new(state.expiring_resources(), state.now());
        prop_assert_eq!(
            RotaPolicy.decide(&state, &request),
            RotaPolicy.decide(&reference, &request)
        );
    }

    /// Whatever ROTA refutes on the whole supply, the scheduler cannot
    /// place in the same Θ_expire; and `decide` answers with that very
    /// reject on the whole basis and on the scoped one, so a refuting
    /// two-phase coordinator and a deciding participant word it alike.
    #[test]
    fn a_refutation_proves_that_no_schedule_exists(drawn in arb_case()) {
        let (whole, request) = case(&drawn);
        let state = State::new(whole.clone(), TimePoint::ZERO);
        let (refuted, expiring) = refutation(&state, &request);
        if let Some(reject) = refuted {
            prop_assert!(
                schedule_concurrent(&expiring, request.requirement(), state.now()).is_err(),
                "refuted but schedulable: {}", reject
            );
            let scoped = scoped(&whole, &scope_of(&request));
            for basis in [whole, scoped] {
                prop_assert_eq!(
                    RotaPolicy.decide(&State::new(basis, TimePoint::ZERO), &request),
                    Decision::Reject(reject.clone())
                );
            }
        }
    }
}

/// The property above sees accepts and rejects from every policy but
/// the optimistic one, and bases that the scope really cuts: terms on
/// types the request does not demand, before `s` and from `d` on.
#[test]
fn the_generators_exercise_both_verdicts_and_every_cut() {
    let mut rng = TestRng::for_test("scope_generators");
    let (mut accepts, mut rejects) = ([0usize; 4], [0usize; 4]);
    let (mut undemanded, mut early, mut late) = (0, 0, 0);
    for _ in 0..600 {
        let whole = basis(&arb_basis().new_value(&mut rng));
        let request = request(&arb_request().new_value(&mut rng));
        let scope = scope_of(&request);
        let window = scope.window();
        for term in whole.to_terms() {
            undemanded += usize::from(!scope.types().contains(term.located()));
            early += usize::from(term.interval().start() < window.start());
            late += usize::from(term.interval().end() > window.end());
        }
        for (i, row) in standard_policies().iter().enumerate() {
            let state = State::new(whole.clone(), TimePoint::ZERO);
            if row.policy.decide(&state, &request).is_accept() {
                accepts[i] += 1;
            } else {
                rejects[i] += 1;
            }
        }
    }
    for (i, row) in standard_policies().iter().enumerate() {
        assert!(accepts[i] >= 30, "{}: {} accepts", row.name, accepts[i]);
        if row.name != "optimistic" {
            assert!(rejects[i] >= 30, "{}: {} rejects", row.name, rejects[i]);
        }
    }
    assert!(
        undemanded > 0 && early > 0 && late > 0,
        "{undemanded} {early} {late}"
    );
    // ROTA's rejects include refutations and, from the reversed bases,
    // rejects only the scheduler finds.
    let (mut refuted, mut scheduled_rejects) = (0, 0);
    for _ in 0..2_000 {
        let (basis, request) = case(&arb_case().new_value(&mut rng));
        let state = State::new(basis, TimePoint::ZERO);
        if refutation(&state, &request).0.is_some() {
            refuted += 1;
        } else if !RotaPolicy.decide(&state, &request).is_accept() {
            scheduled_rejects += 1;
        }
    }
    assert!(
        refuted >= 300 && scheduled_rejects >= 300,
        "{refuted} refuted, {scheduled_rejects} rejected by the scheduler"
    );
    // The live states hold commitments, and ROTA both accepts and
    // rejects on them.
    let (mut committed, mut live_accepts, mut live_rejects) = (0, 0, 0);
    for _ in 0..300 {
        let earlier = proptest::collection::vec(arb_request(), 1..6).new_value(&mut rng);
        let state = live_state(basis(&arb_basis().new_value(&mut rng)), &earlier, 3);
        committed += usize::from(!state.rho().is_empty());
        let request = request(&arb_request().new_value(&mut rng));
        if RotaPolicy.decide(&state, &request).is_accept() {
            live_accepts += 1;
        } else {
            live_rejects += 1;
        }
    }
    assert!(
        committed >= 100 && live_accepts >= 30 && live_rejects >= 30,
        "{committed} live states with commitments, {live_accepts} accepts, {live_rejects} rejects"
    );
}
