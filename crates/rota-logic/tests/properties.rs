//! Property-based tests for the logic: scheduler completeness, transition
//! soundness, and admission (Theorem 4) non-interference.

use proptest::prelude::*;
use rota_actor::{
    ActorName, ComplexRequirement, ConcurrentRequirement, ResourceDemand, SimpleRequirement,
};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::theorems::accommodate_additional;
use rota_logic::{
    exhaustive_schedule_exists, schedule_complex, schedule_concurrent, tick_delivery, Commitment,
    Commitments, ScheduledSegment, Scope, State,
};
use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};

const HORIZON: u64 = 12;

fn iv(s: u64, e: u64) -> TimeInterval {
    TimeInterval::from_ticks(s, e).unwrap()
}

fn cpu(i: u8) -> LocatedType {
    LocatedType::cpu(Location::new(format!("l{i}")))
}

fn arb_theta() -> impl Strategy<Value = ResourceSet> {
    proptest::collection::vec((0u8..2, 0u64..HORIZON, 1u64..=4, 0u64..5), 0..5).prop_map(|parts| {
        let mut set = ResourceSet::new();
        for (loc, start, len, rate) in parts {
            if rate == 0 {
                continue;
            }
            let end = (start + len).min(HORIZON);
            if start < end {
                set.insert(ResourceTerm::new(Rate::new(rate), iv(start, end), cpu(loc)))
                    .unwrap();
            }
        }
        set
    })
}

fn arb_requirement() -> impl Strategy<Value = ComplexRequirement> {
    proptest::collection::vec((0u8..2, 1u64..8), 1..4).prop_map(|segs| {
        ComplexRequirement::new(
            segs.into_iter()
                .map(|(loc, q)| ResourceDemand::single(cpu(loc), Quantity::new(q)))
                .collect(),
            iv(0, HORIZON),
        )
    })
}

/// Θ_expire computed from scratch: the fold of every pending
/// reservation, excluded tick by tick from Θ — or, when some commitment
/// is opportunistic, the greedy-path simulation.
fn expiring_oracle(state: &State) -> ResourceSet {
    let mut reserved = ResourceSet::new();
    for c in state.rho().iter() {
        match c.pending_reservation() {
            Some(res) => reserved = reserved.union(&res).unwrap(),
            None => return state.expiring_by_simulation(),
        }
    }
    reserved.truncate_before(state.now());
    state.theta().exclude_support(&reserved)
}

/// `set` keeping only the located types `demand` names.
fn restricted(set: &ResourceSet, demand: &ResourceDemand) -> ResourceSet {
    set.to_terms()
        .into_iter()
        .filter(|t| demand.located_types().any(|lt| lt == t.located()))
        .collect()
}

/// One transition applied by `incremental_expire_matches_oracle`.
#[derive(Debug, Clone)]
enum Op {
    /// Theorem 4 admission with exact reservations.
    Reserved(ComplexRequirement),
    /// Opportunistic admission of every segment over the rest of the
    /// horizon.
    Opportunistic(ComplexRequirement),
    /// An opportunistic head segment followed by reserved segments.
    Mixed(ComplexRequirement),
    /// The leave rule for the `n`-th commitment (modulo `ρ`'s size).
    Leave(usize),
    /// Administrative eviction of the `n`-th commitment.
    Evict(usize),
    /// One tick with the greedy assignments.
    Step,
    /// The acquisition rule.
    Acquire(ResourceSet),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..8, 0usize..4, arb_requirement(), arb_theta()).prop_map(
        |(kind, n, req, join)| match kind {
            0 => Op::Reserved(req),
            1 => Op::Opportunistic(req),
            2 => Op::Mixed(req),
            3 => Op::Leave(n),
            4 => Op::Evict(n),
            5 | 6 => Op::Step,
            _ => Op::Acquire(join),
        },
    )
}

fn apply(state: &mut State, op: &Op, name: ActorName) {
    let now = state.now();
    let Ok(rest) = TimeInterval::new(now, TimePoint::new(HORIZON)) else {
        return;
    };
    let opportunistic = |req: &ComplexRequirement| {
        req.segments()
            .iter()
            .map(|d| ScheduledSegment::opportunistic(SimpleRequirement::new(d.clone(), rest)))
            .collect::<Vec<_>>()
    };
    let reserved = |state: &State, req: &ComplexRequirement| {
        let demand = req.total_demand();
        schedule_complex(
            &state.expiring_in(demand.located_types(), req.window()),
            req,
            now,
        )
        .ok()
        .map(|schedule| schedule.segments().to_vec())
    };
    let deadline = TimePoint::new(HORIZON);
    match op {
        Op::Reserved(req) => {
            if let Some(segments) = reserved(state, req) {
                state
                    .accommodate(Commitment::new(name, segments, deadline))
                    .unwrap();
            }
        }
        Op::Opportunistic(req) => {
            state
                .accommodate(Commitment::new(name, opportunistic(req), deadline))
                .unwrap();
        }
        Op::Mixed(req) => {
            if let Some(segments) = reserved(state, req) {
                let mut all = opportunistic(req);
                all.truncate(1);
                all.extend(segments);
                state
                    .accommodate(Commitment::new(name, all, deadline))
                    .unwrap();
            }
        }
        Op::Leave(n) | Op::Evict(n) => {
            let len = state.rho().len();
            if len == 0 {
                return;
            }
            let actor = state.rho().iter().nth(n % len).unwrap().actor().clone();
            if matches!(op, Op::Leave(_)) {
                let _ = state.leave(&actor); // may fail its t < s guard
            } else {
                state.evict(&actor);
            }
        }
        Op::Step => {
            let assignments = state.greedy_assignments();
            state.step(&assignments).unwrap();
        }
        Op::Acquire(join) => {
            state.acquire(join.clone()).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The reserved profile `State` maintains across accommodate, leave,
    /// evict, step and acquire yields exactly the from-scratch Θ_expire
    /// after every operation, and a scope's view is its restriction to
    /// the scope's types, clamped to the scope's window. Windows start
    /// anywhere up to past the supply's horizon and run up to a whole
    /// horizon long, so they cut through reserved segments, lie wholly
    /// before the present or after all supply, or cover everything.
    #[test]
    fn incremental_expire_matches_oracle(
        theta in arb_theta(),
        ops in proptest::collection::vec(arb_op(), 1..24),
        probe in arb_requirement(),
        cut in (0u64..HORIZON + 4, 1u64..=HORIZON + 4),
    ) {
        let window = TimeInterval::from_ticks(cut.0, cut.0 + cut.1).unwrap();
        let everything = TimeInterval::from_ticks(0, 2 * HORIZON + 8).unwrap();
        let mut state = State::new(theta, TimePoint::ZERO);
        for (k, op) in ops.iter().enumerate() {
            apply(&mut state, op, ActorName::new(format!("a{k}")));
            let full = state.expiring_resources();
            prop_assert_eq!(&full, &expiring_oracle(&state), "after {:?}", op);
            let demand = probe.total_demand();
            let scope = Scope::of(&demand, window);
            prop_assert_eq!(
                state.expiring_in(demand.located_types(), everything),
                restricted(&full, &demand)
            );
            prop_assert_eq!(
                state.expiring_in(scope.types(), scope.window()),
                restricted(&full, &demand).clamp(&window)
            );
            if state.rho().iter().any(|c| !c.is_reserved()) {
                prop_assert_eq!(&full, &state.expiring_by_simulation());
            }
        }
    }

    /// `State`'s actor-keyed ρ agrees with a `Vec` reference kept by
    /// hand across accommodate, evict, leave, step (its absorptions and
    /// reaping) and acquire: the same length, the same admission order
    /// and the same commitment for every actor name, present or not.
    #[test]
    fn actor_keyed_rho_matches_vec_reference(
        theta in arb_theta(),
        ops in proptest::collection::vec(arb_op(), 1..24),
    ) {
        let names: Vec<ActorName> = (0..ops.len()).map(|k| ActorName::new(format!("a{k}"))).collect();
        let mut state = State::new(theta, TimePoint::ZERO);
        let mut reference: Vec<Commitment> = Vec::new();
        for (k, op) in ops.iter().enumerate() {
            let before = state.clone();
            let deliveries: Vec<(LocatedType, ActorName, Quantity)> = before
                .greedy_assignments()
                .into_iter()
                .map(|(lt, actor)| {
                    let rate = before.theta().rate_at(&lt, before.now());
                    (lt, actor, tick_delivery(rate))
                })
                .collect();
            apply(&mut state, op, names[k].clone());
            match op {
                Op::Reserved(_) | Op::Opportunistic(_) | Op::Mixed(_) => {
                    if let Some(added) = state.rho().get(&names[k]) {
                        reference.push(added.clone());
                    }
                }
                Op::Leave(_) | Op::Evict(_) => {
                    reference.retain(|c| state.rho().get(c.actor()).is_some());
                }
                Op::Step => {
                    for (lt, actor, delivered) in deliveries {
                        if let Some(c) = reference.iter_mut().find(|c| c.actor() == &actor) {
                            c.absorb(&lt, delivered);
                        }
                    }
                    reference.retain(|c| !c.is_complete());
                }
                Op::Acquire(_) => {}
            }
            prop_assert_eq!(state.rho().len(), reference.len(), "after {:?}", op);
            prop_assert!(state.rho().iter().eq(reference.iter()), "after {:?}", op);
            for name in &names {
                prop_assert_eq!(
                    state.rho().get(name),
                    reference.iter().find(|c| c.actor() == name)
                );
            }
        }
    }

    /// `Commitments` on its own agrees with a `Vec` reference over push
    /// (duplicate actors included), `get_mut` absorptions, `remove_actor`
    /// and `reap_complete`: `get`, `get_mut`, `len`, the removed
    /// commitments and iteration order.
    #[test]
    fn commitments_match_vec_reference(
        ops in proptest::collection::vec((0u8..4, 0usize..5, 1u64..6), 1..40),
    ) {
        let names: Vec<ActorName> = (0..5).map(|k| ActorName::new(format!("a{k}"))).collect();
        let mut rho = Commitments::new();
        let mut reference: Vec<Commitment> = Vec::new();
        for (kind, k, q) in ops {
            let actor = &names[k];
            match kind {
                0 => {
                    let c = Commitment::opportunistic(
                        actor.clone(),
                        [SimpleRequirement::new(
                            ResourceDemand::single(cpu(0), Quantity::new(q)),
                            iv(0, HORIZON),
                        )],
                        TimePoint::new(HORIZON),
                    );
                    rho.push(c.clone());
                    reference.push(c);
                }
                1 => {
                    let expected: Vec<Commitment> =
                        reference.iter().filter(|c| c.actor() == actor).cloned().collect();
                    reference.retain(|c| c.actor() != actor);
                    prop_assert_eq!(rho.remove_actor(actor), expected);
                }
                2 => {
                    let got = rho.get_mut(actor).map(|c| c.absorb(&cpu(0), Quantity::new(q)));
                    let want = reference
                        .iter_mut()
                        .find(|c| c.actor() == actor)
                        .map(|c| c.absorb(&cpu(0), Quantity::new(q)));
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let before = reference.len();
                    reference.retain(|c| !c.is_complete());
                    prop_assert_eq!(rho.reap_complete(), before - reference.len());
                }
            }
            prop_assert_eq!(rho.len(), reference.len());
            prop_assert!(rho.iter().eq(reference.iter()));
            for name in &names {
                prop_assert_eq!(rho.get(name), reference.iter().find(|c| c.actor() == name));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The greedy scheduler agrees with the exhaustive breakpoint search
    /// (Theorem 2's iff, both directions).
    #[test]
    fn scheduler_matches_exhaustive(theta in arb_theta(), req in arb_requirement()) {
        let greedy = schedule_complex(&theta, &req, TimePoint::ZERO).is_ok();
        let brute = exhaustive_schedule_exists(&theta, &req, TimePoint::ZERO);
        prop_assert_eq!(greedy, brute);
    }

    /// Every schedule the scheduler returns is actually executable: the
    /// greedy path completes every segment within its window.
    #[test]
    fn schedules_are_executable(theta in arb_theta(), req in arb_requirement()) {
        if let Ok(schedule) = schedule_complex(&theta, &req, TimePoint::ZERO) {
            let completion = schedule.completion();
            let mut state = State::new(theta.clone(), TimePoint::ZERO);
            state
                .accommodate(schedule.into_commitment(ActorName::new("a1"), TimePoint::new(HORIZON)))
                .unwrap();
            state.run_greedy(TimePoint::new(HORIZON));
            prop_assert!(state.rho().is_empty(), "commitment completed");
            prop_assert!(!state.any_late());
            prop_assert!(completion <= TimePoint::new(HORIZON));
        }
    }

    /// Schedule reservations never exceed availability.
    #[test]
    fn reservations_within_availability(theta in arb_theta(), req in arb_requirement()) {
        if let Ok(schedule) = schedule_complex(&theta, &req, TimePoint::ZERO) {
            prop_assert!(theta.dominates(&schedule.total_reservation()));
        }
    }

    /// Theorem 4 non-interference: admitting a second computation never
    /// makes the first late, and both complete when executed greedily.
    #[test]
    fn admission_non_interference(
        theta in arb_theta(),
        req1 in arb_requirement(),
        req2 in arb_requirement(),
    ) {
        let base = State::new(theta, TimePoint::ZERO);
        let a1 = ActorName::new("a1");
        let a2 = ActorName::new("a2");
        let Ok(adm1) = accommodate_additional(&base, &a1, &req1) else {
            return Ok(());
        };
        let state1 = adm1.into_state();

        // Execute with only the first commitment.
        let mut solo = state1.clone();
        solo.run_greedy(TimePoint::new(HORIZON));
        prop_assert!(solo.rho().is_empty() && !solo.any_late());

        // Admit (or refuse) the second and execute the combination.
        match accommodate_additional(&state1, &a2, &req2) {
            Ok(adm2) => {
                let mut both = adm2.into_state();
                both.run_greedy(TimePoint::new(HORIZON));
                prop_assert!(both.rho().is_empty(), "both computations complete");
                prop_assert!(!both.any_late());
            }
            Err(_) => {
                // Refusal is only allowed when the expiring resources
                // genuinely cannot cover the requirement.
                let free = state1.expiring_resources();
                prop_assert!(!exhaustive_schedule_exists(&free, &req2, TimePoint::ZERO));
            }
        }
    }

    /// Time only moves forward, availability only shrinks into the
    /// future, and stepping never panics with arbitrary greedy runs.
    #[test]
    fn transition_monotonicity(theta in arb_theta(), ticks in 0u64..HORIZON) {
        let mut state = State::new(theta, TimePoint::ZERO);
        let mut last = state.now();
        for _ in 0..ticks {
            state.step_expire();
            prop_assert!(state.now() > last);
            last = state.now();
            // no availability in the past
            if let Some(h) = state.theta().horizon() {
                prop_assert!(h >= state.now());
            }
        }
    }

    /// Θ_expire of a commitment-free state is the whole availability, and
    /// is monotone: admitting a computation never grows it.
    #[test]
    fn expiring_resources_shrink_with_admissions(theta in arb_theta(), req in arb_requirement()) {
        let base = State::new(theta.clone(), TimePoint::ZERO);
        prop_assert_eq!(base.expiring_resources(), theta.clone());
        if let Ok(adm) = accommodate_additional(&base, &ActorName::new("a1"), &req) {
            let after = adm.into_state();
            let shrunk = after.expiring_resources();
            prop_assert!(theta.dominates(&shrunk));
        }
    }

    /// The fast-path (reservation complement) and simulation fallback for
    /// Θ_expire agree on reserved-commitment states.
    #[test]
    fn expire_fast_path_matches_simulation(theta in arb_theta(), req in arb_requirement()) {
        let base = State::new(theta, TimePoint::ZERO);
        if let Ok(adm) = accommodate_additional(&base, &ActorName::new("a1"), &req) {
            let state = adm.into_state();
            prop_assert_eq!(state.expiring_resources(), state.expiring_by_simulation());
        }
    }
}

/// Supply over the eight CPUs `l0`…`l7`.
fn arb_wide_theta() -> impl Strategy<Value = ResourceSet> {
    proptest::collection::vec((0u8..8, 0u64..HORIZON, 1u64..=HORIZON, 1u64..6), 0..32).prop_map(
        |parts| {
            let mut set = ResourceSet::new();
            for (loc, start, len, rate) in parts {
                let end = (start + len).min(HORIZON);
                set.insert(ResourceTerm::new(Rate::new(rate), iv(start, end), cpu(loc)))
                    .unwrap();
            }
            set
        },
    )
}

/// A concurrent requirement whose actors demand pairwise disjoint
/// located types: each of the eight CPUs belongs to one actor, and each
/// segment demands one or two of its actor's CPUs. Actors left with no
/// CPU are dropped.
fn arb_disjoint_requirement() -> impl Strategy<Value = ConcurrentRequirement> {
    let segment = (0usize..8, 0usize..8, 1u64..6, 0u64..3);
    (
        1usize..5,
        proptest::collection::vec(0usize..4, 8),
        proptest::collection::vec(proptest::collection::vec(segment, 1..4), 4),
        0u64..4,
        4u64..=HORIZON,
    )
        .prop_map(|(actors, owner, segments, start, end)| {
            let window = iv(start, end);
            let parts = (0..actors)
                .filter_map(|actor| {
                    let types: Vec<u8> = (0..8u8)
                        .filter(|&l| owner[usize::from(l)] % actors == actor)
                        .collect();
                    if types.is_empty() {
                        return None;
                    }
                    let demands = segments[actor]
                        .iter()
                        .map(|&(first, second, q1, q2)| {
                            let mut demand = ResourceDemand::new();
                            demand.add(cpu(types[first % types.len()]), Quantity::new(q1));
                            demand.add(cpu(types[second % types.len()]), Quantity::new(q2));
                            demand
                        })
                        .collect();
                    Some(ComplexRequirement::new(demands, window))
                })
                .collect();
            ConcurrentRequirement::new(parts, window)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// ROADMAP item 13: when the actors' located types are pairwise
    /// disjoint, serial carving takes nothing one actor needs from
    /// another, so the concurrent decision is monotone in supply (an
    /// accept on Θ stays an accept on every Θ′ ⊇ Θ) and does not depend
    /// on the actors' order. The reject rule of a coordinator that
    /// decides on partial supply rests on both.
    #[test]
    fn disjoint_actors_decide_monotonically_in_any_order(
        theta in arb_wide_theta(),
        extra in arb_wide_theta(),
        requirement in arb_disjoint_requirement(),
        order in proptest::collection::vec(0u64..1000, 4),
    ) {
        let wider = theta.union(&extra).unwrap();
        let earliest = requirement.window().start();
        let accepts = |free: &ResourceSet, parts: Vec<ComplexRequirement>| {
            let requirement = ConcurrentRequirement::new(parts, requirement.window());
            schedule_concurrent(free, &requirement, earliest).is_ok()
        };
        let parts = requirement.parts().to_vec();
        let on_theta = accepts(&theta, parts.clone());
        if on_theta {
            prop_assert!(accepts(&wider, parts.clone()), "more supply turned an accept into a reject");
        }
        let mut shuffled: Vec<(u64, ComplexRequirement)> =
            order.iter().copied().zip(parts.iter().cloned()).collect();
        shuffled.sort_by_key(|(key, _)| *key);
        let shuffled: Vec<ComplexRequirement> = shuffled.into_iter().map(|(_, part)| part).collect();
        let reversed: Vec<ComplexRequirement> = parts.iter().rev().cloned().collect();
        prop_assert_eq!(accepts(&theta, shuffled), on_theta);
        prop_assert_eq!(accepts(&theta, reversed), on_theta);
    }
}
