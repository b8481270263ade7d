//! Chaos testing of the transition system: random sequences of rule
//! applications — valid and deliberately invalid — must never corrupt a
//! state, violate a guard, or bend time.

use proptest::prelude::*;
use rota_actor::{ActorName, ResourceDemand, SimpleRequirement};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::{Commitment, State, TransitionError};
use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};

const HORIZON: u64 = 16;

fn iv(s: u64, e: u64) -> TimeInterval {
    TimeInterval::from_ticks(s, e).unwrap()
}

fn cpu(i: u8) -> LocatedType {
    LocatedType::cpu(Location::new(format!("l{i}")))
}

/// One random action against the state machine.
#[derive(Debug, Clone)]
enum Chaos {
    StepExpire,
    StepGreedy,
    StepBogusActor(u8),
    StepWrongType(u8),
    Acquire {
        loc: u8,
        rate: u64,
        s: u64,
        len: u64,
    },
    Accommodate {
        loc: u8,
        q: u64,
        s: u64,
        len: u64,
        name: u8,
    },
    AccommodateStale {
        loc: u8,
        name: u8,
    },
    Leave(u8),
    Evict(u8),
}

fn arb_chaos() -> impl Strategy<Value = Chaos> {
    prop_oneof![
        Just(Chaos::StepExpire),
        Just(Chaos::StepGreedy),
        any::<u8>().prop_map(Chaos::StepBogusActor),
        any::<u8>().prop_map(Chaos::StepWrongType),
        (0u8..3, 0u64..6, 0u64..HORIZON, 1u64..6).prop_map(|(loc, rate, s, len)| Chaos::Acquire {
            loc,
            rate,
            s,
            len
        }),
        (0u8..3, 1u64..10, 0u64..HORIZON, 2u64..8, 0u8..4).prop_map(|(loc, q, s, len, name)| {
            Chaos::Accommodate {
                loc,
                q,
                s,
                len,
                name,
            }
        }),
        (0u8..3, 0u8..4).prop_map(|(loc, name)| Chaos::AccommodateStale { loc, name }),
        (0u8..4).prop_map(Chaos::Leave),
        (0u8..4).prop_map(Chaos::Evict),
    ]
}

fn apply(state: &mut State, action: &Chaos) {
    match action {
        Chaos::StepExpire => {
            state.step_expire();
        }
        Chaos::StepGreedy => {
            let assignments = state.greedy_assignments();
            state.step(&assignments).expect("greedy is always valid");
        }
        Chaos::StepBogusActor(n) => {
            let before = state.clone();
            let err = state
                .step(&[(cpu(0), ActorName::new(format!("ghost{n}")))])
                .expect_err("unknown actors must be rejected");
            assert!(matches!(err, TransitionError::UnknownActor(_)));
            assert_eq!(*state, before, "failed step must not mutate");
        }
        Chaos::StepWrongType(n) => {
            // Assign a type the (possibly present) actor is not entitled
            // to right now; whatever happens must be an error or a no-op
            // on a valid entitlement — never a panic.
            let actor = ActorName::new(format!("a{}", n % 4));
            let before = state.clone();
            let exotic = LocatedType::cpu(Location::new("nowhere"));
            if state.step(&[(exotic.clone(), actor)]).is_err() {
                assert_eq!(*state, before);
            }
        }
        Chaos::Acquire { loc, rate, s, len } => {
            let theta: ResourceSet = (*rate > 0)
                .then(|| ResourceTerm::new(Rate::new(*rate), iv(*s, s + len), cpu(*loc)))
                .into_iter()
                .collect();
            state.acquire(theta).expect("acquisition has no guard");
        }
        Chaos::Accommodate {
            loc,
            q,
            s,
            len,
            name,
        } => {
            let deadline = s + len;
            let commitment = Commitment::opportunistic(
                ActorName::new(format!("a{name}")),
                [SimpleRequirement::new(
                    ResourceDemand::single(cpu(*loc), Quantity::new(*q)),
                    iv(*s, deadline),
                )],
                TimePoint::new(deadline),
            );
            let already = state
                .rho()
                .get(&ActorName::new(format!("a{name}")))
                .is_some();
            let result = state.accommodate(commitment);
            if state.now() >= TimePoint::new(deadline) {
                assert!(matches!(
                    result,
                    Err(TransitionError::DeadlinePassed { .. })
                ));
            } else if already {
                assert!(matches!(
                    result,
                    Err(TransitionError::ActorAlreadyCommitted(_))
                ));
            } else {
                assert!(result.is_ok());
            }
        }
        Chaos::AccommodateStale { loc, name } => {
            // Deadline strictly in the past relative to now + 1: always
            // rejected once time has advanced past it.
            if state.now() == TimePoint::ZERO {
                return;
            }
            let d = state.now();
            let before = state.clone();
            let commitment = Commitment::opportunistic(
                ActorName::new(format!("stale{name}")),
                [SimpleRequirement::new(
                    ResourceDemand::single(cpu(*loc), Quantity::new(1)),
                    iv(0, d.ticks()),
                )],
                d,
            );
            let err = state.accommodate(commitment).expect_err("guard t < d");
            assert!(matches!(err, TransitionError::DeadlinePassed { .. }));
            assert_eq!(*state, before);
        }
        Chaos::Leave(n) => {
            let actor = ActorName::new(format!("a{}", n % 4));
            let before = state.clone();
            match state.leave(&actor) {
                Ok(_) => {
                    // leaving is only legal before the start
                    assert!(
                        before
                            .rho()
                            .get(&actor)
                            .map(|c| before.now() < c.start())
                            .unwrap_or(false),
                        "leave must respect the t < s guard"
                    );
                }
                Err(TransitionError::UnknownActor(_)) => {
                    assert!(before.rho().get(&actor).is_none());
                }
                Err(TransitionError::AlreadyStarted { .. }) => {
                    assert!(before.rho().get(&actor).is_some());
                    assert_eq!(*state, before);
                }
                Err(other) => panic!("unexpected leave error {other:?}"),
            }
        }
        Chaos::Evict(n) => {
            let actor = ActorName::new(format!("a{}", n % 4));
            let had = state.rho().get(&actor).is_some();
            let removed = state.evict(&actor);
            assert_eq!(removed > 0, had);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// No sequence of rule applications panics, reverses time, leaves
    /// availability in the past, or shrinks the delivered-units counter.
    #[test]
    fn transition_system_survives_chaos(actions in proptest::collection::vec(arb_chaos(), 0..40)) {
        let mut state = State::new(
            ResourceSet::from_terms([ResourceTerm::new(Rate::new(3), iv(0, HORIZON), cpu(0))])
                .unwrap(),
            TimePoint::ZERO,
        );
        let mut last_now = state.now();
        let mut last_delivered = state.delivered_units();
        for action in &actions {
            apply(&mut state, action);
            prop_assert!(state.now() >= last_now, "time ran backwards");
            if let Some(h) = state.theta().horizon() {
                prop_assert!(h >= state.now(), "availability survived into the past");
            }
            prop_assert!(
                state.delivered_units() >= last_delivered,
                "delivered units shrank"
            );
            last_now = state.now();
            last_delivered = state.delivered_units();
        }
    }

    /// Θ_expire never exceeds Θ, under any chaos prefix.
    #[test]
    fn expiring_is_bounded_by_theta(actions in proptest::collection::vec(arb_chaos(), 0..20)) {
        let mut state = State::new(
            ResourceSet::from_terms([ResourceTerm::new(Rate::new(3), iv(0, HORIZON), cpu(0))])
                .unwrap(),
            TimePoint::ZERO,
        );
        for action in &actions {
            apply(&mut state, action);
            let expiring = state.expiring_resources();
            prop_assert!(state.theta().dominates(&expiring));
        }
    }
}
