//! The paper's four theorems as executable decision procedures.
//!
//! | theorem | statement | procedure |
//! |---|---|---|
//! | 1 — Single Action Accommodation | `(γ,s,d)` accommodated iff `γ` possible by `s` and `f(Θ, ρ(γ,s,d))` | [`single_action_accommodation`] |
//! | 2 — Sequential Computation Accommodation | `(Γ,s,d)` accommodated iff breakpoints `t₁…t_{m−1}` exist | [`sequential_accommodation`] |
//! | 3 — Meet Deadline | `Γ` completes by `d` iff a path `σ` reaches `(Θ', ∅, t_n)`, `t_n < d` | [`meets_deadline`] |
//! | 4 — Accommodate Additional Computation | `(Γ,s,d)` admissible without disturbing existing commitments iff `⋃ Θ_expire` on some path satisfies `ρ(Γ,s,d)` | [`accommodate_additional`] |

use rota_actor::{ActorName, ComplexRequirement, SimpleRequirement};
use rota_interval::TimePoint;
use rota_resource::ResourceSet;

use crate::path::ComputationPath;
use crate::schedule::{schedule_complex, InfeasibleError, Schedule};
use crate::state::State;

/// Theorem 1 (Single Action Accommodation): a computation `(γ, s, d)`
/// containing a single action can be accommodated iff, by `s`, `γ` is a
/// possible action and the system's resources satisfy the simple
/// requirement: `f(Θ, ρ(γ, s, d)) = true`.
///
/// `is_possible` is Definition 1's predicate, supplied by the caller
/// (e.g. [`rota_actor::ActorProgress::is_possible`]).
///
/// # Examples
///
/// ```
/// use rota_actor::{ResourceDemand, SimpleRequirement};
/// use rota_interval::TimeInterval;
/// use rota_logic::theorems::single_action_accommodation;
/// use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};
///
/// let cpu = LocatedType::cpu(Location::new("l1"));
/// let window = TimeInterval::from_ticks(0, 4)?;
/// let theta = ResourceSet::from_terms([ResourceTerm::new(Rate::new(2), window, cpu.clone())])?;
/// let rho = SimpleRequirement::new(ResourceDemand::single(cpu, Quantity::new(8)), window);
/// assert!(single_action_accommodation(&theta, &rho, true));
/// assert!(!single_action_accommodation(&theta, &rho, false));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn single_action_accommodation(
    theta: &ResourceSet,
    requirement: &SimpleRequirement,
    is_possible: bool,
) -> bool {
    is_possible && requirement.satisfied_by(theta)
}

/// Theorem 2 (Sequential Computation Accommodation): a system with
/// resources `Θ` can accommodate `(Γ, s, d)` iff time points
/// `t₁ < … < t_{m−1}` exist dividing `(s, d)` so each subcomputation's
/// simple requirement holds in its sub-window.
///
/// The constructive earliest-feasible search is complete for this model
/// (see [`schedule_complex`]), so `Err` means no breakpoint sequence
/// exists at all.
///
/// # Errors
///
/// Returns [`InfeasibleError`] naming the first uncoverable segment.
pub fn sequential_accommodation(
    theta: &ResourceSet,
    requirement: &ComplexRequirement,
) -> Result<Schedule, InfeasibleError> {
    schedule_complex(theta, requirement, requirement.window().start())
}

/// A Theorem-3 witness: the constructed path and the completion time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineWitness {
    path: ComputationPath,
    completion: TimePoint,
}

impl DeadlineWitness {
    /// The witnessing computation path `σ` (accommodation, then `Δt`
    /// transitions to completion).
    pub fn path(&self) -> &ComputationPath {
        &self.path
    }

    /// When the computation completed (`t_n < d`).
    pub fn completion(&self) -> TimePoint {
        self.completion
    }
}

/// Theorem 3 (Meet Deadline): starting from `S = (Θ, ∅, t)`, computation
/// `Γ` can be completed by deadline `d` iff a computation path exists from
/// `(Θ, ρ(Γ,t,d), t)` to a state `(Θ', ∅, t_n)` with `t_n ≤ d`.
///
/// On success the path is constructed explicitly and returned as a
/// checkable witness; `None` means no such path exists (by Theorem 2's
/// completeness).
pub fn meets_deadline(
    theta: &ResourceSet,
    actor: &ActorName,
    requirement: &ComplexRequirement,
    now: TimePoint,
) -> Option<DeadlineWitness> {
    let schedule = schedule_complex(theta, requirement, now).ok()?;
    let deadline = requirement.window().end();
    let completion = schedule.completion();
    debug_assert!(completion <= deadline);
    let mut path = ComputationPath::new(State::new(theta.clone(), now));
    path.accommodate(schedule.into_commitment(actor.clone(), deadline))
        .expect("accommodation before the deadline");
    path.run_greedy(completion);
    debug_assert!(
        path.current().rho().is_empty(),
        "greedy execution realizes the schedule"
    );
    Some(DeadlineWitness { path, completion })
}

/// The outcome of a successful Theorem-4 admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    state: State,
    schedule: Schedule,
}

impl Admission {
    /// The post-accommodation state (new commitment added, existing ones
    /// untouched).
    pub fn state(&self) -> &State {
        &self.state
    }

    /// The schedule the new computation was pinned to.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Consumes the admission, yielding the new state.
    pub fn into_state(self) -> State {
        self.state
    }
}

/// Theorem 4 (Accommodate Additional Computation): a new `(Γ, s, d)` can
/// be accommodated **without affecting the currently executing
/// computations** if the resources expiring on the current path during
/// `(s, d)` — `⋃ Θ_expire` — satisfy its complex requirement.
///
/// The procedure computes `Θ_expire` over the demanded located types
/// within `(s, d)` ([`State::expiring_in`]), schedules the new
/// requirement against it (Theorem 2), and combines the paths by adding
/// the reserved commitment — the executable form of the paper's
/// concurrent-rule path combination.
///
/// # Errors
///
/// Returns [`InfeasibleError`] when the expiring resources cannot cover
/// the requirement; the input state is untouched (take it by reference
/// and clone on success).
pub fn accommodate_additional(
    state: &State,
    actor: &ActorName,
    requirement: &ComplexRequirement,
) -> Result<Admission, InfeasibleError> {
    let demand = requirement.total_demand();
    let expiring = state.expiring_in(demand.located_types(), requirement.window());
    let schedule = schedule_complex(&expiring, requirement, state.now())?;
    let mut next = state.clone();
    next.accommodate(
        schedule
            .clone()
            .into_commitment(actor.clone(), requirement.window().end()),
    )
    .expect("scheduler cannot produce a past-deadline commitment");
    Ok(Admission {
        state: next,
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commitment::window;
    use rota_actor::ResourceDemand;
    use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceTerm};

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn theta(terms: &[(LocatedType, u64, u64, u64)]) -> ResourceSet {
        terms
            .iter()
            .map(|(lt, r, s, e)| ResourceTerm::new(Rate::new(*r), window(*s, *e), lt.clone()))
            .collect()
    }

    fn complex(segs: &[(LocatedType, u64)], s: u64, d: u64) -> ComplexRequirement {
        ComplexRequirement::new(
            segs.iter()
                .map(|(lt, q)| ResourceDemand::single(lt.clone(), Quantity::new(*q)))
                .collect(),
            window(s, d),
        )
    }

    #[test]
    fn theorem1_needs_both_conditions() {
        let w = window(0, 4);
        let rho = SimpleRequirement::new(ResourceDemand::single(cpu("l1"), Quantity::new(8)), w);
        let enough = theta(&[(cpu("l1"), 2, 0, 4)]);
        let starved = theta(&[(cpu("l1"), 1, 0, 4)]);
        assert!(single_action_accommodation(&enough, &rho, true));
        assert!(!single_action_accommodation(&starved, &rho, true));
        assert!(!single_action_accommodation(&enough, &rho, false));
    }

    #[test]
    fn theorem2_returns_breakpoints() {
        let free = theta(&[(cpu("l1"), 2, 0, 10), (cpu("l2"), 2, 0, 10)]);
        let req = complex(&[(cpu("l1"), 4), (cpu("l2"), 4)], 0, 10);
        let schedule = sequential_accommodation(&free, &req).unwrap();
        assert_eq!(schedule.segments().len(), 2);
        // breakpoint t1 = 2 divides (0,10)
        assert_eq!(schedule.segments()[0].requirement().window(), window(0, 2));
        assert_eq!(schedule.segments()[1].requirement().window(), window(2, 4));
    }

    #[test]
    fn theorem3_constructs_witness_path() {
        let free = theta(&[(cpu("l1"), 2, 0, 10)]);
        let req = complex(&[(cpu("l1"), 6)], 0, 10);
        let witness = meets_deadline(&free, &ActorName::new("a1"), &req, TimePoint::ZERO).unwrap();
        assert_eq!(witness.completion(), TimePoint::new(3));
        let final_state = witness.path().current();
        assert!(final_state.rho().is_empty(), "(Θ', ∅, t_n)");
        assert!(final_state.now() <= TimePoint::new(10));
    }

    #[test]
    fn theorem3_rejects_infeasible() {
        let free = theta(&[(cpu("l1"), 1, 0, 4)]);
        let req = complex(&[(cpu("l1"), 100)], 0, 4);
        assert!(meets_deadline(&free, &ActorName::new("a1"), &req, TimePoint::ZERO).is_none());
    }

    #[test]
    fn theorem4_admits_into_expiring_resources() {
        // System with rate 4; first computation needs only 2/tick worth.
        let free = theta(&[(cpu("l1"), 4, 0, 8)]);
        let first = complex(&[(cpu("l1"), 8)], 0, 8);
        let base = State::new(free, TimePoint::ZERO);
        let a1 = ActorName::new("a1");
        let admitted = accommodate_additional(&base, &a1, &first).unwrap();
        // a1 reserved (0,2) at rate 4; ticks (2,8) expire unused
        let state = admitted.into_state();
        let second = complex(&[(cpu("l1"), 16)], 0, 8);
        let a2 = ActorName::new("a2");
        let admitted2 = accommodate_additional(&state, &a2, &second).unwrap();
        // 16 units at rate 4 starting t=2: completes at t=6
        assert_eq!(admitted2.schedule().completion(), TimePoint::new(6));

        // Execute the combined path: both complete, nobody late.
        let mut combined = admitted2.into_state();
        let labels = combined.run_greedy(TimePoint::new(8));
        assert!(combined.rho().is_empty());
        assert!(!combined.any_late());
        assert!(!labels.is_empty());
    }

    #[test]
    fn theorem4_refuses_when_expiring_insufficient() {
        let free = theta(&[(cpu("l1"), 4, 0, 4)]);
        let first = complex(&[(cpu("l1"), 16)], 0, 4); // consumes everything
        let base = State::new(free, TimePoint::ZERO);
        let state = accommodate_additional(&base, &ActorName::new("a1"), &first)
            .unwrap()
            .into_state();
        let second = complex(&[(cpu("l1"), 1)], 0, 4);
        let err = accommodate_additional(&state, &ActorName::new("a2"), &second).unwrap_err();
        assert_eq!(err.segment(), 0);
    }

    #[test]
    fn theorem4_existing_commitments_unaffected() {
        // a1's schedule before and after admitting a2 is identical.
        let free = theta(&[(cpu("l1"), 4, 0, 8)]);
        let base = State::new(free, TimePoint::ZERO);
        let a1 = ActorName::new("a1");
        let state = accommodate_additional(&base, &a1, &complex(&[(cpu("l1"), 8)], 0, 8))
            .unwrap()
            .into_state();
        let a1_pending_before: Vec<_> = state.rho().get(&a1).unwrap().pending().cloned().collect();
        let state2 = accommodate_additional(
            &state,
            &ActorName::new("a2"),
            &complex(&[(cpu("l1"), 8)], 0, 8),
        )
        .unwrap()
        .into_state();
        let a1_pending_after: Vec<_> = state2.rho().get(&a1).unwrap().pending().cloned().collect();
        assert_eq!(a1_pending_before, a1_pending_after);
    }
}
