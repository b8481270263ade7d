//! Choosing between courses of action.
//!
//! The paper's conclusion: ROTA "can be useful for computations choosing
//! between various courses of action, allowing them to avoid attempting
//! infeasible pursuits", and Section VI sketches the concrete instance —
//! *an actor could continue to execute at its current location or migrate
//! elsewhere, carry out part of its computation, and then return and
//! resume. Comparing these choices presents some interesting challenges.*
//!
//! [`choose_plan`] implements that comparison: given alternative resource
//! requirements for the same logical work (e.g. stay-local vs.
//! migrate-and-return, priced through Φ), it admission-checks each
//! alternative against the current state's expiring resources (Theorem 4)
//! and picks the best feasible one under a configurable objective.

use rota_actor::{ActorName, ComplexRequirement};

use crate::schedule::InfeasibleError;
use crate::state::State;
use crate::theorems::{accommodate_additional, Admission};

/// What "best" means when several alternatives are feasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanObjective {
    /// Minimize completion time (finish as early as possible).
    #[default]
    EarliestCompletion,
    /// Take the first feasible alternative in the given order (the caller
    /// encodes preference by ordering, e.g. stay-local before migrating).
    FirstFeasible,
}

/// A selected plan: which alternative won and its ready-to-install
/// admission.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Index into the `alternatives` slice passed to [`choose_plan`].
    pub index: usize,
    /// The Theorem-4 admission for that alternative.
    pub admission: Admission,
}

/// Compares alternative requirements for the same computation and
/// returns the best feasible one, or `Err` with per-alternative
/// diagnostics when none fits.
///
/// The state is not modified; install the winner with
/// [`Admission::into_state`](crate::theorems::Admission::into_state) (or
/// discard it to merely *know* the pursuit is feasible).
///
/// # Errors
///
/// When every alternative is infeasible, returns each one's
/// [`InfeasibleError`], index-aligned with `alternatives`.
pub fn choose_plan(
    state: &State,
    actor: &ActorName,
    alternatives: &[ComplexRequirement],
    objective: PlanObjective,
) -> Result<PlanChoice, Vec<InfeasibleError>> {
    let mut failures = Vec::with_capacity(alternatives.len());
    let mut best: Option<PlanChoice> = None;
    for (index, alt) in alternatives.iter().enumerate() {
        match accommodate_additional(state, actor, alt) {
            Ok(admission) => match objective {
                PlanObjective::FirstFeasible => {
                    return Ok(PlanChoice { index, admission });
                }
                PlanObjective::EarliestCompletion => {
                    let better = match &best {
                        None => true,
                        Some(current) => {
                            admission.schedule().completion()
                                < current.admission.schedule().completion()
                        }
                    };
                    if better {
                        best = Some(PlanChoice { index, admission });
                    }
                }
            },
            Err(e) => failures.push(e),
        }
    }
    best.ok_or(failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_actor::{ActionKind, ActorComputation, Granularity, ResourceDemand, TableCostModel};
    use rota_interval::{TimeInterval, TimePoint};
    use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};

    fn iv(s: u64, e: u64) -> TimeInterval {
        TimeInterval::from_ticks(s, e).unwrap()
    }

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    /// Stay-local vs migrate: when the local node is congested, the
    /// migrating plan wins; when migration is impossible (no remote
    /// capacity), the local plan wins.
    #[test]
    fn migration_choice_follows_resources() {
        let phi = TableCostModel::paper();
        let window = iv(0, 24);
        let a1 = ActorName::new("a1");
        // Plan 0: stay at l1, evaluate twice (16 cpu@l1).
        let stay = ActorComputation::new("a1", "l1")
            .then(ActionKind::evaluate())
            .then(ActionKind::evaluate());
        // Plan 1: migrate to l2, evaluate twice there, return.
        let migrate = ActorComputation::new("a1", "l1")
            .then(ActionKind::migrate("l2"))
            .then(ActionKind::evaluate())
            .then(ActionKind::evaluate())
            .then(ActionKind::migrate("l1"));
        let alternatives = vec![
            ComplexRequirement::of_actor(&stay, &phi, window, Granularity::MaximalRun),
            ComplexRequirement::of_actor(&migrate, &phi, window, Granularity::MaximalRun),
        ];

        // Congested l1 (rate 1), fast l2 (rate 8): migrating finishes first.
        let theta: ResourceSet = [
            ResourceTerm::new(Rate::new(1), window, cpu("l1")),
            ResourceTerm::new(Rate::new(8), window, cpu("l2")),
        ]
        .into_iter()
        .collect();
        let state = State::new(theta, TimePoint::ZERO);
        let choice = choose_plan(
            &state,
            &a1,
            &alternatives,
            PlanObjective::EarliestCompletion,
        )
        .unwrap();
        assert_eq!(choice.index, 1, "migrating is faster");

        // No l2 at all: staying is the only feasible plan.
        let theta: ResourceSet = [ResourceTerm::new(Rate::new(2), window, cpu("l1"))]
            .into_iter()
            .collect();
        let state = State::new(theta, TimePoint::ZERO);
        let choice = choose_plan(
            &state,
            &a1,
            &alternatives,
            PlanObjective::EarliestCompletion,
        )
        .unwrap();
        assert_eq!(choice.index, 0);
    }

    #[test]
    fn first_feasible_respects_order() {
        let window = iv(0, 24);
        let a1 = ActorName::new("a1");
        let alt = |q: u64| {
            ComplexRequirement::new(
                vec![ResourceDemand::single(cpu("l1"), Quantity::new(q))],
                window,
            )
        };
        let theta: ResourceSet = [ResourceTerm::new(Rate::new(2), window, cpu("l1"))]
            .into_iter()
            .collect();
        let state = State::new(theta, TimePoint::ZERO);
        // Both feasible; the second would finish earlier (smaller), but
        // FirstFeasible picks index 0.
        let alternatives = vec![alt(16), alt(2)];
        let choice = choose_plan(&state, &a1, &alternatives, PlanObjective::FirstFeasible).unwrap();
        assert_eq!(choice.index, 0);
        let choice = choose_plan(
            &state,
            &a1,
            &alternatives,
            PlanObjective::EarliestCompletion,
        )
        .unwrap();
        assert_eq!(choice.index, 1);
    }

    #[test]
    fn all_infeasible_reports_every_failure() {
        let window = iv(0, 4);
        let a1 = ActorName::new("a1");
        let alt = |q: u64| {
            ComplexRequirement::new(
                vec![ResourceDemand::single(cpu("l1"), Quantity::new(q))],
                window,
            )
        };
        let state = State::new(ResourceSet::new(), TimePoint::ZERO);
        let failures = choose_plan(
            &state,
            &a1,
            &[alt(4), alt(8)],
            PlanObjective::EarliestCompletion,
        )
        .unwrap_err();
        assert_eq!(failures.len(), 2);
    }

    #[test]
    fn winner_installs_cleanly() {
        let window = iv(0, 8);
        let a1 = ActorName::new("a1");
        let theta: ResourceSet = [ResourceTerm::new(Rate::new(4), window, cpu("l1"))]
            .into_iter()
            .collect();
        let state = State::new(theta, TimePoint::ZERO);
        let alt = ComplexRequirement::new(
            vec![ResourceDemand::single(cpu("l1"), Quantity::new(8))],
            window,
        );
        let choice = choose_plan(&state, &a1, &[alt], PlanObjective::EarliestCompletion).unwrap();
        let mut installed = choice.admission.into_state();
        installed.run_greedy(TimePoint::new(8));
        assert!(installed.rho().is_empty());
        assert!(!installed.any_late());
    }
}
