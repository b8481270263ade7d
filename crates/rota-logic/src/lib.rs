//! ROTA — the resource-oriented temporal logic (Section V of the paper),
//! executable.
//!
//! This crate turns the paper's formal system into decision procedures:
//!
//! * [`State`] — `S = (Θ, ρ, t)`: future available resources, accommodated
//!   requirements, current time; with all eight labeled transition rules
//!   (sequential / concurrent / expiration / general `Δt` steps, plus the
//!   instantaneous acquisition, accommodation and leave rules).
//! * [`Commitment`] / [`Commitments`] / [`ScheduledSegment`] — the `ρ`
//!   component: admitted computations' pending segment requirements, with
//!   optional exact resource reservations.
//! * [`ComputationPath`] — `σ`: recorded branches of the transition tree
//!   (Definition 2).
//! * [`schedule_complex`] / [`schedule_concurrent`] — the constructive
//!   breakpoint search behind Theorems 2 and 4.
//! * [`theorems`] — the paper's four theorems as checkable procedures
//!   returning witnesses (schedules, paths, admissions).
//! * [`Formula`] / [`ModelChecker`] — the well-formed formulas of Section
//!   V-B and the Figure-1 satisfaction semantics, with bounded temporal
//!   exploration over pluggable tree [`Unfolding`]s.
//!
//! # The headline question
//!
//! *"Can we know at time T whether a distributed multi-agent computation A
//! can complete its execution by deadline D?"* — Yes:
//!
//! ```
//! use rota_actor::{ActionKind, ActorComputation, ComplexRequirement, Granularity, TableCostModel};
//! use rota_interval::{TimeInterval, TimePoint};
//! use rota_logic::theorems::meets_deadline;
//! use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
//!
//! // A system offering 2 CPU units/tick at l1 for 10 ticks…
//! let theta = ResourceSet::from_terms([ResourceTerm::new(
//!     Rate::new(2),
//!     TimeInterval::from_ticks(0, 10)?,
//!     LocatedType::cpu(Location::new("l1")),
//! )])?;
//! // …and an actor wanting to evaluate twice and finish by t=10.
//! let gamma = ActorComputation::new("a1", "l1")
//!     .then(ActionKind::evaluate())
//!     .then(ActionKind::evaluate());
//! let rho = ComplexRequirement::of_actor(
//!     &gamma,
//!     &TableCostModel::paper(),
//!     TimeInterval::from_ticks(0, 10)?,
//!     Granularity::MaximalRun,
//! );
//! let witness = meets_deadline(&theta, gamma.actor(), &rho, TimePoint::ZERO)
//!     .expect("16 units at 2/tick fit in 10 ticks");
//! assert_eq!(witness.completion(), TimePoint::new(8));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commitment;
mod formula;
mod model;
pub mod obs;
mod path;
mod planner;
mod schedule;
mod state;
pub mod theorems;
mod workflow;

pub use commitment::{Commitment, Commitments, ScheduledSegment};
pub use formula::{
    CheckOutcome, ChoiceUnfolding, Formula, GreedyUnfolding, ModelChecker, Unfolding,
};
pub use model::SystemModel;
pub use obs::{describe_label, CheckObs, RuleKind};
pub use path::ComputationPath;
pub use planner::{choose_plan, PlanChoice, PlanObjective};
pub use schedule::{
    exhaustive_schedule_exists, schedule_complex, schedule_concurrent, InfeasibleError, Schedule,
};
pub use state::{tick_delivery, Scope, State, TransitionError, TransitionLabel};
pub use workflow::{schedule_workflow, WorkflowError, WorkflowRequirement};
