//! # ROTA — Resource-Oriented Temporal Logic
//!
//! A complete, executable implementation of *Zhao & Jamali, "Temporal
//! Reasoning about Resources for Deadline Assurance in Distributed
//! Systems" (ICDCS 2010)*: a logic in which computational resources are
//! reified over time and space, distributed computations are represented
//! by the resources they require, and admission of deadline-constrained
//! work becomes a decidable scheduling question.
//!
//! The workspace is layered bottom-up; this crate re-exports everything:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`interval`] | `rota-interval` | discrete time, Allen's interval algebra (Table I), constraint networks |
//! | [`resource`] | `rota-resource` | resource terms `[r]^τ_ξ`, resource sets Θ, simplification, relative complement |
//! | [`actor`] | `rota-actor` | the five actor primitives, the cost function Φ, requirements ρ |
//! | [`logic`] | `rota-logic` | states (Θ, ρ, t), the eight transition rules, Theorems 1–4, formulas + model checking |
//! | [`admission`] | `rota-admission` | admission control: ROTA policy vs. naive/optimistic/EDF baselines |
//! | [`cyberorgs`] | `rota-cyberorgs` | hierarchical resource encapsulation (the paper's CyberOrgs proposal) |
//! | [`sim`] | `rota-sim` | discrete-event open-system simulator |
//! | [`workload`] | `rota-workload` | seeded scenario generators |
//!
//! # Quickstart
//!
//! ```
//! use rota::prelude::*;
//!
//! // Resources: 4 CPU units/tick at node l1, available for 20 ticks.
//! let theta = ResourceSet::from_terms([ResourceTerm::new(
//!     Rate::new(4),
//!     TimeInterval::from_ticks(0, 20)?,
//!     LocatedType::cpu(Location::new("l1")),
//! )])?;
//!
//! // A computation: evaluate three expressions by deadline t=20.
//! let gamma = ActorComputation::new("worker", "l1")
//!     .then(ActionKind::evaluate())
//!     .then(ActionKind::evaluate())
//!     .then(ActionKind::evaluate());
//! let job = DistributedComputation::single("job", gamma, TimePoint::ZERO, TimePoint::new(20))?;
//!
//! // Ask ROTA for admission with assurance.
//! let mut controller = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
//! let request = AdmissionRequest::price(job, &TableCostModel::paper(), Granularity::MaximalRun);
//! assert!(controller.submit(&request).is_accept());
//! controller.run_until(TimePoint::new(20));
//! assert_eq!(controller.stats().missed, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rota_actor as actor;
pub use rota_admission as admission;
pub use rota_cyberorgs as cyberorgs;
pub use rota_interval as interval;
pub use rota_logic as logic;
pub use rota_obs as obs;
pub use rota_resource as resource;
pub use rota_sim as sim;
pub use rota_workload as workload;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use rota_actor::{
        ActionKind, ActorComputation, ActorName, ComplexRequirement, ConcurrentRequirement,
        CostModel, DistributedComputation, Granularity, ResourceDemand, SimpleRequirement,
        TableCostModel,
    };
    pub use rota_admission::{
        AdmissionController, AdmissionPolicy, AdmissionRequest, Decision, ExecutionStrategy,
        GreedyEdfPolicy, NaiveTotalPolicy, OptimisticPolicy, RotaPolicy,
    };
    pub use rota_cyberorgs::{CyberOrgs, OrgName};
    pub use rota_interval::{
        AllenRelation, ConstraintNetwork, IntervalSet, RelationSet, TickDuration, TimeInterval,
        TimePoint,
    };
    pub use rota_logic::{
        schedule_complex, schedule_concurrent, theorems, Commitment, ComputationPath, Formula,
        ModelChecker, Schedule, State,
    };
    pub use rota_obs::Registry;
    pub use rota_resource::{
        LocatedType, Location, Quantity, Rate, ResourceProfile, ResourceSet, ResourceTerm,
    };
    pub use rota_sim::{compare_policies, run_scenario, Scenario, SimulationReport};
    pub use rota_workload::{build_scenario, JobShape, WorkloadConfig};
}
