//! Admission control for deadline-constrained distributed computations,
//! built on the ROTA logic.
//!
//! This crate answers the paper's Section IV-B3 question operationally:
//! *"Can the system accommodate one more actor computation when it has
//! already made commitments?"* — by maintaining a live ROTA state and
//! deciding each request with a pluggable [`AdmissionPolicy`]:
//!
//! * [`RotaPolicy`] — the paper's Theorem-4 reasoning: schedule into the
//!   resources that would otherwise expire; admit with exact
//!   reservations. Admitted computations never miss deadlines.
//! * [`NaiveTotalPolicy`] — the total-quantity strawman the paper calls
//!   insufficient (Section III).
//! * [`OptimisticPolicy`] — admit everything not yet past deadline.
//! * [`GreedyEdfPolicy`] — simulation-based earliest-deadline-first
//!   feasibility testing.
//!
//! [`AdmissionController`] wraps a state, a policy and an
//! [`ExecutionStrategy`], executes admitted work tick by tick, and keeps
//! acceptance / completion / deadline-miss statistics — the measurements
//! behind experiments E4–E6, E8 and E9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
pub mod obs;
mod policy;
mod request;

pub use controller::{
    decision_event, AdmissionController, ControllerStats, ExecutionStrategy, Tally,
};
pub use obs::AdmissionObs;
pub use policy::{
    edf_assignments, standard_policies, AdmissionPolicy, Decision, GreedyEdfPolicy,
    NaiveTotalPolicy, OptimisticPolicy, RejectReason, RotaPolicy, SharedPolicy, StandardPolicy,
};
pub use request::AdmissionRequest;
