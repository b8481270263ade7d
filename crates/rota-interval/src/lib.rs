//! Discrete time model and Allen's interval algebra for ROTA.
//!
//! This crate implements the temporal substrate of ROTA, the
//! resource-oriented temporal logic of *Zhao & Jamali, "Temporal Reasoning
//! about Resources for Deadline Assurance in Distributed Systems"
//! (ICDCS 2010)*. The paper formalizes relations between the time intervals
//! of resource terms using Interval Algebra (its Table I); everything in
//! this crate exists to make those intervals and relations precise and
//! executable:
//!
//! * [`TimePoint`] / [`TickDuration`] — the discrete timeline; the paper's
//!   `Δt` is one tick.
//! * [`TimeInterval`] — non-empty half-open `[start, end)` intervals, the
//!   `τ` superscript of a resource term, with intersection, contiguous
//!   union, difference.
//! * [`AllenRelation`] — the thirteen basic relations of Table I, with
//!   total classification ([`AllenRelation::relate`]) and inversion.
//! * [`RelationSet`] — disjunctive constraints over basic relations.
//! * [`compose`] / [`compose_sets`] — the 13×13 composition table, derived
//!   by exhaustive enumeration (provably Allen's table; see module docs).
//! * [`ConstraintNetwork`] — qualitative constraint networks with path
//!   consistency.
//! * [`IntervalSet`] — canonical disjoint unions of intervals, closing
//!   `TimeInterval` under ∪, ∩ and \.
//!
//! # Quick example
//!
//! ```
//! use rota_interval::{AllenRelation, TimeInterval};
//!
//! // The paper's worked example: (0,3) and (3,5) — CPU resource available
//! // back-to-back. The intervals *meet*, so equal-rate terms coalesce.
//! let tau1 = TimeInterval::from_ticks(0, 3)?;
//! let tau2 = TimeInterval::from_ticks(3, 5)?;
//! assert_eq!(AllenRelation::relate(&tau1, &tau2), AllenRelation::Meets);
//! assert_eq!(tau1.union_contiguous(&tau2), Some(TimeInterval::from_ticks(0, 5)?));
//! # Ok::<(), rota_interval::EmptyIntervalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod interval;
mod network;
mod relation;
mod relation_set;
mod set;
mod time;

pub use compose::{compose, compose_sets, equals_is_identity};
pub use interval::{EmptyIntervalError, TimeInterval};
pub use network::{ConstraintNetwork, UnknownVarError, VarId};
pub use relation::{AllenRelation, ALL_RELATIONS};
pub use relation_set::RelationSet;
pub use set::IntervalSet;
pub use time::{TickDuration, TimePoint};
