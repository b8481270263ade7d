//! Zero-dependency observability for the ROTA workspace.
//!
//! ROTA's pitch is *assurance*: admission via Theorem-4 reasoning is
//! supposed to yield zero deadline misses. Assurance without evidence
//! is a black box, so this crate provides the measurement substrate the
//! admission controller, simulator, and model checker report into:
//!
//! * [`metrics`] — a [`Registry`] of lock-free [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s built on `AtomicU64`.
//!   Hot-path updates are single atomic ops; registration and
//!   snapshots take a mutex on the cold path only.
//! * [`event`] — the [`DecisionEvent`] value saying *why* a request
//!   was rejected (the violated resource term and theorem clause) or a
//!   formula falsified (the first falsifying path prefix). Nothing here
//!   records events: a verdict's explanation is returned to its caller.
//! * [`json`] — a hand-rolled JSON value type, parser, and writer, so
//!   snapshots and decision events serialize without external crates (the
//!   build environment is offline; see `shims/README.md`).
//!
//! Everything here is deliberately dependency-free so every other crate
//! in the workspace can depend on it without cycles or build-time cost.
//!
//! # Metric naming
//!
//! Names are dotted paths with optional `{key=value}` label suffixes,
//! e.g. `admission.accepted{policy=rota}` or `logic.rule.sequential`.
//! Labels are part of the name string; the registry does not interpret
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;

pub use event::DecisionEvent;
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, Registry, Snapshot};
