//! An end-to-end and per-layer benchmark of the ROTA admission service.
//!
//! The service under test — `rota-cli serve` or `rota-cli cluster` —
//! runs as a child process. A closed-loop generator drives it over TCP
//! with `rota_client::Client` from two connections, and a separate
//! traced run replays the same job bytes in-process through each
//! crate's public functions to attribute the time to layers. See
//! `README.md` in this directory for the workloads, the metric map and
//! the known effects.

pub mod drive;
pub mod proc;
pub mod replay;
pub mod run;
pub mod service;
pub mod stats;
pub mod workload;
