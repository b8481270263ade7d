//! # rota-cluster — multi-node federation for the admission service
//!
//! Scales `rota-server` past one machine while keeping the paper's
//! soundness guarantee: a federated accept is exactly as sound as the
//! single-node [`RotaPolicy`](rota_admission::RotaPolicy) decision
//! over the merged state.
//!
//! The pieces:
//!
//! - [`topology`] — a static, disjoint location → node assignment,
//!   from a JSON file or [`Topology::auto`]. Ownership is the routing
//!   key for everything else, and the topology is the one place node
//!   addresses are kept.
//! - `gossip` — seeded, round-based membership: heartbeats with
//!   indirect beats, deterministic given the seed. Peers missing
//!   heartbeats go **suspect**; routing degrades instead of hanging.
//!   Each node's engine is its one source of liveness.
//! - `router` — a [`RequestHook`](rota_server::RequestHook) mounted
//!   on each node: one pass over an admission's priced demand routes
//!   it. Demand the node owns entirely is decided locally; demand owned
//!   by one other node is forwarded (loop-safe via the protocol's
//!   `forwarded` flag); cross-owner admissions run a two-phase
//!   prepare/commit with TTL-guarded tentative reservations and
//!   compensating aborts. Every peer call reuses a persistent link
//!   (`links`) instead of dialling per hop.
//! - [`node`] — [`Cluster::launch`]: bind every node on its slice of
//!   the supply, patch real addresses into the shared topology, prove
//!   every reachable peer alive with one exchange per node pair, then
//!   start the gossip runtimes that keep membership.
//!
//! ## Why the federation is sound
//!
//! Location ownership is disjoint, so the union of per-node
//! obtainable-resource snapshots *is* the merged single-node state.
//! The coordinator decides a 2PC on that shared basis, and every
//! participant it reaches over the wire re-derives the decision with
//! the same deterministic policy — so participants cannot disagree, and
//! the verdict equals the one a single node holding all resources would
//! return (property-tested in `tests/properties.rs`, and over every
//! interleaving of a few racing operations, up to a bound, in the
//! coordinator's own tests). Tentative reservations carry a TTL, so a
//! coordinator dying between prepare and commit leaks nothing: the
//! owning shards release the hold themselves (chaos-tested in
//! `tests/chaos.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gossip;
mod links;
pub mod node;
mod router;
pub mod topology;
mod twopc;

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub use node::{Cluster, ClusterConfig, ClusterNode};
pub use topology::{NodeSpec, SharedTopology, Topology, TopologyError};

/// Locks `mutex`, recovering the value from a poisoned lock: every
/// value this crate guards stays usable after a panicking holder.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `rwlock`, recovering from poison as [`lock`] does.
pub(crate) fn read<T>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `rwlock`, recovering from poison as [`lock`] does.
pub(crate) fn write<T>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}
