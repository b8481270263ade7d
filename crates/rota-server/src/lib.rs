//! # rota-server — a concurrent deadline-admission service
//!
//! Exposes the ROTA admission check (paper Theorem 4: *can the system
//! accommodate one more computation given its commitments?*) as a
//! network service:
//!
//! - a newline-delimited JSON **wire protocol** over TCP
//!   ([`protocol`]), zero external dependencies, with an enforced frame
//!   size cap;
//! - **sharded admission**: N shards, each a lock around an
//!   [`AdmissionController`](rota_admission::AdmissionController) over
//!   a disjoint, location-keyed slice of the resources ([`shard`]),
//!   decided on the connection thread, so shards never contend;
//! - **explicit backpressure** — an admit that finds its shard busy
//!   with `queue_capacity` admits already waiting answers `overloaded`
//!   instead of waiting without bound;
//! - idle-connection reaping and a **graceful shutdown** that lets
//!   in-flight decisions finish ([`server`]);
//! - observability through [`rota_obs`]: per-shard counters and
//!   lock-wait gauges and decision-latency histograms; the record of
//!   each verdict is the frame its shard keeps in its table of names,
//!   for retries and two-phase steps ([`ServerHandle::decisions`]), so
//!   no record is shared across shards;
//! - **recovery without a restart**: a panic while deciding an admit
//!   costs that admit an `overloaded` answer and leaves its shard's
//!   state as it was, and a retried admit gets its first verdict back
//!   from the shard's table of names ([`shard`]).
//!
//! The [`spec`] module is `rota_analyze::spec` re-exported: the spec
//! types and their JSON codec, which the wire protocol carries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;
pub mod shard;
pub use rota_analyze::spec;

pub use protocol::{
    Diagnostics, GossipDigest, PeerBeat, Reply, Request, Response, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{Clock, LocalHandle, RequestHook, Server, ServerConfig, ServerHandle, WallClock};
pub use shard::{route_request, shard_of, split_by_shard};
