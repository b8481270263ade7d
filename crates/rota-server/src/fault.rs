//! Deterministic fault injection for chaos testing the admission
//! service.
//!
//! A [`FaultPlan`] describes *which* faults to inject and *how often*;
//! a [`FaultInjector`] is the live, metric-counting instance threaded
//! through the connection loop and the shards. All randomness
//! derives from the plan's seed plus a per-connection index, so a chaos
//! run is exactly reproducible: same plan, same connection order, same
//! faults.
//!
//! Injectable faults:
//!
//! | fault | where | effect |
//! |---|---|---|
//! | latency | connection, before handling | sleep `U(0, latency_ms]` |
//! | reset | connection, after read, **before** handling | close without answering (the request was never decided — safe to retry) |
//! | truncate | connection, on the response | write a prefix of the frame, then close |
//! | corrupt | connection, on the response | flip one byte of the frame |
//! | panic | shard, under its lock, in the admit's reading half | deliberate panic; the admit answers `overloaded` and the shard keeps its state (see [`crate::shard`]) |
//! | reset_first | the first N connections, at their first frame | deterministic heal-able partition (gossip heartbeats burn the budget, then recover) |
//! | panic_2pc | cluster router, between 2PC prepare and commit | the coordinating connection dies with reservations prepared everywhere; they must TTL-expire (see `rota-cluster`) |
//!
//! Reset and panic fire *before* the admission controller mutates, so a
//! retrying client cannot cause a double admission through them.
//! Truncation and corruption hit a response whose decision already
//! happened — the shard's idempotency cache (keyed by computation name)
//! makes the retry return the original verdict instead of deciding
//! twice.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rota_obs::{Counter, Registry};

/// Panic payload of the injected drills (shard and 2PC coordinator), so
/// a backtrace on stderr names the drill.
pub const INJECTED_PANIC: &str = "rota-injected-shard-panic";

/// What faults to inject, with probabilities in `[0, 1]`.
///
/// Parsed from a compact `key=value` spec, e.g.
/// `seed=42,latency_ms=3,latency_p=0.2,truncate_p=0.05,corrupt_p=0.02,reset_p=0.02,panic_nth=10`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision (per-connection streams derive
    /// from it).
    pub seed: u64,
    /// Probability a request sees injected latency.
    pub latency_p: f64,
    /// Upper bound of the injected latency, in milliseconds.
    pub latency_ms: u64,
    /// Probability a response frame is truncated mid-write.
    pub truncate_p: f64,
    /// Probability one byte of a response frame is flipped.
    pub corrupt_p: f64,
    /// Probability a connection is reset after reading a request,
    /// before handling it.
    pub reset_p: f64,
    /// Deterministically reset the first `n` connections at their first
    /// frame — a heal-able partition: once the budget is burnt,
    /// connections (and so cluster heartbeats) succeed again.
    pub reset_first: u64,
    /// Force a shard panic on the Nth admit processed by the pool
    /// (1-based); `None` disables.
    pub panic_nth: Option<u64>,
    /// Kill the Nth two-phase-commit coordination on this node (1-based)
    /// between its prepare and commit phases — the prepared-but-never-
    /// committed reservations at every participant must TTL-expire, not
    /// leak. `None` disables.
    pub panic_2pc_nth: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            latency_p: 0.0,
            latency_ms: 0,
            truncate_p: 0.0,
            corrupt_p: 0.0,
            reset_p: 0.0,
            reset_first: 0,
            panic_nth: None,
            panic_2pc_nth: None,
        }
    }
}

impl FaultPlan {
    /// Parses the `key=value[,key=value…]` spec format.
    ///
    /// Keys: `seed`, `latency_ms`, `latency_p`, `truncate_p`,
    /// `corrupt_p`, `reset_p`, `reset_first`, `panic_nth`,
    /// `panic_2pc_nth`. Unknown keys and malformed values are errors;
    /// probabilities must lie in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending fragment.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("chaos spec: `{key}={v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos spec: `{key}={v}` outside [0, 1]"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("chaos spec: `{key}={v}` is not an integer"))
            };
            match key {
                "seed" => plan.seed = int(value)?,
                "latency_ms" => plan.latency_ms = int(value)?,
                "latency_p" => plan.latency_p = prob(value)?,
                "truncate_p" => plan.truncate_p = prob(value)?,
                "corrupt_p" => plan.corrupt_p = prob(value)?,
                "reset_p" => plan.reset_p = prob(value)?,
                "reset_first" => plan.reset_first = int(value)?,
                "panic_nth" => plan.panic_nth = Some(int(value)?),
                "panic_2pc_nth" => plan.panic_2pc_nth = Some(int(value)?),
                other => return Err(format!("chaos spec: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        (self.latency_p > 0.0 && self.latency_ms > 0)
            || self.truncate_p > 0.0
            || self.corrupt_p > 0.0
            || self.reset_p > 0.0
            || self.reset_first > 0
            || self.panic_nth.is_some()
            || self.panic_2pc_nth.is_some()
    }
}

/// SplitMix64 — the same mixer the offline `rand` shim uses; inlined so
/// fault decisions do not depend on a dev-dependency's value stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A live fault injector: the plan plus shared counters.
///
/// One per server; connections derive their own deterministic streams
/// via [`FaultInjector::connection`], and shards consult
/// [`FaultInjector::take_panic_ticket`] per admit.
pub struct FaultInjector {
    plan: FaultPlan,
    connections: AtomicU64,
    admits: AtomicU64,
    coordinations: AtomicU64,
    latency: Arc<Counter>,
    truncate: Arc<Counter>,
    corrupt: Arc<Counter>,
    reset: Arc<Counter>,
    panics: Arc<Counter>,
}

impl FaultInjector {
    /// Builds an injector counting into `registry` under
    /// `server.faults.*`.
    pub fn new(plan: FaultPlan, registry: &Registry) -> FaultInjector {
        FaultInjector {
            plan,
            connections: AtomicU64::new(0),
            admits: AtomicU64::new(0),
            coordinations: AtomicU64::new(0),
            latency: registry.counter("server.faults.latency"),
            truncate: registry.counter("server.faults.truncate"),
            corrupt: registry.counter("server.faults.corrupt"),
            reset: registry.counter("server.faults.reset"),
            panics: registry.counter("server.faults.panic"),
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A per-connection fault stream. The `n`th connection of a run
    /// always draws the same stream for a given plan seed.
    pub fn connection(&self) -> ConnectionFaults<'_> {
        let index = self.connections.fetch_add(1, Ordering::Relaxed);
        // Distinct per-connection streams: golden-ratio stride keeps
        // neighboring indices decorrelated after the mix.
        let state = self
            .plan
            .seed
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(1);
        ConnectionFaults {
            injector: self,
            state,
            reset_budgeted: index < self.plan.reset_first,
        }
    }

    /// Shard-worker hook: returns `true` exactly once, on the
    /// `panic_nth`-th admit processed across the pool (1-based). The
    /// caller is expected to panic with [`INJECTED_PANIC`].
    pub fn take_panic_ticket(&self) -> bool {
        let Some(nth) = self.plan.panic_nth else {
            return false;
        };
        let seen = self.admits.fetch_add(1, Ordering::Relaxed) + 1;
        if seen == nth {
            self.panics.inc();
            true
        } else {
            false
        }
    }

    /// Cluster-router hook: returns `true` exactly once, on this node's
    /// `panic_2pc_nth`-th two-phase coordination (1-based), *between*
    /// the prepare and commit phases. The caller is expected to panic
    /// with [`INJECTED_PANIC`], killing the coordinating connection
    /// while the prepared reservations sit uncommitted at every
    /// participant — the leak drill the TTL must win.
    pub fn take_2pc_ticket(&self) -> bool {
        let Some(nth) = self.plan.panic_2pc_nth else {
            return false;
        };
        let seen = self.coordinations.fetch_add(1, Ordering::Relaxed) + 1;
        if seen == nth {
            self.panics.inc();
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// What to do to one outgoing response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Deliver untouched.
    None,
    /// Write only the first `n` bytes, then close the connection.
    Truncate(usize),
    /// Flip bit 0 of the byte at this index before writing.
    ///
    /// Bit 0 is chosen because the JSON encoder escapes control
    /// characters, so no raw byte `0x0B` occurs in a frame — flipping
    /// bit 0 therefore can never fabricate the `\n` (`0x0A`) frame
    /// delimiter and corruption stays confined to one frame.
    Corrupt(usize),
}

/// The per-connection deterministic fault stream.
pub struct ConnectionFaults<'a> {
    injector: &'a FaultInjector,
    state: u64,
    /// Whether this connection falls inside the plan's `reset_first`
    /// budget (its first frame is dropped unanswered).
    reset_budgeted: bool,
}

impl ConnectionFaults<'_> {
    fn unit(&mut self) -> f64 {
        (splitmix64(&mut self.state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        splitmix64(&mut self.state) % bound
    }

    /// Latency to inject before handling the next request, if any.
    /// Counts into `server.faults.latency` when it fires.
    pub fn latency(&mut self) -> Option<Duration> {
        let plan = self.injector.plan();
        if plan.latency_ms == 0 || plan.latency_p <= 0.0 || self.unit() >= plan.latency_p {
            return None;
        }
        self.injector.latency.inc();
        Some(Duration::from_millis(self.below(plan.latency_ms) + 1))
    }

    /// Whether to reset the connection *before* handling the request it
    /// just read — either this connection falls inside the plan's
    /// deterministic `reset_first` budget, or the probabilistic
    /// `reset_p` draw fires. Counts into `server.faults.reset`.
    pub fn reset_before_handling(&mut self) -> bool {
        if self.reset_budgeted {
            self.reset_budgeted = false;
            self.injector.reset.inc();
            return true;
        }
        let plan = self.injector.plan();
        if plan.reset_p <= 0.0 || self.unit() >= plan.reset_p {
            return false;
        }
        self.injector.reset.inc();
        true
    }

    /// The fault (if any) to apply to a response frame of `frame_len`
    /// bytes (excluding the trailing newline). Counts the chosen fault.
    pub fn wire_fault(&mut self, frame_len: usize) -> WireFault {
        let plan = self.injector.plan();
        if frame_len > 0 && plan.truncate_p > 0.0 && self.unit() < plan.truncate_p {
            self.injector.truncate.inc();
            return WireFault::Truncate(self.below(frame_len as u64) as usize);
        }
        if frame_len > 0 && plan.corrupt_p > 0.0 && self.unit() < plan.corrupt_p {
            self.injector.corrupt.inc();
            return WireFault::Corrupt(self.below(frame_len as u64) as usize);
        }
        WireFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "seed=42, latency_ms=3, latency_p=0.2, truncate_p=0.05, corrupt_p=0.02, reset_p=0.01, panic_nth=10",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.latency_ms, 3);
        assert_eq!(plan.latency_p, 0.2);
        assert_eq!(plan.truncate_p, 0.05);
        assert_eq!(plan.corrupt_p, 0.02);
        assert_eq!(plan.reset_p, 0.01);
        assert_eq!(plan.panic_nth, Some(10));
        assert!(plan.is_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("latency").is_err());
        assert!(FaultPlan::parse("latency_p=2.0").is_err());
        assert!(FaultPlan::parse("latency_p=-0.1").is_err());
        assert!(FaultPlan::parse("panic_nth=soon").is_err());
        assert!(FaultPlan::parse("warp_drive=1").is_err());
    }

    #[test]
    fn empty_spec_is_inert() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::default());
        assert!(!plan.is_active());
    }

    #[test]
    fn connection_streams_are_reproducible_and_distinct() {
        let registry = Registry::new();
        let plan = FaultPlan {
            seed: 7,
            truncate_p: 0.5,
            corrupt_p: 0.25,
            ..FaultPlan::default()
        };
        let a = FaultInjector::new(plan.clone(), &registry);
        let b = FaultInjector::new(plan, &registry);
        let mut ca0 = a.connection();
        let mut cb0 = b.connection();
        let faults_a: Vec<_> = (0..64).map(|_| ca0.wire_fault(100)).collect();
        let faults_b: Vec<_> = (0..64).map(|_| cb0.wire_fault(100)).collect();
        assert_eq!(faults_a, faults_b, "same seed, same connection index");
        let mut ca1 = a.connection();
        let faults_a1: Vec<_> = (0..64).map(|_| ca1.wire_fault(100)).collect();
        assert_ne!(faults_a, faults_a1, "distinct streams per connection");
    }

    #[test]
    fn panic_ticket_fires_exactly_once() {
        let registry = Registry::new();
        let injector = FaultInjector::new(
            FaultPlan {
                panic_nth: Some(3),
                ..FaultPlan::default()
            },
            &registry,
        );
        let fired: Vec<bool> = (0..6).map(|_| injector.take_panic_ticket()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(registry.snapshot().counter("server.faults.panic"), Some(1));
    }

    #[test]
    fn reset_first_burns_a_deterministic_budget() {
        let registry = Registry::new();
        let injector = FaultInjector::new(
            FaultPlan {
                reset_first: 2,
                ..FaultPlan::default()
            },
            &registry,
        );
        assert!(injector.plan().is_active());
        // First two connections: reset at the first frame only.
        for _ in 0..2 {
            let mut conn = injector.connection();
            assert!(conn.reset_before_handling());
            assert!(!conn.reset_before_handling(), "budget is one frame");
        }
        // The partition heals: later connections are untouched.
        let mut conn = injector.connection();
        for _ in 0..8 {
            assert!(!conn.reset_before_handling());
        }
        assert_eq!(registry.snapshot().counter("server.faults.reset"), Some(2));
    }

    #[test]
    fn twopc_ticket_fires_exactly_once() {
        let registry = Registry::new();
        let injector = FaultInjector::new(
            FaultPlan {
                panic_2pc_nth: Some(2),
                ..FaultPlan::default()
            },
            &registry,
        );
        assert!(injector.plan().is_active());
        let fired: Vec<bool> = (0..4).map(|_| injector.take_2pc_ticket()).collect();
        assert_eq!(fired, vec![false, true, false, false]);
        // Independent of the shard-panic stream.
        assert!(!injector.take_panic_ticket());
        let plan = FaultPlan::parse("panic_2pc_nth=2,reset_first=3").unwrap();
        assert_eq!(plan.panic_2pc_nth, Some(2));
        assert_eq!(plan.reset_first, 3);
    }

    #[test]
    fn latency_respects_bounds() {
        let registry = Registry::new();
        let injector = FaultInjector::new(
            FaultPlan {
                latency_p: 1.0,
                latency_ms: 5,
                ..FaultPlan::default()
            },
            &registry,
        );
        let mut conn = injector.connection();
        for _ in 0..64 {
            let d = conn.latency().expect("p=1 always fires");
            assert!(d >= Duration::from_millis(1) && d <= Duration::from_millis(5));
        }
        assert_eq!(
            registry.snapshot().counter("server.faults.latency"),
            Some(64)
        );
    }
}
