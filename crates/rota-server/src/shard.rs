//! Sharded admission: each shard is one lock around its own
//! [`AdmissionController`] over a disjoint slice of the system's
//! resources, and a request is decided on the connection thread that
//! read it, under its shard's lock.
//!
//! Sharding is by *location*: every location (and thus every resource
//! term and every computation, keyed by its first actor's origin) is
//! owned by exactly one shard, chosen by a stable hash. Shards never
//! share state and an admit holds only its own shard's lock, so admits
//! on different shards never wait for each other. The cost of that
//! isolation is honesty about multi-location computations: a request
//! is decided against its home shard's resources only, so a
//! computation spanning locations owned by different shards may be
//! rejected where a monolithic controller would admit it (see
//! DESIGN.md).
//!
//! ## One critical section per node-wide call
//!
//! Offer, stats, snapshot, prepare, commit and abort each take every
//! shard's lock in index order (`ShardPool::locked_all`), one order
//! for all, so none can deadlock; each sweeps the shards at one instant
//! and changes all of them or none, so no call sees half of another.
//!
//! ## Backpressure
//!
//! Each shard counts the admits holding or waiting for its lock. Past
//! one holder plus `queue_capacity` waiters, an admit is answered
//! [`Response::Overloaded`] at once instead of joining the wait.
//! Node-wide calls are not counted.
//!
//! ## Panics and idempotency
//!
//! An admit is split where the types already split it: its reading
//! half (pre-validation and the policy's decision) takes the shard
//! state by shared reference, and only it runs inside
//! [`std::panic::catch_unwind`]. A panic there, a genuine bug in the
//! policy, has changed nothing: the caller gets
//! [`Response::Overloaded`] — an honest "try again" — the shard keeps
//! its state, and `server.shard.panics{shard=N}` counts the event. The
//! writing half (install, offer, the 2PC steps, the TTL sweep) reports
//! every failure it can meet as a typed error; if it panics anyway, the
//! lock is poisoned and the next call on that shard aborts the process
//! rather than answer from a state the unwind may have torn (see
//! DESIGN.md §10).
//!
//! Computation names are idempotency keys, but a verdict is replayed
//! only when the retry's *content hash* (name, computation body, priced
//! requirement) matches the original's: a retry or a duplicate attempt
//! gets the original verdict back, byte for byte, instead of committing
//! the computation twice, while a *different* computation reusing a
//! name gets an explicit idempotency-conflict error — the stale verdict
//! would be a lie, and deciding it fresh would double-commit the same
//! actor names. Routing is deterministic by location, so a retry always
//! lands on the shard that holds the verdict.
//!
//! ## One table of names, and the time passed in
//!
//! A shard keeps one table from name to entry: decided, held by a 2PC
//! prepare, or committed. The 2PC's steps are its transitions, and the
//! settled entries' frames are the shard's record of its verdicts. No
//! method of a shard's state reads a clock: the pool reads its [`Clock`]
//! and passes the instant in, so a shard's next state is a function of
//! its state, the call and that instant.
//!
//! ## Pre-admission validation
//!
//! Before a request reaches the policy, the shard runs the
//! `rota-analyze` pre-admission lints against its live Θ in place
//! ([`rota_analyze::prevalidate_request`]): structural defects and
//! demand on located types the shard has no supply for (R0006) are
//! rejected immediately with the structured diagnostics attached to
//! the decision, counted by `server.shard.lint_rejects{shard=N}`.
//! Capacity and deadline feasibility stay with the policy, whose
//! verdict carries the theorem-grade attribution.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rota_actor::ActorName;
use rota_admission::{
    AdmissionController, AdmissionObs, AdmissionPolicy, AdmissionRequest, ControllerStats,
    Decision, RejectReason, SharedPolicy, Tally,
};
use rota_analyze::{prevalidate_request, Report as LintReport, Severity as LintSeverity};
use rota_interval::TimePoint;
use rota_logic::{Commitment, Scope, State, TransitionError};
use rota_obs::{Counter, Gauge, Histogram, Registry};
use rota_resource::{LocatedType, Location, ResourceSet};

use crate::protocol::{encode_frame, Diagnostics, Reply, Response};
use crate::server::Clock;
use crate::spec::ComputationSpec;

/// Stable location → shard routing: FNV-1a over the location name.
///
/// Deterministic across runs and processes, so clients, tests, and
/// operators can predict placement.
pub fn shard_of(location: &Location, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut hash = Fnv1a(FNV_OFFSET);
    hash.write(location.name().as_bytes());
    (hash.finish() % shards as u64) as usize
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a: deterministic across runs and processes, unlike the
/// standard library's seeded hasher. Bytes fold one per round, as FNV
/// defines; an integer folds whole, one word per round.
struct Fnv1a(u64);

impl Fnv1a {
    fn fold(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.fold(u64::from(byte));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Splits a resource set into per-shard subsets by each term's first
/// location (a link belongs to its source node's shard).
pub fn split_by_shard(theta: &ResourceSet, shards: usize) -> Vec<ResourceSet> {
    let mut parts: Vec<Vec<rota_resource::ResourceTerm>> = vec![Vec::new(); shards.max(1)];
    for term in theta.to_terms() {
        let shard = shard_of(term.located().locations()[0], shards.max(1));
        parts[shard].push(term);
    }
    parts
        .into_iter()
        .map(|terms| {
            // PANIC-OK: terms came out of a valid ResourceSet, so the
            // subset cannot overflow; failure here is a library bug.
            ResourceSet::from_terms(terms).expect("subset of a valid set remains valid")
        })
        .collect()
}

/// The shard a request is routed to: its first actor's origin location,
/// or shard 0 for actor-less computations.
pub fn route_request(request: &AdmissionRequest, shards: usize) -> usize {
    request
        .computation()
        .actors()
        .first()
        .map_or(0, |gamma| shard_of(gamma.origin(), shards))
}

struct ShardObs {
    requests: Arc<Counter>,
    overloaded: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    request_ns: Arc<Histogram>,
    panics: Arc<Counter>,
    dedup_hits: Arc<Counter>,
    lint_rejects: Arc<Counter>,
    reservations: Arc<Gauge>,
    /// Live commitments (ρ entries) in the shard's controller.
    commitments: Arc<Gauge>,
    twopc_prepared: Arc<Counter>,
    twopc_committed: Arc<Counter>,
    twopc_aborted: Arc<Counter>,
    twopc_expired: Arc<Counter>,
}

impl ShardObs {
    fn new(registry: &Registry, shard: usize) -> Self {
        ShardObs {
            requests: registry.counter(&format!("server.requests{{shard={shard}}}")),
            overloaded: registry.counter(&format!("server.overloaded{{shard={shard}}}")),
            queue_depth: registry.gauge(&format!("server.queue_depth{{shard={shard}}}")),
            request_ns: registry.histogram(
                &format!("server.request_ns{{shard={shard}}}"),
                Histogram::latency_ns_bounds(),
            ),
            panics: registry.counter(&format!("server.shard.panics{{shard={shard}}}")),
            dedup_hits: registry.counter(&format!("server.shard.dedup_hits{{shard={shard}}}")),
            lint_rejects: registry.counter(&format!("server.shard.lint_rejects{{shard={shard}}}")),
            reservations: registry.gauge(&format!("server.shard.reservations{{shard={shard}}}")),
            commitments: registry.gauge(&format!("server.shard.commitments{{shard={shard}}}")),
            twopc_prepared: registry.counter(&format!("server.twopc.prepared{{shard={shard}}}")),
            twopc_committed: registry.counter(&format!("server.twopc.committed{{shard={shard}}}")),
            twopc_aborted: registry.counter(&format!("server.twopc.aborted{{shard={shard}}}")),
            twopc_expired: registry.counter(&format!("server.twopc.expired{{shard={shard}}}")),
        }
    }
}

/// The idempotency identity of a request: FNV-1a over every field of
/// it (its derived `Hash`), which covers the name, the computation body,
/// and the priced requirement. Two submissions dedup only when they are
/// the *same* request — a different body reusing a name hashes
/// differently and is decided on its own merits.
fn dedup_key(request: &AdmissionRequest) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET);
    request.hash(&mut hash);
    hash.finish()
}

/// Where a name stands on one shard, with the shard's verdict frame:
/// for an admit, the frame its first submitter was sent
/// ([`encode_frame`]), so a replay is those bytes, never rebuilt.
enum Entry {
    /// An admit's verdict, or a two-phase reject this shard confirmed,
    /// with the request's content hash ([`dedup_key`]).
    Decided { hash: u64, frame: Arc<str> },
    /// A prepared two-phase hold: the actor names its install put in
    /// the controller, to withdraw on abort or expiry (`None` for a
    /// hold of the name only), until `expires_at`.
    Held {
        actors: Option<Box<[ActorName]>>,
        expires_at: Instant,
        frame: Arc<str>,
    },
    /// A committed hold, for re-commits and compensating aborts.
    Committed {
        actors: Option<Box<[ActorName]>>,
        frame: Arc<str>,
    },
}

/// A shard's one table of names. Settled entries (decided and
/// committed) share one recency order and one bound, `capacity`: a
/// replay refreshes its entry, a conflict does not. A held entry is
/// never evicted: its TTL bounds it. An evicted accept resubmitted
/// verbatim fails the install, as its actors stay installed, and is
/// rejected (see `AdmissionController::enact`).
#[derive(Default)]
struct Names {
    capacity: usize,
    /// Each name's entry and its key in `recency` or `expiry`.
    entries: HashMap<Arc<str>, (Entry, u64)>,
    /// Settled names by last use, oldest first.
    recency: BTreeMap<u64, Arc<str>>,
    /// Held names by lapse, soonest first.
    expiry: BTreeMap<(Instant, u64), Arc<str>>,
    next: u64,
}

impl Names {
    fn get(&self, name: &str) -> Option<&Entry> {
        self.entries.get(name).map(|(entry, _)| entry)
    }

    /// Enters `entry` as `name`'s, replacing any, as the most recently
    /// used or in expiry order; past the bound, the least recently used
    /// settled entry goes.
    fn insert(&mut self, name: &str, entry: Entry) {
        self.remove(name);
        self.next += 1;
        let (key, name) = (self.next, Arc::<str>::from(name));
        match &entry {
            Entry::Held { expires_at, .. } => self.expiry.insert((*expires_at, key), name.clone()),
            _ => self.recency.insert(key, name.clone()),
        };
        self.entries.insert(name, (entry, key));
        if self.recency.len() > self.capacity {
            if let Some((_, oldest)) = self.recency.pop_first() {
                self.entries.remove(&oldest);
            }
        }
    }

    fn remove(&mut self, name: &str) -> Option<Entry> {
        let (entry, key) = self.entries.remove(name)?;
        match &entry {
            Entry::Held { expires_at, .. } => self.expiry.remove(&(*expires_at, key)),
            _ => self.recency.remove(&key),
        };
        Some(entry)
    }

    /// Removes `name`'s entry if `take` accepts it.
    fn take(&mut self, name: &str, take: impl FnOnce(&Entry) -> bool) -> Option<Entry> {
        take(self.get(name)?).then(|| self.remove(name)).flatten()
    }

    /// Removes the hold that lapses first, if it has lapsed by `now`.
    fn lapsed(&mut self, now: Instant) -> Option<Entry> {
        let (&(expires_at, _), name) = self.expiry.first_key_value()?;
        let name = (expires_at <= now).then(|| Arc::clone(name))?;
        self.remove(&name)
    }

    /// The settled entries' frames, least recently used first.
    fn frames(&self) -> impl Iterator<Item = Arc<str>> + '_ {
        self.recency
            .values()
            .filter_map(|name| match self.get(name)? {
                Entry::Decided { frame, .. } | Entry::Committed { frame, .. } => {
                    Some(Arc::clone(frame))
                }
                Entry::Held { .. } => None,
            })
    }
}

/// The shards of one server, each a lock around its own state.
///
/// Calls run on the caller's thread. The server drains by waiting for
/// in-flight calls to leave the pool, then refusing new ones; the pool
/// itself lives on, so its record of verdicts can still be read (see
/// `crate::server`).
pub(crate) struct ShardPool {
    pub(crate) policy: SharedPolicy,
    shards: Vec<Shard>,
    /// Waiters an admit may join behind the lock holder before it is
    /// answered `overloaded`.
    queue_capacity: usize,
    /// Read for each locked section, and passed in.
    clock: Arc<dyn Clock>,
}

/// One shard: its lock, plus what is needed outside it.
struct Shard {
    state: Mutex<ShardState>,
    /// Admits holding or waiting for `state` — the backpressure count.
    admits: AtomicUsize,
    obs: Arc<ShardObs>,
}

impl ShardPool {
    /// Builds `shards` shards, each owning a controller over its slice
    /// of `theta`, all counting into `registry` (admission metrics
    /// labeled by `policy`, server metrics by shard). `queue_capacity`
    /// bounds each shard's waiting admits; `dedup_capacity` bounds each
    /// shard's settled names; `clock` tells the time.
    pub(crate) fn new<P>(
        policy: P,
        theta: &ResourceSet,
        shards: usize,
        queue_capacity: usize,
        dedup_capacity: usize,
        registry: &Arc<Registry>,
        clock: Arc<dyn Clock>,
    ) -> ShardPool
    where
        P: AdmissionPolicy + Send + Sync + 'static,
    {
        let policy: SharedPolicy = Arc::new(policy);
        let shards = split_by_shard(theta, shards.max(1))
            .into_iter()
            .enumerate()
            .map(|(shard, slice)| {
                let obs = Arc::new(ShardObs::new(registry, shard));
                let controller =
                    AdmissionController::new(Arc::clone(&policy), slice, TimePoint::ZERO)
                        .with_obs(AdmissionObs::new(registry, policy.name()));
                let state = ShardState {
                    shard,
                    controller,
                    obs: Arc::clone(&obs),
                    names: Names {
                        capacity: dedup_capacity.max(1),
                        ..Names::default()
                    },
                };
                Shard {
                    state: Mutex::new(state),
                    admits: AtomicUsize::new(0),
                    obs,
                }
            })
            .collect();
        ShardPool {
            policy,
            shards,
            queue_capacity: queue_capacity.max(1),
            clock,
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Every shard's record of its verdicts: the frames of its settled
    /// names, shard by shard, least recently used first. It skips
    /// [`Self::locked`]'s sweep, so it counts nothing, and reads a
    /// poisoned shard too: the frames themselves are immutable.
    pub(crate) fn decisions(&self) -> Vec<Arc<str>> {
        let frames = |shard: &Shard| {
            let state = shard.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.names.frames().collect::<Vec<_>>()
        };
        self.shards.iter().flat_map(frames).collect()
    }

    /// Runs `f` on shard `index` under its lock, after withdrawing the
    /// shard's reservations lapsed by `now`. A poisoned lock aborts the
    /// process ([`torn`]).
    fn locked<R>(&self, index: usize, now: Instant, f: impl FnOnce(&mut ShardState) -> R) -> R {
        let shard = &self.shards[index];
        shard.obs.queue_depth.add(1);
        let mut state = shard.state.lock().unwrap_or_else(|_| torn(index));
        shard.obs.queue_depth.add(-1);
        state.sweep_expired(now);
        f(&mut state)
    }

    /// Runs `f` over every shard's state as one critical section, locked
    /// in index order (the one order, so no deadlock) and swept at `now`.
    /// A poisoned lock aborts the process ([`torn`]).
    fn locked_all<R>(
        &self,
        now: Instant,
        f: impl FnOnce(&mut [MutexGuard<'_, ShardState>]) -> R,
    ) -> R {
        let mut states: Vec<MutexGuard<'_, ShardState>> = (self.shards.iter().enumerate())
            .map(|(index, shard)| {
                shard.obs.queue_depth.add(1);
                let mut state = shard.state.lock().unwrap_or_else(|_| torn(index));
                shard.obs.queue_depth.add(-1);
                state.sweep_expired(now);
                state
            })
            .collect();
        f(&mut states)
    }

    /// Routes one admission request and decides it under its shard's
    /// lock. A verdict, fresh or replayed, comes back as its encoded
    /// frame. Returns [`Response::Overloaded`] when the shard already
    /// has a holder and `queue_capacity` waiters, or when the decision
    /// panicked (which leaves the shard's state as it was). `computation`
    /// is the spec `request` was built from, as the server decoded it;
    /// the lint reads it.
    pub(crate) fn admit(&self, computation: &ComputationSpec, request: AdmissionRequest) -> Reply {
        let index = route_request(&request, self.shards());
        let shard = &self.shards[index];
        shard.obs.requests.inc();
        let arrived = self.clock.now();
        let verdict = if shard.admits.fetch_add(1, Ordering::Relaxed) > self.queue_capacity {
            None
        } else {
            self.locked(index, arrived, |state| {
                match state.admit(computation, &request)? {
                    Admitted::Answered(reply) => Some(reply),
                    Admitted::Decided(hash, enacted) => {
                        let waited = self.clock.now().saturating_duration_since(arrived);
                        let nanos = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
                        shard.obs.request_ns.observe(nanos);
                        let response =
                            decision_response(&request, enacted.as_ref().copied(), index);
                        Some(state.record(request.name(), hash, &response))
                    }
                }
            })
        };
        shard.admits.fetch_sub(1, Ordering::Relaxed);
        verdict.unwrap_or_else(|| {
            shard.obs.overloaded.inc();
            Reply::Typed(Response::Overloaded { shard: index })
        })
    }

    /// Splits an offered resource set across the shards and installs
    /// every slice, or none when one would overflow a rate.
    pub(crate) fn offer(&self, theta: ResourceSet) -> Response {
        let slices = split_by_shard(&theta, self.shards());
        let terms = slices.iter().map(ResourceSet::term_count).sum::<usize>() as u64;
        self.locked_all(self.clock.now(), |states| {
            // Θ holds nothing before the present, so a slice overflows
            // it exactly where the install, which clips to the present,
            // would.
            for (state, slice) in states.iter().zip(&slices) {
                if let Err(e) = state.controller.state().theta().union(slice) {
                    let message = TransitionError::from(e).to_string();
                    return Response::Error { message };
                }
            }
            for (state, slice) in states.iter_mut().zip(slices) {
                let offered = state.controller.offer_resources(slice);
                // PANIC-OK: checked above, under the same locks.
                offered.expect("a checked slice joins");
                state.changed();
            }
            Response::Offered { terms }
        })
    }

    /// Sums every shard's controller statistics, read at one instant.
    pub(crate) fn stats(&self) -> Response {
        self.locked_all(self.clock.now(), |states| {
            let mut stats = ControllerStats::default();
            for state in states.iter() {
                let shard = state.controller.stats();
                stats.accepted += shard.accepted;
                stats.rejected += shard.rejected;
                stats.completed += shard.completed;
                stats.missed += shard.missed;
                stats.withdrawn += shard.withdrawn;
            }
            let shards = states.len();
            Response::Stats { stats, shards }
        })
    }

    /// Collects the resources every shard still has available after
    /// every commitment and tentative reservation — within `scope` when
    /// one is given, else all of them — as a cut at one instant, and
    /// merges the (disjoint) supplies into one resource set: the node's
    /// contribution to a 2PC coordinator's basis.
    pub(crate) fn cluster_state(&self, scope: Option<&Scope>) -> Result<ResourceSet, String> {
        self.locked_all(self.clock.now(), |states| {
            let mut merged = ResourceSet::new();
            for state in states.iter() {
                let logic = state.controller.state();
                let theta = match scope {
                    Some(scope) => logic.expiring_in(scope.types(), scope.window()),
                    None => logic.expiring_resources(),
                };
                (merged.add_set(&theta))
                    .map_err(|e| format!("merging shard {} snapshot: {e}", state.shard))?;
            }
            Ok(merged)
        })
    }

    /// The verdict a single merged node would issue for `request` on
    /// the coordinator-supplied merged `basis`. It depends only on the
    /// two, so it is decided outside every lock, and a node that already
    /// holds it hands it to [`ShardPool::prepare`] instead of deciding
    /// again.
    pub(crate) fn decide(&self, request: &AdmissionRequest, basis: &ResourceSet) -> Decision {
        self.policy
            .decide(&State::new(basis.clone(), TimePoint::ZERO), request)
    }

    /// Phase one of two-phase commit for a `verdict` already decided on
    /// the merged `basis` ([`ShardPool::decide`]), changing every shard
    /// or none. A name the node holds or has committed answers
    /// `prepared`, its holds refreshed to lapse `ttl` from now. Else the
    /// first shard whose part of what the verdict read has moved
    /// ([`ShardState::read_stands`]) answers `stale-epoch`; then shard 0
    /// records a reject, or every shard holds its share of an accept
    /// ([`ShardState::hold`]), and a failed share aborts those before.
    pub(crate) fn prepare(
        &self,
        request: &AdmissionRequest,
        verdict: &Decision,
        basis: &ResourceSet,
        ttl: Duration,
    ) -> Response {
        let now = self.clock.now();
        let name = request.name();
        let scope = Scope::of(request.demand(), request.window());
        let prepared = Response::Prepared { name: name.into() };
        self.locked_all(now, |states| {
            if states.iter().any(|state| state.keeps(name)) {
                states
                    .iter_mut()
                    .for_each(|state| state.refresh(name, now + ttl));
                return prepared;
            }
            if let Some(state) = states.iter().find(|s| !s.read_stands(&scope, basis)) {
                // The v6 frame keeps its epoch members; they read 0.
                return Response::StaleEpoch {
                    shard: state.shard,
                    epoch: 0,
                    expected: 0,
                };
            }
            let commitments = match verdict {
                Decision::Accept(commitments) => commitments,
                Decision::Reject(reason) => {
                    let response = decision_response(request, Err(reason), 0);
                    states[0].record(name, dedup_key(request), &response);
                    return response;
                }
            };
            let tally = Arc::new(Tally::default());
            for index in 0..states.len() {
                if let Err(message) = states[index].hold(request, commitments, &tally, now + ttl) {
                    for state in &mut states[..index] {
                        state.abort(name);
                    }
                    return Response::Error { message };
                }
            }
            prepared
        })
    }

    /// Phase two: makes the named reservation permanent on every shard,
    /// or fails, changing nothing, when some shard neither holds nor
    /// has committed it (a node's holds from one prepare lapse
    /// together). Idempotent for a committed name.
    pub(crate) fn commit(&self, name: &str) -> Result<(), String> {
        self.locked_all(self.clock.now(), |states| {
            if let Some(state) = states.iter().find(|state| !state.keeps(name)) {
                return Err(format!(
                    "shard {}: no reservation named `{name}` (expired or never prepared)",
                    state.shard
                ));
            }
            states.iter_mut().for_each(|state| state.commit(name));
            Ok(())
        })
    }

    /// Releases the named reservation on every shard (or compensates a
    /// committed one after another node's commit failed); returns
    /// whether any shard actually released something.
    pub(crate) fn abort(&self, name: &str) -> bool {
        self.locked_all(self.clock.now(), |states| {
            (states.iter_mut()).fold(false, |released, state| state.abort(name) | released)
        })
    }
}

/// A poisoned shard lock: a write panicked mid-mutation, so no answer
/// may be built from the state behind it, and the process aborts.
fn torn(index: usize) -> ! {
    eprintln!("shard {index}: a write panicked under its lock; aborting");
    std::process::abort()
}

/// Settled names kept per shard: the one bound of its table of names.
pub(crate) const DEDUP_CAPACITY: usize = 1024;

/// Everything a shard's lock guards. No method reads a clock: the time
/// a transition needs is passed in.
struct ShardState {
    shard: usize,
    controller: AdmissionController<SharedPolicy>,
    obs: Arc<ShardObs>,
    names: Names,
}

/// How an admit left its locked section's first half.
enum Admitted {
    /// With its answer: a replay, a conflict or a lint reject.
    Answered(Reply),
    /// With the policy's enacted verdict (the commitments installed, or
    /// the reason for rejecting), to record under its content hash.
    Decided(u64, Result<usize, RejectReason>),
}

impl ShardState {
    /// Withdraws the holds lapsed by `now`, soonest first, up to a live
    /// one — run lazily at the head of every locked section, so expiry
    /// needs no timer thread and shows in any subsequent request.
    fn sweep_expired(&mut self, now: Instant) {
        while let Some(Entry::Held { actors, .. }) = self.names.lapsed(now) {
            self.release(actors);
            self.obs.twopc_expired.inc();
            self.obs.reservations.set(self.names.expiry.len() as i64);
        }
    }

    /// Withdraws what a hold installed, if it installed anything; a
    /// hold of the name only changes nothing. (An actor-less install's
    /// in-flight key is the empty list, so withdrawing `[]` for a name
    /// only hold would release some other request.)
    fn release(&mut self, actors: Option<Box<[ActorName]>>) {
        if let Some(actors) = actors {
            self.controller.withdraw(&actors);
            self.changed();
        }
    }

    /// Marks a mutation: publishes the live commitment count.
    fn changed(&mut self) {
        let live = self.controller.state().rho().len();
        self.obs.commitments.set(live as i64);
    }

    /// Answers `request` from its name's entry, or decides and enacts
    /// it. A lint reject is recorded here; a policy verdict is handed
    /// back for [`Self::record`]. `None` when the reading half
    /// ([`Self::judge`]) panicked: the shard's state is then as it was
    /// before the call.
    fn admit(
        &mut self,
        computation: &ComputationSpec,
        request: &AdmissionRequest,
    ) -> Option<Admitted> {
        let name = request.name();
        let hash = dedup_key(request);
        let conflict = match self.names.get(name) {
            None => None,
            Some(Entry::Decided { hash: first, frame }) if *first == hash => {
                let frame = Reply::Frame(Arc::clone(frame));
                // Re-entered as the most recently used.
                if let Some(entry) = self.names.remove(name) {
                    self.names.insert(name, entry);
                }
                self.obs.dedup_hits.inc();
                return Some(Admitted::Answered(frame));
            }
            Some(Entry::Decided { .. }) => Some("was already decided with different content"),
            Some(_) => Some("is held or committed by a two-phase admission"),
        };
        if let Some(why) = conflict {
            return Some(Admitted::Answered(Reply::Typed(Response::Error {
                message: format!(
                    "idempotency conflict: computation `{name}` {why}; use a fresh name"
                ),
            })));
        }
        // The closure reads the state through a shared reference; the
        // assertion is needed only for the policy, a trait object the
        // compiler cannot prove free of interior mutability.
        let this = &*self;
        let Ok(judged) = catch_unwind(AssertUnwindSafe(|| this.judge(computation, request))) else {
            self.obs.panics.inc();
            return None;
        };
        match judged {
            Err(lint) => {
                self.obs.lint_rejects.inc();
                let response = lint_response(request, &lint, self.shard);
                Some(Admitted::Answered(self.record(name, hash, &response)))
            }
            Ok(decision) => {
                let enacted = self.controller.enact(request, decision);
                if enacted.is_ok() {
                    self.changed();
                }
                Some(Admitted::Decided(hash, enacted))
            }
        }
    }

    /// Encodes a fresh verdict once into the frame that is both kept
    /// as `name`'s entry and sent.
    fn record(&mut self, name: &str, hash: u64, response: &Response) -> Reply {
        let frame = encode_frame(response);
        let entry = Entry::Decided {
            hash,
            frame: Arc::clone(&frame),
        };
        self.names.insert(name, entry);
        Reply::Frame(frame)
    }

    /// An admit's reading half: pre-admission static analysis against
    /// this shard's live supply (structurally broken requests bounce
    /// with machine diagnostics before the policy spends scheduling
    /// time on them), then the policy's verdict. It holds the state by shared reference, so a
    /// panic anywhere in it has changed nothing.
    fn judge(
        &self,
        computation: &ComputationSpec,
        request: &AdmissionRequest,
    ) -> Result<Decision, LintReport> {
        let lint = prevalidate_request(
            computation,
            self.controller.state().theta(),
            request.demand(),
        );
        if lint.has_errors() {
            return Err(lint);
        }
        Ok(self.controller.decide(request))
    }

    /// Whether this shard holds `name` for a two-phase admission, or
    /// has committed it.
    fn keeps(&self, name: &str) -> bool {
        !matches!(self.names.get(name), None | Some(Entry::Decided { .. }))
    }

    /// Moves the lapse of `name`'s hold, if it is held, to `expires_at`.
    fn refresh(&mut self, name: &str, expires_at: Instant) {
        if let Some(Entry::Held { actors, frame, .. }) =
            self.names.take(name, |e| matches!(e, Entry::Held { .. }))
        {
            let held = Entry::Held {
                actors,
                expires_at,
                frame,
            };
            self.names.insert(name, held);
        }
    }

    /// Holds `request`'s name until `expires_at` with this shard's share
    /// of an accept ([`Self::share`]), installed and counted through
    /// `tally`, all the shares counting the computation once; a shard
    /// whose share is empty holds the name only.
    fn hold(
        &mut self,
        request: &AdmissionRequest,
        commitments: &[Commitment],
        tally: &Arc<Tally>,
        expires_at: Instant,
    ) -> Result<(), String> {
        let share = self.share(commitments);
        let actors = (!share.is_empty()).then(|| share.iter().map(|c| c.actor().clone()).collect());
        if actors.is_some() {
            let (shard, deadline) = (self.shard, request.deadline());
            (self.controller.install_share(share, deadline, tally))
                .map_err(|e| format!("shard {shard}: prepared commitments not installable: {e}"))?;
            self.changed();
        }
        let accepted = decision_response(request, Ok(commitments.len()), self.shard);
        let held = Entry::Held {
            actors,
            expires_at,
            frame: encode_frame(&accepted),
        };
        self.names.insert(request.name(), held);
        self.obs.twopc_prepared.inc();
        self.obs.reservations.set(self.names.expiry.len() as i64);
        Ok(())
    }

    /// The first locations of the supply this shard was given (its Θ,
    /// which [`split_by_shard`] cut by that rule): the shard owns a
    /// located type whose first location is one of them.
    fn owned(&self) -> HashSet<&Location> {
        self.controller
            .state()
            .theta()
            .located_types()
            .map(|located| located.locations()[0])
            .collect()
    }

    /// Whether a two-phase verdict decided on `basis` still reads, of
    /// this shard, what the shard holds: its Θ_expire on the types of
    /// `scope` it owns, over the scope's window, equals `basis` cut to
    /// the same. That is all a decision on the request reads of the
    /// shard (DESIGN.md §12), so the verdict is the one a live decision
    /// would give. A shard that owns none of the scope read nothing.
    fn read_stands(&self, scope: &Scope, basis: &ResourceSet) -> bool {
        let owned = self.owned();
        let types: Vec<&LocatedType> = scope
            .types()
            .iter()
            .filter(|located| owned.contains(located.locations()[0]))
            .collect();
        let window = scope.window();
        types.is_empty()
            || self
                .controller
                .state()
                .expiring_in(types.iter().copied(), window)
                == basis.exclude_support_within(&ResourceSet::new(), types, &window)
    }

    /// This shard's share of an accept: every commitment projected onto
    /// the located types it owns ([`Self::owned`]). A segment at a
    /// location no shard was given supply for is held by none.
    fn share(&self, commitments: &[Commitment]) -> Vec<Commitment> {
        let owned = self.owned();
        commitments
            .iter()
            .filter_map(|c| c.project(|located| owned.contains(located.locations()[0])))
            .collect()
    }

    /// Makes a held name permanent; a committed one stays. The pool
    /// checks first that the name is one or the other ([`Self::keeps`]).
    fn commit(&mut self, name: &str) {
        if let Some(Entry::Held { actors, frame, .. }) =
            self.names.take(name, |e| matches!(e, Entry::Held { .. }))
        {
            self.names.insert(name, Entry::Committed { actors, frame });
            self.obs.twopc_committed.inc();
            self.obs.reservations.set(self.names.expiry.len() as i64);
        }
    }

    /// Releases a held name, or compensates a committed one: another
    /// node failed its commit, so this one is rolled back to keep the
    /// admission atomic. A decided name stays.
    fn abort(&mut self, name: &str) -> bool {
        let taken = self
            .names
            .take(name, |entry| !matches!(entry, Entry::Decided { .. }));
        let Some(Entry::Held { actors, .. } | Entry::Committed { actors, .. }) = taken else {
            return false;
        };
        self.release(actors);
        self.obs.twopc_aborted.inc();
        self.obs.reservations.set(self.names.expiry.len() as i64);
        true
    }
}

fn decision_response(
    request: &AdmissionRequest,
    verdict: Result<usize, &RejectReason>,
    shard: usize,
) -> Response {
    match verdict {
        Ok(commitments) => Response::Decision {
            computation: request.name().to_string(),
            accepted: true,
            shard,
            reason: format!("{commitments} commitment(s) scheduled"),
            violated_term: None,
            clause: None,
            diagnostics: Diagnostics::default(),
        },
        Err(reject) => Response::Decision {
            computation: request.name().to_string(),
            accepted: false,
            shard,
            reason: reject.to_string(),
            violated_term: reject.violated_term().map(str::to_string),
            clause: Some(reject.clause().to_string()),
            diagnostics: Diagnostics::default(),
        },
    }
}

/// The decision for a request that failed pre-admission lints: a
/// rejection whose grounds are the analyzer's diagnostics rather than
/// a policy verdict.
fn lint_response(request: &AdmissionRequest, report: &LintReport, shard: usize) -> Response {
    let errors = report.count(LintSeverity::Error);
    Response::Decision {
        computation: request.name().to_string(),
        accepted: false,
        shard,
        reason: format!(
            "rejected by static analysis: {errors} lint error(s) (policy not consulted)"
        ),
        violated_term: None,
        clause: Some("static analysis (pre-admission)".to_string()),
        diagnostics: Diagnostics::of(report.diagnostics()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rota_actor::{
        ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
    };
    use rota_admission::RotaPolicy;
    use rota_interval::TimeInterval;
    use rota_resource::{LocatedType, Rate, ResourceTerm};
    use std::sync::atomic::AtomicBool;

    use crate::server::WallClock;

    fn wall() -> Arc<dyn Clock> {
        Arc::new(WallClock)
    }

    /// Admits a built request with the spec a server would have
    /// decoded for it.
    trait AdmitRequest {
        fn admit_request(&self, request: AdmissionRequest) -> Reply;
    }

    impl AdmitRequest for ShardPool {
        fn admit_request(&self, request: AdmissionRequest) -> Reply {
            self.admit(&ComputationSpec::from(request.computation()), request)
        }
    }

    /// A clock that moves only when a test moves it.
    struct ManualClock(Mutex<Instant>);

    impl Default for ManualClock {
        fn default() -> Self {
            ManualClock(Mutex::new(Instant::now()))
        }
    }

    impl ManualClock {
        fn advance(&self, by: Duration) {
            *self.0.lock().unwrap() += by;
        }
    }

    impl Clock for ManualClock {
        fn now(&self) -> Instant {
            *self.0.lock().unwrap()
        }
    }

    fn theta_at(locations: &[&str], rate: u64, end: u64) -> ResourceSet {
        ResourceSet::from_terms(locations.iter().map(|l| {
            ResourceTerm::new(
                Rate::new(rate),
                TimeInterval::from_ticks(0, end).unwrap(),
                LocatedType::cpu(Location::new(l)),
            )
        }))
        .unwrap()
    }

    fn request_at(name: &str, location: &str, evals: usize, deadline: u64) -> AdmissionRequest {
        let mut gamma = ActorComputation::new(format!("{name}-a"), location);
        for _ in 0..evals {
            gamma.push(ActionKind::evaluate());
        }
        AdmissionRequest::price(
            DistributedComputation::single(name, gamma, TimePoint::ZERO, TimePoint::new(deadline))
                .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        )
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for name in ["l0", "l1", "l2", "node-west-17"] {
                let a = shard_of(&Location::new(name), shards);
                let b = shard_of(&Location::new(name), shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
    }

    /// Placement is FNV-1a over the location's bytes, so it is pinned:
    /// clients, peers and benchmarks predict it.
    #[test]
    fn routing_places_locations_where_it_always_has() {
        let place = |i: usize| shard_of(&Location::new(format!("l{i}")), 4);
        assert_eq!((0..4).map(place).collect::<Vec<_>>(), [1, 2, 3, 0]);
        let mut per_shard = [0; 4];
        for i in 0..64 {
            per_shard[place(i)] += 1;
        }
        assert_eq!(per_shard, [15, 17, 17, 15]);
    }

    #[test]
    fn split_assigns_every_term_to_its_location_shard() {
        let theta = theta_at(&["l0", "l1", "l2", "l3"], 4, 16);
        let parts = split_by_shard(&theta, 3);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(ResourceSet::term_count).sum();
        assert_eq!(total, 4);
        for (shard, part) in parts.iter().enumerate() {
            for term in part.to_terms() {
                assert_eq!(shard_of(term.located().locations()[0], 3), shard);
            }
        }
    }

    #[test]
    fn pool_admits_and_aggregates_stats() {
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0", "l1"], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 2, 8, DEDUP_CAPACITY, &registry, wall());
        // Feasible job at l0, infeasible (too much work) job at l1.
        let yes = pool
            .admit_request(request_at("yes", "l0", 1, 16))
            .into_response();
        let no = pool
            .admit_request(request_at("no", "l1", 64, 16))
            .into_response();
        assert!(
            matches!(yes, Response::Decision { accepted: true, .. }),
            "{yes:?}"
        );
        assert!(
            matches!(
                no,
                Response::Decision {
                    accepted: false,
                    ..
                }
            ),
            "{no:?}"
        );
        match pool.stats() {
            Response::Stats { stats, shards } => {
                assert_eq!(shards, 2);
                assert_eq!(stats.accepted, 1);
                assert_eq!(stats.rejected, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pool.decisions().len(), 2, "both verdicts recorded");
        let snap = registry.snapshot();
        let routed: u64 = (0..2)
            .map(|s| {
                snap.counter(&format!("server.requests{{shard={s}}}"))
                    .unwrap()
            })
            .sum();
        assert_eq!(routed, 2);
    }

    #[test]
    fn in_flight_gauge_sums_the_shards() {
        let (a, b) = (location_on(0, 2), location_on(1, 2));
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&[&a, &b], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 2, 8, DEDUP_CAPACITY, &registry, wall());
        for (name, location) in [("on-a", &a), ("on-b", &b)] {
            let verdict = pool
                .admit_request(request_at(name, location, 1, 16))
                .into_response();
            assert!(
                matches!(verdict, Response::Decision { accepted: true, .. }),
                "{verdict:?}"
            );
        }
        assert_eq!(
            registry
                .snapshot()
                .gauge("admission.in_flight{policy=rota}"),
            Some(2)
        );
    }

    #[test]
    fn offer_reaches_the_owning_shard() {
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::new(
            RotaPolicy,
            &ResourceSet::new(),
            2,
            4,
            DEDUP_CAPACITY,
            &registry,
            wall(),
        );
        // Without resources the job is refused; after an offer it fits.
        let before = pool
            .admit_request(request_at("j", "l0", 1, 16))
            .into_response();
        assert!(matches!(
            before,
            Response::Decision {
                accepted: false,
                ..
            }
        ));
        match pool.offer(theta_at(&["l0"], 4, 16)) {
            Response::Offered { terms } => assert_eq!(terms, 1),
            other => panic!("unexpected {other:?}"),
        }
        let after = pool
            .admit_request(request_at("j2", "l0", 1, 16))
            .into_response();
        assert!(
            matches!(after, Response::Decision { accepted: true, .. }),
            "{after:?}"
        );
    }

    #[test]
    fn an_offer_that_overflows_one_slice_installs_none() {
        let (home, other) = (location_on(0, 2), location_on(1, 2));
        let theta = theta_at(&[&other], u64::MAX, 16);
        let (pool, _) = pool_over(&theta, 2);
        match pool.offer(theta_at(&[&home, &other], 4, 16)) {
            Response::Error { message } => assert!(message.contains("overflow"), "{message}"),
            other => panic!("expected an error, got {other:?}"),
        }
        assert_eq!(
            pool.cluster_state(None).unwrap(),
            theta,
            "shard 0 took no slice either"
        );
    }

    #[test]
    fn repeated_name_returns_cached_verdict() {
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 1, 8, DEDUP_CAPACITY, &registry, wall());
        // An accept, a policy reject (64 evaluations outrun 64 units by
        // tick 16) and an R0006 lint reject carrying its diagnostics.
        for (name, location, evals, accepted, code) in [
            ("same", "l0", 1, true, None),
            ("heavy", "l0", 64, false, None),
            ("ghost", "l9", 1, false, Some("R0006")),
        ] {
            let first = pool.admit_request(request_at(name, location, evals, 16));
            let Reply::Frame(sent) = &first else {
                panic!("a verdict is sent as its frame: {first:?}");
            };
            // The frame is the wire encoding of the typed verdict.
            let verdict = first.clone().into_response();
            let mut line = String::new();
            verdict.write_json(&mut line);
            assert_eq!(**sent, line);
            let Response::Decision {
                accepted: was_accepted,
                diagnostics,
                ..
            } = &verdict
            else {
                panic!("unexpected {verdict:?}");
            };
            assert_eq!(*was_accepted, accepted, "{verdict:?}");
            let diagnostics = diagnostics.parse();
            let codes: Vec<_> = diagnostics
                .iter()
                .filter_map(|d| d.get("code").and_then(rota_obs::Json::as_str))
                .collect();
            assert_eq!(codes.first().copied(), code, "{verdict:?}");
            // The retry gets the cached frame itself: the same bytes.
            let again = pool.admit_request(request_at(name, location, evals, 16));
            let Reply::Frame(replayed) = &again else {
                panic!("a replay is a frame: {again:?}");
            };
            assert!(Arc::ptr_eq(sent, replayed), "{name}: not the cached frame");
            assert_eq!(again, first, "{name}: idempotent by request content");
        }
        // The record holds each name once: the replays added nothing.
        // Only the first submissions were decided, and the lint reject
        // never reached the policy.
        assert_eq!(pool.decisions().len(), 3);
        assert_eq!(
            registry
                .snapshot()
                .counter("admission.requests{policy=rota}"),
            Some(2)
        );
        assert_eq!(
            registry
                .snapshot()
                .counter("server.shard.dedup_hits{shard=0}"),
            Some(3)
        );
    }

    #[test]
    fn same_name_different_body_is_not_deduped() {
        // Regression: the cache used to key on the computation name
        // alone, so a *different* computation reusing a name was
        // answered with the stale verdict — the client saw a decision
        // about a body the controller never looked at. Now the content
        // hash disagrees and the retry is refused outright.
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 1, 8, DEDUP_CAPACITY, &registry, wall());
        let first = pool
            .admit_request(request_at("same", "l0", 1, 16))
            .into_response();
        assert!(
            matches!(first, Response::Decision { accepted: true, .. }),
            "{first:?}"
        );
        // Same name, different body: neither the stale verdict nor a
        // double commit — an explicit conflict.
        let conflicting = pool
            .admit_request(request_at("same", "l0", 2, 16))
            .into_response();
        match &conflicting {
            Response::Error { message } => {
                assert!(message.contains("idempotency conflict"), "{message}");
            }
            other => panic!("expected a conflict error, got {other:?}"),
        }
        assert_eq!(
            registry
                .snapshot()
                .counter("admission.requests{policy=rota}"),
            Some(1),
            "the conflicting body never reached the controller"
        );
        assert_eq!(
            registry
                .snapshot()
                .counter("server.shard.dedup_hits{shard=0}")
                .unwrap_or(0),
            0,
            "a conflict is not a dedup hit"
        );
        // An identical retry of the first body still dedups.
        let replay = pool
            .admit_request(request_at("same", "l0", 1, 16))
            .into_response();
        assert_eq!(replay, first);
        assert_eq!(
            pool.decisions().len(),
            1,
            "the replay was served from cache"
        );
        assert_eq!(
            registry
                .snapshot()
                .counter("admission.requests{policy=rota}"),
            Some(1)
        );
    }

    #[test]
    fn lint_erroring_request_bounces_with_diagnostics() {
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 1, 8, DEDUP_CAPACITY, &registry, wall());
        // Demand at a location with no declared supply: R0006, decided
        // by the analyzer, never by the policy.
        let bounced = pool
            .admit_request(request_at("ghost", "l9", 1, 16))
            .into_response();
        match &bounced {
            Response::Decision {
                accepted,
                clause,
                diagnostics,
                ..
            } => {
                assert!(!accepted);
                assert_eq!(clause.as_deref(), Some("static analysis (pre-admission)"));
                assert!(
                    diagnostics
                        .parse()
                        .iter()
                        .any(|d| d.get("code").and_then(rota_obs::Json::as_str) == Some("R0006")),
                    "{bounced:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            registry
                .snapshot()
                .counter("admission.requests{policy=rota}"),
            Some(0),
            "the policy was never consulted"
        );
        assert_eq!(
            registry
                .snapshot()
                .counter("server.shard.lint_rejects{shard=0}"),
            Some(1)
        );
    }

    /// The diagnostics of a pre-admission lint bounce, as
    /// `(code, path, message)`; panics on any other response.
    fn lint_bounce(response: &Response) -> Vec<(String, String, String)> {
        match response {
            Response::Decision {
                accepted: false,
                clause,
                diagnostics,
                ..
            } if clause.as_deref() == Some("static analysis (pre-admission)") => diagnostics
                .parse()
                .iter()
                .map(|d| {
                    let field = |key| {
                        d.get(key)
                            .and_then(rota_obs::Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("code"), field("path"), field("message"))
                })
                .collect(),
            other => panic!("expected a lint bounce, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_actor_request_bounces_with_r0005() {
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 4, 64);
        let pool = ShardPool::new(RotaPolicy, &theta, 1, 8, DEDUP_CAPACITY, &registry, wall());
        let twin = || ActorComputation::new("twin", "l0").then(ActionKind::evaluate());
        let request = AdmissionRequest::price(
            DistributedComputation::new(
                "dup",
                vec![twin(), twin()],
                TimePoint::ZERO,
                TimePoint::new(64),
            )
            .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        );
        let diagnostics = lint_bounce(&pool.admit_request(request).into_response());
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        assert_eq!(diagnostics[0].0, "R0005");
        assert_eq!(diagnostics[0].1, "computation.actors[1].name");
        assert_eq!(
            registry
                .snapshot()
                .counter("admission.requests{policy=rota}"),
            Some(0),
            "the policy was never consulted"
        );
    }

    #[test]
    fn migration_off_the_home_shard_bounces_with_r0006() {
        // The home shard holds the origin's supply but not the
        // destination's, which the other shard owns.
        let names: Vec<String> = (0..16).map(|i| format!("l{i}")).collect();
        let on_shard = |k| {
            names
                .iter()
                .find(|n| shard_of(&Location::new(n.as_str()), 2) == k)
                .unwrap()
                .as_str()
        };
        let (home, away) = (on_shard(0), on_shard(1));
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&[home, away], 4, 64);
        let pool = ShardPool::new(RotaPolicy, &theta, 2, 8, DEDUP_CAPACITY, &registry, wall());
        let gamma = ActorComputation::new("mover", home)
            .then(ActionKind::evaluate())
            .then(ActionKind::migrate(away))
            .then(ActionKind::evaluate());
        let request = AdmissionRequest::price(
            DistributedComputation::single("mover", gamma, TimePoint::ZERO, TimePoint::new(64))
                .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        );
        assert_eq!(route_request(&request, 2), 0);
        let diagnostics = lint_bounce(&pool.admit_request(request).into_response());
        assert!(!diagnostics.is_empty());
        for (code, path, message) in &diagnostics {
            assert_eq!(code, "R0006");
            assert_eq!(path, "computation.actors[0].actions[1]", "the migrate");
            assert!(message.contains(away), "{message}");
        }
        assert_eq!(
            registry
                .snapshot()
                .counter("admission.requests{policy=rota}"),
            Some(0),
            "the policy was never consulted"
        );
    }

    /// A two-actor request: `name`, and its first actor at `origin`
    /// evaluating, then doing `second`, within `(0, deadline)`.
    fn keyed(
        name: &str,
        second: ActionKind,
        origin: &str,
        deadline: u64,
        granularity: Granularity,
    ) -> AdmissionRequest {
        let first = ActorComputation::new("a0", origin)
            .then(ActionKind::evaluate())
            .then(second);
        let other = ActorComputation::new("a1", "l1")
            .then(ActionKind::evaluate())
            .then(ActionKind::evaluate());
        AdmissionRequest::price(
            DistributedComputation::new(
                name,
                vec![first, other],
                TimePoint::ZERO,
                TimePoint::new(deadline),
            )
            .unwrap(),
            &TableCostModel::paper(),
            granularity,
        )
    }

    #[test]
    fn dedup_key_is_equal_for_equal_requests() {
        let request = || {
            keyed(
                "k",
                ActionKind::evaluate(),
                "l0",
                32,
                Granularity::MaximalRun,
            )
        };
        assert_eq!(dedup_key(&request()), dedup_key(&request()));
        assert_eq!(
            dedup_key(&request_at("one", "l0", 2, 16)),
            dedup_key(&request_at("one", "l0", 2, 16))
        );
    }

    #[test]
    fn dedup_key_changes_with_each_part_of_the_request() {
        let key = |name, second, origin, deadline, granularity| {
            dedup_key(&keyed(name, second, origin, deadline, granularity))
        };
        let evaluate = ActionKind::evaluate;
        let base = key("k", evaluate(), "l0", 32, Granularity::MaximalRun);
        for (part, changed) in [
            (
                "the name",
                key("j", evaluate(), "l0", 32, Granularity::MaximalRun),
            ),
            (
                "an action",
                key("k", ActionKind::Ready, "l0", 32, Granularity::MaximalRun),
            ),
            (
                "an origin",
                key("k", evaluate(), "l2", 32, Granularity::MaximalRun),
            ),
            (
                "the deadline",
                key("k", evaluate(), "l0", 33, Granularity::MaximalRun),
            ),
            (
                "the granularity",
                key("k", evaluate(), "l0", 32, Granularity::PerAction),
            ),
        ] {
            assert_ne!(changed, base, "changing {part} must change the key");
        }
    }

    /// A location owned by `shard` of `shards`.
    fn location_on(shard: usize, shards: usize) -> String {
        (0..64)
            .map(|i| format!("l{i}"))
            .find(|l| shard_of(&Location::new(l), shards) == shard)
            .unwrap()
    }

    /// Decides like [`RotaPolicy`], but panics on the request named
    /// `doomed`: a stand-in for a genuine controller bug.
    #[derive(Clone)]
    struct BuggyPolicy {
        doomed: &'static str,
    }

    impl AdmissionPolicy for BuggyPolicy {
        fn name(&self) -> &'static str {
            "buggy"
        }

        fn decide(&self, state: &State, request: &AdmissionRequest) -> Decision {
            if request.name() == self.doomed {
                panic!("policy bug deciding `{}`", self.doomed);
            }
            RotaPolicy.decide(state, request)
        }
    }

    /// What a panic must leave as it was: the available resources, the
    /// aggregated stats, and each shard's reservations gauge.
    fn observed(
        pool: &ShardPool,
        registry: &Registry,
    ) -> (ResourceSet, ControllerStats, Vec<Option<i64>>) {
        let resources = pool.cluster_state(None).unwrap();
        let Response::Stats { stats, .. } = pool.stats() else {
            panic!("stats answers stats");
        };
        let snap = registry.snapshot();
        let gauges = (0..pool.shards())
            .map(|s| snap.gauge(&format!("server.shard.reservations{{shard={s}}}")))
            .collect();
        (resources, stats, gauges)
    }

    #[test]
    fn unrecognized_panic_keeps_the_shards_state() {
        let (home, other) = (location_on(0, 2), location_on(1, 2));
        let theta = theta_at(&[&home, &other], 4, 16);
        let ttl = Duration::from_secs(60);
        // Two pools take the same admits and 2PC hold; only `buggy`
        // also sees the request its policy panics on.
        let build = || {
            let registry = Arc::new(Registry::new());
            let pool = ShardPool::new(
                BuggyPolicy { doomed: "boom" },
                &theta,
                2,
                8,
                DEDUP_CAPACITY,
                &registry,
                wall(),
            );
            let verdicts = [("kept", &other), ("lost", &home)].map(|(name, location)| {
                let verdict = pool
                    .admit_request(request_at(name, location, 1, 16))
                    .into_response();
                let accepted = matches!(verdict, Response::Decision { accepted: true, .. });
                assert!(accepted, "{verdict:?}");
                verdict
            });
            let basis = pool.cluster_state(None).unwrap();
            let held = request_at("held", &home, 1, 16);
            let held = decide_and_prepare(&pool, held, &basis, ttl);
            assert!(matches!(held, Response::Prepared { .. }), "{held:?}");
            (pool, registry, verdicts)
        };
        let ((buggy, registry, verdicts), (reference, ..)) = (build(), build());
        let before = observed(&buggy, &registry);
        let in_flight = registry
            .snapshot()
            .gauge("admission.in_flight{policy=buggy}");
        assert_eq!(before.2, vec![Some(1), Some(1)], "each shard holds `held`");

        let boom = buggy
            .admit_request(request_at("boom", &home, 1, 16))
            .into_response();
        assert!(
            matches!(boom, Response::Overloaded { shard: 0 }),
            "{boom:?}"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.shard.panics{shard=0}"), Some(1));
        assert_eq!(snap.counter("server.shard.panics{shard=1}").unwrap_or(0), 0);
        assert_eq!(snap.counter("server.overloaded{shard=0}"), Some(1));
        assert_eq!(snap.gauge("admission.in_flight{policy=buggy}"), in_flight);
        assert_eq!(
            observed(&buggy, &registry),
            before,
            "the panic changed nothing"
        );
        let lost = ActorName::from("lost-a");
        assert!(
            buggy.locked(0, buggy.clock.now(), |state| state
                .controller
                .state()
                .rho()
                .get(&lost)
                .is_some()),
            "`lost` is still committed"
        );
        // The table of names survived too: `lost` resent replays its first
        // verdict without a decision.
        let replay = buggy
            .admit_request(request_at("lost", &home, 1, 16))
            .into_response();
        assert_eq!(replay, verdicts[1], "the cache replays the first verdict");
        assert_eq!(
            registry
                .snapshot()
                .counter("server.shard.dedup_hits{shard=0}"),
            Some(1)
        );
        assert_eq!(
            observed(&buggy, &registry),
            before,
            "a replay decides nothing"
        );

        // The lock was not poisoned, and the next admits decide as if
        // the panic never happened: `lost` and `held` leave 48 of the
        // home shard's 64 units, so 7 evaluations (56 units) no longer
        // fit and 6 do.
        for pool in [&buggy, &reference] {
            pool.commit("held").unwrap();
        }
        for (evals, fits) in [(7, false), (6, true)] {
            let name = format!("after-{evals}");
            let after = buggy
                .admit_request(request_at(&name, &home, evals, 16))
                .into_response();
            assert!(
                matches!(after, Response::Decision { shard: 0, accepted, .. } if accepted == fits),
                "{after:?}"
            );
            assert_eq!(
                after,
                reference
                    .admit_request(request_at(&name, &home, evals, 16))
                    .into_response()
            );
        }
        assert_eq!(
            buggy.cluster_state(None).unwrap(),
            reference.cluster_state(None).unwrap()
        );
    }

    /// Decides like [`RotaPolicy`], but a request from `slow` sleeps in
    /// the policy until `release` is set (at most 10 s).
    #[derive(Clone)]
    struct GatedPolicy {
        slow: Location,
        entered: Arc<AtomicBool>,
        release: Arc<AtomicBool>,
    }

    impl AdmissionPolicy for GatedPolicy {
        fn name(&self) -> &'static str {
            "gated"
        }

        fn decide(&self, state: &State, request: &AdmissionRequest) -> Decision {
            if request.computation().actors()[0].origin() == &self.slow {
                self.entered.store(true, Ordering::SeqCst);
                let give_up = Instant::now() + Duration::from_secs(10);
                while !self.release.load(Ordering::SeqCst) && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            RotaPolicy.decide(state, request)
        }
    }

    #[test]
    fn a_busy_shard_does_not_block_another() {
        let (slow, fast) = (location_on(0, 2), location_on(1, 2));
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let policy = GatedPolicy {
            slow: Location::new(slow.as_str()),
            entered: Arc::clone(&entered),
            release: Arc::clone(&release),
        };
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&[&slow, &fast], 4, 16);
        let pool = ShardPool::new(policy, &theta, 2, 8, DEDUP_CAPACITY, &registry, wall());
        std::thread::scope(|scope| {
            let held = scope.spawn(|| {
                pool.admit_request(request_at("held", &slow, 1, 16))
                    .into_response()
            });
            while !entered.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Shard 0 is locked inside the policy; shard 1 answers anyway.
            let quick = pool
                .admit_request(request_at("quick", &fast, 1, 16))
                .into_response();
            assert!(
                matches!(
                    quick,
                    Response::Decision {
                        accepted: true,
                        shard: 1,
                        ..
                    }
                ),
                "{quick:?}"
            );
            assert!(
                !held.is_finished(),
                "the other shard's admit came back first"
            );
            release.store(true, Ordering::SeqCst);
            let held = held.join().unwrap();
            assert!(
                matches!(
                    held,
                    Response::Decision {
                        accepted: true,
                        shard: 0,
                        ..
                    }
                ),
                "{held:?}"
            );
        });
    }

    /// A 2-shard pool's record is its shards' kept verdict frames:
    /// a lint reject with its diagnostics, one entry per decided name,
    /// and at most the cache's bound per shard.
    #[test]
    fn decisions_are_the_shards_cached_frames() {
        let on_shard = |shard| {
            (0..64)
                .map(|i| format!("l{i}"))
                .filter(move |l| shard_of(&Location::new(l), 2) == shard)
        };
        let mut shard0 = on_shard(0);
        let (home, spare) = (shard0.next().unwrap(), shard0.next().unwrap());
        let away = on_shard(1).next().unwrap();
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&[&home], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 2, 8, DEDUP_CAPACITY, &registry, wall());
        let fits = pool.admit_request(request_at("fits", &home, 1, 16));
        // No supply at `away`: an R0006 lint reject on shard 1.
        let ghost = pool.admit_request(request_at("ghost", &away, 1, 16));
        let record = pool.decisions();
        let sent: Vec<Reply> = record.iter().cloned().map(Reply::Frame).collect();
        assert_eq!(sent, [fits, ghost], "the frames sent, shard by shard");
        let entry = rota_obs::Json::parse(&record[1]).unwrap();
        assert_eq!(entry.get("shard").and_then(rota_obs::Json::as_u64), Some(1));
        let codes: Vec<_> = entry
            .get("diagnostics")
            .and_then(rota_obs::Json::as_array)
            .expect("a lint reject records its diagnostics")
            .iter()
            .filter_map(|d| d.get("code").and_then(rota_obs::Json::as_str))
            .collect();
        assert_eq!(codes, ["R0006"]);
        // Replays add no entry, and reading the record counts nothing.
        pool.admit_request(request_at("ghost", &away, 1, 16));
        pool.admit_request(request_at("fits", &home, 1, 16));
        let counted = registry.snapshot();
        assert_eq!(pool.decisions(), record);
        assert_eq!(registry.snapshot(), counted);
        // Past the cache's bound, each shard keeps its newest frames.
        for i in 0..DEDUP_CAPACITY {
            for location in [&spare, &away] {
                pool.admit_request(request_at(&format!("{location}-{i}"), location, 1, 16));
            }
        }
        let mut per_shard = [0; 2];
        for frame in pool.decisions() {
            let entry = rota_obs::Json::parse(&frame).unwrap();
            let shard = entry.get("shard").and_then(rota_obs::Json::as_u64);
            per_shard[shard.unwrap() as usize] += 1;
        }
        assert_eq!(per_shard, [DEDUP_CAPACITY; 2]);
    }

    /// A one-shard pool over 64 units at `l0` that keeps `capacity`
    /// settled names.
    fn pool_keeping(capacity: usize) -> (ShardPool, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 1, 8, capacity, &registry, wall());
        (pool, registry)
    }

    /// The frame a one-evaluation job `name` at `l0` is answered with.
    fn admitted(pool: &ShardPool, name: &str) -> Arc<str> {
        match pool.admit_request(request_at(name, "l0", 1, 16)) {
            Reply::Frame(frame) => frame,
            other => panic!("a verdict is a frame: {other:?}"),
        }
    }

    fn counted(registry: &Registry, name: &str) -> u64 {
        registry.snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn the_table_evicts_the_least_recently_used_and_a_replay_refreshes() {
        let (pool, registry) = pool_keeping(2);
        let a = admitted(&pool, "a");
        let b = admitted(&pool, "b");
        // A replay moves `a` to most-recently-used, so the next insert
        // evicts `b` instead.
        assert!(Arc::ptr_eq(&admitted(&pool, "a"), &a));
        let c = admitted(&pool, "c");
        assert_eq!(
            pool.decisions(),
            [a.clone(), c.clone()],
            "least recent first"
        );
        assert!(Arc::ptr_eq(&admitted(&pool, "a"), &a));
        assert_eq!(pool.decisions(), [c, a]);
        assert_eq!(counted(&registry, "server.shard.dedup_hits{shard=0}"), 2);
        // `b` is gone: it is decided again, not replayed.
        assert_ne!(admitted(&pool, "b"), b);
        assert_eq!(counted(&registry, "admission.requests{policy=rota}"), 4);
    }

    #[test]
    fn a_conflict_does_not_refresh_its_entry() {
        let (pool, registry) = pool_keeping(2);
        let a = admitted(&pool, "a");
        let b = admitted(&pool, "b");
        // A conflicting submission must not keep the stale name pinned:
        // `a` stays least-recently-used and is the next eviction victim.
        let conflict = pool
            .admit_request(request_at("a", "l0", 2, 16))
            .into_response();
        assert!(matches!(conflict, Response::Error { .. }), "{conflict:?}");
        let c = admitted(&pool, "c");
        assert_eq!(pool.decisions(), [b.clone(), c]);
        assert!(Arc::ptr_eq(&admitted(&pool, "b"), &b));
        assert_ne!(admitted(&pool, "a"), a, "`a` is decided again");
        assert_eq!(counted(&registry, "server.shard.dedup_hits{shard=0}"), 1);
    }

    #[test]
    fn eviction_never_double_commits() {
        // Regression for the bounded cache: once an accepted name ages
        // out of the table of names, a verbatim resubmission is re-decided
        // — and must end in a graceful reject (its actors are still
        // committed), never in a second commit or a worker panic.
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 1, 8, 1, &registry, wall());
        let first = pool
            .admit_request(request_at("a", "l0", 1, 16))
            .into_response();
        assert!(
            matches!(first, Response::Decision { accepted: true, .. }),
            "{first:?}"
        );
        // Capacity is 1: admitting `b` evicts `a` from the cache.
        let second = pool
            .admit_request(request_at("b", "l0", 1, 16))
            .into_response();
        assert!(
            matches!(second, Response::Decision { accepted: true, .. }),
            "{second:?}"
        );
        let resub = pool
            .admit_request(request_at("a", "l0", 1, 16))
            .into_response();
        match &resub {
            Response::Decision {
                accepted, reason, ..
            } => {
                assert!(!accepted, "evicted resubmission must not double-commit");
                assert!(reason.contains("not installable"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        match pool.stats() {
            Response::Stats { stats, .. } => {
                assert_eq!(stats.accepted, 2, "`a` committed exactly once");
                assert_eq!(stats.rejected, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            registry
                .snapshot()
                .counter("server.shard.panics{shard=0}")
                .unwrap_or(0),
            0,
            "the duplicate install is handled, not panicked on"
        );
    }

    /// What a `prepare` frame runs: decide on `basis`, then prepare.
    fn decide_and_prepare(
        pool: &ShardPool,
        request: AdmissionRequest,
        basis: &ResourceSet,
        ttl: Duration,
    ) -> Response {
        pool.prepare(&request, &pool.decide(&request, basis), basis, ttl)
    }

    #[test]
    fn two_phase_prepare_commit_abort_lifecycle() {
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 1, 8, DEDUP_CAPACITY, &registry, wall());
        let ttl = Duration::from_secs(30);
        let basis = pool.cluster_state(None).unwrap();
        assert_eq!(basis, theta, "untouched node offers its full supply");
        // Prepare holds the supply tentatively.
        let prepared = decide_and_prepare(&pool, request_at("r1", "l0", 1, 16), &basis, ttl);
        assert!(
            matches!(&prepared, Response::Prepared { name } if name == "r1"),
            "{prepared:?}"
        );
        let basis2 = pool.cluster_state(None).unwrap();
        assert_ne!(
            basis2, theta,
            "the reservation is excluded from the snapshot"
        );
        // A prepare against the stale basis is refused, not mis-decided.
        let stale = decide_and_prepare(&pool, request_at("r2", "l0", 1, 16), &basis, ttl);
        assert!(
            matches!(stale, Response::StaleEpoch { shard: 0, .. }),
            "{stale:?}"
        );
        // Re-preparing the same name refreshes instead of double-holding.
        let again = decide_and_prepare(&pool, request_at("r1", "l0", 1, 16), &basis, ttl);
        assert!(
            matches!(&again, Response::Prepared { name } if name == "r1"),
            "{again:?}"
        );
        assert_eq!(
            pool.cluster_state(None).unwrap(),
            basis2,
            "no second install"
        );
        // Commit is permanent and idempotent.
        pool.commit("r1").unwrap();
        pool.commit("r1").unwrap();
        // Abort of a fresh reservation releases its supply.
        let basis3 = pool.cluster_state(None).unwrap();
        let r2 = decide_and_prepare(&pool, request_at("r2", "l0", 1, 16), &basis3, ttl);
        assert!(matches!(r2, Response::Prepared { .. }), "{r2:?}");
        assert!(pool.abort("r2"));
        assert!(!pool.abort("r2"), "second abort finds nothing");
        assert_eq!(
            pool.cluster_state(None).unwrap(),
            basis3,
            "abort restored the supply"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.twopc.prepared{shard=0}"), Some(2));
        assert_eq!(snap.counter("server.twopc.committed{shard=0}"), Some(1));
        assert_eq!(snap.counter("server.twopc.aborted{shard=0}"), Some(1));
    }

    #[test]
    fn a_stale_prepare_installs_nothing_anywhere() {
        // The request spans both shards, shard 0's read set stands, and
        // shard 1's supply within the request's window has moved since
        // the snapshot: every read set is checked before anything is
        // installed, so no shard ever holds the name.
        let (home, other) = (location_on(0, 2), location_on(1, 2));
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&[&home, &other], 4, 16);
        let pool = ShardPool::new(RotaPolicy, &theta, 2, 8, DEDUP_CAPACITY, &registry, wall());
        let ttl = Duration::from_secs(30);
        let stale_basis = pool.cluster_state(None).unwrap();
        // An accepted admit on shard 1 takes some of its supply in the
        // window.
        let moved = pool
            .admit_request(request_at("mover", &other, 1, 16))
            .into_response();
        assert!(
            matches!(moved, Response::Decision { accepted: true, .. }),
            "{moved:?}"
        );
        let basis = pool.cluster_state(None).unwrap();
        let held = spanning("held", &[(&home, 1, None), (&other, 1, None)]);
        let stale = decide_and_prepare(&pool, held, &stale_basis, ttl);
        assert_eq!(
            stale,
            Response::StaleEpoch {
                shard: 1,
                epoch: 0,
                expected: 0
            }
        );
        assert_eq!(
            pool.cluster_state(None).unwrap(),
            basis,
            "shard 0 keeps no hold"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("server.shard.reservations{shard=0}"), Some(0));
        assert_eq!(snap.gauge("server.shard.reservations{shard=1}"), Some(0));
        for shard in 0..2 {
            let counted = |name: &str| snap.counter(&format!("{name}{{shard={shard}}}"));
            assert_eq!(counted("server.twopc.prepared"), Some(0), "shard {shard}");
            assert_eq!(counted("server.twopc.aborted"), Some(0), "shard {shard}");
        }
    }

    #[test]
    fn expired_reservation_is_released_not_leaked() {
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 4, 16);
        let clock = Arc::new(ManualClock::default());
        let pool = ShardPool::new(
            RotaPolicy,
            &theta,
            1,
            8,
            DEDUP_CAPACITY,
            &registry,
            clock.clone(),
        );
        let basis = pool.cluster_state(None).unwrap();
        let prepared = decide_and_prepare(
            &pool,
            request_at("t1", "l0", 1, 16),
            &basis,
            Duration::from_millis(30),
        );
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        clock.advance(Duration::from_millis(60));
        // The lazy sweep runs at the head of the next message: the
        // commit arrives too late and the hold is gone.
        let err = pool.commit("t1").unwrap_err();
        assert!(err.contains("expired or never prepared"), "{err}");
        assert_eq!(
            pool.cluster_state(None).unwrap(),
            theta,
            "expiry returned the supply — nothing leaked"
        );
        assert_eq!(
            registry.snapshot().counter("server.twopc.expired{shard=0}"),
            Some(1)
        );
    }

    fn pool_over(theta: &ResourceSet, shards: usize) -> (ShardPool, Arc<Registry>) {
        pool_with(RotaPolicy, theta, shards)
    }

    fn pool_with<P>(policy: P, theta: &ResourceSet, shards: usize) -> (ShardPool, Arc<Registry>)
    where
        P: AdmissionPolicy + Send + Sync + 'static,
    {
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::new(policy, theta, shards, 8, DEDUP_CAPACITY, &registry, wall());
        (pool, registry)
    }

    /// A computation of one actor per `(origin, evaluations, migration
    /// target)`; a migration's segment demands CPU at both ends.
    fn spanning(name: &str, actors: &[(&str, usize, Option<&str>)]) -> AdmissionRequest {
        let actors = actors
            .iter()
            .enumerate()
            .map(|(i, &(origin, evals, target))| {
                let mut gamma = ActorComputation::new(format!("{name}-a{i}"), origin);
                for _ in 0..evals {
                    gamma.push(ActionKind::evaluate());
                }
                if let Some(target) = target {
                    gamma.push(ActionKind::migrate(target));
                    gamma.push(ActionKind::evaluate());
                }
                gamma
            })
            .collect();
        AdmissionRequest::price(
            DistributedComputation::new(name, actors, TimePoint::ZERO, TimePoint::new(64)).unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        )
    }

    /// Prepares `request` on a pool from a fresh snapshot of it.
    fn prepare_fresh(pool: &ShardPool, request: &AdmissionRequest) -> Response {
        let basis = pool.cluster_state(None).unwrap();
        let verdict = pool.decide(request, &basis);
        pool.prepare(request, &verdict, &basis, Duration::from_secs(60))
    }

    /// Each shard's live commitments.
    fn held(pool: &ShardPool) -> Vec<Vec<Commitment>> {
        pool.locked_all(pool.clock.now(), |states| {
            (states.iter())
                .map(|state| state.controller.state().rho().iter().cloned().collect())
                .collect()
        })
    }

    fn stats_of(pool: &ShardPool) -> ControllerStats {
        let Response::Stats { stats, .. } = pool.stats() else {
            panic!("stats answers stats");
        };
        stats
    }

    fn in_flight_gauge(registry: &Registry) -> Option<i64> {
        registry
            .snapshot()
            .gauge("admission.in_flight{policy=rota}")
    }

    #[test]
    fn a_spanning_accept_is_counted_once() {
        let locations: Vec<String> = (0..4).map(|s| location_on(s, 4)).collect();
        let theta = theta_at(
            &locations.iter().map(String::as_str).collect::<Vec<_>>(),
            4,
            64,
        );
        let (pool, registry) = pool_over(&theta, 4);
        let request = || {
            spanning(
                "wide",
                &[
                    (&locations[0], 1, None),
                    (&locations[1], 1, Some(&locations[2])),
                    (&locations[3], 2, None),
                ],
            )
        };
        let prepared = prepare_fresh(&pool, &request());
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        assert!(pool.abort("wide"));
        assert_eq!(
            (stats_of(&pool).accepted, in_flight_gauge(&registry)),
            (0, Some(0))
        );
        assert_eq!(
            pool.cluster_state(None).unwrap(),
            theta,
            "abort released it all"
        );
        let prepared = prepare_fresh(&pool, &request());
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        pool.commit("wide").unwrap();
        assert_eq!(
            (stats_of(&pool).accepted, in_flight_gauge(&registry)),
            (1, Some(1))
        );
        // Shard 0 counts, as the first owner; actor a1's migration
        // segment is cut between shards 1 and 2.
        let held = held(&pool);
        let actors: Vec<Vec<&str>> = held
            .iter()
            .map(|rho| rho.iter().map(|c| c.actor().as_str()).collect())
            .collect();
        assert_eq!(
            actors,
            vec![
                vec!["wide-a0"],
                vec!["wide-a1"],
                vec!["wide-a1"],
                vec!["wide-a2"]
            ]
        );
        let snap = registry.snapshot();
        let live: Vec<Option<i64>> = (0..4)
            .map(|s| snap.gauge(&format!("server.shard.commitments{{shard={s}}}")))
            .collect();
        assert_eq!(live, vec![Some(1); 4]);
    }

    #[test]
    fn an_owner_with_nothing_to_hold_records_the_name_only() {
        let (home, other) = (location_on(0, 2), location_on(1, 2));
        let theta = theta_at(&[&home, &other], 4, 16);
        let (pool, registry) = pool_over(&theta, 2);
        let prepared = prepare_fresh(&pool, &request_at("here", &other, 1, 16));
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        let home_cpu = LocatedType::cpu(Location::new(&home));
        let home_supply = Scope::new([home_cpu.clone()], TimeInterval::from_ticks(0, 16).unwrap());
        assert_eq!(
            pool.cluster_state(Some(&home_supply)).unwrap(),
            theta.restrict(|located| *located == home_cpu),
            "only the owner's supply moves"
        );
        assert_eq!(
            held(&pool).iter().map(Vec::len).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("server.shard.reservations{shard=0}"), Some(1));
        // An actor-less admit on shard 0 sits in its in-flight table
        // under the empty key; aborting the name-only hold must not
        // release it.
        let idle = AdmissionRequest::price(
            DistributedComputation::new("idle", vec![], TimePoint::ZERO, TimePoint::new(16))
                .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        );
        let verdict = pool.admit_request(idle).into_response();
        assert!(
            matches!(verdict, Response::Decision { accepted: true, .. }),
            "{verdict:?}"
        );
        assert!(pool.abort("here"));
        assert_eq!(pool.cluster_state(None).unwrap(), theta);
        assert_eq!(stats_of(&pool).accepted, 1, "the actor-less admit stays");
        assert_eq!(
            pool.locked(0, pool.clock.now(), |state| state.controller.in_flight()),
            1
        );
        assert_eq!(in_flight_gauge(&registry), Some(1));
    }

    /// Ticks every shard's controller to `horizon`, then sums their
    /// stats.
    fn run_all_until(pool: &ShardPool, horizon: u64) -> ControllerStats {
        pool.locked_all(pool.clock.now(), |states| {
            for state in states.iter_mut() {
                state.controller.run_until(TimePoint::new(horizon));
            }
        });
        stats_of(pool)
    }

    #[test]
    fn a_committed_accept_completes_once_and_misses_nowhere() {
        let locations: Vec<String> = (0..4).map(|s| location_on(s, 4)).collect();
        let theta = theta_at(
            &locations.iter().map(String::as_str).collect::<Vec<_>>(),
            4,
            64,
        );
        for (name, request) in [
            ("here", spanning("here", &[(&locations[0], 2, None)])),
            (
                "two",
                spanning("two", &[(&locations[0], 1, None), (&locations[2], 2, None)]),
            ),
            (
                "moves",
                spanning("moves", &[(&locations[1], 1, Some(&locations[3]))]),
            ),
        ] {
            let (pool, _) = pool_over(&theta, 4);
            let prepared = prepare_fresh(&pool, &request);
            assert!(
                matches!(prepared, Response::Prepared { .. }),
                "{prepared:?}"
            );
            pool.commit(name).unwrap();
            let stats = run_all_until(&pool, 65);
            assert_eq!(
                (stats.accepted, stats.completed, stats.missed),
                (1, 1, 0),
                "{name}: one accept, completed once, missed nowhere"
            );
            assert!(held(&pool).iter().all(Vec::is_empty), "{name}");
        }
    }

    #[test]
    fn a_lapsed_owner_still_fails_the_commit() {
        let (a, b) = (location_on(0, 2), location_on(1, 2));
        let theta = theta_at(&[&a, &b], 4, 16);
        let clock = Arc::new(ManualClock::default());
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::new(
            RotaPolicy,
            &theta,
            2,
            8,
            DEDUP_CAPACITY,
            &registry,
            clock.clone(),
        );
        let request = spanning("both", &[(&a, 1, None), (&b, 1, None)]);
        let prepared = prepare_fresh(&pool, &request);
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        assert!(held(&pool).iter().all(|rho| rho.len() == 1));
        // Both owners' holds share one lapse, and one sweep takes both.
        clock.advance(Duration::from_secs(61));
        let err = pool.commit("both").unwrap_err();
        assert!(err.contains("expired or never prepared"), "{err}");
        assert_eq!(
            pool.cluster_state(None).unwrap(),
            theta,
            "every shard's supply is back"
        );
        assert_eq!(stats_of(&pool).accepted, 0);
        assert!(held(&pool).iter().all(Vec::is_empty));
    }

    #[test]
    fn a_committed_name_one_shard_forgot_still_answers_prepared() {
        // A retried prepare of a committed name, after shard 1 evicted
        // its entry: the node still has the name, so the prepare
        // installs nothing and releases nothing.
        let (a, b) = (location_on(0, 2), location_on(1, 2));
        let theta = theta_at(&[&a, &b], 4, 16);
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::new(RotaPolicy, &theta, 2, 8, 1, &registry, wall());
        let request = spanning("both", &[(&a, 1, None), (&b, 1, None)]);
        let prepared = prepare_fresh(&pool, &request);
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        pool.commit("both").unwrap();
        let committed = pool.cluster_state(None).unwrap();
        // A reject on shard 1 settles a name there and evicts `both`.
        let big = pool
            .admit_request(request_at("big", &b, 16, 16))
            .into_response();
        assert!(
            matches!(
                big,
                Response::Decision {
                    accepted: false,
                    ..
                }
            ),
            "{big:?}"
        );
        let again = prepare_fresh(&pool, &request);
        assert!(matches!(again, Response::Prepared { .. }), "{again:?}");
        assert_eq!(pool.cluster_state(None).unwrap(), committed);
        assert_eq!(stats_of(&pool).accepted, 1);
    }

    #[test]
    fn a_segment_where_the_pool_has_no_supply_is_held_by_no_shard() {
        // A baseline that reserves nothing may accept demand at a
        // location nobody supplies; ROTA reserves only supplied units.
        let (a, b) = (location_on(0, 2), location_on(1, 2));
        let theta = theta_at(&[&a, &b], 4, 16);
        let (pool, _) = pool_with(rota_admission::OptimisticPolicy, &theta, 2);
        let request = spanning("out", &[(&a, 1, None), ("nowhere", 1, None)]);
        let prepared = prepare_fresh(&pool, &request);
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        let actors: Vec<Vec<String>> = held(&pool)
            .iter()
            .map(|rho| rho.iter().map(|c| c.actor().to_string()).collect())
            .collect();
        assert_eq!(actors, vec![vec!["out-a0".to_string()], vec![]]);
        pool.commit("out").unwrap();
        let stats = run_all_until(&pool, 17);
        assert_eq!((stats.accepted, stats.completed, stats.missed), (1, 1, 0));
    }

    #[test]
    fn a_computation_misses_once_when_any_owner_misses() {
        // A baseline reserves nothing, so a share may miss. Location
        // `a` on shard 0 has room; `b` on shard 1 and `c` on shard 0
        // have two units each for their actors' demand.
        let (a, b) = (location_on(0, 2), location_on(1, 2));
        let c = (0..64)
            .map(|i| format!("l{i}"))
            .filter(|l| shard_of(&Location::new(l), 2) == 0)
            .nth(1)
            .unwrap();
        let theta = theta_at(&[&a], 4, 64)
            .union(&theta_at(&[&b, &c], 1, 2))
            .unwrap();
        for (name, actors) in [
            ("one", [(a.as_str(), 1, None), (b.as_str(), 2, None)]),
            ("both", [(c.as_str(), 2, None), (b.as_str(), 2, None)]),
        ] {
            let (pool, registry) = pool_with(rota_admission::OptimisticPolicy, &theta, 2);
            let prepared = prepare_fresh(&pool, &spanning(name, &actors));
            assert!(
                matches!(prepared, Response::Prepared { .. }),
                "{prepared:?}"
            );
            pool.commit(name).unwrap();
            let stats = run_all_until(&pool, 65);
            assert_eq!(
                (stats.accepted, stats.completed, stats.missed),
                (1, 0, 1),
                "{name}: shard 1's share misses, and so does shard 0's or not"
            );
            let gauge = format!(
                "admission.in_flight{{policy={}}}",
                rota_admission::OptimisticPolicy.name()
            );
            assert_eq!(registry.snapshot().gauge(&gauge), Some(0));
        }
    }

    #[test]
    fn a_prepare_holds_what_an_offer_racing_it_supplied() {
        // Each round the main thread offers a new location while the
        // other polls snapshots and prepares a job there as soon as the
        // supply shows, with the offer perhaps still returning. Whatever
        // the prepare holds must include the job.
        let (pool, _) = pool_over(&theta_at(&["l0"], 1, 64), 2);
        let rounds = 256;
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let preparer = scope.spawn(|| {
                for round in 0..rounds {
                    let location = LocatedType::cpu(Location::new(format!("n{round}")));
                    let name = format!("job{round}");
                    let request = request_at(&name, location.locations()[0].name(), 1, 64);
                    let give_up = Instant::now() + Duration::from_secs(10);
                    loop {
                        assert!(Instant::now() < give_up, "{location} never showed");
                        let basis = pool.cluster_state(None).unwrap();
                        if basis.profile(&location).is_empty() {
                            std::thread::yield_now();
                            continue;
                        }
                        let verdict = pool.decide(&request, &basis);
                        match pool.prepare(&request, &verdict, &basis, Duration::from_secs(60)) {
                            Response::Prepared { .. } => break,
                            Response::StaleEpoch { .. } => continue,
                            other => panic!("{other:?}"),
                        }
                    }
                    let actor = ActorName::new(format!("{name}-a"));
                    assert!(
                        held(&pool).iter().flatten().any(|c| *c.actor() == actor),
                        "{name} prepared but held by no shard"
                    );
                    assert!(pool.abort(&name));
                    done.store(round + 1, Ordering::Release);
                }
            });
            for round in 0..rounds {
                while done.load(Ordering::Acquire) < round && !preparer.is_finished() {
                    std::thread::yield_now();
                }
                let theta = theta_at(&[&format!("n{round}")], 4, 64);
                assert!(matches!(pool.offer(theta), Response::Offered { .. }));
            }
        });
        assert_eq!(done.into_inner(), rounds);
    }

    #[test]
    fn a_snapshot_never_shows_half_a_prepare() {
        // One thread prepares and aborts a job spanning both shards
        // while this one takes snapshots: each must be the whole supply
        // or the supply less the whole hold, never one shard's share.
        let (a, b) = (location_on(0, 2), location_on(1, 2));
        let theta = theta_at(&[&a, &b], 4, 16);
        let (pool, _) = pool_over(&theta, 2);
        let request = spanning("both", &[(&a, 1, None), (&b, 1, None)]);
        let prepared = prepare_fresh(&pool, &request);
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        let held = pool.cluster_state(None).unwrap();
        assert!(held != theta && pool.abort("both"));
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..500 {
                    let prepared = prepare_fresh(&pool, &request);
                    assert!(
                        matches!(prepared, Response::Prepared { .. }),
                        "{prepared:?}"
                    );
                    assert!(pool.abort("both"));
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                let snapshot = pool.cluster_state(None).unwrap();
                assert!(snapshot == theta || snapshot == held, "{snapshot:?}");
            }
        });
    }

    /// The verdicts a pool's record lists, as `(computation, accepted)`.
    fn recorded(pool: &ShardPool) -> Vec<(String, bool)> {
        pool.decisions()
            .iter()
            .map(|frame| match Response::from_line(frame).unwrap() {
                Response::Decision {
                    computation,
                    accepted,
                    ..
                } => (computation, accepted),
                other => panic!("the record holds verdicts: {other:?}"),
            })
            .collect()
    }

    fn owned(names: &[(&str, bool)]) -> Vec<(String, bool)> {
        names
            .iter()
            .map(|&(name, accepted)| (name.to_string(), accepted))
            .collect()
    }

    #[test]
    fn a_prepare_refreshes_a_held_name_and_answers_prepared_for_a_committed_one() {
        let theta = theta_at(&["l0"], 4, 16);
        let clock = Arc::new(ManualClock::default());
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::new(
            RotaPolicy,
            &theta,
            1,
            8,
            DEDUP_CAPACITY,
            &registry,
            clock.clone(),
        );
        let ttl = Duration::from_secs(30);
        let basis = pool.cluster_state(None).unwrap();
        let prepare = || decide_and_prepare(&pool, request_at("r", "l0", 1, 16), &basis, ttl);
        assert!(matches!(prepare(), Response::Prepared { .. }));
        // A re-prepare 20 s in moves the lapse to 50 s, so the hold
        // outlives its first 30 s.
        clock.advance(Duration::from_secs(20));
        assert!(matches!(prepare(), Response::Prepared { .. }));
        clock.advance(Duration::from_secs(20));
        assert!(recorded(&pool).is_empty(), "a hold is not a verdict yet");
        pool.commit("r").unwrap();
        assert_eq!(recorded(&pool), owned(&[("r", true)]));
        // A committed name answers "prepared" on the stale basis it was
        // first prepared on, and installs nothing.
        let committed = pool.cluster_state(None).unwrap();
        assert!(matches!(prepare(), Response::Prepared { .. }));
        assert_eq!(pool.cluster_state(None).unwrap(), committed);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.twopc.prepared{shard=0}"), Some(1));
        assert_eq!(
            snap.counter("server.twopc.expired{shard=0}").unwrap_or(0),
            0
        );
        assert_eq!(
            snap.counter("server.shard.dedup_hits{shard=0}")
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn a_prepare_meeting_a_decided_name_decides_again() {
        let (pool, registry) = pool_over(&theta_at(&["l0"], 1, 16), 1);
        // 32 units by tick 16 where 16 are supplied: the shard confirms
        // the reject and records it.
        let request = || request_at("big", "l0", 4, 16);
        let reject = prepare_fresh(&pool, &request());
        assert!(
            matches!(
                reject,
                Response::Decision {
                    accepted: false,
                    ..
                }
            ),
            "{reject:?}"
        );
        assert_eq!(recorded(&pool), owned(&[("big", false)]));
        // Aborting the failed prepare leaves the verdict.
        assert!(!pool.abort("big"));
        assert_eq!(recorded(&pool), owned(&[("big", false)]));
        // An admit of the same content replays it.
        assert_eq!(pool.admit_request(request()).into_response(), reject);
        assert_eq!(
            registry
                .snapshot()
                .counter("server.shard.dedup_hits{shard=0}"),
            Some(1)
        );
        // Once supply is offered, the same content prepares: the name is
        // decided again, held, and recorded as accepted on commit.
        assert!(matches!(
            pool.offer(theta_at(&["l0"], 3, 16)),
            Response::Offered { .. }
        ));
        let prepared = prepare_fresh(&pool, &request());
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        assert!(recorded(&pool).is_empty());
        pool.commit("big").unwrap();
        assert_eq!(recorded(&pool), owned(&[("big", true)]));
        assert_eq!(stats_of(&pool).accepted, 1);
    }

    /// A wall clock that counts its reads.
    #[derive(Default)]
    struct CountingClock(AtomicUsize);

    impl Clock for CountingClock {
        fn now(&self) -> Instant {
            self.0.fetch_add(1, Ordering::Relaxed);
            Instant::now()
        }
    }

    #[test]
    fn a_confirmed_reject_locks_its_shard_once() {
        let clock = Arc::new(CountingClock::default());
        let registry = Arc::new(Registry::new());
        let theta = theta_at(&["l0"], 1, 16);
        let pool = ShardPool::new(
            RotaPolicy,
            &theta,
            1,
            8,
            DEDUP_CAPACITY,
            &registry,
            clock.clone(),
        );
        let basis = pool.cluster_state(None).unwrap();
        let request = request_at("big", "l0", 4, 16);
        let verdict = pool.decide(&request, &basis);
        let reads = clock.0.load(Ordering::Relaxed);
        let reject = pool.prepare(&request, &verdict, &basis, Duration::from_secs(60));
        assert!(
            matches!(
                reject,
                Response::Decision {
                    accepted: false,
                    ..
                }
            ),
            "{reject:?}"
        );
        assert_eq!(
            clock.0.load(Ordering::Relaxed) - reads,
            1,
            "one locked section, no abort of a name nobody holds"
        );
        assert_eq!(recorded(&pool), owned(&[("big", false)]));
    }

    #[test]
    fn abort_and_expiry_never_remove_a_decided_name() {
        let theta = theta_at(&["l0"], 4, 16);
        let clock = Arc::new(ManualClock::default());
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::new(
            RotaPolicy,
            &theta,
            1,
            8,
            DEDUP_CAPACITY,
            &registry,
            clock.clone(),
        );
        let first = pool
            .admit_request(request_at("a", "l0", 1, 16))
            .into_response();
        assert!(
            matches!(first, Response::Decision { accepted: true, .. }),
            "{first:?}"
        );
        assert!(!pool.abort("a"), "an admit's verdict is not a hold");
        // A hold of another name lapses past its TTL; the verdict stays.
        let basis = pool.cluster_state(None).unwrap();
        let held = request_at("h", "l0", 1, 16);
        let ttl = Duration::from_millis(25);
        assert!(matches!(
            decide_and_prepare(&pool, held, &basis, ttl),
            Response::Prepared { .. }
        ));
        clock.advance(ttl);
        assert_eq!(stats_of(&pool).accepted, 1, "`h` lapsed and `a` stays");
        assert_eq!(
            registry.snapshot().counter("server.twopc.expired{shard=0}"),
            Some(1)
        );
        assert_eq!(recorded(&pool), owned(&[("a", true)]));
        assert_eq!(
            pool.admit_request(request_at("a", "l0", 1, 16))
                .into_response(),
            first
        );
    }

    #[test]
    fn an_admit_meeting_a_held_or_committed_name_is_a_conflict() {
        let (pool, registry) = pool_over(&theta_at(&["l0"], 4, 16), 1);
        let prepared = prepare_fresh(&pool, &request_at("n", "l0", 1, 16));
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        for commit in [true, false] {
            let answer = pool
                .admit_request(request_at("n", "l0", 2, 16))
                .into_response();
            match &answer {
                Response::Error { message } => {
                    assert!(message.contains("idempotency conflict"), "{message}");
                }
                other => panic!("expected a conflict error, got {other:?}"),
            }
            if commit {
                pool.commit("n").unwrap();
            }
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("admission.requests{policy=rota}").unwrap_or(0),
            0
        );
        assert_eq!(
            snap.counter("server.shard.dedup_hits{shard=0}")
                .unwrap_or(0),
            0
        );
        assert_eq!(stats_of(&pool).accepted, 1);
    }

    #[test]
    fn a_hold_is_never_evicted_and_commits_share_the_bound() {
        let (pool, _) = pool_keeping(1);
        let prepared = prepare_fresh(&pool, &request_at("h", "l0", 1, 16));
        assert!(
            matches!(prepared, Response::Prepared { .. }),
            "{prepared:?}"
        );
        admitted(&pool, "a");
        admitted(&pool, "b");
        assert_eq!(recorded(&pool), owned(&[("b", true)]));
        pool.commit("h")
            .expect("the hold outlived two settled names");
        assert_eq!(
            recorded(&pool),
            owned(&[("h", true)]),
            "the commit evicted `b`"
        );
        admitted(&pool, "c");
        assert_eq!(recorded(&pool), owned(&[("c", true)]));
        assert!(pool.commit("h").is_err(), "the evicted commit is forgotten");
    }

    /// One 2PC admission for the held-once property: an actor per
    /// `(origin, evaluations, migration target)` index into the
    /// locations, and what happens after every participant prepared.
    #[derive(Debug, Clone)]
    struct Admission {
        actors: Vec<(usize, usize, Option<usize>)>,
        fate: Fate,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fate {
        Commit,
        Abort,
        Hold,
    }

    fn admission() -> impl Strategy<Value = Admission> {
        // A third of the actors migrate.
        let actor = (0usize..6, 0usize..3, 0usize..9)
            .prop_map(|(origin, evals, target)| (origin, evals, (target < 6).then_some(target)));
        (
            proptest::collection::vec(actor, 1..4),
            prop_oneof![Just(Fate::Commit), Just(Fate::Abort), Just(Fate::Hold)],
        )
            .prop_map(|(actors, fate)| Admission { actors, fate })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Random spanning requests run through prepare, commit and
        /// abort on one pool, or on three pools that each own every
        /// third location — the nodes of a cluster, each prepared by
        /// the coordinator with the same verdict. Every decided
        /// reserved unit is held by exactly one shard of one pool, each
        /// shard holds only its own located types, the live ρ entries
        /// are the non-empty projections, and each participant counts
        /// each live accept once.
        #[test]
        fn each_decided_unit_is_held_once(
            shards in prop_oneof![Just(1usize), Just(2), Just(4)],
            nodes in prop_oneof![Just(1usize), Just(3)],
            admissions in proptest::collection::vec(admission(), 1..10),
        ) {
            let locations: Vec<String> = (0..6).map(|i| format!("l{i}")).collect();
            let node_of = |location: &Location| {
                locations.iter().position(|l| l == location.name()).unwrap() % nodes
            };
            let theta = theta_at(&locations.iter().map(String::as_str).collect::<Vec<_>>(), 6, 64);
            let pools: Vec<(ShardPool, Arc<Registry>)> = (0..nodes)
                .map(|node| {
                    let slice = theta.restrict(|lt| node_of(lt.locations()[0]) == node);
                    pool_over(&slice, shards)
                })
                .collect();
            // Each live accept's commitments and participant nodes.
            let mut live: Vec<(Vec<Commitment>, Vec<usize>)> = Vec::new();
            for (k, admission) in admissions.iter().enumerate() {
                let name = format!("r{k}");
                let actors: Vec<(&str, usize, Option<&str>)> = admission
                    .actors
                    .iter()
                    .map(|&(origin, evals, target)| {
                        (locations[origin].as_str(), evals, target.map(|t| locations[t].as_str()))
                    })
                    .collect();
                let request = spanning(&name, &actors);
                let mut participants: Vec<usize> = request
                    .requirement()
                    .total_demand()
                    .located_types()
                    .map(|lt| node_of(lt.locations()[0]))
                    .collect();
                participants.sort_unstable();
                participants.dedup();
                let mut basis = ResourceSet::new();
                for (pool, _) in &pools {
                    basis.add_set(&pool.cluster_state(None).unwrap()).unwrap();
                }
                let verdict = pools[0].0.decide(&request, &basis);
                let Decision::Accept(decided) = &verdict else {
                    continue;
                };
                for &node in &participants {
                    let answer = pools[node].0.prepare(
                        &request, &verdict, &basis, Duration::from_secs(60),
                    );
                    prop_assert!(matches!(answer, Response::Prepared { .. }), "{:?}", answer);
                }
                match admission.fate {
                    Fate::Commit => {
                        for &node in &participants {
                            pools[node].0.commit(&name).unwrap();
                        }
                    }
                    Fate::Abort => {
                        for &node in &participants {
                            prop_assert!(pools[node].0.abort(&name));
                        }
                        continue;
                    }
                    Fate::Hold => {}
                }
                live.push((decided.clone(), participants));
            }
            let mut decided_units = ResourceSet::new();
            for (commitments, _) in &live {
                for c in commitments {
                    decided_units.add_set(&c.pending_reservation().unwrap()).unwrap();
                }
            }
            let mut held_units = ResourceSet::new();
            for (node, (pool, registry)) in pools.iter().enumerate() {
                let mut entries = 0;
                for (shard, rho) in held(pool).iter().enumerate() {
                    entries += rho.len();
                    for c in rho {
                        for lt in c.remaining_demand().located_types() {
                            let location = lt.locations()[0];
                            prop_assert_eq!(
                                (node_of(location), shard_of(location, shards)),
                                (node, shard),
                                "{} holds {}", c.actor(), lt
                            );
                        }
                        held_units.add_set(&c.pending_reservation().unwrap()).unwrap();
                    }
                }
                // One ρ entry per actor and shard of this node its
                // demand touches.
                let projections: usize = live
                    .iter()
                    .flat_map(|(commitments, _)| commitments)
                    .map(|c| {
                        let mut owners: Vec<usize> = c
                            .remaining_demand()
                            .located_types()
                            .map(|lt| lt.locations()[0])
                            .filter(|l| node_of(l) == node)
                            .map(|l| shard_of(l, shards))
                            .collect();
                        owners.sort_unstable();
                        owners.dedup();
                        owners.len()
                    })
                    .sum();
                prop_assert_eq!(entries, projections, "node {}", node);
                let accepts = live.iter().filter(|(_, p)| p.contains(&node)).count();
                prop_assert_eq!(stats_of(pool).accepted, accepts as u64, "node {}", node);
                prop_assert_eq!(in_flight_gauge(registry), Some(accepts as i64));
            }
            prop_assert_eq!(held_units, decided_units);
        }
    }

    /// One call on a 2-shard pool, for the read-set property. Names are
    /// drawn from a few, so retries, dedup replays, conflicts and
    /// commits or aborts of held names all occur.
    #[derive(Debug, Clone)]
    enum Step {
        /// Accepted or rejected by capacity, at a location of `shard`.
        Admit {
            name: u8,
            shard: usize,
            evals: usize,
        },
        /// Demand at a location nobody supplies: an R0006 bounce.
        LintReject {
            name: u8,
        },
        Offer {
            shard: usize,
            rate: u64,
        },
        /// Against the latest snapshot, or the pool's first one; a
        /// zero TTL lapses at the next call that locks the shard.
        Prepare {
            name: u8,
            shard: usize,
            evals: usize,
            fresh: bool,
            lapses: bool,
        },
        Commit {
            name: u8,
        },
        Abort {
            name: u8,
        },
        Stats,
        ClusterState,
        /// An admit the policy panics on: it must change nothing.
        Panic {
            shard: usize,
        },
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0u8..4, 0usize..2, 1usize..7).prop_map(|(name, shard, evals)| Step::Admit {
                name,
                shard,
                evals
            }),
            (0u8..4).prop_map(|name| Step::LintReject { name }),
            (0usize..2, 1u64..3).prop_map(|(shard, rate)| Step::Offer { shard, rate }),
            (0u8..4, 0usize..2, 1usize..7, any::<bool>(), any::<bool>()).prop_map(
                |(name, shard, evals, fresh, lapses)| Step::Prepare {
                    name,
                    shard,
                    evals,
                    fresh,
                    lapses,
                }
            ),
            (0u8..4).prop_map(|name| Step::Commit { name }),
            (0u8..4).prop_map(|name| Step::Abort { name }),
            Just(Step::Stats),
            Just(Step::ClusterState),
            (0usize..2).prop_map(|shard| Step::Panic { shard }),
        ]
    }

    /// Whether any shard holds or has committed `name`, or has a live
    /// commitment of one of `request`'s actors: a prepare of it is then
    /// not decided again, or its install fails.
    fn taken(pool: &ShardPool, request: &AdmissionRequest) -> bool {
        let actors = request.actor_names();
        pool.locked_all(pool.clock.now(), |states| {
            states.iter().any(|state| {
                state.keeps(request.name())
                    || (state.controller.state().rho().iter()).any(|c| actors.contains(c.actor()))
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A two-phase verdict validated by what it read is the live
        /// one. A prepare on the latest or on the pool's first snapshot
        /// is refused exactly when some shard's supply within the
        /// request's scope has moved since; when it is not, each shard
        /// installs its share of the verdict `decide` gives on the live
        /// merged Θ_expire, or shard 0 records that verdict's reject.
        #[test]
        fn a_validated_decision_is_the_live_decision(
            steps in proptest::collection::vec(step(), 1..40),
        ) {
            let locations = [location_on(0, 2), location_on(1, 2)];
            let registry = Arc::new(Registry::new());
            let theta = theta_at(&[&locations[0], &locations[1]], 4, 16);
            let policy = BuggyPolicy { doomed: "doomed" };
            let pool = ShardPool::new(policy, &theta, 2, 8, 4, &registry, wall());
            let first = pool.cluster_state(None).unwrap();
            let mut resources = first.clone();
            for step in steps {
                let name = |n: u8| format!("j{n}");
                match step {
                    Step::Admit { name: n, shard, evals } => {
                        pool.admit_request(request_at(&name(n), &locations[shard], evals, 16)).into_response();
                    }
                    Step::LintReject { name: n } => {
                        pool.admit_request(request_at(&name(n), "unsupplied", 1, 16)).into_response();
                    }
                    Step::Offer { shard, rate } => {
                        pool.offer(theta_at(&[&locations[shard]], rate, 16));
                    }
                    Step::Prepare { name: n, shard, evals, fresh, lapses } => {
                        let basis = if fresh { &resources } else { &first };
                        let ttl =
                            if lapses { Duration::ZERO } else { Duration::from_secs(60) };
                        let request = request_at(&name(n), &locations[shard], evals, 16);
                        let scope =
                            Scope::of(&request.requirement().total_demand(), request.window());
                        let read = basis.exclude_support_within(
                            &ResourceSet::new(),
                            scope.types(),
                            &scope.window(),
                        );
                        let moved = pool.cluster_state(Some(&scope)).unwrap() != read;
                        let live = pool.decide(&request, &pool.cluster_state(None).unwrap());
                        let decided = !taken(&pool, &request);
                        let answer = pool.prepare(&request, &pool.decide(&request, basis), basis, ttl);
                        if decided {
                            let refused = matches!(answer, Response::StaleEpoch { .. });
                            prop_assert_eq!(refused, moved, "{:?}", answer);
                        }
                        match &live {
                            _ if !decided || moved => {}
                            Decision::Accept(commitments) => {
                                prop_assert!(matches!(answer, Response::Prepared { .. }), "{:?}", answer);
                                let actors = request.actor_names();
                                for index in 0..pool.shards() {
                                    let (installed, share) = pool.locked(index, pool.clock.now(), |state| {
                                        let rho = state.controller.state().rho().iter();
                                        let installed: Vec<Commitment> =
                                            rho.filter(|c| actors.contains(c.actor())).cloned().collect();
                                        (installed, state.share(commitments))
                                    });
                                    if !lapses {
                                        prop_assert_eq!(installed, share, "shard {}", index);
                                    }
                                }
                            }
                            Decision::Reject(reason) => {
                                prop_assert_eq!(answer, decision_response(&request, Err(reason), 0));
                            }
                        }
                    }
                    Step::Commit { name: n } => {
                        let _ = pool.commit(&name(n));
                    }
                    Step::Abort { name: n } => {
                        pool.abort(&name(n));
                    }
                    Step::Stats => {
                        pool.stats();
                    }
                    Step::ClusterState => {
                        pool.cluster_state(None).unwrap();
                    }
                    Step::Panic { shard } => {
                        let bounced = pool.admit_request(request_at("doomed", &locations[shard], 1, 16)).into_response();
                        prop_assert_eq!(bounced, Response::Overloaded { shard });
                        prop_assert_eq!(&pool.cluster_state(None).unwrap(), &resources);
                    }
                }
                resources = pool.cluster_state(None).unwrap();
            }
        }
    }
}
