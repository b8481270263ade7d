//! The cluster router: location-routed admission and cross-location
//! two-phase commit.
//!
//! A [`ClusterRouter`] mounts on a `rota-server` as a
//! [`RequestHook`]: every inbound request passes through
//! [`ClusterRouter::intercept`] before the local shard pool sees it.
//! The routing rules, in order:
//!
//! 1. **Gossip** exchanges are absorbed into the node's
//!    [`GossipEngine`] and answered with
//!    the node's own digest.
//! 2. **Forwarded** requests (`forwarded: true`) fall through to the
//!    local core untouched — a peer already routed them here, and
//!    re-routing could loop.
//! 3. Fresh **admissions** are priced once, and one pass over the
//!    priced demand under the topology's read guard classifies them
//!    (`classify`). Demand on a location no node owns is rejected
//!    immediately with the analyzer's `R0016` diagnostic. Demand owned
//!    entirely by this node goes straight to the local shard pool,
//!    already priced (the common case). Demand owned by one *other*
//!    node is forwarded over TCP. Demand spanning several owners runs
//!    the two-phase protocol below.
//! 4. **Offers** are split by location ownership and installed on the
//!    owning nodes.
//!
//! The owners' addresses are copied out of the topology before its
//! guard drops; no peer call and no lock of the gossip engine ever
//! happens under it.
//!
//! ## Two-phase commit
//!
//! The coordinator snapshots every participant (`cluster-snapshot` →
//! per-shard epochs + obtainable resources Θ_expire), merges the
//! snapshots into one basis in node-id order — sound because location
//! ownership is disjoint, so the union is exactly the merged
//! single-node state — and sends `prepare` to the participants in
//! node-id order, carrying the basis and the expected epochs. Each
//! remote participant re-derives the decision *itself* against the
//! shared basis (decisions are deterministic, so all participants
//! agree), installs the commitments tentatively under a TTL, and
//! answers `prepared`. All prepared → `commit` everywhere; any reject →
//! the policy's verdict is returned verbatim and the already-prepared
//! participants are aborted; any `stale-epoch` answer → abort,
//! re-snapshot, retry (bounded). A coordinator that dies between
//! prepare and commit leaks nothing: the TTL releases the tentative
//! reservations (see `rota-server::shard`).
//!
//! When the coordinator is itself a participant it reaches its own
//! node through the [`LocalHandle`] with typed values (the basis goes
//! through JSON only to and from remote participants), and it decides
//! once: it snapshots itself first, decides on the merged basis
//! ([`LocalHandle::decide`]), and on a reject lets its own prepare
//! confirm the verdict before any remote prepare. That prepare answers
//! the reject if this node's epochs have not moved since its snapshot,
//! which was taken before every remote one — the coordinator returns it
//! verbatim and sends no prepare; `stale-epoch` if they moved — a
//! retry; or `prepared` if the name is already held or committed here —
//! the ordered prepares run, so a resubmitted 2PC stays idempotent. An
//! accept is prepared in node-id order, this node installing the
//! verdict it already has. A coordinator that owns none of the demand
//! has no in-process confirmer: participant 1's prepare decides and
//! confirms.
//!
//! A reject the slices already read prove ends the round early. The
//! policy's refutation ([`LocalHandle::refute`]) is asked after this
//! node's own slice and after each remote one (a non-owner: after
//! participant 1's only), with each demanded type's supply read from
//! its owner's slice, unknown while that slice is unread. ROTA refutes
//! at the first demanded type, in type order, whose supply over the
//! window is below its demand, and never reads past an unknown one,
//! so a refutation is the reject the merged basis would give, word for
//! word. It skips the remaining snapshots and the decision, and is
//! confirmed as a decided reject is: by this node's own prepare, or a
//! non-owner's `prepare` to participant 1 carrying participant 1's
//! slice as the basis. `prepared` there (a held or committed name)
//! reruns the attempt without refuting.
//!
//! Participants the node's gossip engine believes **suspect** are
//! never contacted: requests touching them are rejected up front with
//! a structured `peer-unavailable` diagnostic — degraded mode, not a
//! hang.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rota_actor::{Granularity, ResourceDemand, TableCostModel};
use rota_admission::{AdmissionRequest, Decision, RejectReason};
use rota_analyze::{check_ownership, Diagnostic, Report, Severity};
use rota_interval::TimeInterval;
use rota_logic::Scope;
use rota_obs::{Counter, Histogram, Registry};
use rota_resource::{LocatedType, Quantity, Rate};
use rota_server::spec::{self, resources_from_json, ComputationSpec, ResourceSpec};
use rota_server::{Diagnostics, LocalHandle, Reply, Request, RequestHook, Response};

use crate::gossip::GossipEngine;
use crate::links::{self, PeerLinks};
use crate::topology::{SharedTopology, Topology};
use crate::{lock, read};

/// How many times a 2PC re-snapshots and retries after losing a race
/// to a concurrent state change (a `stale-epoch` answer).
const MAX_RETRIES: u32 = 4;

/// Knobs for one node's router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// This node's id in the topology.
    pub me: String,
    /// Bound on dialling a peer. Once connected, each read or write of
    /// a peer call may block for this plus a fixed 5 s allowance for the
    /// peer's answer (`PEER_ANSWER_BUDGET` in the peer-link module); a
    /// call that outlives it fails and its link is dropped.
    pub peer_timeout: Duration,
    /// TTL on tentative 2PC reservations.
    pub ttl: Duration,
}

/// A node the router calls: id and address.
type Participant = (String, String);

/// Where one admission goes, decided from its demand and the topology
/// alone.
#[derive(Debug)]
pub(crate) enum Route {
    /// Some demand sits at a location no node owns: the `R0016` report.
    Unowned(Report),
    /// This node owns all of the located demand, or there is none.
    Local,
    /// Exactly one other node owns all of it.
    Forward(Participant),
    /// Several owners, in id order; this node is among them iff it owns
    /// some of the demand.
    TwoPhase(Vec<Participant>, Owners),
}

/// Each demanded located type's owner, as an index into a two-phase
/// admission's participants.
pub(crate) type Owners = BTreeMap<LocatedType, usize>;

/// Classifies the demand an admission received by node `me` prices
/// to, in one pass over its non-zero terms, each keyed (like slicing)
/// by its first location. A two-phase route also maps each demanded
/// type to its owner, while the caller still holds the topology guard.
pub(crate) fn classify(demand: &ResourceDemand, topology: &Topology, me: &str) -> Route {
    let mut owners: BTreeMap<&str, &str> = BTreeMap::new();
    let report = check_ownership(demand, |location| match topology.owner_of(location) {
        Some(node) => {
            owners.insert(&node.id, &node.addr);
            true
        }
        None => false,
    });
    if report.has_errors() {
        return Route::Unowned(report);
    }
    let mut participants: Vec<Participant> = owners
        .into_iter()
        .map(|(id, addr)| (id.to_string(), addr.to_string()))
        .collect();
    if participants.len() > 1 {
        let owners = demand
            .located_types()
            .filter_map(|located| {
                let node = topology.owner_of(located.locations().first()?.name())?;
                let index = participants
                    .binary_search_by(|(id, _)| id.as_str().cmp(&node.id))
                    .ok()?;
                Some((located.clone(), index))
            })
            .collect();
        return Route::TwoPhase(participants, owners);
    }
    match participants.pop() {
        Some(owner) if owner.0 != me => Route::Forward(owner),
        _ => Route::Local,
    }
}

struct RouterObs {
    gossip_exchanges: Arc<Counter>,
    forwards: Arc<Counter>,
    unowned_rejects: Arc<Counter>,
    degraded_rejects: Arc<Counter>,
    twopc_started: Arc<Counter>,
    twopc_committed: Arc<Counter>,
    twopc_rejected: Arc<Counter>,
    twopc_aborted: Arc<Counter>,
    twopc_retries: Arc<Counter>,
    twopc_prepares: Arc<Counter>,
    /// Two-phase admissions a refutation from the slices read so far
    /// ended: `[0]` when the coordinator owns none of the demand, `[1]`
    /// when it owns some.
    twopc_refuted: [Arc<Counter>; 2],
    /// Terms in the merged basis of each snapshot round.
    twopc_basis_terms: Arc<Histogram>,
    /// Peer calls per two-phase admission, retries included: `[0]`
    /// when the coordinator owns none of the demand, `[1]` when it
    /// owns some.
    twopc_peer_calls: [Arc<Histogram>; 2],
}

impl RouterObs {
    fn new(registry: &Registry) -> RouterObs {
        RouterObs {
            gossip_exchanges: registry.counter("cluster.gossip.exchanges"),
            forwards: registry.counter("cluster.router.forwards"),
            unowned_rejects: registry.counter("cluster.router.unowned_rejects"),
            degraded_rejects: registry.counter("cluster.router.degraded_rejects"),
            twopc_started: registry.counter("cluster.twopc.started"),
            twopc_committed: registry.counter("cluster.twopc.committed"),
            twopc_rejected: registry.counter("cluster.twopc.rejected"),
            twopc_aborted: registry.counter("cluster.twopc.aborted"),
            twopc_retries: registry.counter("cluster.twopc.retries"),
            twopc_prepares: registry.counter("cluster.twopc.prepares"),
            twopc_refuted: ["other", "owner"].map(|coordinator| {
                registry.counter(&format!(
                    "cluster.twopc.refuted{{coordinator={coordinator}}}"
                ))
            }),
            twopc_basis_terms: registry
                .histogram("cluster.twopc.basis_terms", Histogram::depth_bounds()),
            twopc_peer_calls: ["other", "owner"].map(|coordinator| {
                registry.histogram(
                    &format!("cluster.twopc.peer_calls{{coordinator={coordinator}}}"),
                    Histogram::depth_bounds(),
                )
            }),
        }
    }
}

/// One node's request router; see the module docs for the rules.
pub struct ClusterRouter {
    config: RouterConfig,
    topology: SharedTopology,
    gossip: Arc<Mutex<GossipEngine>>,
    local: LocalHandle,
    links: PeerLinks,
    cost_model: TableCostModel,
    obs: RouterObs,
    /// Chaos hook: while set, inbound gossip is answered with an error
    /// (and the node's runtime stops dialing out) — a deterministic
    /// full partition of the gossip plane. See `Cluster::partition`.
    partitioned: Arc<AtomicBool>,
}

impl ClusterRouter {
    /// Builds the router for node `config.me`, publishing its metrics
    /// into the server registry behind `local`.
    pub fn new(
        config: RouterConfig,
        topology: SharedTopology,
        gossip: Arc<Mutex<GossipEngine>>,
        local: LocalHandle,
        partitioned: Arc<AtomicBool>,
    ) -> ClusterRouter {
        let registry = local.registry().unwrap_or_default();
        let obs = RouterObs::new(&registry);
        let links = PeerLinks::new(
            &registry,
            config.peer_timeout,
            links::io_timeout(config.peer_timeout),
            links::max_idle(),
        );
        ClusterRouter {
            config,
            topology,
            gossip,
            local,
            links,
            cost_model: TableCostModel::paper(),
            obs,
            partitioned,
        }
    }

    /// The first of `nodes` this node's gossip engine believes down
    /// (this node itself is always alive).
    fn first_suspect<'a>(&self, mut nodes: impl Iterator<Item = &'a str>) -> Option<&'a str> {
        let engine = lock(&self.gossip);
        nodes.find(|node| !engine.alive(node))
    }

    /// Calls `owner` with `request`: through the loopback handle when
    /// the owner is this node, over a peer link (counted in `calls`)
    /// otherwise.
    fn call_owner(
        &self,
        owner: &str,
        addr: &str,
        request: Request,
        calls: &Cell<u64>,
    ) -> Result<Response, String> {
        if owner == self.config.me {
            return Ok(self.local.call(request));
        }
        self.call_peer(owner, addr, &request, calls)
    }

    /// One call to another node over its peer link, counted in `calls`.
    fn call_peer(
        &self,
        peer: &str,
        addr: &str,
        request: &Request,
        calls: &Cell<u64>,
    ) -> Result<Response, String> {
        calls.set(calls.get() + 1);
        self.links.call(peer, addr, request)
    }

    fn handle_gossip(&self, digest: &rota_server::GossipDigest) -> Response {
        if self.partitioned.load(Ordering::SeqCst) {
            return Response::Error {
                message: "gossip partitioned (injected)".into(),
            };
        }
        self.obs.gossip_exchanges.inc();
        let mut engine = lock(&self.gossip);
        engine.absorb(digest);
        Response::GossipAck {
            digest: engine.digest(),
        }
    }

    /// The degraded-mode verdict: the request needs `peer`, and the
    /// gossip layer believes `peer` is down.
    fn peer_unavailable(&self, name: &str, peer: &str) -> Response {
        self.obs.degraded_rejects.inc();
        let diagnostic = Diagnostic::new(
            "peer-unavailable",
            Severity::Error,
            format!("node `{peer}`"),
            format!(
                "the request demands locations owned by node `{peer}`, which has \
                 missed its last heartbeats and is suspected down"
            ),
        )
        .with_note("the cluster is in degraded mode for that peer's locations")
        .with_note("retry once gossip re-proves the peer alive");
        Response::Decision {
            computation: name.to_string(),
            accepted: false,
            shard: 0,
            reason: format!(
                "rejected by cluster router: owning node `{peer}` is unavailable \
                 (policy not consulted)"
            ),
            violated_term: None,
            clause: Some("cluster routing (degraded: peer unavailable)".to_string()),
            diagnostics: Diagnostics::of(&[diagnostic]),
        }
    }

    /// The `R0016` verdict: demand on a location the topology assigns
    /// to nobody.
    fn unowned(&self, name: &str, report: &Report) -> Response {
        self.obs.unowned_rejects.inc();
        Response::Decision {
            computation: name.to_string(),
            accepted: false,
            shard: 0,
            reason: format!(
                "rejected by cluster router: {} unowned location(s) in the demand \
                 (policy not consulted)",
                report.count(Severity::Error)
            ),
            violated_term: None,
            clause: Some("cluster routing (location ownership)".to_string()),
            diagnostics: Diagnostics::of(report.diagnostics()),
        }
    }

    /// Routes a fresh admission. A local verdict is passed on as the
    /// frame the shard encoded and cached; every other route answers
    /// typed.
    fn route_admit(
        &self,
        computation: &ComputationSpec,
        granularity: Granularity,
    ) -> Option<Reply> {
        // Unbuildable specs fall through: the local core produces the
        // canonical spec-error response.
        let lambda = computation.build().ok()?;
        let request = AdmissionRequest::price(lambda, &self.cost_model, granularity);
        let demand = request.requirement().total_demand();
        let route = classify(&demand, &read(&self.topology), &self.config.me);
        let response = match route {
            Route::Unowned(report) => self.unowned(request.name(), &report),
            Route::Local => return Some(self.local.admit(request)),
            Route::Forward(owner) => self.forward(&owner, computation, granularity, request.name()),
            Route::TwoPhase(participants, owners) => {
                let scope = Scope::of(&demand, request.window());
                let admission = Admission {
                    computation,
                    granularity,
                    request: &request,
                    scope: &scope,
                };
                self.two_phase(&participants, &owners, &admission)
            }
        };
        Some(Reply::Typed(response))
    }

    /// Sends an admission whole to its one owner, another node.
    fn forward(
        &self,
        (owner, addr): &Participant,
        computation: &ComputationSpec,
        granularity: Granularity,
        name: &str,
    ) -> Response {
        if let Some(peer) = self.first_suspect(std::iter::once(owner.as_str())) {
            return self.peer_unavailable(name, peer);
        }
        self.obs.forwards.inc();
        let admit = Request::Admit {
            computation: computation.clone(),
            granularity,
            forwarded: true,
        };
        self.links
            .call(owner, addr, &admit)
            .unwrap_or_else(|message| Response::Error { message })
    }

    /// Runs one full two-phase admission across `participants`, in
    /// node-id order. This node's own snapshot and prepare go through
    /// the local handle as typed values; only a remote participant's
    /// slice and basis cross a socket as JSON. Every snapshot is taken
    /// within the admission's scope, the request's demanded located
    /// types over its window, so the basis holds only what the decision
    /// reads.
    ///
    /// The slices read so far can refute the request before the rest
    /// are asked for (see [`Self::snapshot`]); a refutation is confirmed
    /// by one prepare and returned. Otherwise a coordinator that owns
    /// some of the demand decides the verdict once, here. A reject is
    /// confirmed by this node's own prepare and returned without a
    /// remote prepare; an accept is prepared in node-id order, this node
    /// installing the verdict it already has.
    ///
    /// Every peer call the admission makes, retries included, is
    /// counted into `cluster.twopc.peer_calls{coordinator=…}`.
    fn two_phase(
        &self,
        participants: &[Participant],
        owners: &Owners,
        admission: &Admission,
    ) -> Response {
        let request = admission.request;
        if let Some(peer) = self.first_suspect(participants.iter().map(|(id, _)| id.as_str())) {
            return self.peer_unavailable(request.name(), peer);
        }
        self.obs.twopc_started.inc();
        let calls = Cell::new(0);
        let response = self.two_phase_rounds(participants, owners, admission, &calls);
        let owner = participants.iter().any(|(id, _)| *id == self.config.me);
        self.obs.twopc_peer_calls[usize::from(owner)].observe(calls.get());
        response
    }

    /// The attempts of [`Self::two_phase`], retried on a lost epoch
    /// race; peer calls are counted in `calls`. An attempt whose
    /// refutation meets a name already held or committed is run again
    /// without refuting, and that rerun is no retry.
    fn two_phase_rounds(
        &self,
        participants: &[Participant],
        owners: &Owners,
        admission: &Admission,
        calls: &Cell<u64>,
    ) -> Response {
        let me = participants
            .iter()
            .position(|(participant, _)| *participant == self.config.me);
        let mut refuting = true;
        let mut attempts = 0;
        while attempts <= MAX_RETRIES {
            match self.attempt(participants, me, owners, admission, refuting, calls) {
                Attempt::Done(response) => return response,
                Attempt::Held => refuting = false,
                Attempt::Stale => {
                    self.obs.twopc_retries.inc();
                    attempts += 1;
                }
            }
        }
        self.obs.twopc_aborted.inc();
        Response::Error {
            message: format!(
                "two-phase admission for `{}` lost {} epoch races; \
                 the cluster state keeps changing, retry later",
                admission.request.name(),
                MAX_RETRIES + 1
            ),
        }
    }

    /// One snapshot, prepare and commit round of a two-phase admission;
    /// `me` is this node's index among `participants`, if it is one.
    fn attempt(
        &self,
        participants: &[Participant],
        me: Option<usize>,
        owners: &Owners,
        admission: &Admission,
        refuting: bool,
        calls: &Cell<u64>,
    ) -> Attempt {
        let request = admission.request;
        let name = request.name().to_string();
        let ttl = Duration::from_millis(self.ttl_ms());
        let owners = refuting.then_some(owners);
        let round = match self.snapshot(participants, me, owners, admission, calls) {
            Ok(Round::Refuted(refutation)) => {
                return self.confirm_refutation(participants, me, admission, refutation, calls)
            }
            Ok(Round::Full(epochs_by, basis)) => me
                .map(|_| self.decide_here(request, &basis))
                .transpose()
                .map(|verdict| (epochs_by, basis, verdict)),
            Err(message) => Err(message),
        };
        let (epochs_by, basis, verdict) = match round {
            Ok(round) => round,
            Err(message) => {
                self.obs.twopc_aborted.inc();
                return Attempt::Done(Response::Error {
                    message: format!("two-phase admission failed before prepare: {message}"),
                });
            }
        };
        // A reject installs nothing, so this node's prepare confirms
        // it first: the reject stands if this node's epochs — taken
        // before every remote snapshot, checked after the last — have
        // not moved. A name this node already holds answers `prepared`
        // and falls through to the ordered prepares, as a retried 2PC
        // must.
        let confirmed = match (me, &verdict) {
            (Some(index), Some(reject @ Decision::Reject(_))) => {
                match self.local.prepare(request, reject, &epochs_by[index], ttl) {
                    Response::Prepared { .. } => None,
                    other => Some((0, &participants[index].0, Ok(other))),
                }
            }
            _ => None,
        };
        // Phase one: prepare in order, stopping at the first
        // participant that does not prepare — so the prepared ones
        // are always a prefix of `participants`.
        let failure = confirmed.or_else(|| {
            participants.iter().zip(epochs_by).enumerate().find_map(
                |(index, ((participant, addr), epochs))| {
                    let answer = match &verdict {
                        Some(verdict) if Some(index) == me => {
                            Ok(self.local.prepare(request, verdict, &epochs, ttl))
                        }
                        _ => self.prepare_peer(participant, addr, admission, &basis, epochs, calls),
                    };
                    match answer {
                        Ok(Response::Prepared { .. }) => None,
                        other => Some((index, participant, other)),
                    }
                },
            )
        });
        let Some((prepared, participant, answer)) = failure else {
            return Attempt::Done(self.commit_all(participants, &name, calls));
        };
        self.release(&participants[..prepared], &name, calls);
        self.settle(participant, answer)
    }

    /// How `participant`'s answer to a prepare that did not prepare
    /// ends the attempt: a reject is the admission's answer,
    /// `stale-epoch` a retry, anything else an abort.
    fn settle(&self, participant: &str, answer: Result<Response, String>) -> Attempt {
        match answer {
            Ok(decision @ Response::Decision { .. }) => {
                self.obs.twopc_rejected.inc();
                Attempt::Done(decision)
            }
            Ok(Response::StaleEpoch { .. }) => Attempt::Stale,
            other => {
                self.obs.twopc_aborted.inc();
                Attempt::Done(Response::Error {
                    message: format!(
                        "two-phase admission failed: {}",
                        unexpected(participant, "prepare", other)
                    ),
                })
            }
        }
    }

    /// The TTL of a tentative reservation, in the whole milliseconds a
    /// `prepare` frame carries.
    fn ttl_ms(&self) -> u64 {
        u64::try_from(self.config.ttl.as_millis()).unwrap_or(u64::MAX)
    }

    /// Sends `participant` a `prepare` carrying `basis` and its
    /// `epochs`, counted as a prepare and a peer call.
    fn prepare_peer(
        &self,
        participant: &str,
        addr: &str,
        admission: &Admission,
        basis: &[ResourceSpec],
        epochs: Vec<u64>,
        calls: &Cell<u64>,
    ) -> Result<Response, String> {
        self.obs.twopc_prepares.inc();
        let prepare = Request::Prepare {
            name: admission.request.name().to_string(),
            computation: admission.computation.clone(),
            granularity: admission.granularity,
            basis: basis.to_vec(),
            epochs,
            ttl_ms: self.ttl_ms(),
        };
        self.call_peer(participant, addr, &prepare, calls)
    }

    /// Confirms a refutation with one prepare, as a decided reject is
    /// confirmed: this node's own, with its epochs, when it owns some
    /// of the demand; otherwise participant 1's, with the slice and
    /// epochs the refutation read, and which re-decides on that slice
    /// (refuting is its policy's first step, so it rejects alike). A
    /// reject that stands is returned; `stale-epoch` is a retry;
    /// `prepared` means the name is already held or committed there, and
    /// the attempt runs again on the full path.
    fn confirm_refutation(
        &self,
        participants: &[Participant],
        me: Option<usize>,
        admission: &Admission,
        Refutation {
            reject,
            epochs,
            slice,
        }: Refutation,
        calls: &Cell<u64>,
    ) -> Attempt {
        let (participant, answer) = match me {
            Some(index) => {
                let verdict = Decision::Reject(reject);
                let ttl = Duration::from_millis(self.ttl_ms());
                let answer = self
                    .local
                    .prepare(admission.request, &verdict, &epochs, ttl);
                (&participants[index].0, Ok(answer))
            }
            None => {
                let (participant, addr) = &participants[0];
                let answer = self.prepare_peer(participant, addr, admission, &slice, epochs, calls);
                (participant, answer)
            }
        };
        match answer {
            Ok(Response::Prepared { .. }) => return Attempt::Held,
            Ok(Response::Decision { .. }) => {
                self.obs.twopc_refuted[usize::from(me.is_some())].inc();
            }
            _ => {}
        }
        self.settle(participant, answer)
    }

    /// Snapshots every participant within the admission's scope — this
    /// node (`participants[me]`) first, in-process, then the others in
    /// order — and merges the slices into the basis in node-id order;
    /// the union of disjoint slices is the merged single-node basis.
    /// Returns each participant's epochs, in order, with the basis.
    ///
    /// Given the demand's `owners`, the round offers the supply read so
    /// far to the policy's refutation ([`LocalHandle::refute`]) after
    /// this node's own slice and after each remote one; a coordinator
    /// that owns none of the demand offers it once, after participant
    /// 1's slice, the only one it can confirm a refutation with. A
    /// refutation ends the round there: no further snapshot and no
    /// basis. A demanded type whose owner's slice is not read yet is
    /// unknown supply, which the refutation never reads past.
    fn snapshot(
        &self,
        participants: &[Participant],
        me: Option<usize>,
        owners: Option<&Owners>,
        admission: &Admission,
        calls: &Cell<u64>,
    ) -> Result<Round, String> {
        let mut slices: Vec<Option<Slice>> = vec![None; participants.len()];
        if let Some(index) = me {
            let own = self
                .local
                .cluster_state_in(Some(admission.scope))
                .map_err(|message| {
                    unexpected(
                        &self.config.me,
                        "the snapshot",
                        Ok(Response::Error { message }),
                    )
                })?;
            slices[index] = Some(own);
        }
        let request = Request::ScopedSnapshot {
            scope: admission.scope.clone(),
        };
        let confirmer = me.unwrap_or(0);
        let remote = (0..participants.len()).filter(|&index| Some(index) != me);
        for index in me.into_iter().chain(remote) {
            if Some(index) != me {
                let (participant, addr) = &participants[index];
                let answer = self.call_peer(participant, addr, &request, calls);
                slices[index] = Some(read_snapshot(participant, answer)?);
            }
            let Some(owners) = owners.filter(|_| me.is_some() || index == 0) else {
                continue;
            };
            if let Some(reject) = self.refute(admission.request, owners, &slices) {
                // The confirming participant's slice is the first read.
                if let Some((epochs, slice)) = slices[confirmer].take() {
                    return Ok(Round::Refuted(Refutation {
                        reject,
                        epochs,
                        slice,
                    }));
                }
            }
        }
        let mut epochs_by = Vec::with_capacity(slices.len());
        let mut basis = Vec::new();
        for (epochs, terms) in slices.into_iter().flatten() {
            basis.extend(terms);
            epochs_by.push(epochs);
        }
        self.obs.twopc_basis_terms.observe(basis.len() as u64);
        Ok(Round::Full(epochs_by, basis))
    }

    /// The reject this node's policy proves for `request` from the
    /// `slices` read so far: a demanded type's supply is its owner's
    /// slice's quantity over the request's window, unknown while that
    /// slice is unread.
    fn refute(
        &self,
        request: &AdmissionRequest,
        owners: &Owners,
        slices: &[Option<Slice>],
    ) -> Option<RejectReason> {
        let window = request.window();
        let supply = |located: &LocatedType| {
            let (_, terms) = slices[*owners.get(located)?].as_ref()?;
            slice_supply(terms, located, &window)
        };
        self.local.refute(request, &supply)
    }

    /// The verdict this node decides on the merged `basis`, built into
    /// a set here, once, for the request the router already priced.
    fn decide_here(
        &self,
        request: &AdmissionRequest,
        basis: &[ResourceSpec],
    ) -> Result<Decision, String> {
        let basis = spec::resource_set(basis).map_err(|err| format!("bad basis: {err}"))?;
        self.local.decide(request, &basis)
    }

    /// Phase two: commits `name` on every (prepared) participant. A
    /// participant that cannot commit releases everything, including
    /// any participant that already committed.
    fn commit_all(&self, participants: &[Participant], name: &str, calls: &Cell<u64>) -> Response {
        for (participant, addr) in participants {
            let commit = Request::CommitReservation {
                name: name.to_string(),
            };
            if let Err(message) = self.call_owner(participant, addr, commit, calls).and_then(
                |response| match response {
                    Response::Committed { .. } => Ok(()),
                    other => Err(format!("{other:?}")),
                },
            ) {
                self.release(participants, name, calls);
                self.obs.twopc_aborted.inc();
                return Response::Error {
                    message: format!(
                        "two-phase commit failed at `{participant}` \
                         ({message}); all reservations released"
                    ),
                };
            }
        }
        self.obs.twopc_committed.inc();
        Response::Decision {
            computation: name.to_string(),
            accepted: true,
            shard: 0,
            reason: format!(
                "admitted across {} nodes (two-phase commit)",
                participants.len()
            ),
            violated_term: None,
            clause: None,
            diagnostics: Diagnostics::default(),
        }
    }

    /// Asks each of `participants` to release the reservation `name`.
    fn release(&self, participants: &[Participant], name: &str, calls: &Cell<u64>) {
        for (participant, addr) in participants {
            let abort = Request::AbortReservation {
                name: name.to_string(),
            };
            let _ = self.call_owner(participant, addr, abort, calls);
        }
    }

    fn route_offer(&self, resources: &[ResourceSpec]) -> Option<Response> {
        let topology = read(&self.topology);
        // Group the offered terms by owning node, keyed on each term's
        // first (source) location — the same rule as slicing — and copy
        // each owner's address out while the guard is held.
        let mut groups: Vec<(Participant, Vec<ResourceSpec>)> = Vec::new();
        for spec in resources {
            spec.interval()?; // empty: let the local core report the spec error
            if spec.rate == 0 {
                continue; // null term: nothing to install anywhere
            }
            let location = spec.located.locations()[0].name();
            let Some(owner) = topology.owner_of(location) else {
                return Some(Response::Error {
                    message: format!(
                        "offer names location `{location}`, which no cluster node \
                         owns (R0016); fix the topology or the offer"
                    ),
                });
            };
            let owner = (owner.id.clone(), owner.addr.clone());
            match groups.iter_mut().find(|(id, _)| *id == owner) {
                Some((_, group)) => group.push(spec.clone()),
                None => groups.push((owner, vec![spec.clone()])),
            }
        }
        drop(topology);
        if groups.iter().all(|((id, _), _)| *id == self.config.me) {
            return None; // everything ours: the local core installs it
        }
        if let Some(owner) = self.first_suspect(groups.iter().map(|((id, _), _)| id.as_str())) {
            return Some(Response::Error {
                message: format!(
                    "offer touches locations owned by `{owner}`, which is \
                     suspected down; retry once it recovers"
                ),
            });
        }
        let mut terms = 0u64;
        for ((owner, addr), group) in groups {
            let offer = Request::Offer {
                resources: group,
                forwarded: true,
            };
            let answer = if owner == self.config.me {
                Ok(self.local.call(offer))
            } else {
                self.obs.forwards.inc();
                self.links.call(&owner, &addr, &offer)
            };
            match answer {
                Ok(Response::Offered { terms: installed }) => terms += installed,
                Ok(other) => {
                    return Some(Response::Error {
                        message: format!(
                            "offer slice for `{owner}` failed with {other:?}; \
                             earlier slices may already be installed"
                        ),
                    })
                }
                Err(message) => {
                    return Some(Response::Error {
                        message: format!(
                            "offer slice for `{owner}` failed ({message}); \
                             earlier slices may already be installed"
                        ),
                    })
                }
            }
        }
        Some(Response::Offered { terms })
    }
}

/// One participant's snapshot: its shard epochs and its slice of the
/// basis.
type Slice = (Vec<u64>, Vec<ResourceSpec>);

/// An admission the router has priced, with what its two-phase rounds
/// send and read.
struct Admission<'a> {
    computation: &'a ComputationSpec,
    granularity: Granularity,
    request: &'a AdmissionRequest,
    /// The request's demanded located types over its window.
    scope: &'a Scope,
}

/// How a snapshot round ended.
enum Round {
    /// Every slice was read: each participant's epochs, in order, and
    /// the merged basis.
    Full(Vec<Vec<u64>>, Vec<ResourceSpec>),
    /// The slices read so far refute the request.
    Refuted(Refutation),
}

/// A reject the slices read so far prove, with the epochs and slice of
/// the participant that confirms it.
struct Refutation {
    reject: RejectReason,
    epochs: Vec<u64>,
    slice: Vec<ResourceSpec>,
}

/// How one attempt of a two-phase admission ended.
enum Attempt {
    /// With the admission's answer.
    Done(Response),
    /// A participant's epochs moved: retry.
    Stale,
    /// A refutation met a name already held or committed: run the
    /// attempt again without refuting.
    Held,
}

/// A slice's supply of `located` over `window`: the sum of its terms'
/// rates over their overlap with the window, which is what the merged
/// basis holds of that type, since all of a located type's terms sit in
/// its owner's slice. `None` if the sum overflows.
fn slice_supply(
    slice: &[ResourceSpec],
    located: &LocatedType,
    window: &TimeInterval,
) -> Option<Quantity> {
    slice
        .iter()
        .filter(|term| term.located == *located)
        .try_fold(Quantity::ZERO, |total, term| {
            match term
                .interval()
                .and_then(|interval| interval.intersect(window))
            {
                Some(shared) => {
                    total.checked_add(Rate::new(term.rate).over(shared.duration()).ok()?)
                }
                None => Some(total),
            }
        })
}

/// Reads a participant's snapshot answer: its shard epochs and its
/// slice of the basis. A slice that does not decode is an error, never
/// an empty slice: deciding without that participant's supply would
/// pass a broken answer off as an ordinary policy reject.
fn read_snapshot(participant: &str, answer: Result<Response, String>) -> Result<Slice, String> {
    match answer {
        Ok(Response::ClusterState { epochs, resources }) => resources
            .as_array()
            .ok_or_else(|| "not an array".to_string())
            .and_then(|terms| resources_from_json(terms).map_err(|err| err.to_string()))
            .map(|terms| (epochs, terms))
            .map_err(|err| {
                format!("peer `{participant}` sent a snapshot whose resources do not decode: {err}")
            }),
        other => Err(unexpected(participant, "the snapshot", other)),
    }
}

/// Describes a peer call that did not get the answer its phase needs.
fn unexpected(participant: &str, phase: &str, answer: Result<Response, String>) -> String {
    match answer {
        Ok(other) => format!("peer `{participant}` answered {phase} with {other:?}"),
        Err(message) => message,
    }
}

impl RequestHook for ClusterRouter {
    fn intercept(&self, request: &Request) -> Option<Reply> {
        match request {
            Request::Gossip { digest } => Some(self.handle_gossip(digest).into()),
            Request::Admit {
                computation,
                granularity,
                forwarded: false,
            } => self.route_admit(computation, *granularity),
            Request::Offer {
                resources,
                forwarded: false,
            } => self.route_offer(resources).map(Reply::from),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rota_obs::Json;
    use rota_resource::{LocatedType, Location, Quantity};
    use std::collections::BTreeSet;

    /// Location `l{i}`; on `Topology::auto(n)` it is owned iff `i < n`.
    fn at(i: usize) -> Location {
        Location::new(format!("l{i}"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// `classify` against its definition, over random demands on an
        /// `n`-node auto topology, some at locations no node owns.
        /// Each term is `(source, link destination or cpu when ≥ 6,
        /// quantity)`; links are keyed by their source.
        #[test]
        fn classification_matches_its_definition(
            n in 1usize..5,
            me in 0usize..5,
            terms in proptest::collection::vec((0usize..6, 0usize..8, 0u64..3), 0..6),
        ) {
            let topology = Topology::auto(n);
            let me = format!("node{}", me % n);
            let mut demand = ResourceDemand::new();
            for &(source, dest, quantity) in &terms {
                let located = if dest < 6 {
                    LocatedType::network(at(source), at(dest))
                } else {
                    LocatedType::cpu(at(source))
                };
                demand.add(located, Quantity::new(quantity));
            }
            let demanded: Vec<usize> = terms.iter().filter(|t| t.2 > 0).map(|t| t.0).collect();
            let owners: BTreeSet<String> =
                demanded.iter().filter(|&&l| l < n).map(|l| format!("node{l}")).collect();
            let route = classify(&demand, &topology, &me);
            if demanded.iter().any(|&l| l >= n) {
                prop_assert!(matches!(route, Route::Unowned(ref r) if r.has_errors()), "{route:?}");
            } else if owners.is_empty() || owners == BTreeSet::from([me.clone()]) {
                prop_assert!(matches!(route, Route::Local), "{route:?}");
            } else if owners.len() == 1 {
                match route {
                    Route::Forward((id, _)) => {
                        prop_assert!(owners.contains(&id) && id != me, "{id}");
                    }
                    other => panic!("expected a forward, got {other:?}"),
                }
            } else {
                match route {
                    Route::TwoPhase(participants, by_type) => {
                        let ids: Vec<String> = participants.into_iter().map(|(id, _)| id).collect();
                        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
                        prop_assert_eq!(ids.iter().cloned().collect::<BTreeSet<_>>(), owners.clone());
                        prop_assert_eq!(ids.contains(&me), owners.contains(&me));
                        // Every demanded type maps to the participant
                        // owning its first location.
                        let types: Vec<&LocatedType> = demand.located_types().collect();
                        prop_assert_eq!(by_type.keys().collect::<Vec<_>>(), types);
                        for (located, &index) in &by_type {
                            let source = located.locations()[0].name();
                            prop_assert_eq!(&ids[index], &format!("node{}", &source[1..]));
                        }
                    }
                    other => panic!("expected a two-phase commit, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_snapshot_that_does_not_decode_is_an_error_naming_the_peer() {
        let state = |resources| {
            Ok(Response::ClusterState {
                epochs: vec![3],
                resources,
            })
        };
        let junk = read_snapshot("node1", state(Json::Arr(vec![Json::Str("junk".into())])));
        let message = junk.unwrap_err();
        assert!(
            message.contains("`node1`") && message.contains("do not decode"),
            "{message}"
        );
        assert!(read_snapshot("node1", state(Json::Num(1.0))).is_err());
        // An empty slice is a real answer, not an error.
        assert_eq!(
            read_snapshot("node1", state(Json::Arr(Vec::new()))),
            Ok((vec![3], Vec::new()))
        );
        let failed = read_snapshot("node2", Err("peer `node2` unreachable".into()));
        assert!(failed.unwrap_err().contains("node2"));
    }

    /// The decode error of a malformed term in a `cluster-state` answer
    /// names the peer and the term, word for word.
    #[test]
    fn a_snapshot_decode_error_names_the_term() {
        let answer = Response::from_line(
            r#"{"ok":true,"op":"cluster-state","epochs":[3],"resources":[{"kind":"cpu","location":"l0","rate":1,"start":0,"end":4},{"kind":"cpu","location":"l0","rate":-1,"start":0,"end":4}]}"#,
        )
        .map_err(|err| err.to_string());
        assert_eq!(
            read_snapshot("node1", answer).unwrap_err(),
            "peer `node1` sent a snapshot whose resources do not decode: spec parse error: \
             resources[1]: field `rate` must be a non-negative integer"
        );
    }

    #[test]
    fn peer_unavailable_json_names_the_peer() {
        // The diagnostic shape is load-bearing for clients that branch
        // on `code`.
        let diagnostic = Diagnostic::new(
            "peer-unavailable",
            Severity::Error,
            "node `node2`",
            "suspected down",
        )
        .to_json(None);
        let text = diagnostic.to_string();
        assert!(text.contains("peer-unavailable"), "{text}");
        assert!(text.contains("node2"), "{text}");
    }
}
