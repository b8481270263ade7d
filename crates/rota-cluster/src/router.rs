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
//! 3. Fresh **admissions** are priced locally to discover which
//!    locations their demand touches. Demand on a location no node
//!    owns is rejected immediately with the analyzer's `R0016`
//!    diagnostic. Demand owned entirely by this node falls through to
//!    the local core (the common, zero-overhead case). Demand owned by
//!    one *other* node is forwarded over TCP. Demand spanning several
//!    owners runs the two-phase protocol below.
//! 4. **Offers** are split by location ownership and installed on the
//!    owning nodes.
//!
//! ## Two-phase commit
//!
//! The coordinator snapshots every participant (`cluster-snapshot` →
//! per-shard epochs + obtainable resources Θ_expire), merges the
//! snapshots into one basis — sound because location ownership is
//! disjoint, so the union is exactly the merged single-node state —
//! and sends `prepare` to every participant carrying the basis and
//! the expected epochs. Each participant re-derives the decision
//! *itself* against the shared basis (decisions are deterministic, so
//! all participants agree), installs the commitments tentatively
//! under a TTL, and answers `prepared`. All prepared → `commit`
//! everywhere; any reject → the policy's verdict is returned verbatim
//! and the already-prepared participants are aborted; any
//! `stale-epoch` answer → abort, re-snapshot, retry (bounded). A
//! coordinator that dies between prepare and commit leaks nothing: the
//! TTL releases the tentative reservations (see `rota-server::shard`).
//!
//! Participants believed **suspect** by the gossip layer are never
//! contacted: requests touching them are rejected up front with a
//! structured `peer-unavailable` diagnostic — degraded mode, not a
//! hang.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rota_actor::{Granularity, TableCostModel};
use rota_admission::AdmissionRequest;
use rota_analyze::{check_ownership, Diagnostic, Report, Severity};
use rota_obs::{Counter, Registry};
use rota_server::spec::{ComputationSpec, ResourceSpec};
use rota_server::{fault, LocalHandle, Request, RequestHook, Response};

use crate::gossip::{GossipEngine, PeerHealth};
use crate::links::{self, PeerLinks};
use crate::topology::SharedTopology;

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

/// A 2PC participant: node id and address.
type Participant = (String, String);

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
        }
    }
}

/// One node's request router; see the module docs for the rules.
pub struct ClusterRouter {
    config: RouterConfig,
    topology: SharedTopology,
    gossip: Arc<Mutex<GossipEngine>>,
    health: Arc<PeerHealth>,
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
        health: Arc<PeerHealth>,
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
            health,
            local,
            links,
            cost_model: TableCostModel::paper(),
            obs,
            partitioned,
        }
    }

    fn read_topology(&self) -> crate::topology::Topology {
        self.topology
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Calls `owner` with `request`: through the loopback handle when
    /// the owner is this node, over a peer link otherwise.
    fn call_owner(&self, owner: &str, addr: &str, request: Request) -> Result<Response, String> {
        if owner == self.config.me {
            return Ok(self.local.call(request));
        }
        self.links.call(owner, addr, &request)
    }

    fn handle_gossip(&self, digest: &rota_server::GossipDigest) -> Response {
        if self.partitioned.load(Ordering::SeqCst) {
            return Response::Error {
                message: "gossip partitioned (injected)".into(),
            };
        }
        self.obs.gossip_exchanges.inc();
        let round = self.health.round();
        let mut engine = self
            .gossip
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        engine.absorb(digest, round);
        self.health.publish(engine.alive_set(round), round);
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
            diagnostics: vec![diagnostic.to_json(None)],
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
            diagnostics: report
                .diagnostics()
                .iter()
                .map(|d| d.to_json(None))
                .collect(),
        }
    }

    fn route_admit(
        &self,
        computation: &ComputationSpec,
        granularity: Granularity,
    ) -> Option<Response> {
        // Unbuildable specs fall through: the local core produces the
        // canonical spec-error response.
        let lambda = computation.build().ok()?;
        let request = AdmissionRequest::price(lambda, &self.cost_model, granularity);
        let demand = request.requirement().total_demand();
        let topology = self.read_topology();
        let owned = topology.locations();
        let ownership = check_ownership(&demand, &owned);
        if ownership.has_errors() {
            return Some(self.unowned(request.name(), &ownership));
        }
        let mut owners = BTreeSet::new();
        for (located, quantity) in demand.iter() {
            if quantity.is_zero() {
                continue;
            }
            if let Some(location) = located.locations().first() {
                if let Some(node) = topology.owner_of(location.name()) {
                    owners.insert(node.id.clone());
                }
            }
        }
        // No located demand, or all of it ours: the local core decides.
        owners.remove(&self.config.me);
        if owners.is_empty() {
            return None;
        }
        for owner in &owners {
            if !self.health.is_alive(owner) {
                return Some(self.peer_unavailable(request.name(), owner));
            }
        }
        let total_owners = owners.len()
            + usize::from(
                demand.iter().any(|(located, quantity)| {
                    !quantity.is_zero()
                        && located.locations().first().is_some_and(|l| {
                            topology
                                .owner_of(l.name())
                                .is_some_and(|n| n.id == self.config.me)
                        })
                }),
            );
        if total_owners == 1 {
            // Exactly one remote owner, nothing of ours: forward whole.
            // PANIC-OK: total_owners == 1 was just checked, so the set
            // holds exactly one id.
            let owner = owners.iter().next().expect("owners is non-empty").clone();
            let addr = topology
                .node(&owner)
                .map(|n| n.addr.clone())
                .unwrap_or_default();
            self.obs.forwards.inc();
            return Some(
                self.call_owner(
                    &owner,
                    &addr,
                    Request::Admit {
                        computation: computation.clone(),
                        granularity,
                        forwarded: true,
                    },
                )
                .unwrap_or_else(|message| Response::Error { message }),
            );
        }
        // Several owners (possibly including us): two-phase commit.
        if total_owners > owners.len() {
            owners.insert(self.config.me.clone());
        }
        let participants: Vec<Participant> = owners
            .into_iter()
            .map(|id| {
                let addr = topology
                    .node(&id)
                    .map(|n| n.addr.clone())
                    .unwrap_or_default();
                (id, addr)
            })
            .collect();
        Some(self.two_phase(&participants, computation, granularity, &request))
    }

    /// Runs one full two-phase admission across `participants`, in
    /// node-id order.
    fn two_phase(
        &self,
        participants: &[Participant],
        computation: &ComputationSpec,
        granularity: Granularity,
        request: &AdmissionRequest,
    ) -> Response {
        self.obs.twopc_started.inc();
        let name = request.name().to_string();
        let ttl_ms = u64::try_from(self.config.ttl.as_millis()).unwrap_or(u64::MAX);
        for _attempt in 0..=MAX_RETRIES {
            // Snapshot every participant; the union of disjoint slices
            // is the merged single-node basis.
            let mut epochs_by: Vec<Vec<u64>> = Vec::with_capacity(participants.len());
            let mut basis: Vec<ResourceSpec> = Vec::new();
            for (participant, addr) in participants {
                match self.call_owner(participant, addr, Request::ClusterSnapshot) {
                    Ok(Response::ClusterState { epochs, resources }) => {
                        let specs = resources
                            .as_array()
                            .map(rota_server::spec::resources_from_json)
                            .transpose()
                            .ok()
                            .flatten()
                            .unwrap_or_default();
                        basis.extend(specs);
                        epochs_by.push(epochs);
                    }
                    other => {
                        self.obs.twopc_aborted.inc();
                        return Response::Error {
                            message: format!(
                                "two-phase admission failed before prepare: {}",
                                unexpected(participant, "the snapshot", other)
                            ),
                        };
                    }
                }
            }
            // Phase one: prepare in order, stopping at the first
            // participant that does not prepare — so the prepared ones
            // are always a prefix of `participants`.
            let failure = participants.iter().zip(epochs_by).enumerate().find_map(
                |(index, ((participant, addr), epochs))| {
                    let prepare = Request::Prepare {
                        name: name.clone(),
                        computation: computation.clone(),
                        granularity,
                        basis: basis.clone(),
                        epochs,
                        ttl_ms,
                    };
                    match self.call_owner(participant, addr, prepare) {
                        Ok(Response::Prepared { .. }) => None,
                        other => Some((index, participant, other)),
                    }
                },
            );
            let Some((prepared, participant, answer)) = failure else {
                return self.commit_all(participants, &name);
            };
            self.release(&participants[..prepared], &name);
            match answer {
                Ok(decision @ Response::Decision { .. }) => {
                    self.obs.twopc_rejected.inc();
                    return decision;
                }
                Ok(Response::StaleEpoch { .. }) => self.obs.twopc_retries.inc(),
                other => {
                    self.obs.twopc_aborted.inc();
                    return Response::Error {
                        message: format!(
                            "two-phase admission failed: {}",
                            unexpected(participant, "prepare", other)
                        ),
                    };
                }
            }
        }
        self.obs.twopc_aborted.inc();
        Response::Error {
            message: format!(
                "two-phase admission for `{name}` lost {} epoch races; \
                 the cluster state keeps changing, retry later",
                MAX_RETRIES + 1
            ),
        }
    }

    /// Phase two: commits `name` on every (prepared) participant. A
    /// participant that cannot commit releases everything, including
    /// any participant that already committed.
    fn commit_all(&self, participants: &[Participant], name: &str) -> Response {
        if self.local.take_2pc_ticket() {
            // PANIC-OK: deterministic chaos drill — the coordinator dies
            // between prepare and commit; the connection thread unwinds
            // and the TTL must release every tentative reservation.
            std::panic::panic_any(fault::INJECTED_PANIC);
        }
        for (participant, addr) in participants {
            let commit = Request::CommitReservation {
                name: name.to_string(),
            };
            if let Err(message) = self
                .call_owner(participant, addr, commit)
                .and_then(|response| match response {
                    Response::Committed { .. } => Ok(()),
                    other => Err(format!("{other:?}")),
                })
            {
                self.release(participants, name);
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
            diagnostics: Vec::new(),
        }
    }

    /// Asks each of `participants` to release the reservation `name`.
    fn release(&self, participants: &[Participant], name: &str) {
        for (participant, addr) in participants {
            let _ = self.call_owner(
                participant,
                addr,
                Request::AbortReservation {
                    name: name.to_string(),
                },
            );
        }
    }

    fn route_offer(&self, resources: &[ResourceSpec]) -> Option<Response> {
        let topology = self.read_topology();
        // Group the offered terms by owning node, keyed on each term's
        // first (source) location — the same rule as slicing.
        let mut groups: Vec<(String, Vec<ResourceSpec>)> = Vec::new();
        for spec in resources {
            spec.interval()?; // empty: let the local core report the spec error
            if spec.rate == 0 {
                continue; // null term: nothing to install anywhere
            }
            let location = spec.located.locations()[0].name().to_string();
            let Some(owner) = topology.owner_of(&location) else {
                return Some(Response::Error {
                    message: format!(
                        "offer names location `{location}`, which no cluster node \
                         owns (R0016); fix the topology or the offer"
                    ),
                });
            };
            match groups.iter_mut().find(|(id, _)| *id == owner.id) {
                Some((_, group)) => group.push(spec.clone()),
                None => groups.push((owner.id.clone(), vec![spec.clone()])),
            }
        }
        if groups.iter().all(|(id, _)| *id == self.config.me) {
            return None; // everything ours: the local core installs it
        }
        for (owner, _) in &groups {
            if owner != &self.config.me && !self.health.is_alive(owner) {
                return Some(Response::Error {
                    message: format!(
                        "offer touches locations owned by `{owner}`, which is \
                         suspected down; retry once it recovers"
                    ),
                });
            }
        }
        let mut terms = 0u64;
        for (owner, group) in groups {
            let addr = topology
                .node(&owner)
                .map(|n| n.addr.clone())
                .unwrap_or_default();
            if owner != self.config.me {
                self.obs.forwards.inc();
            }
            match self.call_owner(
                &owner,
                &addr,
                Request::Offer {
                    resources: group,
                    forwarded: true,
                },
            ) {
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

/// Describes a peer call that did not get the answer its phase needs.
fn unexpected(participant: &str, phase: &str, answer: Result<Response, String>) -> String {
    match answer {
        Ok(other) => format!("peer `{participant}` answered {phase} with {other:?}"),
        Err(message) => message,
    }
}

impl RequestHook for ClusterRouter {
    fn intercept(&self, request: &Request) -> Option<Response> {
        match request {
            Request::Gossip { digest } => Some(self.handle_gossip(digest)),
            Request::Admit {
                computation,
                granularity,
                forwarded: false,
            } => self.route_admit(computation, *granularity),
            Request::Offer {
                resources,
                forwarded: false,
            } => self.route_offer(resources),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
