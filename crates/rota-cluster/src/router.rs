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
//! A spanning admission runs the one coordinator path in the crate's
//! `twopc` module: it snapshots every participant within the
//! admission's scope, refutes from the slices read so far or decides on
//! their merged basis, confirms a reject with one prepare, and prepares
//! and commits an accept in node-id order. The router only chooses how
//! each participant is reached: this node through its [`LocalHandle`],
//! with typed values, and every other node over its peer link, with
//! wire frames. The confirmer is this node when it owns some of the
//! demand, participant 1 otherwise, so an owner confirms a reject with
//! no peer call.
//!
//! Participants the node's gossip engine believes **suspect** are
//! never contacted: requests touching them are rejected up front with
//! a structured `peer-unavailable` diagnostic — degraded mode, not a
//! hang.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rota_actor::{Granularity, ResourceDemand, TableCostModel};
use rota_admission::AdmissionRequest;
use rota_analyze::{check_ownership, Diagnostic, Report, Severity};
use rota_logic::Scope;
use rota_obs::{Counter, Registry};
use rota_server::spec::{ComputationSpec, ResourceSpec};
use rota_server::{Diagnostics, LocalHandle, Reply, Request, RequestHook, Response};

use crate::gossip::GossipEngine;
use crate::links::{self, PeerLinks};
use crate::topology::{SharedTopology, Topology};
use crate::twopc::{Admission, Coordinator, Local, Owners, Participant, Peer, TwoPhaseObs};
use crate::{lock, read};

/// TTL on the tentative reservations of a two-phase admission.
const HOLD_TTL: Duration = Duration::from_secs(2);

/// A node the router calls: id and address.
type Node = (String, String);

/// Where one admission goes, decided from its demand and the topology
/// alone.
#[derive(Debug)]
pub(crate) enum Route {
    /// Some demand sits at a location no node owns: the `R0016` report.
    Unowned(Report),
    /// This node owns all of the located demand, or there is none.
    Local,
    /// Exactly one other node owns all of it.
    Forward(Node),
    /// Several owners, in id order; this node is among them iff it owns
    /// some of the demand.
    TwoPhase(Vec<Node>, Owners),
}

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
    let mut participants: Vec<Node> = owners
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
    twopc: TwoPhaseObs,
}

impl RouterObs {
    fn new(registry: &Registry) -> RouterObs {
        RouterObs {
            gossip_exchanges: registry.counter("cluster.gossip.exchanges"),
            forwards: registry.counter("cluster.router.forwards"),
            unowned_rejects: registry.counter("cluster.router.unowned_rejects"),
            degraded_rejects: registry.counter("cluster.router.degraded_rejects"),
            twopc: TwoPhaseObs::new(registry),
        }
    }
}

/// One node's request router; see the module docs for the rules.
pub(crate) struct ClusterRouter {
    /// This node's id in the topology.
    me: String,
    topology: SharedTopology,
    gossip: Arc<Mutex<GossipEngine>>,
    local: LocalHandle,
    links: PeerLinks,
    cost_model: TableCostModel,
    obs: RouterObs,
}

impl ClusterRouter {
    /// Builds the router for node `me`, publishing its metrics into the
    /// server registry behind `local`. `peer_timeout` bounds dialling a
    /// peer; once connected, each read or write of a peer call may block
    /// for it plus a fixed 5 s allowance for the peer's answer
    /// (`PEER_ANSWER_BUDGET` in the peer-link module), and a call that
    /// outlives that fails and its link is dropped.
    pub(crate) fn new(
        me: String,
        peer_timeout: Duration,
        topology: SharedTopology,
        gossip: Arc<Mutex<GossipEngine>>,
        local: LocalHandle,
    ) -> ClusterRouter {
        let registry = local.registry().unwrap_or_default();
        let obs = RouterObs::new(&registry);
        let links = PeerLinks::new(
            &registry,
            peer_timeout,
            links::io_timeout(peer_timeout),
            links::max_idle(),
        );
        ClusterRouter {
            me,
            topology,
            gossip,
            local,
            links,
            cost_model: TableCostModel::paper(),
            obs,
        }
    }

    /// The first of `nodes` this node's gossip engine believes down
    /// (this node itself is always alive).
    fn first_suspect<'a>(&self, mut nodes: impl Iterator<Item = &'a str>) -> Option<&'a str> {
        let engine = lock(&self.gossip);
        nodes.find(|node| !engine.alive(node))
    }

    fn handle_gossip(&self, digest: &rota_server::GossipDigest) -> Response {
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
        let route = classify(request.demand(), &read(&self.topology), &self.me);
        let response = match route {
            Route::Unowned(report) => self.unowned(request.name(), &report),
            Route::Local => return Some(self.local.admit(computation, request)),
            Route::Forward(owner) => self.forward(&owner, computation, granularity, request.name()),
            Route::TwoPhase(participants, owners) => {
                let scope = Scope::of(request.demand(), request.window());
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
        (owner, addr): &Node,
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

    /// Runs one two-phase admission across `participants` (see
    /// [`crate::twopc`]): this node through its local handle, every
    /// other node over its peer link. The confirmer is this node when it
    /// is a participant, participant 1 otherwise. Every peer call the
    /// admission makes, retries included, is counted into
    /// `cluster.twopc.peer_calls{coordinator=…}`.
    fn two_phase(&self, participants: &[Node], owners: &Owners, admission: &Admission) -> Response {
        if let Some(peer) = self.first_suspect(participants.iter().map(|(id, _)| id.as_str())) {
            return self.peer_unavailable(admission.request.name(), peer);
        }
        self.obs.twopc.started.inc();
        let me = participants.iter().position(|(id, _)| *id == self.me);
        let label = usize::from(me.is_some());
        let calls = Cell::new(0);
        let local = Local {
            id: &self.me,
            handle: &self.local,
        };
        let peers: Vec<Peer> = participants
            .iter()
            .map(|(id, addr)| Peer {
                id,
                addr,
                links: &self.links,
                calls: &calls,
                prepares: &self.obs.twopc.prepares,
            })
            .collect();
        let reached: Vec<&dyn Participant> = peers
            .iter()
            .map(|peer| {
                if peer.id == self.me {
                    &local as &dyn Participant
                } else {
                    peer
                }
            })
            .collect();
        let coordinator = Coordinator {
            local: &self.local,
            obs: &self.obs.twopc,
            refuted: &self.obs.twopc.refuted[label],
            ttl: HOLD_TTL,
        };
        let response = coordinator.admit(&reached, me.unwrap_or(0), owners, admission);
        self.obs.twopc.peer_calls[label].observe(calls.get());
        response
    }

    fn route_offer(&self, resources: &[ResourceSpec]) -> Option<Response> {
        let topology = read(&self.topology);
        // Group the offered terms by owning node, keyed on each term's
        // first (source) location — the same rule as slicing — and copy
        // each owner's address out while the guard is held.
        let mut groups: Vec<(Node, Vec<ResourceSpec>)> = Vec::new();
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
        if groups.iter().all(|((id, _), _)| *id == self.me) {
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
            let answer = if owner == self.me {
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
