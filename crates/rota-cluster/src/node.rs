//! Launching and running a cluster of federated admission nodes.
//!
//! [`Cluster::launch`] starts one `rota-server` per topology node, each
//! serving the slice of the supply its node owns and mounting a
//! [`ClusterRouter`] as its request hook. Launch is two-phase so
//! ephemeral ports work: first every server binds (recording its real
//! address into the shared topology), then every node's gossip runtime
//! starts — so the first gossip round already knows where everyone
//! lives.
//!
//! The gossip runtime is one thread per node: every `gossip_interval`
//! it starts the engine's next round, picks the round's seeded target,
//! looks the target's address up in the topology, and exchanges
//! digests with it over the wire (`hello` handshake first, so version
//! mismatches surface as structured errors). The engine is the node's
//! one source of liveness: the router, [`ClusterNode::is_alive`] and
//! the per-peer `cluster.peer.alive{peer=...}` gauges in the node's
//! registry all ask it.
//!
//! Test hooks: [`Cluster::partition`] cuts a node off the gossip
//! plane deterministically — its runtime stops dialing out and its
//! router answers inbound gossip with an error — so failure detection,
//! degraded-mode routing, and recovery can be drilled without timing
//! races; [`Cluster::kill`] stops a node outright.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rota_admission::AdmissionPolicy;
use rota_obs::Histogram;
use rota_resource::ResourceSet;
use rota_server::{FaultPlan, Request, Response, Server, ServerConfig, ServerHandle};

use crate::gossip::GossipEngine;
use crate::router::{ClusterRouter, RouterConfig};
use crate::topology::{SharedTopology, Topology};
use crate::{lock, read, write};

/// Knobs for a whole cluster launch.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shards per node. Defaults to 1: with one shard per node,
    /// per-node statistics aggregate exactly (a multi-shard node counts
    /// a 2PC accept once per holding shard).
    pub shards: usize,
    /// Per-shard queue capacity.
    pub queue_capacity: usize,
    /// Wall-clock length of one gossip round.
    pub gossip_interval: Duration,
    /// Beat-free rounds before a peer goes suspect.
    pub suspect_after: u64,
    /// Bound on dialling a peer (gossip, forwards, 2PC legs). Once
    /// connected, each read or write of a peer call may block for this
    /// plus a fixed 5 s allowance for the peer's answer
    /// (`PEER_ANSWER_BUDGET` in the peer-link module).
    pub peer_timeout: Duration,
    /// TTL on tentative 2PC reservations.
    pub ttl: Duration,
    /// Base RNG seed; node `i` gossips with seed `seed + i`.
    pub seed: u64,
    /// Per-node fault plans for chaos drills, keyed by node id.
    pub fault_plans: BTreeMap<String, FaultPlan>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 1,
            queue_capacity: 64,
            gossip_interval: Duration::from_millis(200),
            suspect_after: 3,
            peer_timeout: Duration::from_secs(1),
            ttl: Duration::from_secs(2),
            seed: 0,
            fault_plans: BTreeMap::new(),
        }
    }
}

/// One running node: its server plus its gossip runtime.
pub struct ClusterNode {
    id: String,
    handle: ServerHandle,
    engine: Arc<Mutex<GossipEngine>>,
    partitioned: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    gossip_thread: Option<JoinHandle<()>>,
}

impl ClusterNode {
    /// The node's id in the topology.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The address the node's server bound.
    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Whether this node's gossip engine believes `node` alive now.
    pub fn is_alive(&self, node: &str) -> bool {
        lock(&self.engine).alive(node)
    }

    /// Every node this node's gossip engine believes alive now,
    /// including itself.
    pub fn alive_nodes(&self) -> BTreeSet<String> {
        lock(&self.engine).alive_set()
    }
}

/// Dropping a node stops it: gossip runtime first, then (as its
/// server handle drops) its server.
impl Drop for ClusterNode {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.gossip_thread.take() {
            let _ = thread.join();
        }
    }
}

/// A running cluster: the shared topology and every node.
pub struct Cluster {
    topology: SharedTopology,
    nodes: Vec<ClusterNode>,
}

impl Cluster {
    /// Launches every node of `topology` over its slice of `theta`,
    /// each running `policy`.
    ///
    /// # Errors
    ///
    /// Propagates bind errors (e.g. a pinned address already in use).
    pub fn launch<P>(
        topology: Topology,
        theta: &ResourceSet,
        policy: P,
        config: ClusterConfig,
    ) -> io::Result<Cluster>
    where
        P: AdmissionPolicy + Clone + Send + Sync + 'static,
    {
        let shared: SharedTopology = Arc::new(RwLock::new(topology.clone()));
        let ids: Vec<String> = topology.nodes().iter().map(|n| n.id.clone()).collect();
        let mut nodes = Vec::new();
        // Phase one: bind every server and record its real address.
        for (index, spec) in topology.nodes().iter().enumerate() {
            let slice = topology.slice(theta, &spec.id);
            let server_config = ServerConfig {
                // PANIC-OK: `Topology::new` and `Topology::set_addr`
                // admit only empty or `ip:port` addresses.
                addr: spec.bind_addr().expect("topology addresses are empty or ip:port"),
                shards: config.shards,
                fault_plan: config.fault_plans.get(&spec.id).cloned(),
                queue_capacity: config.queue_capacity,
                ..ServerConfig::default()
            };
            let engine = Arc::new(Mutex::new(GossipEngine::new(
                &spec.id,
                &ids,
                config.seed + index as u64,
                config.suspect_after,
            )));
            let router_config = RouterConfig {
                me: spec.id.clone(),
                peer_timeout: config.peer_timeout,
                ttl: config.ttl,
            };
            let partitioned = Arc::new(AtomicBool::new(false));
            let hook_topology = Arc::clone(&shared);
            let hook_engine = Arc::clone(&engine);
            let hook_partitioned = Arc::clone(&partitioned);
            let handle = Server::spawn_hooked(
                server_config,
                policy.clone(),
                &slice,
                move |local| {
                    Arc::new(ClusterRouter::new(
                        router_config,
                        hook_topology,
                        hook_engine,
                        local,
                        hook_partitioned,
                    ))
                },
            )?;
            write(&shared).set_addr(&spec.id, &handle.local_addr().to_string());
            nodes.push((spec.id.clone(), handle, engine, partitioned));
        }
        // Phase two: every address is known; start the gossip runtimes.
        let mut running = Vec::new();
        for (id, handle, engine, partitioned) in nodes {
            let stop = Arc::new(AtomicBool::new(false));
            let thread = spawn_gossip_runtime(
                Arc::clone(&shared),
                Arc::clone(&engine),
                &handle,
                config.gossip_interval,
                config.peer_timeout,
                Arc::clone(&partitioned),
                Arc::clone(&stop),
            )?;
            running.push(ClusterNode {
                id,
                handle,
                engine,
                partitioned,
                stop,
                gossip_thread: Some(thread),
            });
        }
        Ok(Cluster {
            topology: shared,
            nodes: running,
        })
    }

    /// The shared topology, with real bound addresses patched in.
    pub fn topology(&self) -> SharedTopology {
        Arc::clone(&self.topology)
    }

    /// Every node, in topology order.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Looks a node up by id.
    pub fn node(&self, id: &str) -> Option<&ClusterNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Every node's bound address, in topology order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(ClusterNode::addr).collect()
    }

    /// Blocks until every node believes every other node alive, or
    /// `timeout` passes. Returns whether convergence was reached.
    pub fn await_converged(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let converged = self
                .nodes
                .iter()
                .all(|node| self.nodes.iter().all(|peer| node.is_alive(&peer.id)));
            if converged {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(15));
        }
    }

    /// Cuts a node off the gossip plane (`true`) or reconnects it
    /// (`false`): its runtime stops dialing out and its router answers
    /// inbound gossip with an injected error, so the rest of the
    /// cluster stops hearing fresh beats — a deterministic partition.
    /// Admission traffic is unaffected at the socket level; what
    /// protects it is the degraded-mode routing this partition trips.
    pub fn partition(&self, id: &str, partitioned: bool) {
        if let Some(node) = self.node(id) {
            node.partitioned.store(partitioned, Ordering::SeqCst);
        }
    }

    /// Stops a node outright: gossip runtime first, then its server.
    /// The survivors' gossip marks it suspect within `suspect_after`
    /// rounds.
    pub fn kill(&mut self, id: &str) {
        self.nodes.retain(|node| node.id != id);
    }

    /// Stops every node, in topology order (dropping the cluster does
    /// the same).
    pub fn shutdown(self) {}
}

/// One node's gossip loop: start the engine's next round, exchange
/// digests with the round's seeded target, refresh the liveness gauges.
fn spawn_gossip_runtime(
    topology: SharedTopology,
    engine: Arc<Mutex<GossipEngine>>,
    handle: &ServerHandle,
    interval: Duration,
    peer_timeout: Duration,
    partitioned: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
) -> io::Result<JoinHandle<()>> {
    let registry = handle.registry();
    let round_ns: Arc<Histogram> =
        registry.histogram("cluster.gossip.round_ns", Histogram::latency_ns_bounds());
    let (me, peer_gauges) = {
        let engine = lock(&engine);
        let gauges: BTreeMap<String, _> = engine
            .peers()
            .keys()
            .map(|id| {
                let gauge = registry.gauge(&format!("cluster.peer.alive{{peer={id}}}"));
                (id.clone(), gauge)
            })
            .collect();
        (engine.me().to_string(), gauges)
    };
    std::thread::Builder::new()
        .name(format!("rota-gossip-{me}"))
        .spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(interval);
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let started = Instant::now();
                // Rounds advance even while partitioned, so the cut-off
                // node's own suspicion arithmetic keeps moving too.
                let (target, outbound) = {
                    let mut engine = lock(&engine);
                    engine.beat();
                    (engine.pick_target(), engine.digest())
                };
                if let Some(target) = target.filter(|_| !partitioned.load(Ordering::SeqCst)) {
                    let addr = read(&topology)
                        .node(&target)
                        .map(|node| node.addr.clone())
                        .unwrap_or_default();
                    // A still-empty address does not parse: the round
                    // is skipped.
                    if let Some(ack) = exchange(&addr, &me, outbound, peer_timeout) {
                        lock(&engine).absorb(&ack);
                    }
                }
                {
                    let engine = lock(&engine);
                    for (peer, gauge) in &peer_gauges {
                        gauge.set(i64::from(engine.alive(peer)));
                    }
                }
                round_ns.observe(
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
        })
}

/// One wire exchange: handshake, send our digest, absorb the ack's.
fn exchange(
    addr: &str,
    me: &str,
    digest: rota_server::GossipDigest,
    timeout: Duration,
) -> Option<rota_server::GossipDigest> {
    let socket: SocketAddr = addr.parse().ok()?;
    let mut client = rota_client::Client::connect_timeout(socket, timeout).ok()?;
    client.set_io_timeout(crate::links::io_timeout(timeout)).ok()?;
    client.hello_as(Some(me)).ok()?;
    match client.call(&Request::Gossip { digest }).ok()? {
        Response::GossipAck { digest } => Some(digest),
        _ => None,
    }
}
