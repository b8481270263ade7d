//! Launching and running a cluster of federated admission nodes.
//!
//! [`Cluster::launch`] starts one `rota-server` per topology node, each
//! serving the slice of the supply its node owns and mounting the
//! cluster router as its request hook. Launch proves membership
//! before it returns, in three steps so ephemeral ports work: first
//! every server binds (recording its real address into the shared
//! topology); then, for every pair of nodes, the first in topology
//! order dials the second and the two exchange digests once, so each
//! reachable peer is heard directly at round 0 and the federation is
//! live when launch returns; then every node's gossip runtime starts.
//! Liveness is still earned by a dial and a `hello`, never assumed: a
//! peer unreachable at launch stays suspect until a gossip round
//! proves it alive.
//!
//! The gossip runtime is one thread per node, and it keeps membership:
//! every `gossip_interval` it starts the engine's next round, picks the
//! round's seeded target, looks the target's address up in the
//! topology, and exchanges digests with it over the wire (`hello`
//! handshake first, so version mismatches surface as structured
//! errors). The engine is the node's one source of liveness: the
//! router, [`ClusterNode::is_alive`] and the per-peer
//! `cluster.peer.alive{peer=...}` gauges in the node's registry all
//! ask it. Stopping a node is prompt: its runtime waits for the next
//! round on a channel the node drops, so it wakes and ends at once
//! instead of sleeping out the interval.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rota_admission::AdmissionPolicy;
use rota_obs::{Histogram, Registry};
use rota_resource::ResourceSet;
use rota_server::{Request, Response, Server, ServerConfig, ServerHandle, WallClock};

use crate::gossip::GossipEngine;
use crate::router::ClusterRouter;
use crate::topology::{SharedTopology, Topology};
use crate::{lock, read, write};

/// Knobs for a whole cluster launch.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shards per node. Defaults to 1.
    pub shards: usize,
    /// Per-shard queue capacity.
    pub queue_capacity: usize,
    /// Wall-clock length of one gossip round.
    pub gossip_interval: Duration,
    /// Bound on dialling a peer (gossip, forwards, 2PC legs). Once
    /// connected, each read or write of a peer call may block for this
    /// plus a fixed 5 s allowance for the peer's answer
    /// (`PEER_ANSWER_BUDGET` in the peer-link module).
    pub peer_timeout: Duration,
    /// Base RNG seed; node `i` gossips with seed `seed + i`.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 1,
            queue_capacity: 64,
            gossip_interval: Duration::from_millis(200),
            peer_timeout: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// One running node: its server plus its gossip runtime.
pub struct ClusterNode {
    id: String,
    handle: ServerHandle,
    engine: Arc<Mutex<GossipEngine>>,
    /// Dropping it wakes the gossip runtime out of its wait and ends it.
    stop: Option<mpsc::Sender<()>>,
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

    /// The node's metrics registry, shared by its server and router.
    pub fn registry(&self) -> Arc<Registry> {
        self.handle.registry()
    }

    /// The node's record of its admit verdicts, as its server keeps it
    /// ([`ServerHandle::decisions`]).
    pub fn decisions(&self) -> Vec<Arc<str>> {
        self.handle.decisions()
    }
}

/// Dropping a node stops it: gossip runtime first (woken at once, not
/// after its interval), then (as its server handle drops) its server.
impl Drop for ClusterNode {
    fn drop(&mut self) {
        drop(self.stop.take());
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
                addr: spec
                    .bind_addr()
                    // PANIC-OK: `Topology::new` and `Topology::set_addr`
                    // admit only empty or `ip:port` addresses.
                    .expect("topology addresses are empty or ip:port"),
                shards: config.shards,
                queue_capacity: config.queue_capacity,
                ..ServerConfig::default()
            };
            let engine = Arc::new(Mutex::new(GossipEngine::new(
                &spec.id,
                &ids,
                config.seed + index as u64,
            )));
            let me = spec.id.clone();
            let hook_topology = Arc::clone(&shared);
            let hook_engine = Arc::clone(&engine);
            let clock = Arc::new(WallClock);
            let handle =
                Server::spawn_hooked(server_config, policy.clone(), &slice, clock, move |local| {
                    Arc::new(ClusterRouter::new(
                        me,
                        config.peer_timeout,
                        hook_topology,
                        hook_engine,
                        local,
                    ))
                })?;
            write(&shared).set_addr(&spec.id, &handle.local_addr().to_string());
            nodes.push((spec.id.clone(), handle, engine));
        }
        // Phase two: every address is known; one exchange per pair
        // proves each reachable peer alive at round 0. A failed
        // exchange leaves the pair suspect for the rounds to settle.
        for (i, (_, _, engine)) in nodes.iter().enumerate() {
            for (peer, ..) in &nodes[i + 1..] {
                exchange(&shared, engine, peer, config.peer_timeout);
            }
        }
        // Phase three: start the gossip runtimes, which keep it.
        let mut running = Vec::new();
        for (id, handle, engine) in nodes {
            let (stop, stopped) = mpsc::channel();
            let thread = spawn_gossip_runtime(
                Arc::clone(&shared),
                Arc::clone(&engine),
                &handle,
                config.gossip_interval,
                config.peer_timeout,
                stopped,
            )?;
            running.push(ClusterNode {
                id,
                handle,
                engine,
                stop: Some(stop),
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

    /// Stops a node outright: gossip runtime first, then its server.
    /// The survivors' gossip marks it suspect once it has missed the
    /// gossip engine's `SUSPECT_AFTER` rounds.
    pub fn kill(&mut self, id: &str) {
        self.nodes.retain(|node| node.id != id);
    }

    /// Stops every node, in topology order (dropping the cluster does
    /// the same).
    pub fn shutdown(self) {}
}

/// One node's gossip loop: once per `interval`, start the engine's
/// next round, exchange digests with the round's seeded target and
/// refresh the liveness gauges. It ends as soon as `stop`'s sender is
/// dropped.
fn spawn_gossip_runtime(
    topology: SharedTopology,
    engine: Arc<Mutex<GossipEngine>>,
    handle: &ServerHandle,
    interval: Duration,
    peer_timeout: Duration,
    stop: mpsc::Receiver<()>,
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
            let refresh_gauges = || {
                let engine = lock(&engine);
                for (peer, gauge) in &peer_gauges {
                    gauge.set(i64::from(engine.alive(peer)));
                }
            };
            // Launch already proved the reachable peers alive.
            refresh_gauges();
            while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
                let started = Instant::now();
                let target = {
                    let mut engine = lock(&engine);
                    engine.beat();
                    engine.pick_target()
                };
                if let Some(target) = target {
                    exchange(&topology, &engine, &target, peer_timeout);
                }
                refresh_gauges();
                round_ns.observe(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        })
}

/// One wire exchange with `target` at its topology address: handshake,
/// send this node's digest, absorb the ack's. A failed exchange (an
/// address still empty, a dial error, a reset) changes nothing.
fn exchange(
    topology: &SharedTopology,
    engine: &Mutex<GossipEngine>,
    target: &str,
    timeout: Duration,
) -> Option<()> {
    let addr: SocketAddr = read(topology).node(target)?.addr.parse().ok()?;
    let (me, digest) = {
        let engine = lock(engine);
        (engine.me().to_string(), engine.digest())
    };
    let mut client = rota_client::Client::connect_timeout(addr, timeout).ok()?;
    client
        .set_io_timeout(crate::links::io_timeout(timeout))
        .ok()?;
    client.hello_as(Some(&me)).ok()?;
    let answer = client.call(&Request::Gossip { digest }).ok()?;
    // The server closes after the ack; hanging up leaves no socket in
    // TIME_WAIT on either end.
    client.hang_up();
    match answer {
        Response::GossipAck { digest } => {
            lock(engine).absorb(&digest);
            Some(())
        }
        _ => None,
    }
}
