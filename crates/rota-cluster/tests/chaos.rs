//! Cluster failure drills, with every network fault coming from
//! outside the nodes: one test proxy sits in front of each node, and
//! the shared topology names the proxies, so every gossip dial and peer
//! call goes through one. The drills: a coordinator killed mid-2PC
//! (tentative reservations must TTL-expire, never leak, never
//! double-commit), a partition made of proxy cuts (degraded-mode
//! rejections, then recovery), connection resets in front of both
//! nodes of a pair (convergence is lost while they last, forwards fail
//! with structured errors or degrade, then everything recovers), and a
//! killed node.

// Shared with the client drills; this file uses part of it.
#[allow(dead_code)]
#[path = "../../rota-client/tests/support/proxy.rs"]
mod proxy;

use std::time::{Duration, Instant};

use rota_actor::{ActionKind, ActorComputation, DistributedComputation, Granularity};
use rota_admission::RotaPolicy;
use rota_cluster::{Cluster, ClusterConfig, Topology};
use rota_interval::{TimeInterval, TimePoint};
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
use rota_server::spec::{resources_from_json, ComputationSpec};
use rota_server::{Request, Response};

use proxy::{Faults, Proxy};

/// A launched cluster with a proxy in front of every node.
///
/// The proxies go in after launch, so launch's own exchanges reach the
/// nodes directly; from then on the topology names the proxies. The
/// drills' own clients dial the nodes, not the proxies.
struct Federation {
    cluster: Cluster,
    /// Each node's id and its proxy, in topology order.
    proxies: Vec<(String, Proxy)>,
}

impl Federation {
    /// Launches one node per location, gossiping every 20 ms, each
    /// behind a proxy injecting `faults`.
    fn launch(locations: &[&str], faults: Faults) -> Federation {
        let cluster = Cluster::launch(
            Topology::auto(locations.len()),
            &theta(locations),
            RotaPolicy,
            ClusterConfig {
                gossip_interval: Duration::from_millis(20),
                ..ClusterConfig::default()
            },
        )
        .unwrap();
        let proxies: Vec<(String, Proxy)> = cluster
            .nodes()
            .iter()
            .map(|node| (node.id().to_string(), Proxy::start(node.addr(), faults)))
            .collect();
        let topology = cluster.topology();
        let mut topology = topology.write().unwrap();
        for (id, proxy) in &proxies {
            topology.set_addr(id, &proxy.addr().to_string());
        }
        drop(topology);
        Federation { cluster, proxies }
    }

    /// The proxy in front of node `id`.
    fn proxy(&self, id: &str) -> &Proxy {
        let (_, proxy) = self.proxies.iter().find(|(node, _)| node == id).unwrap();
        proxy
    }

    /// Partitions node `id` off (`cut`) or heals it. Its proxy is cut,
    /// and every other proxy refuses a connection that opens with a
    /// `hello` naming it: only gossip dials open that way, and without
    /// that rule the cut node's own exchanges would keep proving it
    /// alive at its peers.
    fn partition(&self, id: &str, cut: bool) {
        for (node, proxy) in &self.proxies {
            if node == id {
                proxy.cut(cut);
            } else {
                proxy.refuse_hello_from(cut.then_some(id));
            }
        }
    }
}

fn theta(locations: &[&str]) -> ResourceSet {
    ResourceSet::from_terms(locations.iter().map(|l| {
        ResourceTerm::new(
            Rate::new(8),
            TimeInterval::from_ticks(0, 64).unwrap(),
            LocatedType::cpu(Location::new(*l)),
        )
    }))
    .unwrap()
}

fn spanning_job(name: &str) -> DistributedComputation {
    DistributedComputation::new(
        name,
        vec![
            ActorComputation::new(format!("{name}-a0"), "l0").then(ActionKind::evaluate()),
            ActorComputation::new(format!("{name}-a1"), "l1").then(ActionKind::evaluate()),
        ],
        TimePoint::ZERO,
        TimePoint::new(16),
    )
    .unwrap()
}

fn local_job(name: &str, location: &str) -> DistributedComputation {
    DistributedComputation::new(
        name,
        vec![ActorComputation::new(format!("{name}-a0"), location).then(ActionKind::evaluate())],
        TimePoint::ZERO,
        TimePoint::new(16),
    )
    .unwrap()
}

fn client(cluster: &Cluster, index: usize) -> rota_client::Client {
    rota_client::Client::connect_timeout(cluster.addrs()[index], Duration::from_secs(2)).unwrap()
}

fn obtainable(cluster: &Cluster, index: usize) -> String {
    match client(cluster, index)
        .call(&Request::ClusterSnapshot)
        .unwrap()
    {
        Response::ClusterState { resources, .. } => resources.to_string(),
        other => panic!("unexpected {other:?}"),
    }
}

/// Polls `done` every 10 ms; fails with `what` after 5 s.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn counter(cluster: &Cluster, index: usize, name: &str) -> u64 {
    let snapshot = client(cluster, index).metrics().unwrap();
    snapshot
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(rota_obs::Json::as_f64)
        .map(|v| v as u64)
        .unwrap_or(0)
}

/// A coordinator that dies between prepare and commit leaves the
/// cluster exactly as it was: the tentative reservations expire at
/// their TTL (observable via the `server.twopc.expired` counters and
/// the obtainable-resource snapshots), nothing is committed, and the
/// same computation resubmitted through a healthy coordinator is
/// admitted exactly once.
///
/// The test is the coordinator: it takes both owners' snapshots, sends
/// each its `prepare` over the merged basis, and then dies — it never
/// commits.
#[test]
fn coordinator_death_mid_2pc_leaks_nothing_and_never_double_commits() {
    let federation = Federation::launch(&["l0", "l1", "l2"], Faults::default());
    let cluster = &federation.cluster;
    assert!(cluster.await_converged(Duration::from_secs(10)));
    let before_node0 = obtainable(cluster, 0);
    let before_node1 = obtainable(cluster, 1);

    // Phase one as a coordinator runs it, against the owners of l0
    // and l1.
    let snapshots: Vec<(Vec<u64>, Vec<_>)> = [0, 1]
        .map(
            |index| match client(cluster, index).call(&Request::ClusterSnapshot) {
                Ok(Response::ClusterState { epochs, resources }) => {
                    let terms = resources.as_array().expect("resources are an array");
                    (epochs, resources_from_json(terms).expect("spec-form terms"))
                }
                other => panic!("node{index} snapshot: {other:?}"),
            },
        )
        .into();
    let basis: Vec<_> = snapshots
        .iter()
        .flat_map(|(_, terms)| terms.clone())
        .collect();
    for (index, (epochs, _)) in snapshots.into_iter().enumerate() {
        let prepare = Request::Prepare {
            name: "drilled".into(),
            computation: ComputationSpec::from(&spanning_job("drilled")),
            granularity: Granularity::MaximalRun,
            basis: basis.clone(),
            epochs,
            ttl_ms: 250,
        };
        let answer = client(cluster, index).call(&prepare).unwrap();
        assert!(
            matches!(answer, Response::Prepared { .. }),
            "node{index} must hold the prepare: {answer:?}"
        );
    }
    // The coordinator dies here: no commit, no abort.

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now_node0 = obtainable(cluster, 0);
        let now_node1 = obtainable(cluster, 1);
        if now_node0 == before_node0 && now_node1 == before_node1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reservations never expired:\n node0 {now_node0}\n node1 {now_node1}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    for index in [0, 1] {
        assert!(
            counter(cluster, index, "server.twopc.expired{shard=0}") >= 1,
            "node{index} never counted the expiry"
        );
    }
    for index in [0, 1] {
        let (stats, _) = client(cluster, index).stats().unwrap();
        assert_eq!(stats.accepted, 0, "node{index} committed a dead 2PC");
    }

    // The same computation through a healthy coordinator is admitted
    // exactly once — no lingering hold blocks it, no double-commit.
    let response = client(cluster, 0)
        .admit(&spanning_job("drilled"), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted: true,
            reason,
            ..
        } => {
            assert!(reason.contains("two-phase commit"), "{reason}");
        }
        other => panic!("resubmission failed: {other:?}"),
    }
    for index in [0, 1] {
        let (stats, _) = client(cluster, index).stats().unwrap();
        assert_eq!(stats.accepted, 1, "node{index}");
    }
}

/// A partitioned peer is detected by missed heartbeats; requests
/// touching its locations are rejected with the structured
/// `peer-unavailable` diagnostic instead of hanging; healing the
/// partition restores full routing.
#[test]
fn partition_degrades_routing_then_recovers() {
    let federation = Federation::launch(&["l0", "l1", "l2"], Faults::default());
    let cluster = &federation.cluster;
    assert!(cluster.await_converged(Duration::from_secs(10)));
    // Forwards reach node1 through its proxy, and leave a pooled link
    // for the cut to drop.
    let response = client(cluster, 0)
        .admit(&local_job("before", "l1"), Granularity::MaximalRun)
        .unwrap();
    assert!(
        matches!(response, Response::Decision { accepted: true, .. }),
        "{response:?}"
    );

    // Cut node1 off at the proxies. Within a few rounds the survivors
    // stop hearing fresh beats and mark it suspect.
    federation.partition("node1", true);
    let node0 = cluster.node("node0").unwrap();
    wait_for("node1 never went suspect", || !node0.is_alive("node1"));

    // Degraded mode: a request needing l1 is rejected up front with
    // the structured diagnostic — the policy is never consulted and no
    // socket to the dead peer is touched.
    let response = client(cluster, 0)
        .admit(&local_job("degraded", "l1"), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted,
            clause,
            reason,
            diagnostics,
            ..
        } => {
            assert!(!accepted);
            assert_eq!(
                clause.as_deref(),
                Some("cluster routing (degraded: peer unavailable)"),
                "{reason}"
            );
            let rendered: String = diagnostics.parse().iter().map(|d| d.to_string()).collect();
            assert!(rendered.contains("peer-unavailable"), "{rendered}");
            assert!(rendered.contains("node1"), "{rendered}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(
        counter(cluster, 0, "cluster.router.degraded_rejects") >= 1,
        "degraded rejects must be counted"
    );
    // Cross-location 2PC touching the dead peer degrades identically.
    let response = client(cluster, 2)
        .admit(&spanning_job("degraded-span"), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted: false,
            clause,
            ..
        } => {
            assert_eq!(
                clause.as_deref(),
                Some("cluster routing (degraded: peer unavailable)")
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    // The partition was the proxies' doing: node1's proxy refused
    // dials to it, and node0's refused node1's gossip.
    assert!(federation.proxy("node1").counts().refused >= 1);
    assert!(federation.proxy("node0").counts().refused >= 1);

    // Heal the partition: gossip re-proves node1 and routing recovers.
    federation.partition("node1", false);
    wait_for("node1 never recovered", || node0.is_alive("node1"));
    let response = client(cluster, 0)
        .admit(&local_job("recovered", "l1"), Granularity::MaximalRun)
        .unwrap();
    assert!(
        matches!(response, Response::Decision { accepted: true, .. }),
        "{response:?}"
    );
}

/// Connection resets in front of both nodes of a pair cost the
/// federation its convergence while they last, and are ridden out.
/// Each proxy resets the first `RESETS` connections at their first
/// frame, so node0's dials to node1 and node1's dials to node0 both
/// fail. Suspicion takes four failed rounds in a row from both sides
/// (three beat-free rounds are still alive); node1's side fails for
/// `RESETS` rounds, and node0's for `RESETS` connections shared between
/// its heartbeats and the forwards below, at most one each per 20 ms
/// round, so both sides fail for at least eight rounds.
///
/// A forward that meets a reset fails with a structured error (never
/// hangs), one sent while node1 is suspect is a `peer-unavailable`
/// reject, and one after node1's budget is burnt is admitted. Then
/// heartbeats reach node1 through its proxy, each proxy has reset
/// exactly its budget, and the cluster converges again.
#[test]
fn gossip_reconverges_after_injected_connection_resets() {
    const RESETS: u64 = 16;
    let federation = Federation::launch(
        &["l0", "l1"],
        Faults {
            reset_first: RESETS,
            ..Faults::default()
        },
    );
    let cluster = &federation.cluster;
    let node0 = cluster.node("node0").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let (mut refused, mut degraded, mut suspected) = (0, 0, false);
    let verdict = loop {
        let response = client(cluster, 0)
            .admit(&local_job("after-resets", "l1"), Granularity::MaximalRun)
            .unwrap();
        match &response {
            Response::Decision { accepted: true, .. } => break response,
            Response::Decision {
                accepted: false,
                clause,
                ..
            } => {
                assert_eq!(
                    clause.as_deref(),
                    Some("cluster routing (degraded: peer unavailable)"),
                    "{response:?}"
                );
                degraded += 1;
            }
            Response::Error { .. } => refused += 1,
            other => panic!("forwarding never recovered from resets: {other:?}"),
        }
        assert!(Instant::now() < deadline, "forwarding never recovered");
        // Watch node0's view of node1 between forwards.
        for _ in 0..10 {
            suspected |= !node0.is_alive("node1");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    assert!(refused >= 1, "no forward met a reset");
    assert!(
        suspected,
        "node0 never suspected node1 ({degraded} degraded)"
    );
    assert!(
        matches!(verdict, Response::Decision { accepted: true, .. }),
        "{verdict:?}"
    );
    // The forward got through, so node1's budget is burnt. Its link is
    // kept for reuse, so the next dial through node1's proxy is one of
    // node0's heartbeats, and it is not reset.
    let to_node1 = federation.proxy("node1");
    let seen = to_node1.counts().connections;
    assert!(seen > RESETS, "{:?}", to_node1.counts());
    wait_for("no heartbeat reached node1", || {
        to_node1.counts().connections > seen
    });
    let to_node0 = federation.proxy("node0");
    wait_for("node1 stopped dialling node0", || {
        to_node0.counts().connections > RESETS
    });
    assert_eq!(to_node1.counts().reset, RESETS);
    assert_eq!(to_node0.counts().reset, RESETS);
    assert!(
        cluster.await_converged(Duration::from_secs(10)),
        "the cluster must converge again once the resets are spent"
    );
}

/// A killed node is detected like a partitioned one: the survivors
/// degrade requests touching its locations and keep serving their own.
#[test]
fn killed_node_degrades_only_its_own_locations() {
    let mut federation = Federation::launch(&["l0", "l1", "l2"], Faults::default());
    let cluster = &mut federation.cluster;
    assert!(cluster.await_converged(Duration::from_secs(10)));
    cluster.kill("node2");
    let node0 = cluster.node("node0").unwrap();
    wait_for("node2 never went suspect", || !node0.is_alive("node2"));
    // l2 is degraded…
    let response = client(cluster, 0)
        .admit(&local_job("dead-loc", "l2"), Granularity::MaximalRun)
        .unwrap();
    assert!(
        matches!(
            response,
            Response::Decision {
                accepted: false,
                ..
            }
        ),
        "{response:?}"
    );
    // …but the survivors' locations still admit, including across the
    // surviving pair.
    let response = client(cluster, 0)
        .admit(&spanning_job("survivors"), Granularity::MaximalRun)
        .unwrap();
    assert!(
        matches!(response, Response::Decision { accepted: true, .. }),
        "{response:?}"
    );
}
