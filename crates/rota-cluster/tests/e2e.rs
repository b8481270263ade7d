//! End-to-end cluster tests over real TCP: a federation live at
//! launch, gossip convergence, prompt shutdown, location routing (local fast path, forward, 2PC, including an
//! owner coordinator's in-process reject, idempotent resubmits,
//! snapshots scoped to the request and peer calls counted per 2PC), offer splitting, the `R0016`
//! ownership lint, and the version handshake.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rota_actor::{
    ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
};
use rota_admission::{AdmissionPolicy, AdmissionRequest, NaiveTotalPolicy, RotaPolicy};
use rota_cluster::{Cluster, ClusterConfig, Topology};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::{Scope, State};
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};
use rota_server::spec::{self, resources_from_json};
use rota_server::{Request, Response};

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

/// A job whose every actor evaluates once at its own location — the
/// demand touches exactly `origins`.
fn job(name: &str, origins: &[&str], deadline: u64) -> DistributedComputation {
    let actors = origins
        .iter()
        .enumerate()
        .map(|(i, origin)| {
            ActorComputation::new(format!("{name}-a{i}"), *origin).then(ActionKind::evaluate())
        })
        .collect();
    DistributedComputation::new(name, actors, TimePoint::ZERO, TimePoint::new(deadline)).unwrap()
}

fn test_config() -> ClusterConfig {
    ClusterConfig {
        gossip_interval: Duration::from_millis(20),
        peer_timeout: Duration::from_secs(2),
        ..ClusterConfig::default()
    }
}

fn launch(n: usize, config: ClusterConfig) -> Cluster {
    let locations: Vec<String> = (0..n).map(|i| format!("l{i}")).collect();
    let refs: Vec<&str> = locations.iter().map(String::as_str).collect();
    let cluster = Cluster::launch(Topology::auto(n), &theta(&refs), RotaPolicy, config).unwrap();
    assert!(
        cluster.await_converged(Duration::from_secs(10)),
        "gossip failed to converge"
    );
    cluster
}

fn client_for(cluster: &Cluster, index: usize) -> rota_client::Client {
    rota_client::Client::connect_timeout(cluster.addrs()[index], Duration::from_secs(2)).unwrap()
}

fn accepted(response: &Response) -> bool {
    matches!(response, Response::Decision { accepted: true, .. })
}

fn counter(cluster: &Cluster, index: usize, name: &str) -> u64 {
    let snapshot = client_for(cluster, index).metrics().unwrap();
    snapshot
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(rota_obs::Json::as_f64)
        .map(|v| v as u64)
        .unwrap_or(0)
}

/// `(count, sum)` of node `index`'s peer calls per two-phase commit
/// coordinated as `coordinator` (`owner` or `other`).
fn peer_calls(cluster: &Cluster, index: usize, coordinator: &str) -> (u64, u64) {
    let snapshot = client_for(cluster, index).metrics().unwrap();
    let name = format!("cluster.twopc.peer_calls{{coordinator={coordinator}}}");
    let field = |key| {
        snapshot
            .get(&name)
            .and_then(|m| m.get(key))
            .and_then(rota_obs::Json::as_f64)
            .map_or(0, |v| v as u64)
    };
    (field("count"), field("sum"))
}

#[test]
fn gossip_converges() {
    let cluster = launch(3, test_config());
    for node in cluster.nodes() {
        for peer in cluster.nodes() {
            assert!(node.is_alive(peer.id()), "{} at {}", peer.id(), node.id());
        }
    }
    cluster.shutdown();
}

/// Launch proves membership: rounds are a second apart, so no gossip
/// round runs during this test, yet every node counts every peer alive
/// and a spanning admit through a non-owner reaches the policy.
#[test]
fn launch_returns_a_live_federation() {
    let cluster = Cluster::launch(
        Topology::auto(3),
        &theta(&["l0", "l1", "l2"]),
        RotaPolicy,
        ClusterConfig {
            gossip_interval: Duration::from_secs(1),
            ..test_config()
        },
    )
    .unwrap();
    for node in cluster.nodes() {
        for peer in ["node0", "node1", "node2"] {
            assert!(node.is_alive(peer), "{peer} at {}", node.id());
        }
    }
    let response = client_for(&cluster, 2)
        .admit(&job("span", &["l0", "l1"], 16), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted, reason, ..
        } => {
            assert!(*accepted, "{response:?}");
            assert!(reason.contains("two-phase commit"), "{reason}");
        }
        other => panic!("expected a policy decision, got {other:?}"),
    }
    for index in 0..3 {
        assert_eq!(
            counter(&cluster, index, "cluster.router.degraded_rejects"),
            0,
            "node{index}"
        );
    }
    cluster.shutdown();
}

/// Stopping a node wakes its gossip runtime at once: shutdown does not
/// wait out a round per node.
#[test]
fn shutdown_does_not_wait_out_the_gossip_interval() {
    let cluster = launch(
        3,
        ClusterConfig {
            gossip_interval: Duration::from_secs(2),
            ..test_config()
        },
    );
    let started = Instant::now();
    cluster.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "shutdown took {elapsed:?}"
    );
}

/// The TIME_WAIT rows (state `06`) of `/proc/net/tcp` and
/// `/proc/net/tcp6` with `port` at either end, as (local, remote)
/// address pairs; `None` when neither file can be read.
fn time_wait_rows(port: u16) -> Option<BTreeSet<(String, String)>> {
    let suffix = format!(":{port:04X}");
    let mut rows = BTreeSet::new();
    let mut read = false;
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(text) = std::fs::read_to_string(table) else {
            continue;
        };
        read = true;
        for row in text.lines().skip(1) {
            let fields: Vec<&str> = row.split_whitespace().collect();
            if fields.len() > 3
                && fields[3] == "06"
                && (fields[1].ends_with(&suffix) || fields[2].ends_with(&suffix))
            {
                rows.insert((fields[1].to_string(), fields[2].to_string()));
            }
        }
    }
    read.then_some(rows)
}

/// Each gossip round's connection ends with a hang-up on both sides,
/// not an active close, so a federation that gossips leaves no socket
/// in TIME_WAIT at its nodes' ports, and every exchange is still one
/// accepted connection. Rows already there when the ports are bound
/// (an earlier user of a port left them) are not counted.
#[test]
fn gossip_leaves_no_time_wait_socket() {
    const EXCHANGES: u64 = 40;
    let mut topology = Topology::auto(2);
    let mut before = Vec::new();
    for id in ["node0", "node1"] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let Some(rows) = time_wait_rows(addr.port()) else {
            eprintln!("skipped: /proc/net/tcp cannot be read");
            return;
        };
        before.push((addr.port(), rows));
        drop(listener);
        topology.set_addr(id, &addr.to_string());
    }
    let config = ClusterConfig {
        gossip_interval: Duration::from_millis(10),
        ..test_config()
    };
    let cluster = Cluster::launch(topology, &theta(&["l0", "l1"]), RotaPolicy, config).unwrap();
    let registries: Vec<_> = cluster.nodes().iter().map(|n| n.registry()).collect();
    let total = |name: &str| -> u64 { registries.iter().map(|r| r.counter(name).get()).sum() };
    let deadline = Instant::now() + Duration::from_secs(20);
    while total("cluster.gossip.exchanges") < EXCHANGES {
        assert!(Instant::now() < deadline, "gossip stalled");
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
    let exchanges = total("cluster.gossip.exchanges");
    assert_eq!(total("server.connections.accepted"), exchanges);
    let left: usize = before
        .iter()
        .map(|(port, rows)| {
            let after = time_wait_rows(*port).unwrap_or_default();
            after.difference(rows).count()
        })
        .sum();
    assert_eq!(
        left, 0,
        "{left} TIME_WAIT sockets after {exchanges} gossip exchanges"
    );
}

#[test]
fn local_demand_takes_the_fast_path() {
    let cluster = launch(2, test_config());
    let mut client = client_for(&cluster, 0);
    let response = client
        .admit(&job("local", &["l0"], 16), Granularity::MaximalRun)
        .unwrap();
    assert!(accepted(&response), "{response:?}");
    let (stats0, _) = client.stats().unwrap();
    assert_eq!(stats0.accepted, 1);
    let (stats1, _) = client_for(&cluster, 1).stats().unwrap();
    assert_eq!(stats1.accepted, 0, "node1 must not see a local-only job");
    cluster.shutdown();
}

#[test]
fn remote_demand_is_forwarded_to_the_owner() {
    let cluster = launch(2, test_config());
    let mut client = client_for(&cluster, 0);
    let response = client
        .admit(&job("remote", &["l1"], 16), Granularity::MaximalRun)
        .unwrap();
    assert!(accepted(&response), "{response:?}");
    // The decision was made (and the commitments installed) on node1.
    let (stats1, _) = client_for(&cluster, 1).stats().unwrap();
    assert_eq!(stats1.accepted, 1);
    let (stats0, _) = client.stats().unwrap();
    assert_eq!(stats0.accepted, 0);
    cluster.shutdown();
}

#[test]
fn cross_location_demand_runs_two_phase_commit() {
    let cluster = launch(3, test_config());
    // Submit to node2, which owns neither demanded location: the
    // router coordinates nodes 0 and 1.
    let mut client = client_for(&cluster, 2);
    let response = client
        .admit(&job("span", &["l0", "l1"], 16), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted, reason, ..
        } => {
            assert!(*accepted, "{response:?}");
            assert!(reason.contains("two-phase commit"), "{reason}");
        }
        other => panic!("unexpected response {other:?}"),
    }
    // Both owners hold the installed commitments.
    for index in [0, 1] {
        let (stats, _) = client_for(&cluster, index).stats().unwrap();
        assert_eq!(stats.accepted, 1, "node{index}");
    }
    // Two snapshots, two prepares and two commits, all to peers.
    assert_eq!(peer_calls(&cluster, 2, "other"), (1, 6));
    // And a spanning job whose demand exceeds the supply obtainable
    // before its deadline is rejected by the policy, not an error.
    let heavy = DistributedComputation::new(
        "span2",
        vec![
            ActorComputation::new("span2-a0", "l0").then(ActionKind::evaluate_units(64)),
            ActorComputation::new("span2-a1", "l1").then(ActionKind::evaluate_units(64)),
        ],
        TimePoint::ZERO,
        TimePoint::new(2),
    )
    .unwrap();
    let response = client.admit(&heavy, Granularity::MaximalRun).unwrap();
    match &response {
        Response::Decision {
            accepted: false, ..
        } => {}
        other => panic!("expected a policy reject, got {other:?}"),
    }
    cluster.shutdown();
}

/// A job with one actor at l0 and one at l1, each evaluating `8 × 16`
/// units by deadline 16: all of its location's supply before then.
fn whole_supply(name: &str) -> DistributedComputation {
    let actors = ["l0", "l1"]
        .iter()
        .enumerate()
        .map(|(i, origin)| {
            ActorComputation::new(format!("{name}-a{i}"), *origin)
                .then(ActionKind::evaluate_units(8 * 16))
        })
        .collect();
    DistributedComputation::new(name, actors, TimePoint::ZERO, TimePoint::new(16)).unwrap()
}

#[test]
fn resubmitting_a_committed_spanning_job_is_idempotent() {
    let cluster = launch(3, test_config());
    let job = whole_supply("whole");
    // node1 coordinates as an owner, twice; then node0, the first
    // participant, and node2, which owns neither location. Once the
    // job is committed the supply it took is gone, so every retry
    // must be answered from the held name, not decided afresh.
    for via in [1, 1, 0, 2] {
        let response = client_for(&cluster, via)
            .admit(&job, Granularity::MaximalRun)
            .unwrap();
        assert!(accepted(&response), "via node{via}: {response:?}");
    }
    for index in [0, 1] {
        let (stats, _) = client_for(&cluster, index).stats().unwrap();
        assert_eq!(stats.accepted, 1, "node{index} committed the job once");
    }
    cluster.shutdown();
}

/// Two actors at `l0` and `l1` that each need 64 cpu by t=2, where
/// each location supplies 16: the total supply of either type refutes
/// it.
fn heavy() -> DistributedComputation {
    DistributedComputation::new(
        "heavy",
        vec![
            ActorComputation::new("heavy-a0", "l0").then(ActionKind::evaluate_units(64)),
            ActorComputation::new("heavy-a1", "l1").then(ActionKind::evaluate_units(64)),
        ],
        TimePoint::ZERO,
        TimePoint::new(2),
    )
    .unwrap()
}

/// Submits `job` through each `(via, prepares sent, coordinator, peer
/// calls, refuted)` row in turn, checks that it is rejected with those
/// counts, and returns the reject frames.
fn spanning_rejects(
    cluster: &Cluster,
    job: &DistributedComputation,
    rows: [(usize, u64, &str, u64, u64); 3],
) -> Vec<Response> {
    let mut rejects = Vec::new();
    for (via, prepares_sent, coordinator, calls, refuted) in rows {
        let refuted_name = format!("cluster.twopc.refuted{{coordinator={coordinator}}}");
        let before = counter(cluster, via, "cluster.twopc.prepares");
        let refuted_before = counter(cluster, via, &refuted_name);
        let (count, sum) = peer_calls(cluster, via, coordinator);
        let response = client_for(cluster, via)
            .admit(job, Granularity::MaximalRun)
            .unwrap();
        assert!(
            matches!(
                response,
                Response::Decision {
                    accepted: false,
                    ..
                }
            ),
            "via node{via}: {response:?}"
        );
        let sent = counter(cluster, via, "cluster.twopc.prepares") - before;
        assert_eq!(sent, prepares_sent, "prepares sent via node{via}");
        assert_eq!(
            peer_calls(cluster, via, coordinator),
            (count + 1, sum + calls),
            "peer calls via node{via}"
        );
        assert_eq!(
            counter(cluster, via, &refuted_name) - refuted_before,
            refuted,
            "refutations via node{via}"
        );
        rejects.push(response);
    }
    let frames: Vec<String> = rejects.iter().map(|r| r.to_json().to_string()).collect();
    assert!(frames.windows(2).all(|w| w[0] == w[1]), "{frames:#?}");
    rejects
}

#[test]
fn a_spanning_reject_decided_by_an_owner_sends_no_prepare() {
    let cluster = launch(3, test_config());
    // The first demanded type in order, cpu at l0, is short. node0 owns
    // it and refutes from its own slice, confirming with its own
    // prepare: no peer call. node1 reads node0's slice first (one
    // call). node2 owns none of the demand: it reads node0's slice and
    // asks node0 to prepare on it (two calls).
    let rejects = spanning_rejects(
        &cluster,
        &heavy(),
        [
            (0, 0, "owner", 0, 1),
            (1, 0, "owner", 1, 1),
            (2, 1, "other", 2, 1),
        ],
    );
    // Worded as one node over the merged supply words it.
    let request =
        AdmissionRequest::price(heavy(), &TableCostModel::paper(), Granularity::MaximalRun);
    let merged = State::new(theta(&["l0", "l1", "l2"]), TimePoint::ZERO);
    let rota_admission::Decision::Reject(reject) = RotaPolicy.decide(&merged, &request) else {
        panic!("the merged supply accepts `heavy`");
    };
    match &rejects[0] {
        Response::Decision {
            reason,
            violated_term,
            ..
        } => {
            assert_eq!(reason, &reject.to_string());
            assert_eq!(violated_term.as_deref(), reject.violated_term());
        }
        other => panic!("{other:?}"),
    }
    cluster.shutdown();
}

/// Each node's record of its verdicts, as `(computation, accepted)`.
fn records(cluster: &Cluster) -> Vec<BTreeSet<(String, bool)>> {
    let verdict = |frame: &Arc<str>| match Response::from_line(frame) {
        Ok(Response::Decision {
            computation,
            accepted,
            ..
        }) => (computation, accepted),
        other => panic!("a record entry is a verdict: {other:?}"),
    };
    cluster
        .nodes()
        .iter()
        .map(|node| node.decisions().iter().map(verdict).collect())
        .collect()
}

/// The cluster's record names every decided job: a direct admit at its
/// owner, a spanning accept at each participant that holds a share, and
/// a spanning reject at the node whose shard confirmed it.
#[test]
fn every_decided_job_is_in_a_nodes_record() {
    let cluster = launch(3, test_config());
    let direct = client_for(&cluster, 0)
        .admit(&job("direct", &["l0"], 16), Granularity::MaximalRun)
        .unwrap();
    assert!(accepted(&direct), "{direct:?}");
    // node2 owns neither location: node0 and node1 take part, and node0
    // confirms the reject (see the reject's peer calls above).
    let mut via_other = client_for(&cluster, 2);
    let span = via_other
        .admit(&job("span", &["l0", "l1"], 16), Granularity::MaximalRun)
        .unwrap();
    assert!(accepted(&span), "{span:?}");
    let reject = via_other.admit(&heavy(), Granularity::MaximalRun).unwrap();
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
    let expected = |names: &[(&str, bool)]| -> BTreeSet<(String, bool)> {
        names
            .iter()
            .map(|&(name, accepted)| (name.to_string(), accepted))
            .collect()
    };
    assert_eq!(
        records(&cluster),
        [
            expected(&[("direct", true), ("span", true), ("heavy", false)]),
            expected(&[("span", true)]),
            expected(&[]),
        ]
    );
    cluster.shutdown();
}

/// A policy that refutes nothing keeps the full snapshot round: every
/// participant is read, and the coordinator decides.
#[test]
fn a_policy_that_refutes_nothing_reads_every_slice() {
    let locations = ["l0", "l1", "l2"];
    let cluster = Cluster::launch(
        Topology::auto(3),
        &theta(&locations),
        NaiveTotalPolicy,
        test_config(),
    )
    .unwrap();
    assert!(cluster.await_converged(Duration::from_secs(10)));
    spanning_rejects(
        &cluster,
        &heavy(),
        [
            (0, 0, "owner", 1, 0),
            (1, 0, "owner", 1, 0),
            (2, 1, "other", 3, 0),
        ],
    );
    cluster.shutdown();
}

#[test]
fn an_owner_coordinated_accept_makes_three_peer_calls() {
    let cluster = launch(3, test_config());
    let response = client_for(&cluster, 0)
        .admit(&job("span", &["l0", "l1"], 16), Granularity::MaximalRun)
        .unwrap();
    assert!(accepted(&response), "{response:?}");
    // node1's snapshot, its prepare and its commit; node0's own steps
    // go through its local handle.
    assert_eq!(peer_calls(&cluster, 0, "owner"), (1, 3));
    assert_eq!(peer_calls(&cluster, 0, "other"), (0, 0));
    cluster.shutdown();
}

#[test]
fn offers_are_split_by_owner() {
    let cluster = launch(2, test_config());
    let mut client = client_for(&cluster, 0);
    // Two terms, one per owner, offered through node0.
    let offer = ResourceSet::from_terms([
        ResourceTerm::new(
            Rate::new(2),
            TimeInterval::from_ticks(64, 96).unwrap(),
            LocatedType::cpu(Location::new("l0")),
        ),
        ResourceTerm::new(
            Rate::new(2),
            TimeInterval::from_ticks(64, 96).unwrap(),
            LocatedType::cpu(Location::new("l1")),
        ),
    ])
    .unwrap();
    assert_eq!(client.offer(&offer).unwrap(), 2);
    // node1's obtainable snapshot now covers the late window.
    let response = client_for(&cluster, 1)
        .call(&Request::ClusterSnapshot)
        .unwrap();
    match response {
        Response::ClusterState { resources, .. } => {
            assert!(resources.to_string().contains("96"), "{resources}");
        }
        other => panic!("unexpected {other:?}"),
    }
    cluster.shutdown();
}

/// The router skips a zero-rate term, even at a location no node owns,
/// and leaves an offer holding an empty interval to the local core,
/// whose error names the term.
#[test]
fn offers_skip_zero_rates_and_leave_empty_intervals_to_the_core() {
    let cluster = launch(2, test_config());
    let mut client = client_for(&cluster, 0);
    let offer = |terms: &str| {
        Request::from_line(&format!(
            r#"{{"op":"offer","resources":[{terms}],"forwarded":false}}"#
        ))
        .unwrap()
    };
    let l1 = r#"{"kind":"cpu","location":"l1","rate":2,"start":64,"end":96}"#;
    let zero_rate = r#"{"kind":"cpu","location":"l9","rate":0,"start":0,"end":8}"#;
    let response = client.call(&offer(&format!("{zero_rate},{l1}"))).unwrap();
    assert!(
        matches!(response, Response::Offered { terms: 1 }),
        "{response:?}"
    );
    let empty = r#"{"kind":"cpu","location":"l1","rate":2,"start":5,"end":5}"#;
    match client.call(&offer(&format!("{empty},{l1}"))).unwrap() {
        Response::Error { message } => assert!(
            message.starts_with("bad resources: invalid spec: resource ⟨cpu, l1⟩"),
            "{message}"
        ),
        other => panic!("unexpected {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn unowned_locations_are_rejected_with_r0016() {
    let cluster = launch(2, test_config());
    let mut client = client_for(&cluster, 0);
    let response = client
        .admit(&job("nowhere", &["l9"], 16), Granularity::MaximalRun)
        .unwrap();
    match &response {
        Response::Decision {
            accepted,
            clause,
            diagnostics,
            ..
        } => {
            assert!(!accepted);
            assert_eq!(
                clause.as_deref(),
                Some("cluster routing (location ownership)")
            );
            let rendered: String = diagnostics.parse().iter().map(|d| d.to_string()).collect();
            assert!(rendered.contains("R0016"), "{rendered}");
            assert!(rendered.contains("l9"), "{rendered}");
        }
        other => panic!("unexpected {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn resilient_client_fails_over() {
    use rota_client::{ResilientClient, RetryConfig};
    use rota_server::spec::ComputationSpec;
    // With node0 dead, a client given the full address list has its
    // dial refused and moves to the survivor, which still answers
    // admissions for its own locations.
    let mut cluster = launch(2, test_config());
    let addrs = cluster.addrs();
    cluster.kill("node0");
    let mut client = ResilientClient::new(addrs.clone(), RetryConfig::default()).unwrap();
    let response = client
        .admit(
            ComputationSpec::from(&job("after-kill", &["l1"], 16)),
            Granularity::MaximalRun,
        )
        .unwrap();
    assert!(accepted(&response), "{response:?}");
    assert!(client.stats().failovers >= 1);
    assert_eq!(client.current_addr(), addrs[1]);
    cluster.shutdown();
}

#[test]
fn version_mismatch_is_a_structured_error() {
    let cluster = launch(1, test_config());
    let mut client = client_for(&cluster, 0);
    let response = client
        .call(&Request::Hello {
            version: 99,
            node: None,
        })
        .unwrap();
    match response {
        Response::Error { message } => {
            assert!(message.contains("version-mismatch"), "{message}");
            assert!(message.contains("99"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    cluster.shutdown();
}

/// The `resources` of `index`'s answer to a `cluster-snapshot` frame,
/// as a set.
fn snapshot_set(cluster: &Cluster, index: usize, request: &Request) -> ResourceSet {
    match client_for(cluster, index).call(request).unwrap() {
        Response::ClusterState { resources, .. } => {
            let specs = resources_from_json(resources.as_array().expect("an array")).unwrap();
            spec::resource_set(&specs).unwrap()
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// A spanning admit snapshots each participant within its scope: the
/// demanded located types over its window. Every owner supplies CPU in
/// four pieces, before, inside and after the window, and a link no
/// request here demands; only the in-window CPU reaches the basis.
#[test]
fn a_spanning_admit_snapshots_only_its_scope() {
    let mut supply = Vec::new();
    for l in ["l0", "l1", "l2"] {
        for (rate, start, end) in [(2, 0, 4), (3, 4, 10), (1, 10, 20), (4, 20, 64)] {
            supply.push(ResourceTerm::new(
                Rate::new(rate),
                TimeInterval::from_ticks(start, end).unwrap(),
                LocatedType::cpu(Location::new(l)),
            ));
        }
        supply.push(ResourceTerm::new(
            Rate::new(2),
            TimeInterval::from_ticks(0, 64).unwrap(),
            LocatedType::network(Location::new(l), Location::new("l0")),
        ));
    }
    let theta = ResourceSet::from_terms(supply).unwrap();
    let cluster = Cluster::launch(Topology::auto(3), &theta, RotaPolicy, test_config()).unwrap();
    assert!(
        cluster.await_converged(Duration::from_secs(10)),
        "gossip failed to converge"
    );
    let actors = ["l0", "l1"]
        .iter()
        .enumerate()
        .map(|(i, l)| {
            ActorComputation::new(format!("a{i}"), *l).then(ActionKind::evaluate_units(6))
        })
        .collect();
    let lambda =
        DistributedComputation::new("scoped", actors, TimePoint::new(5), TimePoint::new(15))
            .unwrap();
    let priced = AdmissionRequest::price(
        lambda.clone(),
        &TableCostModel::paper(),
        Granularity::MaximalRun,
    );
    let scope = Scope::of(&priced.requirement().total_demand(), priced.window());
    let scoped = Request::ScopedSnapshot {
        scope: scope.clone(),
    };
    // Each owner's scoped answer is its whole answer on the scope's
    // types, clamped to the window: two of its five terms.
    let mut in_scope = 0;
    for index in [0, 1] {
        let whole = snapshot_set(&cluster, index, &Request::ClusterSnapshot);
        let expected =
            State::new(whole.clone(), TimePoint::ZERO).expiring_in(scope.types(), scope.window());
        assert_eq!(
            snapshot_set(&cluster, index, &scoped),
            expected,
            "node{index}"
        );
        assert_eq!(
            (whole.term_count(), expected.term_count()),
            (5, 2),
            "node{index}"
        );
        in_scope += expected.term_count();
    }
    // node2 owns neither demanded location, so both slices of its basis
    // are remote `cluster-state` answers, and they hold the in-scope
    // terms only.
    let response = client_for(&cluster, 2)
        .admit(&lambda, Granularity::MaximalRun)
        .unwrap();
    assert!(accepted(&response), "{response:?}");
    let snapshot = client_for(&cluster, 2).metrics().unwrap();
    let basis_terms = snapshot
        .get("cluster.twopc.basis_terms")
        .expect("published");
    let field = |name: &str| basis_terms.get(name).and_then(rota_obs::Json::as_u64);
    assert_eq!(field("count"), Some(1), "one snapshot round");
    assert_eq!(field("sum"), Some(in_scope as u64), "{basis_terms}");
    cluster.shutdown();
}

#[test]
fn spanning_admits_reuse_peer_links() {
    let cluster = launch(3, test_config());
    let mut client = client_for(&cluster, 0);
    // node0 owns neither location, so every admit snapshots, prepares
    // and commits (or aborts) on node1 and node2. The warm-up dials one
    // link to each; after it, every hop reuses them.
    let warm_up = client
        .admit(&job("warm-up", &["l1", "l2"], 16), Granularity::MaximalRun)
        .unwrap();
    assert!(accepted(&warm_up), "{warm_up:?}");
    let dials = counter(&cluster, 0, "cluster.peer.dials");
    assert!(dials >= 2, "the warm-up dialled {dials} links");
    for i in 0..40 {
        let spanning = job(&format!("span-{i}"), &["l1", "l2"], 16);
        let response = client.admit(&spanning, Granularity::MaximalRun).unwrap();
        assert!(
            matches!(response, Response::Decision { .. }),
            "{response:?}"
        );
    }
    assert_eq!(counter(&cluster, 0, "cluster.peer.dials"), dials);
    cluster.shutdown();
}

#[test]
fn a_stalled_peer_fails_the_call_within_the_timeout() {
    // A listener that accepts connections and never answers stands in
    // for node1.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let stalled = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let holder_stop = Arc::clone(&stop);
    let holder = std::thread::spawn(move || {
        let mut held = Vec::new();
        while !holder_stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => held.push(stream),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });
    let peer_timeout = Duration::from_millis(200);
    let cluster = launch(
        2,
        ClusterConfig {
            peer_timeout,
            ..test_config()
        },
    );
    cluster
        .topology()
        .write()
        .unwrap()
        .set_addr("node1", &stalled);
    let started = Instant::now();
    let response = client_for(&cluster, 0)
        .admit(&job("stalled", &["l1"], 16), Granularity::MaximalRun)
        .unwrap();
    let elapsed = started.elapsed();
    match &response {
        Response::Error { message } => assert!(message.contains("node1"), "{message}"),
        other => panic!("expected an error naming node1, got {other:?}"),
    }
    // The bound is the dial timeout plus the server's 5 s request
    // timeout; allow scheduling slack on top.
    let bound = peer_timeout + Duration::from_secs(5);
    assert!(elapsed < bound + Duration::from_secs(2), "took {elapsed:?}");
    // Dropping the held connections ends node0's stalled gossip
    // exchange too, so shutdown does not wait for its timeout.
    stop.store(true, Ordering::SeqCst);
    holder.join().unwrap();
    cluster.shutdown();
}
