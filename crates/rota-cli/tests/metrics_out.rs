//! `serve`, `cluster` and `loadtest` honour `--metrics-out`: through
//! the real binary, `serve` writes its registry snapshot and its
//! shards' kept verdict frames once it has drained, `cluster` writes one document keyed by
//! node id once `--duration-ms` elapses, and `loadtest` writes the same
//! for the server or cluster it spawned once its run ends. A verb whose
//! stdout reader has gone still exits zero.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rota_actor::{ActionKind, ActorComputation, DistributedComputation, Granularity};
use rota_interval::TimePoint;
use rota_obs::Json;

/// A fresh path for this test's output file.
fn out_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rota-{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Waits at most 20 s for the child to exit and returns whether it
/// succeeded.
fn wait_bounded(child: &mut Child) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(status) = child.try_wait().expect("wait") {
            return status.success();
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("rota-cli did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn read_doc(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path).expect("metrics file written");
    let _ = std::fs::remove_file(path);
    Json::parse(&text).expect("metrics file is JSON")
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
}

#[test]
fn serve_writes_metrics_after_it_drains() {
    let path = out_path("serve");
    let mut child = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--metrics-out",
        ])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut lines = BufReader::new(child.stdout.take().expect("piped")).lines();
    let banner = lines
        .by_ref()
        .map(|line| line.expect("utf-8"))
        .find(|line| line.starts_with("serving"))
        .expect("serve prints its address");
    // Keep reading, so serve's later lines do not meet a closed pipe.
    let drain = std::thread::spawn(move || lines.count());
    let addr: SocketAddr = banner
        .split_whitespace()
        .nth(4)
        .and_then(|word| word.parse().ok())
        .unwrap_or_else(|| panic!("no address in `{banner}`"));

    let mut client = rota_client::Client::connect(addr).expect("serve accepts");
    let job = DistributedComputation::new(
        "metrics-job",
        vec![ActorComputation::new("metrics-job-a0", "l0").then(ActionKind::evaluate())],
        TimePoint::ZERO,
        TimePoint::new(16),
    )
    .expect("valid job");
    client
        .admit(&job, Granularity::MaximalRun)
        .expect("decided");
    client.shutdown().expect("shutdown verb");
    assert!(wait_bounded(&mut child), "serve exits zero");
    drain.join().expect("stdout drained");

    let doc = read_doc(&path);
    let metrics = doc.get("metrics").expect("snapshot present");
    assert_eq!(counter(metrics, "server.connections.accepted"), 1);
    let decisions = doc
        .get("decisions")
        .and_then(Json::as_array)
        .expect("journal");
    assert_eq!(decisions.len(), 1, "{doc}");
}

/// A `serve` whose stdout reader has gone away still drains, writes
/// its metrics and exits zero: the lines it prints after the banner
/// meet a closed pipe and are dropped.
#[test]
fn serve_exits_zero_after_its_stdout_reader_leaves() {
    let path = out_path("serve-closed-stdout");
    let mut child = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--metrics-out",
        ])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut lines = BufReader::new(child.stdout.take().expect("piped")).lines();
    let banner = lines
        .by_ref()
        .map(|line| line.expect("utf-8"))
        .find(|line| line.starts_with("serving"))
        .expect("serve prints its address");
    drop(lines);
    let addr: SocketAddr = banner
        .split_whitespace()
        .nth(4)
        .and_then(|word| word.parse().ok())
        .unwrap_or_else(|| panic!("no address in `{banner}`"));

    rota_client::Client::connect(addr)
        .expect("serve accepts")
        .shutdown()
        .expect("shutdown verb");
    assert!(wait_bounded(&mut child), "serve exits zero");
    let doc = read_doc(&path);
    assert!(doc.get("metrics").is_some(), "{doc}");
}

/// Every verb prints through one writer that drops output to a closed
/// pipe, so `rota compare | head -c 10` exits zero. The read end is
/// closed before the verb prints anything, so the first line already
/// meets the closed pipe.
#[test]
fn one_shot_verbs_exit_zero_when_stdout_is_closed() {
    for args in [
        &["compare", "--seed", "1"][..],
        &["simulate", "--seed", "1", "--trace"],
        &["stats"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        assert!(wait_bounded(&mut child), "`{}` exits zero", args.join(" "));
    }
}

#[test]
fn cluster_writes_one_document_keyed_by_node_id() {
    let path = out_path("cluster");
    let mut child = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .args([
            "cluster",
            "--nodes",
            "3",
            "--gossip-ms",
            "20",
            "--duration-ms",
            "200",
        ])
        .arg("--metrics-out")
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    assert!(wait_bounded(&mut child), "cluster exits zero");

    let doc = read_doc(&path);
    let ids = ["node0", "node1", "node2"];
    for id in ids {
        let node = doc.get(id).unwrap_or_else(|| panic!("{id} missing: {doc}"));
        let metrics = node.get("metrics").expect("snapshot present");
        for peer in ids.iter().filter(|peer| **peer != id) {
            let gauge = format!("cluster.peer.alive{{peer={peer}}}");
            assert_eq!(counter(metrics, &gauge), 1, "{id} sees {peer} alive");
        }
        assert!(
            node.get("decisions").and_then(Json::as_array).is_some(),
            "{id} has a journal"
        );
    }
}

/// Runs `rota-cli loadtest` with `args` plus `--metrics-out`, and
/// returns the document it wrote.
fn loadtest_doc(name: &str, args: &[&str]) -> Json {
    let path = out_path(name);
    let mut child = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .arg("loadtest")
        .args(args)
        .arg("--metrics-out")
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    assert!(wait_bounded(&mut child), "loadtest exits zero");
    read_doc(&path)
}

/// Admits the snapshot's shards counted, summed over shards.
fn admits(metrics: &Json) -> u64 {
    let Json::Obj(entries) = metrics else {
        panic!("the snapshot is an object: {metrics}");
    };
    entries
        .iter()
        .filter(|(name, _)| name.as_str().starts_with("server.requests{"))
        .filter_map(|(_, metric)| metric.get("value").and_then(Json::as_u64))
        .sum()
}

#[test]
fn loadtest_writes_its_servers_metrics() {
    let doc = loadtest_doc(
        "loadtest",
        &["--jobs", "40", "--connections", "2", "--seed", "3"],
    );
    let metrics = doc.get("metrics").expect("snapshot present");
    assert_eq!(admits(metrics), 40, "one attempt per job: {doc}");
    let decisions = doc
        .get("decisions")
        .and_then(Json::as_array)
        .expect("journal");
    // Every job's verdict is in its shard's record, lint rejects too.
    assert!(
        (1..=40).contains(&decisions.len()),
        "{} decisions",
        decisions.len()
    );
}

#[test]
fn loadtest_writes_one_document_per_cluster_node() {
    let doc = loadtest_doc(
        "loadtest-cluster",
        &[
            "--cluster",
            "2",
            "--jobs",
            "20",
            "--connections",
            "2",
            "--seed",
            "3",
        ],
    );
    let mut routed = 0;
    for id in ["node0", "node1"] {
        let node = doc.get(id).unwrap_or_else(|| panic!("{id} missing: {doc}"));
        let metrics = node.get("metrics").expect("snapshot present");
        routed += admits(metrics) + counter(metrics, "cluster.twopc.started");
        assert!(
            node.get("decisions").and_then(Json::as_array).is_some(),
            "{id} has a journal"
        );
    }
    // Each job is admitted by its one owner's shards (locally or
    // forwarded) or coordinated as one two-phase commit.
    assert_eq!(routed, 20, "{doc}");
}
