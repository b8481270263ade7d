//! End-to-end tests against a live server on an ephemeral port.
//!
//! These talk raw TCP (no rota-client, which would be a dependency
//! cycle) so they also pin down the wire format itself: one JSON
//! document per line, `"ok"` flag on every response.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rota_actor::{
    ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
};
use rota_admission::{
    AdmissionController, AdmissionPolicy, AdmissionRequest, Decision, RotaPolicy,
};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::State;
use rota_obs::Json;
use rota_resource::{LocatedType, NodeResourceKind, Rate, ResourceTerm};
use rota_server::spec::{self, computation_to_json, resources_from_json};
use rota_server::{
    LocalHandle, Reply, Request, RequestHook, Server, ServerConfig, WallClock, MAX_FRAME_BYTES,
};
use rota_workload::{base_resources, generate_job, JobShape, WorkloadConfig};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request/response exchange over an existing connection.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write frame");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read frame");
    assert!(response.ends_with('\n'), "unterminated frame: {response:?}");
    Json::parse(response.trim_end()).expect("response is valid JSON")
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn admit_line(computation: &rota_actor::DistributedComputation) -> String {
    let mut pairs = vec![
        ("op".into(), Json::Str("admit".into())),
        ("granularity".into(), Json::Str("maximal-run".into())),
    ];
    pairs.push(("computation".into(), computation_to_json(computation)));
    Json::Obj(pairs).to_string()
}

/// Chain-shaped (single-location) workload: each job touches exactly
/// one location, so a sharded server and a monolithic controller see
/// the same per-location resource state and must agree on every
/// verdict.
fn chain_workload() -> WorkloadConfig {
    WorkloadConfig::new(42)
        .with_nodes(4)
        .with_horizon(64)
        .with_shape(JobShape::Chain { evals: 3 })
        .with_slack(3.0)
}

#[test]
fn server_decisions_match_in_process_controller() {
    let workload = chain_workload();
    let theta = base_resources(&workload);
    let server = Server::spawn(ServerConfig::default(), RotaPolicy, &theta).expect("spawn server");
    let (mut stream, mut reader) = connect(server.local_addr());

    let mut reference = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
    let phi = TableCostModel::paper();
    let mut rng = StdRng::seed_from_u64(workload.seed);
    let mut agreements = 0usize;
    let mut accepted = 0usize;
    for i in 0..60 {
        let arrival = rng.gen_range(0..workload.horizon / 2);
        let job = generate_job(&workload, &mut rng, &format!("e2e{i}"), arrival);
        let expected = reference
            .submit(&AdmissionRequest::price(
                job.clone(),
                &phi,
                Granularity::MaximalRun,
            ))
            .is_accept();
        let response = roundtrip(&mut stream, &mut reader, &admit_line(&job));
        assert_eq!(
            response.get("op").and_then(Json::as_str),
            Some("decision"),
            "unexpected response: {response}"
        );
        let got = response
            .get("accepted")
            .and_then(Json::as_bool)
            .expect("decision has accepted flag");
        assert_eq!(
            got, expected,
            "server and in-process controller disagree on job {i}: {response}"
        );
        agreements += 1;
        accepted += usize::from(got);
    }
    assert_eq!(agreements, 60);
    // The workload must actually exercise both verdicts for the
    // comparison to mean anything.
    assert!(accepted > 0, "no job was admitted");
    assert!(accepted < 60, "no job was refused");
    server.shutdown();
}

#[test]
fn lint_erroring_spec_is_rejected_before_policy() {
    let server = Server::spawn(
        ServerConfig::default(),
        RotaPolicy,
        &base_resources(&chain_workload()),
    )
    .expect("spawn server");
    let (mut stream, mut reader) = connect(server.local_addr());

    // An actor at a location the server has no supply for: the
    // pre-admission analyzer flags R0006 and the request never
    // reaches the policy.
    let job = DistributedComputation::single(
        "ghost-job",
        ActorComputation::new("a", "ghost-location").then(ActionKind::evaluate()),
        TimePoint::ZERO,
        TimePoint::new(32),
    )
    .expect("valid computation");
    let response = roundtrip(&mut stream, &mut reader, &admit_line(&job));
    assert_eq!(response.get("op").and_then(Json::as_str), Some("decision"));
    assert_eq!(
        response.get("accepted").and_then(Json::as_bool),
        Some(false)
    );
    let clause = response
        .get("clause")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(clause.contains("static analysis"), "clause: {clause}");
    let diagnostics = response
        .get("diagnostics")
        .and_then(Json::as_array)
        .expect("lint rejection carries structured diagnostics");
    assert!(
        diagnostics
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("R0006")),
        "expected an R0006 diagnostic: {response}"
    );
    // The policy was never consulted: it counted no request, and the
    // lint counter recorded the bounce.
    let snapshot = server.registry().snapshot();
    assert_eq!(snapshot.counter("admission.requests{policy=rota}"), Some(0));
    let linted: u64 = (0..16)
        .filter_map(|s| snapshot.counter(&format!("server.shard.lint_rejects{{shard={s}}}")))
        .sum();
    assert_eq!(linted, 1);
    server.shutdown();
}

#[test]
fn malformed_frames_get_error_and_connection_survives() {
    let server = Server::spawn(
        ServerConfig::default(),
        RotaPolicy,
        &base_resources(&chain_workload()),
    )
    .expect("spawn server");
    let (mut stream, mut reader) = connect(server.local_addr());
    for bad in [
        "this is not json",
        "{\"op\":\"no-such-op\"}",
        "{\"op\":\"admit\"}",
        "[1,2,3]",
        "{\"op\":\"admit\",\"granularity\":\"maximal-run\",\"computation\":{\"name\":1}}",
    ] {
        let response = roundtrip(&mut stream, &mut reader, bad);
        assert_eq!(
            response.get("op").and_then(Json::as_str),
            Some("error"),
            "expected error for {bad:?}, got {response}"
        );
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    }
    // The connection is still usable after every malformed frame.
    let pong = roundtrip(&mut stream, &mut reader, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
    let malformed = server
        .registry()
        .snapshot()
        .counter("server.frames.malformed")
        .unwrap_or(0);
    assert_eq!(malformed, 5);
    server.shutdown();
}

#[test]
fn a_deeply_nested_frame_is_refused_and_the_server_lives_on() {
    let server = Server::spawn(
        ServerConfig::default(),
        RotaPolicy,
        &base_resources(&chain_workload()),
    )
    .expect("spawn server");
    let (mut stream, mut reader) = connect(server.local_addr());
    // 200 KB, under the frame cap: the resource list goes through the
    // tree parser, whose recursion the nesting bound stops.
    let depth = 100_000;
    let flood = format!(
        "{{\"op\":\"offer\",\"resources\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let response = roundtrip(&mut stream, &mut reader, &flood);
    assert_eq!(
        response.get("op").and_then(Json::as_str),
        Some("error"),
        "{response}"
    );
    let message = response.get("error").and_then(Json::as_str).unwrap();
    assert!(
        message.contains("nesting deeper than 128 levels"),
        "{message}"
    );
    let pong = roundtrip(&mut stream, &mut reader, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("op").and_then(Json::as_str), Some("pong"));
    server.shutdown();
}

#[test]
fn oversized_frames_are_refused_at_the_limit() {
    let server = Server::spawn(
        ServerConfig::default(),
        RotaPolicy,
        &base_resources(&chain_workload()),
    )
    .expect("spawn server");
    let (mut stream, mut reader) = connect(server.local_addr());
    // A frame of syntactically valid JSON a few KiB past the cap: the
    // server must refuse it while reading, not after buffering all of
    // it.
    let pad = "x".repeat(MAX_FRAME_BYTES + 4 * 1024);
    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{pad}\"}}");
    let response = roundtrip(&mut stream, &mut reader, &huge);
    assert_eq!(response.get("op").and_then(Json::as_str), Some("error"));
    let message = response
        .get("error")
        .and_then(Json::as_str)
        .expect("error carries message");
    assert!(message.contains("262144"), "unhelpful message: {message}");
    // The server hangs up after an oversized frame (the rest of the
    // stream cannot be re-synchronized): next read sees EOF.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(n) => assert_eq!(n, 0, "connection should be closed, got {rest:?}"),
        // A reset is also a legitimate "hung up": the server closed
        // with part of the oversized frame still unread.
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset),
    }
    server.shutdown();
}

/// The TIME_WAIT connections in `/proc/net/tcp` with `addr` at either
/// end, as (local, remote) pairs, or `None` where the file cannot be
/// read.
fn time_wait_rows(addr: SocketAddr) -> Option<BTreeSet<(String, String)>> {
    let table = std::fs::read_to_string("/proc/net/tcp").ok()?;
    let IpAddr::V4(ip) = addr.ip() else {
        return None;
    };
    // The kernel prints an IPv4 address as its 32 bits in host order.
    let hex = format!(
        "{:08X}:{:04X}",
        u32::from_le_bytes(ip.octets()),
        addr.port()
    );
    let rows = table.lines().skip(1).filter_map(|row| {
        let fields: Vec<&str> = row.split_whitespace().collect();
        (fields.len() > 3 && fields[3] == "06" && (fields[1] == hex || fields[2] == hex))
            .then(|| (fields[1].to_string(), fields[2].to_string()))
    });
    Some(rows.collect())
}

/// Stopping a server wakes its acceptor without an active close on
/// either end, so start/stop cycles leave no socket in TIME_WAIT. Rows
/// already there when a server binds (an earlier user of the same port
/// left them) are not counted.
#[test]
fn stopping_a_server_leaves_no_time_wait_socket() {
    const CYCLES: usize = 20;
    let theta = base_resources(&chain_workload());
    let mut stopped = Vec::new();
    for _ in 0..CYCLES {
        let server = Server::spawn(ServerConfig::default(), RotaPolicy, &theta).expect("spawn");
        let addr = server.local_addr();
        let Some(before) = time_wait_rows(addr) else {
            eprintln!("skipped: /proc/net/tcp cannot be read");
            return;
        };
        // Let the acceptor reach `accept()`, as it has in any server
        // that served: a stop before that wakes nothing.
        std::thread::sleep(Duration::from_millis(10));
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "{:?}",
            started.elapsed()
        );
        stopped.push((addr, before));
    }
    let left: usize = stopped
        .iter()
        .map(|(addr, before)| {
            let after = time_wait_rows(*addr).unwrap_or_default();
            after.difference(before).count()
        })
        .sum();
    assert_eq!(left, 0, "{left} TIME_WAIT sockets after {CYCLES} stops");
}

/// A policy that takes its time: lets tests fill the shard queue
/// deterministically to force `overloaded` responses.
#[derive(Clone)]
struct SlowPolicy {
    delay: Duration,
}

impl AdmissionPolicy for SlowPolicy {
    fn name(&self) -> &'static str {
        "slow"
    }

    fn decide(&self, state: &State, request: &AdmissionRequest) -> Decision {
        std::thread::sleep(self.delay);
        RotaPolicy.decide(state, request)
    }
}

#[test]
fn overload_answers_explicit_backpressure() {
    let workload = chain_workload();
    let config = ServerConfig {
        shards: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server = Server::spawn(
        config,
        SlowPolicy {
            delay: Duration::from_millis(60),
        },
        &base_resources(&workload),
    )
    .expect("spawn server");
    let addr = server.local_addr();

    // 8 concurrent one-shot clients against a single shard that can
    // hold one queued request while one is being (slowly) decided: at
    // least one must bounce with `overloaded`, and nobody may hang.
    let mut rng = StdRng::seed_from_u64(7);
    let jobs: Vec<_> = (0..8)
        .map(|i| generate_job(&workload, &mut rng, &format!("ov{i}"), 0))
        .collect();
    let mut handles = Vec::new();
    for job in jobs {
        handles.push(std::thread::spawn(move || {
            let (mut stream, mut reader) = connect(addr);
            let response = roundtrip(&mut stream, &mut reader, &admit_line(&job));
            response
                .get("op")
                .and_then(Json::as_str)
                .expect("op field")
                .to_string()
        }));
    }
    let mut decisions = 0usize;
    let mut overloaded = 0usize;
    for handle in handles {
        match handle.join().expect("client thread").as_str() {
            "decision" => decisions += 1,
            "overloaded" => overloaded += 1,
            other => panic!("unexpected op {other}"),
        }
    }
    assert_eq!(decisions + overloaded, 8);
    assert!(
        overloaded >= 1,
        "expected backpressure with queue capacity 1, got {decisions} decisions"
    );
    let bounced = server
        .registry()
        .snapshot()
        .counter("server.overloaded{shard=0}")
        .unwrap_or(0);
    assert_eq!(bounced as usize, overloaded);
    server.shutdown();
}

#[test]
fn protocol_shutdown_drains_and_stops_accepting() {
    let workload = chain_workload();
    let server = Server::spawn(
        ServerConfig::default(),
        RotaPolicy,
        &base_resources(&workload),
    )
    .expect("spawn server");
    let addr = server.local_addr();
    let (mut stream, mut reader) = connect(addr);

    let mut rng = StdRng::seed_from_u64(3);
    let job = generate_job(&workload, &mut rng, "pre", 0);
    let response = roundtrip(&mut stream, &mut reader, &admit_line(&job));
    assert_eq!(response.get("op").and_then(Json::as_str), Some("decision"));

    let bye = roundtrip(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("op").and_then(Json::as_str), Some("bye"));
    // Joining must complete promptly: in-flight calls finish and the
    // acceptor exits.
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
    // The record survived the drain and holds the decision.
    assert_eq!(server.decisions().len(), 1);
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener should be gone after shutdown"
    );
}

#[test]
fn idle_connections_are_reaped() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::spawn(config, RotaPolicy, &base_resources(&chain_workload()))
        .expect("spawn server");
    let (_stream, mut reader) = connect(server.local_addr());
    // Send nothing. Within the 10s read timeout the server must reap us:
    // an `error` frame mentioning idleness, then EOF.
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reap notice");
    let notice = Json::parse(line.trim_end()).expect("reap notice is JSON");
    assert_eq!(
        notice.get("op").and_then(Json::as_str),
        Some("error"),
        "notice: {notice}"
    );
    let message = notice
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(message.contains("idle"), "unexpected notice: {notice}");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
    let reaped = server
        .registry()
        .snapshot()
        .counter("server.connections.idle_reaped")
        .unwrap_or(0);
    assert_eq!(reaped, 1);
    server.shutdown();
}

/// Passes every request through to the local core.
struct PassThrough;

impl RequestHook for PassThrough {
    fn intercept(&self, _request: &Request) -> Option<Reply> {
        None
    }
}

/// A coordinator reads its own slice of a two-phase basis through its
/// `LocalHandle`, a participant through a `cluster-snapshot` frame.
/// The frame carries the local set's specs: the set less the terms the
/// wire cannot name (here `disk`), which no request demands.
#[test]
fn local_cluster_state_is_the_wire_snapshot() {
    let mut theta = base_resources(&chain_workload());
    let location = theta
        .located_types()
        .find_map(|lt| lt.locations().first().map(|l| (*l).clone()))
        .expect("the workload supplies some location");
    let disk = LocatedType::Node {
        kind: NodeResourceKind::Disk,
        location,
    };
    theta
        .insert(ResourceTerm::new(
            Rate::new(3),
            TimeInterval::from_ticks(0, 16).expect("non-empty"),
            disk.clone(),
        ))
        .expect("bounded rates");
    let local: Arc<OnceLock<LocalHandle>> = Arc::new(OnceLock::new());
    let clock = Arc::new(WallClock);
    let server = Server::spawn_hooked(
        ServerConfig::default(),
        RotaPolicy,
        &theta,
        clock,
        |handle| {
            assert!(local.set(handle).is_ok(), "the hook is built once");
            Arc::new(PassThrough) as Arc<dyn RequestHook>
        },
    )
    .expect("spawn server");

    let set = local
        .get()
        .expect("hook installed")
        .cluster_state_in(None)
        .expect("local snapshot");
    let (mut stream, mut reader) = connect(server.local_addr());
    let answer = roundtrip(&mut stream, &mut reader, "{\"op\":\"cluster-snapshot\"}");
    let op = answer.get("op").and_then(Json::as_str);
    assert_eq!(op, Some("cluster-state"));
    let wire = resources_from_json(
        answer
            .get("resources")
            .and_then(Json::as_array)
            .expect("resources"),
    )
    .expect("the answer decodes");

    // A fresh server offers its whole supply; the wire, all but the disk.
    assert_eq!(set, theta);
    let specs = spec::resource_specs(&set);
    assert_eq!(specs, wire);
    assert_eq!(specs.len() + 1, theta.term_count());
    assert!(
        specs.iter().all(|spec| spec.located != disk),
        "the disk term has no wire form"
    );
}
