//! Chaos end-to-end: a retrying client reaches a server through a
//! fault-injecting proxy and must agree on every verdict with an
//! in-process reference controller.
//!
//! The seeded proxy ([`proxy::Proxy`]) delays requests and truncates
//! answer frames (forcing client reconnect + retry, absorbed by the
//! server's per-shard table of names), and the server's policy panics
//! once, on its n-th decision (forcing a panic bounce, answered
//! `overloaded`, and a retry). Through all of it:
//!
//! * the server never crashes and keeps answering,
//! * the panicked shard counts exactly one panic and keeps its state
//!   (the panic fires in the admit's reading half, before anything
//!   mutates),
//! * the retrying [`ResilientClient`] turns every fault into a
//!   successful decision that matches what a monolithic controller
//!   decides.
//!
//! `e14_battery_rides_out_every_fault` is experiment E14 (`just
//! chaos`). Also pins down loadtest determinism: with `deterministic`
//! set, the request schedule is a pure function of the config.

// Shared with the cluster drills; this file uses part of it.
#[allow(dead_code)]
#[path = "support/proxy.rs"]
mod proxy;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rota_actor::{Granularity, TableCostModel};
use rota_admission::{
    AdmissionController, AdmissionPolicy, AdmissionRequest, Decision, RotaPolicy,
};
use rota_client::{
    run_loadtest, Client, LoadtestConfig, ResilienceStats, ResilientClient, RetryConfig,
};
use rota_interval::TimePoint;
use rota_logic::State;
use rota_server::protocol::Response;
use rota_server::spec::ComputationSpec;
use rota_server::{Server, ServerConfig, ServerHandle};
use rota_workload::{base_resources, generate_job, JobShape, WorkloadConfig};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use proxy::{Faults, Proxy};

/// Chain-shaped (single-location) jobs so the sharded server and the
/// monolithic reference controller see identical per-location state
/// and must agree on every verdict.
fn chain_workload() -> WorkloadConfig {
    WorkloadConfig::new(42)
        .with_nodes(4)
        .with_horizon(64)
        .with_shape(JobShape::Chain { evals: 3 })
        .with_slack(3.0)
}

/// Decides like [`RotaPolicy`], but panics on its `nth` decision
/// (1-based) and on no other: a bug that a retry outlives.
struct PanicNth {
    nth: u64,
    decided: AtomicU64,
}

impl PanicNth {
    fn new(nth: u64) -> PanicNth {
        PanicNth {
            nth,
            decided: AtomicU64::new(0),
        }
    }
}

impl AdmissionPolicy for PanicNth {
    fn name(&self) -> &'static str {
        RotaPolicy.name()
    }

    fn decide(&self, state: &State, request: &AdmissionRequest) -> Decision {
        if self.decided.fetch_add(1, Ordering::Relaxed) + 1 == self.nth {
            panic!("decision {} panics", self.nth);
        }
        RotaPolicy.decide(state, request)
    }
}

/// `server.shard.panics` summed over the server's shards.
fn shard_panics(server: &ServerHandle, shards: usize) -> u64 {
    let snapshot = server.registry().snapshot();
    (0..shards)
        .map(|s| {
            snapshot
                .counter(&format!("server.shard.panics{{shard={s}}}"))
                .unwrap_or(0)
        })
        .sum()
}

/// What one run against the reference controller saw.
struct Drill {
    accepted: usize,
    client: ResilienceStats,
    panics: u64,
    counts: proxy::Counts,
}

/// Admits `jobs` chain jobs through a proxy injecting `faults` in front
/// of a 2-shard server whose policy panics on decision `panic_nth`
/// (0: never), with a retrying client on one connection, redialled
/// after each fault, and checks every verdict against an in-process
/// reference controller.
fn agree_with_reference(faults: Faults, jobs: usize, panic_nth: u64) -> Drill {
    let workload = chain_workload();
    let theta = base_resources(&workload);
    let shards = 2;
    let config = ServerConfig {
        shards,
        ..ServerConfig::default()
    };
    let server = Server::spawn(config, PanicNth::new(panic_nth), &theta).expect("spawn the server");
    let proxy = Proxy::start(server.local_addr(), faults);

    let mut reference = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
    let phi = TableCostModel::paper();
    let retry = RetryConfig {
        max_attempts: 8,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(50),
        budget: Duration::from_secs(10),
        seed: 99,
    };
    let mut client = ResilientClient::new(vec![proxy.addr()], retry).expect("one address");

    let mut rng = StdRng::seed_from_u64(workload.seed);
    let mut accepted = 0usize;
    for i in 0..jobs {
        let arrival = rng.gen_range(0..workload.horizon / 2);
        let job = generate_job(&workload, &mut rng, &format!("chaos{i}"), arrival);
        let expected = reference
            .submit(&AdmissionRequest::price(
                job.clone(),
                &phi,
                Granularity::MaximalRun,
            ))
            .is_accept();
        let response = client
            .admit(ComputationSpec::from(&job), Granularity::MaximalRun)
            .expect("retries exhaust every injected fault");
        match response {
            Response::Decision { accepted: got, .. } => {
                assert_eq!(
                    got, expected,
                    "job {i}: chaos broke verdict agreement with the reference controller"
                );
                accepted += usize::from(got);
            }
            other => panic!("job {i}: no decision after retries: {:?}", other.to_json()),
        }
    }
    let drill = Drill {
        accepted,
        client: client.stats(),
        panics: shard_panics(&server, shards),
        counts: proxy.counts(),
    };
    drop(proxy);
    server.shutdown();
    drill
}

#[test]
fn retrying_client_agrees_with_reference_under_chaos() {
    const JOBS: usize = 80;
    let drill = agree_with_reference(
        Faults {
            seed: 7,
            latency_ms: 2,
            latency_p: 0.2,
            truncate_p: 0.15,
            ..Faults::default()
        },
        JOBS,
        10,
    );
    // Chaos must not have biased the workload into one verdict.
    assert!(drill.accepted > 0, "no job was admitted");
    assert!(drill.accepted < JOBS, "no job was refused");
    // The policy's panic fired, bounced a request (which the client
    // retried), and its shard counted it.
    assert_eq!(drill.panics, 1, "exactly one shard panic is counted");
    assert!(
        drill.client.retries >= 1,
        "the panic bounce and ~15% truncation rate must force retries"
    );
    // Truncations did happen — otherwise this test lost its teeth.
    let counts = drill.counts;
    assert!(counts.truncated >= 1, "no answer was truncated: {counts:?}");
    assert!(counts.delayed >= 1, "no request was delayed: {counts:?}");
}

/// One flipped bit cannot turn one verdict into the other: a damaged
/// answer either fails to decode, and is retried (the shard's table of
/// names replays it), or decodes with its verdict intact.
#[test]
fn a_flipped_answer_byte_never_changes_a_verdict() {
    let drill = agree_with_reference(
        Faults {
            seed: 11,
            corrupt_p: 0.25,
            ..Faults::default()
        },
        40,
        0,
    );
    let counts = drill.counts;
    assert!(counts.corrupted >= 1, "no answer was corrupted: {counts:?}");
    assert_eq!(drill.panics, 0);
}

/// E14: the E13 battery (2000 mixed jobs, 8 connections, 4 shards,
/// seed 42) through the proxy — 10% of requests delayed up to 2 ms, 5%
/// of answers truncated, 3% of requests reset — with the 500th
/// decision panicking its shard, against a loadtest retrying up to 8
/// attempts. Every fault is ridden out: no job ends in an error, and
/// exactly one panic is counted. Prints the report EXPERIMENTS.md
/// records; run it with `just chaos`.
#[test]
#[ignore = "experiment E14 (2000 jobs); run with `just chaos`"]
fn e14_battery_rides_out_every_fault() {
    let workload = WorkloadConfig::new(42)
        .with_nodes(4)
        .with_horizon(96)
        .with_shape(JobShape::Mixed)
        .with_slack(3.0);
    let theta = base_resources(&workload);
    let shards = 4;
    let config = ServerConfig {
        shards,
        ..ServerConfig::default()
    };
    let server = Server::spawn(config, PanicNth::new(500), &theta).expect("spawn the server");
    let proxy = Proxy::start(
        server.local_addr(),
        Faults {
            seed: 42,
            latency_ms: 2,
            latency_p: 0.1,
            truncate_p: 0.05,
            reset_p: 0.03,
            ..Faults::default()
        },
    );
    let config = LoadtestConfig {
        connections: 8,
        jobs: 2000,
        workload,
        deterministic: true,
        retry: RetryConfig {
            max_attempts: 8,
            seed: 42,
            ..RetryConfig::default()
        },
        ..LoadtestConfig::new(proxy.addr())
    };
    let report = run_loadtest(&config).expect("the loadtest runs");
    let (stats, _) = Client::connect(server.local_addr())
        .and_then(|mut client| client.stats())
        .expect("server stats");
    let linted: u64 = {
        let snapshot = server.registry().snapshot();
        (0..shards)
            .map(|s| {
                snapshot
                    .counter(&format!("server.shard.lint_rejects{{shard={s}}}"))
                    .unwrap_or(0)
            })
            .sum()
    };
    println!("{}", report.render("rota").trim_end());
    println!(
        "  server side  {} accepted / {} rejected / {} lint-rejected = {} decided across {shards} shard(s)",
        stats.accepted,
        stats.rejected,
        linted,
        stats.accepted + stats.rejected + linted,
    );
    println!("  proxy        {:?}", proxy.counts());
    assert_eq!(report.errors, 0, "first error: {:?}", report.first_error);
    assert_eq!(shard_panics(&server, shards), 1);
    let counts = proxy.counts();
    assert!(counts.reset >= 1 && counts.truncated >= 1, "{counts:?}");
    drop(proxy);
    server.shutdown();
}

#[test]
fn same_config_yields_identical_request_schedules() {
    let addr = "127.0.0.1:1".parse().expect("addr"); // never dialed
    let mut config = LoadtestConfig::new(addr);
    config.deterministic = true;
    config.jobs = 60;
    config.connections = 3;
    config.workload = chain_workload();

    let first = rota_client::request_schedule(&config);
    let second = rota_client::request_schedule(&config);
    assert_eq!(first, second, "same seed must give the same schedule");

    // Shape: every job appears exactly once, round-robin over
    // connections.
    assert_eq!(first.len(), 3);
    let total: usize = first.iter().map(Vec::len).sum();
    assert_eq!(total, 60);
    assert_eq!(first[0][0], "lt0");
    assert_eq!(first[1][0], "lt1");
    assert_eq!(first[2][0], "lt2");
    assert_eq!(first[0][1], "lt3");

    // A different seed reshuffles the generated jobs (names are stable
    // by index, so compare the full schedule via a generated field —
    // re-deriving with another seed must not be identical when jobs
    // differ in content; the cheap observable is the schedule of a
    // different job count).
    let mut other = LoadtestConfig::new(addr);
    other.deterministic = true;
    other.jobs = 61;
    other.connections = 3;
    other.workload = chain_workload();
    let third = rota_client::request_schedule(&other);
    assert_ne!(first, third, "different configs must differ");
}
