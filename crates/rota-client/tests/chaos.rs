//! Chaos end-to-end: a retrying client against a fault-injecting
//! server must reach full verdict agreement with an in-process
//! reference controller.
//!
//! The seeded [`FaultPlan`] adds latency, truncates response frames
//! mid-write (forcing client reconnect + retry, absorbed by the
//! server's per-shard decision cache), and fires one forced shard
//! panic (forcing a panic bounce, answered `overloaded`, and a
//! retry). Through all of it:
//!
//! * the server never crashes and keeps answering,
//! * the panicked shard counts exactly one panic and keeps its state
//!   (injected panics fire *before* the controller mutates),
//! * the [`ResilientClient`] turns every fault into a successful
//!   decision that matches what a monolithic controller decides.
//!
//! Also pins down loadtest determinism: with `deterministic` set, the
//! request schedule is a pure function of the config.

use std::time::Duration;

use rota_actor::{Granularity, TableCostModel};
use rota_admission::{AdmissionController, AdmissionRequest, RotaPolicy};
use rota_client::{HedgeConfig, LoadtestConfig, ResilientClient, RetryConfig};
use rota_interval::TimePoint;
use rota_server::protocol::Response;
use rota_server::spec::ComputationSpec;
use rota_server::{FaultPlan, Server, ServerConfig};
use rota_workload::{base_resources, generate_job, JobShape, WorkloadConfig};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

#[test]
fn retrying_client_agrees_with_reference_under_chaos() {
    const JOBS: usize = 80;
    let workload = chain_workload();
    let theta = base_resources(&workload);
    let plan = FaultPlan::parse("seed=7,latency_ms=2,latency_p=0.2,truncate_p=0.15,panic_nth=10")
        .expect("valid chaos spec");
    let shards = 2;
    let config = ServerConfig {
        shards,
        fault_plan: Some(plan),
        ..ServerConfig::ephemeral()
    };
    let server = Server::spawn(config, RotaPolicy, &theta).expect("spawn chaos server");

    let mut reference = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
    let phi = TableCostModel::paper();
    let retry = RetryConfig {
        max_attempts: 8,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(50),
        budget: Duration::from_secs(10),
        seed: 99,
    };
    let mut client = ResilientClient::new(vec![server.local_addr()], retry)
        .expect("one address")
        .with_hedging(HedgeConfig::default());

    let mut rng = StdRng::seed_from_u64(workload.seed);
    let mut accepted = 0usize;
    for i in 0..JOBS {
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
    // Chaos must not have biased the workload into one verdict.
    assert!(accepted > 0, "no job was admitted");
    assert!(accepted < JOBS, "no job was refused");

    // The forced panic actually fired, bounced a request (which the
    // client retried), and its shard counted it.
    let snapshot = server.registry().snapshot();
    assert_eq!(snapshot.counter("server.faults.panic"), Some(1));
    let panics: u64 = (0..shards)
        .map(|s| {
            snapshot
                .counter(&format!("server.shard.panics{{shard={s}}}"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(panics, 1, "exactly one shard panic is counted");
    let stats = client.stats();
    assert!(
        stats.retries >= 1,
        "the panic bounce and ~15% truncation rate must force retries, stats: {stats:?}"
    );
    // Truncations did happen — otherwise this test lost its teeth.
    assert!(
        snapshot.counter("server.faults.truncate").unwrap_or(0) >= 1,
        "no response frame was truncated"
    );
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
