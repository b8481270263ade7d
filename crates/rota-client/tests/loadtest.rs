//! The load test drives every connection through `ResilientClient`:
//! with more than one address a dead one costs a failover, not a job,
//! and with the default one attempt per job `overloaded` answers are
//! tallied as backpressure, never retried away.

use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

use rota_admission::{AdmissionPolicy, AdmissionRequest, Decision, RotaPolicy};
use rota_client::{run_loadtest, LoadtestConfig, RetryConfig};
use rota_logic::State;
use rota_server::{Server, ServerConfig};
use rota_workload::{base_resources, JobShape, WorkloadConfig};

fn chain_workload() -> WorkloadConfig {
    WorkloadConfig::new(11)
        .with_nodes(4)
        .with_horizon(64)
        .with_shape(JobShape::Chain { evals: 3 })
}

/// An address that accepts every dial and hangs up at once; holding
/// the listener keeps another test from reusing the port.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            drop(stream);
        }
    });
    addr
}

#[test]
fn dead_first_address_costs_a_failover_not_a_job() {
    let workload = chain_workload();
    let server = Server::spawn(
        ServerConfig::default(),
        RotaPolicy,
        &base_resources(&workload),
    )
    .expect("spawn server");
    let config = LoadtestConfig {
        addrs: vec![dead_addr(), server.local_addr()],
        connections: 2,
        jobs: 40,
        workload,
        retry: RetryConfig {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            ..RetryConfig::default()
        },
        ..LoadtestConfig::new(server.local_addr())
    };
    let report = run_loadtest(&config).expect("two addresses");
    assert_eq!(report.errors, 0, "{:?}", report.first_error);
    assert_eq!(
        report.accepted + report.rejected,
        40,
        "every job is decided"
    );
    // Connection 0 starts on the dead address and moves once.
    assert!(report.failovers >= 1, "{report:?}");
    server.shutdown();
}

#[test]
fn empty_address_list_is_an_error() {
    let config = LoadtestConfig {
        addrs: Vec::new(),
        ..LoadtestConfig::new(dead_addr())
    };
    assert!(run_loadtest(&config).is_err());
}

/// A policy that takes its time, so a one-slot shard queue fills.
#[derive(Clone)]
struct SlowPolicy;

impl AdmissionPolicy for SlowPolicy {
    fn name(&self) -> &'static str {
        "slow"
    }

    fn decide(&self, state: &State, request: &AdmissionRequest) -> Decision {
        std::thread::sleep(Duration::from_millis(20));
        RotaPolicy.decide(state, request)
    }
}

#[test]
fn default_config_tallies_overloaded_instead_of_retrying() {
    let workload = chain_workload();
    let server_config = ServerConfig {
        shards: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server =
        Server::spawn(server_config, SlowPolicy, &base_resources(&workload)).expect("spawn server");
    // Eight connections against one slow shard that holds one queued
    // request while it decides another: most admits bounce.
    let config = LoadtestConfig {
        connections: 8,
        jobs: 32,
        workload,
        ..LoadtestConfig::new(server.local_addr())
    };
    let report = run_loadtest(&config).expect("one address");
    assert_eq!(report.errors, 0, "{:?}", report.first_error);
    assert!(report.overloaded >= 1, "{report:?}");
    assert_eq!(report.accepted + report.rejected + report.overloaded, 32);
    assert_eq!(report.retries, 0, "one attempt per job");
    let bounced = server
        .registry()
        .snapshot()
        .counter("server.overloaded{shard=0}")
        .unwrap_or(0);
    assert_eq!(
        bounced as usize, report.overloaded,
        "each bounce reached the client once"
    );
    server.shutdown();
}
