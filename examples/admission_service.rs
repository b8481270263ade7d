//! The admission service end to end, in one process:
//! spawn a sharded `rota-server`, drive it with `rota-client`, and read
//! the per-shard metrics it kept while answering.
//!
//! ```bash
//! cargo run --example admission_service
//! ```

use std::time::Duration;

use rota_actor::{ActionKind, ActorComputation, DistributedComputation, Granularity};
use rota_admission::RotaPolicy;
use rota_client::{run_loadtest, Client, LoadtestConfig};
use rota_interval::TimePoint;
use rota_server::{Server, ServerConfig};
use rota_workload::{base_resources, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-node system: each node offers CPU, ring links offer network.
    let workload = WorkloadConfig::new(7).with_nodes(4).with_horizon(64);
    let theta = base_resources(&workload);

    // The server owns the resources, split across 4 shard controllers
    // by location; every connection gets Theorem-4 answers over TCP.
    let server = Server::spawn(ServerConfig::default(), RotaPolicy, &theta)?;
    println!("admission service on {}", server.local_addr());

    // One hand-built job over the wire.
    let gamma = ActorComputation::new("worker", "l0")
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate());
    let job = DistributedComputation::single("report", gamma, TimePoint::ZERO, TimePoint::new(24))?;
    let mut client = Client::connect_timeout(server.local_addr(), Duration::from_secs(2))?;
    client.ping()?;
    let verdict = client.admit(&job, Granularity::MaximalRun)?;
    let mut frame = String::new();
    verdict.write_json(&mut frame);
    println!("verdict for `report`: {frame}");

    // Then a seeded battery: 200 generated jobs over 4 connections.
    let report = run_loadtest(&LoadtestConfig {
        jobs: 200,
        ..LoadtestConfig::new(server.local_addr())
    })?;
    print!("{}", report.render("rota"));

    let (stats, shards) = client.stats()?;
    println!(
        "server counted {} accepted / {} rejected across {} shards",
        stats.accepted, stats.rejected, shards
    );

    // Graceful drain: queued decisions are answered before workers exit.
    client.shutdown()?;
    server.shutdown();
    println!("drained; done");
    Ok(())
}
