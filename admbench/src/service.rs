//! The service under test as a child process: spawning `rota-cli`,
//! checking its banner against the workload, timing its set-up, and
//! reading its counters over the wire.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rota_client::Client;
use rota_obs::Json;
use rota_workload::base_resources;

use crate::workload::{Deployment, Workload, QUEUE};

/// How long a child may take to print its banner and become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `rota-cli serve` or `rota-cli cluster` process. Dropping
/// it kills the process and waits for it.
pub struct Service {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    /// Node addresses; one for `serve`.
    pub addrs: Vec<SocketAddr>,
    /// Spawn until ready: first `pong` for a server, converged gossip
    /// for a cluster.
    pub setup: Duration,
}

impl Service {
    /// Starts the workload's service and waits until it is ready.
    /// Fails when the banner disagrees with the workload (a mistyped
    /// flag is silently ignored by `rota-cli`, so this is the only
    /// guard against benchmarking the defaults).
    pub fn spawn(cli: &Path, workload: &Workload, seed: u64) -> Result<Service, String> {
        let started = Instant::now();
        let mut child = Command::new(cli)
            .args(workload.service_args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let pipe = child.stdout.take().ok_or("child stdout not captured")?;
        let (tx, rx) = channel::<String>();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    // Keep draining so the child never blocks on a full pipe.
                    continue;
                }
            }
        });
        let mut service = Service {
            child,
            stdout: Some(stdout),
            addrs: Vec::new(),
            setup: Duration::ZERO,
        };
        let expected_terms = base_resources(&workload.config(seed)).term_count();
        match workload.deployment {
            Deployment::Serve { shards } => {
                let banner = next_line(&rx, started, |l| l.starts_with("serving "))?;
                let addr = check_serve_banner(&banner, shards, workload, expected_terms)?;
                service.addrs.push(addr);
                ping_until_ready(addr, started)?;
            }
            Deployment::Cluster {
                gossip_ms,
                gossip_seed,
            } => {
                let banner = next_line(&rx, started, |l| l.starts_with("cluster: "))?;
                let want = format!(
                    "cluster: {} nodes, {expected_terms} resource terms, gossip every \
                     {gossip_ms}ms (seed {gossip_seed})",
                    workload.nodes
                );
                if banner != want {
                    return Err(format!("cluster banner `{banner}` does not match `{want}`"));
                }
                for i in 0..workload.nodes {
                    let line = next_line(&rx, started, |_| true)?;
                    service.addrs.push(check_node_line(&line, i)?);
                }
                let line = next_line(&rx, started, |_| true)?;
                if !line.starts_with("gossip converged") {
                    return Err(format!("cluster did not converge: `{line}`"));
                }
            }
        }
        service.setup = started.elapsed();
        Ok(service)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the service and waits until it has exited.
    pub fn stop(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(handle) = self.stdout.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.reap();
    }
}

fn next_line(
    rx: &Receiver<String>,
    started: Instant,
    wanted: impl Fn(&str) -> bool,
) -> Result<String, String> {
    loop {
        let left = READY_TIMEOUT.saturating_sub(started.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) if wanted(&line) => return Ok(line),
            Ok(_) => continue,
            Err(RecvTimeoutError::Timeout) => return Err("service banner timed out".into()),
            Err(RecvTimeoutError::Disconnected) => {
                return Err("service exited before it was ready".into())
            }
        }
    }
}

/// Parses `serving `rota` admission on ADDR — S shards, queue Q each,
/// T resource terms over N nodes` and checks every count.
fn check_serve_banner(
    banner: &str,
    shards: usize,
    workload: &Workload,
    terms: usize,
) -> Result<SocketAddr, String> {
    let bad = || format!("unrecognised serve banner `{banner}`");
    let rest = banner
        .strip_prefix("serving `rota` admission on ")
        .ok_or_else(bad)?;
    let (addr, counts) = rest.split_once(" — ").ok_or_else(bad)?;
    let want = format!(
        "{shards} shards, queue {QUEUE} each, {terms} resource terms over {} nodes",
        workload.nodes
    );
    if counts != want {
        return Err(format!(
            "serve banner says `{counts}`, workload needs `{want}`"
        ));
    }
    addr.parse().map_err(|_| bad())
}

/// Parses `  node{i} @ ADDR owns l{i}`.
fn check_node_line(line: &str, i: usize) -> Result<SocketAddr, String> {
    let bad = || format!("unrecognised cluster node line `{line}`");
    let rest = line
        .trim()
        .strip_prefix(&format!("node{i} @ "))
        .ok_or_else(bad)?;
    let (addr, owns) = rest.split_once(' ').ok_or_else(bad)?;
    if owns != format!("owns l{i}") {
        return Err(format!("node{i} should own exactly l{i}: `{line}`"));
    }
    addr.parse().map_err(|_| bad())
}

fn ping_until_ready(addr: SocketAddr, started: Instant) -> Result<(), String> {
    loop {
        if let Ok(mut client) = Client::connect_timeout(addr, Duration::from_secs(1)) {
            if client.ping().is_ok() {
                return Ok(());
            }
        }
        if started.elapsed() > READY_TIMEOUT {
            return Err(format!("server at {addr} never answered ping"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Counters read from every node over a persistent control connection.
/// Opening the connections once, before the timed window, keeps the
/// harness's own connects out of `server.connections.accepted` deltas.
pub struct Control {
    clients: Vec<Client>,
}

/// Sums of the service's counters over all nodes at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Controller accepts (`stats`).
    pub accepted: u64,
    /// Controller rejects (`stats`).
    pub rejected: u64,
    /// `server.shard.lint_rejects`.
    pub lint_rejects: u64,
    /// `server.shard.dedup_hits`.
    pub dedup_hits: u64,
    /// `server.overloaded`.
    pub overloaded: u64,
    /// `server.connections.accepted`.
    pub connections: u64,
    /// `cluster.gossip.exchanges` (each is one inbound gossip connect).
    pub gossip_exchanges: u64,
    /// `cluster.router.forwards`.
    pub forwards: u64,
    /// `cluster.router.unowned_rejects` plus `degraded_rejects`.
    pub router_rejects: u64,
    /// `cluster.twopc.started`.
    pub twopc_started: u64,
    /// `cluster.twopc.committed` (coordinator side).
    pub twopc_committed: u64,
    /// `cluster.twopc.rejected`.
    pub twopc_rejected: u64,
    /// `cluster.twopc.retries`.
    pub twopc_retries: u64,
    /// `server.twopc.committed` (participant side, one per holding
    /// node; each also counted one controller accept).
    pub participant_commits: u64,
    /// `server.request_ns` merged over shards and nodes.
    pub request_ns: Histogram,
}

/// A merged latency histogram: `(upper bound, count)` buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds and counts, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

impl Histogram {
    fn absorb(&mut self, doc: &Json) {
        let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        self.count += num("count");
        self.sum += num("sum");
        self.overflow += num("overflow");
        for bucket in doc.get("buckets").and_then(Json::as_array).unwrap_or(&[]) {
            let le = bucket.get("le").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let n = bucket.get("count").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            match self.buckets.iter_mut().find(|(b, _)| *b == le) {
                Some((_, c)) => *c += n,
                None => self.buckets.push((le, n)),
            }
        }
        self.buckets.sort_unstable();
    }

    /// `self − earlier`, bucket by bucket.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        Histogram {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, n)| {
                    let before = earlier
                        .buckets
                        .iter()
                        .find(|(b, _)| *b == le)
                        .map_or(0, |(_, c)| *c);
                    (le, n.saturating_sub(before))
                })
                .collect(),
            overflow: self.overflow.saturating_sub(earlier.overflow),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// The `q`-quantile, interpolated linearly inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut seen = 0.0;
        let mut lower = 0.0;
        for &(le, n) in &self.buckets {
            let n = n as f64;
            if n > 0.0 && seen + n >= rank {
                return lower + (le as f64 - lower) * ((rank - seen) / n);
            }
            seen += n;
            lower = le as f64;
        }
        lower
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Counters {
    /// Decisions the service's layers account for: controller verdicts,
    /// minus the per-participant accepts of committed 2PCs, plus one
    /// verdict per finished 2PC, plus lint and router rejects.
    pub fn accounted_decisions(&self) -> u64 {
        (self.accepted
            + self.rejected
            + self.twopc_committed
            + self.twopc_rejected
            + self.lint_rejects
            + self.router_rejects)
            .saturating_sub(self.participant_commits)
    }
}

impl Control {
    /// Opens one control connection per node.
    pub fn connect(addrs: &[SocketAddr]) -> Result<Control, String> {
        let clients = addrs
            .iter()
            .map(|addr| {
                Client::connect_timeout(*addr, Duration::from_secs(2))
                    .map_err(|e| format!("control connection to {addr}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Control { clients })
    }

    /// The control connection to node `i`.
    pub fn client(&mut self, i: usize) -> &mut Client {
        &mut self.clients[i]
    }

    /// Reads `stats` and `metrics` from every node and sums them.
    pub fn counters(&mut self) -> Result<Counters, String> {
        let mut total = Counters::default();
        for client in &mut self.clients {
            let (stats, _) = client.stats().map_err(|e| format!("stats: {e}"))?;
            total.accepted += stats.accepted;
            total.rejected += stats.rejected;
            let snapshot = client.metrics().map_err(|e| format!("metrics: {e}"))?;
            let Json::Obj(entries) = snapshot else {
                return Err("metrics snapshot is not an object".into());
            };
            for (name, metric) in &entries {
                let base = name.split('{').next().unwrap_or(name);
                if base == "server.request_ns" {
                    total.request_ns.absorb(metric);
                    continue;
                }
                let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                let slot = match base {
                    "server.shard.lint_rejects" => &mut total.lint_rejects,
                    "server.shard.dedup_hits" => &mut total.dedup_hits,
                    "server.overloaded" => &mut total.overloaded,
                    "server.connections.accepted" => &mut total.connections,
                    "cluster.gossip.exchanges" => &mut total.gossip_exchanges,
                    "cluster.router.forwards" => &mut total.forwards,
                    "cluster.router.unowned_rejects" | "cluster.router.degraded_rejects" => {
                        &mut total.router_rejects
                    }
                    "cluster.twopc.started" => &mut total.twopc_started,
                    "cluster.twopc.committed" => &mut total.twopc_committed,
                    "cluster.twopc.rejected" => &mut total.twopc_rejected,
                    "cluster.twopc.retries" => &mut total.twopc_retries,
                    "server.twopc.committed" => &mut total.participant_commits,
                    _ => continue,
                };
                *slot += value;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_small() -> Workload {
        Workload::by_name("mixed-small").expect("workload exists")
    }

    #[test]
    fn serve_banner_must_match_the_workload() {
        let w = mixed_small();
        let terms = base_resources(&w.config(1)).term_count();
        let banner = format!(
            "serving `rota` admission on 127.0.0.1:4000 — 4 shards, queue 64 each, \
             {terms} resource terms over 4 nodes"
        );
        assert_eq!(
            check_serve_banner(&banner, 4, &w, terms),
            Ok("127.0.0.1:4000".parse().expect("address"))
        );
        // A mistyped shard flag leaves the server on its default.
        let wrong = banner.replace("4 shards", "1 shards");
        assert!(check_serve_banner(&wrong, 4, &w, terms).is_err());
        let wrong = banner.replace(&format!("{terms} resource"), "3 resource");
        assert!(check_serve_banner(&wrong, 4, &w, terms).is_err());
    }

    #[test]
    fn node_lines_must_name_the_owned_location() {
        assert!(check_node_line("  node1 @ 127.0.0.1:5001 owns l1", 1).is_ok());
        assert!(check_node_line("  node1 @ 127.0.0.1:5001 owns l2", 1).is_err());
        assert!(check_node_line("  node2 @ 127.0.0.1:5001 owns l1", 1).is_err());
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let h = Histogram {
            buckets: vec![(1_000, 0), (4_000, 10), (16_000, 10)],
            overflow: 0,
            count: 20,
            sum: 100_000,
        };
        assert_eq!(h.quantile(0.5), 4_000.0);
        assert_eq!(h.quantile(0.25), 2_500.0);
        let earlier = Histogram {
            buckets: vec![(1_000, 0), (4_000, 10), (16_000, 0)],
            overflow: 0,
            count: 10,
            sum: 20_000,
        };
        let window = h.since(&earlier);
        assert_eq!(window.count, 10);
        assert_eq!(window.quantile(0.5), 10_000.0);
        assert_eq!(window.mean(), 8_000.0);
    }
}
