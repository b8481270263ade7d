//! Multi-connection load-test harness for rota-server.
//!
//! Pre-generates a batch of [`rota_workload`] computations, fans them
//! out over `connections` concurrent [`ResilientClient`]s, and reports
//! throughput, latency percentiles, and the accept / reject /
//! overloaded split. Overloaded answers are the server's explicit
//! backpressure — by default ([`LoadtestConfig::new`]) each job gets
//! one attempt, so they are counted instead of retried and a saturated
//! server is visible in the report rather than smoothed over.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use rota_actor::Granularity;
use rota_server::protocol::Response;
use rota_server::spec::ComputationSpec;
use rota_workload::{generate_job, WorkloadConfig};

use crate::resilient::{ResilienceStats, ResilientClient, RetryConfig};
use crate::ClientError;

/// What to throw at the server.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Target addresses: one server, or every node of a cluster.
    /// Connection `i` starts at `addrs[i % addrs.len()]` and fails over
    /// along the list on transport errors.
    pub addrs: Vec<SocketAddr>,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total jobs submitted across all connections.
    pub jobs: usize,
    /// Workload generator knobs (shape, nodes, slack, seed, …).
    pub workload: WorkloadConfig,
    /// Pricing granularity sent with each admit.
    pub granularity: Granularity,
    /// Deterministic mode: statically partition jobs round-robin over
    /// connections instead of racing a shared cursor, so the request
    /// schedule is a pure function of the config (see
    /// [`request_schedule`]).
    pub deterministic: bool,
    /// Retry/backoff for each connection's [`ResilientClient`] (its
    /// seed is offset by the connection index).
    pub retry: RetryConfig,
}

impl LoadtestConfig {
    /// A small default battery against `addr`: 4 connections, 200 jobs,
    /// one attempt per job — failures and `overloaded` answers are
    /// tallied, not retried, which keeps saturation visible.
    pub fn new(addr: SocketAddr) -> Self {
        LoadtestConfig {
            addrs: vec![addr],
            connections: 4,
            jobs: 200,
            workload: WorkloadConfig::new(7),
            granularity: Granularity::MaximalRun,
            deterministic: false,
            retry: RetryConfig {
                max_attempts: 1,
                ..RetryConfig::default()
            },
        }
    }
}

/// One submitted job's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Accepted,
    Rejected,
    Overloaded,
    Error,
}

/// Aggregated results of one load-test run.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs the server admitted.
    pub accepted: usize,
    /// Jobs the server refused (policy said no).
    pub rejected: usize,
    /// Jobs bounced with explicit backpressure (`overloaded`).
    pub overloaded: usize,
    /// Jobs that failed at the transport or protocol layer.
    pub errors: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-request round-trip latencies in nanoseconds, sorted.
    pub latencies_ns: Vec<u64>,
    /// First transport/protocol error observed, for diagnostics.
    pub first_error: Option<String>,
    /// Retries performed by the resilience layer (0 with one attempt).
    pub retries: u64,
    /// Moves to the next address after a transport failure.
    pub failovers: u64,
}

impl LoadtestReport {
    /// Completed requests per second (decisions + backpressure answers).
    pub fn throughput_rps(&self) -> f64 {
        let answered = (self.jobs - self.errors) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            answered / secs
        } else {
            0.0
        }
    }

    /// Latency at percentile `p` in `[0, 100]`, nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let rank = (p / 100.0 * (self.latencies_ns.len() - 1) as f64).round() as usize;
        self.latencies_ns[rank.min(self.latencies_ns.len() - 1)]
    }

    /// Fraction of *decided* jobs (accept + reject) that were accepted.
    pub fn acceptance_rate(&self) -> f64 {
        let decided = self.accepted + self.rejected;
        if decided > 0 {
            self.accepted as f64 / decided as f64
        } else {
            0.0
        }
    }

    /// Human-readable multi-line summary.
    pub fn render(&self, policy: &str) -> String {
        let us = |ns: u64| ns as f64 / 1_000.0;
        let mut out = String::new();
        out.push_str(&format!("loadtest: policy={policy} jobs={}\n", self.jobs));
        out.push_str(&format!(
            "  outcomes     accepted={} rejected={} overloaded={} errors={}\n",
            self.accepted, self.rejected, self.overloaded, self.errors
        ));
        out.push_str(&format!(
            "  acceptance   {:.1}% of decided\n",
            self.acceptance_rate() * 100.0
        ));
        out.push_str(&format!(
            "  throughput   {:.0} req/s over {:.2}s\n",
            self.throughput_rps(),
            self.elapsed.as_secs_f64()
        ));
        out.push_str(&format!(
            "  latency      p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us\n",
            us(self.percentile_ns(50.0)),
            us(self.percentile_ns(90.0)),
            us(self.percentile_ns(99.0)),
            us(self.latencies_ns.last().copied().unwrap_or(0)),
        ));
        if self.retries > 0 || self.failovers > 0 {
            out.push_str(&format!("  resilience   retries={}", self.retries));
            if self.failovers > 0 {
                out.push_str(&format!(" failovers={}", self.failovers));
            }
            out.push('\n');
        }
        if let Some(err) = &self.first_error {
            out.push_str(&format!("  first error  {err}\n"));
        }
        out
    }
}

/// Runs a load test against a live server or cluster.
///
/// Fails only on an empty address list; per-request failures are
/// tallied as `errors` in the report instead of aborting the run.
pub fn run_loadtest(config: &LoadtestConfig) -> Result<LoadtestReport, ClientError> {
    let jobs = prepare_jobs(config);
    let total = jobs.len();
    let shared = Arc::new(jobs);
    let cursor = Arc::new(AtomicUsize::new(0));
    let connections = config.connections.max(1);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for connection in 0..connections {
        let mut addrs = config.addrs.clone();
        addrs.rotate_left(connection % config.addrs.len().max(1));
        // Each connection gets its own jitter stream so same-seed runs
        // replay the exact same retry schedule per connection.
        let retry = RetryConfig {
            seed: config.retry.seed.wrapping_add(connection as u64),
            ..config.retry.clone()
        };
        let client = ResilientClient::new(addrs, retry)?;
        let shared = Arc::clone(&shared);
        let schedule = if config.deterministic {
            Schedule::Fixed(partition(total, connections, connection).into_iter())
        } else {
            Schedule::Shared(Arc::clone(&cursor))
        };
        let granularity = config.granularity;
        handles.push(std::thread::spawn(move || {
            worker(client, &shared, granularity, schedule)
        }));
    }
    let mut outcomes = Vec::with_capacity(total);
    let mut stats = ResilienceStats::default();
    for handle in handles {
        // PANIC-OK: a worker panic is a harness bug; crash loudly
        // rather than report a partial, silently-wrong load test.
        let (samples, worker_stats) = handle.join().expect("loadtest worker panicked");
        outcomes.extend(samples);
        stats.retries += worker_stats.retries;
        stats.failovers += worker_stats.failovers;
    }
    let elapsed = started.elapsed();

    let mut report = LoadtestReport {
        jobs: total,
        accepted: 0,
        rejected: 0,
        overloaded: 0,
        errors: 0,
        elapsed,
        latencies_ns: Vec::with_capacity(outcomes.len()),
        first_error: None,
        retries: stats.retries,
        failovers: stats.failovers,
    };
    for (outcome, ns, err) in outcomes {
        match outcome {
            Outcome::Accepted => report.accepted += 1,
            Outcome::Rejected => report.rejected += 1,
            Outcome::Overloaded => report.overloaded += 1,
            Outcome::Error => {
                report.errors += 1;
                if report.first_error.is_none() {
                    report.first_error = err;
                }
                continue;
            }
        }
        report.latencies_ns.push(ns);
    }
    report.latencies_ns.sort_unstable();
    Ok(report)
}

/// The job indices connection `index` submits, in order, under the
/// deterministic round-robin partition.
fn partition(total: usize, connections: usize, index: usize) -> Vec<usize> {
    (index..total).step_by(connections.max(1)).collect()
}

/// The full request schedule of a deterministic run: for each
/// connection, the names of the jobs it will submit, in submission
/// order. A pure function of the config — two calls with equal configs
/// return equal schedules, which is what the `--seed` regression test
/// pins down.
pub fn request_schedule(config: &LoadtestConfig) -> Vec<Vec<String>> {
    let jobs = prepare_jobs(config);
    let connections = config.connections.max(1);
    (0..connections)
        .map(|c| {
            partition(jobs.len(), connections, c)
                .into_iter()
                .map(|i| jobs[i].name.clone())
                .collect()
        })
        .collect()
}

/// Draws the batch of computations and pre-encodes them as wire specs,
/// so generation cost stays out of the measured window.
fn prepare_jobs(config: &LoadtestConfig) -> Vec<ComputationSpec> {
    let mut rng = StdRng::seed_from_u64(config.workload.seed);
    let horizon = config.workload.horizon.max(4);
    let mut jobs = Vec::with_capacity(config.jobs);
    for i in 0..config.jobs {
        // Spread arrivals over the front of the horizon so generated
        // deadlines stay inside it.
        let arrival = rng.gen_range(0..horizon / 2);
        let computation = generate_job(&config.workload, &mut rng, &format!("lt{i}"), arrival);
        jobs.push(ComputationSpec::from(&computation));
    }
    jobs
}

type Sample = (Outcome, u64, Option<String>);

/// Turns one admit answer into a sample: decisions and `overloaded`
/// answers carry their latency since `start`; anything else is an error
/// with no latency and a note saying what came back.
fn classify(answer: Result<Response, ClientError>, start: Instant) -> Sample {
    let ns = || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match answer {
        Ok(Response::Decision { accepted: true, .. }) => (Outcome::Accepted, ns(), None),
        Ok(Response::Decision { .. }) => (Outcome::Rejected, ns(), None),
        Ok(Response::Overloaded { .. }) => (Outcome::Overloaded, ns(), None),
        Ok(other) => (
            Outcome::Error,
            0,
            Some(format!(
                "unexpected response: {}",
                crate::frame_text(&other)
            )),
        ),
        Err(err) => (Outcome::Error, 0, Some(err.to_string())),
    }
}

/// How a worker picks its next job: racing a shared cursor (fast,
/// nondeterministic interleaving) or walking a fixed index list
/// (deterministic mode).
enum Schedule {
    Shared(Arc<AtomicUsize>),
    Fixed(std::vec::IntoIter<usize>),
}

impl Schedule {
    fn next(&mut self, total: usize) -> Option<usize> {
        match self {
            Schedule::Shared(cursor) => {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                (index < total).then_some(index)
            }
            Schedule::Fixed(indices) => indices.next(),
        }
    }
}

fn worker(
    mut client: ResilientClient,
    jobs: &[ComputationSpec],
    granularity: Granularity,
    mut schedule: Schedule,
) -> (Vec<Sample>, ResilienceStats) {
    let mut samples = Vec::new();
    while let Some(index) = schedule.next(jobs.len()) {
        let start = Instant::now();
        samples.push(classify(
            client.admit(jobs[index].clone(), granularity),
            start,
        ));
    }
    (samples, client.stats())
}
