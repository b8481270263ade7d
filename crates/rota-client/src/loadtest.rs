//! Multi-connection load-test harness for rota-server.
//!
//! Pre-generates a batch of [`rota_workload`] computations, fans them
//! out over `connections` concurrent client connections, and reports
//! throughput, latency percentiles, and the accept / reject /
//! overloaded split. Overloaded answers are the server's explicit
//! backpressure — the harness counts them instead of retrying, so a
//! saturated server is visible in the report rather than smoothed over.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use rota_actor::Granularity;
use rota_server::protocol::{Request, Response};
use rota_server::spec::{computation_to_json, ComputationSpec};
use rota_workload::{generate_job, WorkloadConfig};

use crate::resilient::{HedgeConfig, ResilientClient, RetryConfig};
use crate::{Client, ClientError};

/// What to throw at the server.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Cluster mode: when non-empty, this is the full node address
    /// list and connections are spread over it round-robin
    /// (connection `i` dials `cluster[i % cluster.len()]`); `addr` is
    /// ignored. Empty (the default) drives the single server at
    /// `addr`.
    pub cluster: Vec<SocketAddr>,
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
    /// Retry/backoff for each connection; `None` submits each job once
    /// and counts failures, which keeps saturation visible.
    pub retry: Option<RetryConfig>,
    /// Hedged requests (requires `retry`).
    pub hedge: Option<HedgeConfig>,
}

impl LoadtestConfig {
    /// A small default battery against `addr`: 4 connections, 200 jobs.
    pub fn new(addr: SocketAddr) -> Self {
        LoadtestConfig {
            addr,
            cluster: Vec::new(),
            connections: 4,
            jobs: 200,
            workload: WorkloadConfig::new(7),
            granularity: Granularity::MaximalRun,
            deterministic: false,
            retry: None,
            hedge: None,
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
    /// Retries performed by the resilience layer (0 without `retry`).
    pub retries: u64,
    /// Hedge attempts fired by the resilience layer.
    pub hedges: u64,
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
        if self.retries > 0 || self.hedges > 0 {
            out.push_str(&format!(
                "  resilience   retries={} hedges={}\n",
                self.retries, self.hedges
            ));
        }
        if let Some(err) = &self.first_error {
            out.push_str(&format!("  first error  {err}\n"));
        }
        out
    }
}

/// Runs a load test against a live server.
///
/// Fails only if the batch cannot be prepared; per-request failures are
/// tallied as `errors` in the report instead of aborting the run.
pub fn run_loadtest(config: &LoadtestConfig) -> Result<LoadtestReport, ClientError> {
    let jobs = prepare_jobs(config)?;
    let total = jobs.len();
    let shared = Arc::new(jobs);
    let cursor = Arc::new(AtomicUsize::new(0));
    let connections = config.connections.max(1);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for connection in 0..connections {
        let shared = Arc::clone(&shared);
        let cursor = Arc::clone(&cursor);
        let addr = if config.cluster.is_empty() {
            config.addr
        } else {
            config.cluster[connection % config.cluster.len()]
        };
        let schedule = if config.deterministic {
            Schedule::Fixed(partition(total, connections, connection))
        } else {
            Schedule::Shared(cursor)
        };
        // Each connection gets its own jitter stream so same-seed runs
        // replay the exact same retry schedule per connection.
        let resilience = config.retry.as_ref().map(|retry| {
            (
                RetryConfig {
                    seed: retry.seed.wrapping_add(connection as u64),
                    ..retry.clone()
                },
                config.hedge.clone(),
            )
        });
        handles.push(std::thread::spawn(move || {
            worker(addr, &shared, schedule, resilience)
        }));
    }
    let mut outcomes = Vec::with_capacity(total);
    let mut retries = 0u64;
    let mut hedges = 0u64;
    for handle in handles {
        // PANIC-OK: a worker panic is a harness bug; crash loudly
        // rather than report a partial, silently-wrong load test.
        let (samples, stats) = handle.join().expect("loadtest worker panicked");
        outcomes.extend(samples);
        retries += stats.retries;
        hedges += stats.hedges;
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
        retries,
        hedges,
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
pub fn request_schedule(config: &LoadtestConfig) -> Result<Vec<Vec<String>>, ClientError> {
    let jobs = prepare_jobs(config)?;
    let connections = config.connections.max(1);
    Ok((0..connections)
        .map(|c| {
            partition(jobs.len(), connections, c)
                .into_iter()
                .map(|i| jobs[i].0.name.clone())
                .collect()
        })
        .collect())
}

/// Draws the batch of computations and pre-encodes them as wire specs,
/// so generation cost stays out of the measured window.
fn prepare_jobs(
    config: &LoadtestConfig,
) -> Result<Vec<(ComputationSpec, Granularity)>, ClientError> {
    let mut rng = StdRng::seed_from_u64(config.workload.seed);
    let horizon = config.workload.horizon.max(4);
    let mut jobs = Vec::with_capacity(config.jobs);
    for i in 0..config.jobs {
        // Spread arrivals over the front of the horizon so generated
        // deadlines stay inside it.
        let arrival = rng.gen_range(0..horizon / 2);
        let computation = generate_job(&config.workload, &mut rng, &format!("lt{i}"), arrival);
        let spec = ComputationSpec::from_json(&computation_to_json(&computation))?;
        jobs.push((spec, config.granularity));
    }
    Ok(jobs)
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
            Some(format!("unexpected response: {:?}", other.to_json())),
        ),
        Err(err) => (Outcome::Error, 0, Some(err.to_string())),
    }
}

/// How a worker picks its next job: racing a shared cursor (fast,
/// nondeterministic interleaving) or walking a fixed index list
/// (deterministic mode).
enum Schedule {
    Shared(Arc<AtomicUsize>),
    Fixed(Vec<usize>),
}

impl Schedule {
    fn next(&mut self, total: usize) -> Option<usize> {
        match self {
            Schedule::Shared(cursor) => {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                (index < total).then_some(index)
            }
            Schedule::Fixed(indices) => {
                if indices.is_empty() {
                    None
                } else {
                    Some(indices.remove(0))
                }
            }
        }
    }
}

fn worker(
    addr: SocketAddr,
    jobs: &[(ComputationSpec, Granularity)],
    mut schedule: Schedule,
    resilience: Option<(RetryConfig, Option<HedgeConfig>)>,
) -> (Vec<Sample>, crate::resilient::ResilienceStats) {
    match resilience {
        Some((retry, hedge)) => {
            let mut client = ResilientClient::new(addr, retry);
            if let Some(hedge) = hedge {
                client = client.with_hedging(hedge);
            }
            let mut samples = Vec::new();
            while let Some(index) = schedule.next(jobs.len()) {
                let (spec, granularity) = &jobs[index];
                let start = Instant::now();
                samples.push(classify(client.admit(spec.clone(), *granularity), start));
            }
            (samples, client.stats())
        }
        None => (
            raw_worker(addr, jobs, &mut schedule),
            crate::resilient::ResilienceStats::default(),
        ),
    }
}

/// The original single-shot path: one connection, no retries, failures
/// tallied so saturation stays visible in the report.
fn raw_worker(
    addr: SocketAddr,
    jobs: &[(ComputationSpec, Granularity)],
    schedule: &mut Schedule,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut client = match Client::connect_timeout(addr, Duration::from_secs(5)) {
        Ok(client) => client,
        Err(err) => {
            // Connection refused: drain our share of the work as errors
            // so the report still accounts for every job.
            let mut first = Some(err.to_string());
            while schedule.next(jobs.len()).is_some() {
                samples.push((Outcome::Error, 0, first.take()));
            }
            return samples;
        }
    };
    while let Some(index) = schedule.next(jobs.len()) {
        let (spec, granularity) = &jobs[index];
        let request = Request::Admit {
            computation: spec.clone(),
            granularity: *granularity,
            forwarded: false,
        };
        let start = Instant::now();
        let answer = client.call(&request);
        let failed = answer.is_err();
        samples.push(classify(answer, start));
        if failed {
            // The connection may be dead; try to re-establish once
            // per failure so one hiccup doesn't doom the worker.
            match Client::connect_timeout(addr, Duration::from_secs(5)) {
                Ok(fresh) => client = fresh,
                Err(_) => {
                    let mut first = None;
                    while schedule.next(jobs.len()).is_some() {
                        samples.push((Outcome::Error, 0, first.take()));
                    }
                    break;
                }
            }
        }
    }
    samples
}
