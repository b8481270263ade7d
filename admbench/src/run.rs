//! One benchmark run: cold starts for set-up time, the one-connection
//! oracle pass, and a fixed number of fixed-size timed rounds on fresh
//! services; with tracing, untraced and traced rounds in pairs plus the
//! in-process replay.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rota_actor::TableCostModel;
use rota_admission::{AdmissionController, AdmissionRequest, RotaPolicy};
use rota_interval::TimePoint;
use rota_server::protocol::{Request, Response};
use rota_server::spec::resources_from_json;
use rota_workload::base_resources;

use crate::drive::{Generator, Outcome, Sample};
use crate::proc;
use crate::replay::{self, Metric, Recorder};
use crate::service::{Control, Counters, Service};
use crate::stats::{median, percentile, ratio};
use crate::workload::{jobs, Job, Phase, Route, Workload, CONNECTIONS, GRANULARITY};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// The `rota-cli` binary.
    pub cli: PathBuf,
}

/// Where a traced run writes its spans, relative to the working
/// directory.
pub const SPANS_DIR: &str = ".bench_out";

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Admits sent, over every phase.
    pub attempted: u64,
    /// Admits that got no decision.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<Metric>,
    /// Ungated diagnostics, `(name, value)`.
    pub record: Vec<(String, f64)>,
    /// Output-check failures.
    pub problems: Vec<String>,
    /// The first admit that got no decision, for the diagnostics line.
    pub first_failure: Option<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn note(&mut self, name: &str, value: f64) {
        self.record.push((name.to_string(), value));
    }

    fn tally(&mut self, samples: &[Sample]) {
        self.attempted += samples.len() as u64;
        for s in samples {
            if !s.outcome.decided() {
                self.failed += 1;
                if self.first_failure.is_none() {
                    self.first_failure = Some(format!("{:?}", s.outcome));
                }
            }
        }
    }
}

/// Snapshot/prepare probes per traced run.
const PROBES: usize = 200;

/// A run stops starting rounds after this many times `--seconds`, so a
/// service (or machine) that became very slow still finishes in time.
const SLOWDOWN_CAP: u32 = 4;

/// Runs the benchmark as `options` say.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    report.note("time_wait_at_start", proc::time_wait_sockets() as f64);
    if options.trace {
        traced(options, &mut report)?;
    } else {
        untraced(options, &mut report)?;
    }
    report.correct = report.problems.is_empty();
    Ok(report)
}

/// What one timed round measured.
struct Round {
    /// The round's inputs, generated before its service started.
    warmup: Vec<Job>,
    timed: Vec<Job>,
    setup: Duration,
    warmup_p50_us: f64,
    /// Warm-up admits and how many were accepted.
    warmup_admits: usize,
    warmup_accepted: usize,
    samples: Vec<Sample>,
    window: Duration,
    cpu_ticks: u64,
    steal_ticks: u64,
    peak_rss_kb: u64,
    /// Counters just before and just after the timed window.
    before: Counters,
    after: Counters,
}

impl Round {
    fn latencies_us(&self) -> Vec<f64> {
        answered_us(&self.samples)
    }

    /// Steal ticks per second of the timed window.
    fn steal_rate(&self) -> f64 {
        self.steal_ticks as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

fn answered_us(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| !matches!(s.outcome, Outcome::Error(_)))
        .map(|s| s.ns as f64 / 1e3)
        .collect()
}

fn untraced(options: &Options, report: &mut Report) -> Result<(), String> {
    let w = &options.workload;
    let mut setups = Vec::new();
    for _ in 0..w.extra_cold_starts {
        let service = Service::spawn(&options.cli, w, options.seed)?;
        setups.push(service.setup.as_secs_f64());
        service.stop();
    }
    let oracle = jobs(w, options.seed, Phase::Oracle, 0, w.oracle_jobs);
    let (matches, compared) = oracle_pass(options, &oracle, report, &mut setups)?;

    let started = Instant::now();
    let cap = Duration::from_secs(options.seconds) * SLOWDOWN_CAP;
    // The first round after the cold starts and the oracle pass runs
    // consistently slow, so one settling round goes first, unreported.
    let settle = timed_round(options, 0, false, report)?;
    setups.push(settle.setup.as_secs_f64());
    let mut rounds = Vec::new();
    while rounds.len() < w.rounds(options.seconds) && (rounds.len() < 2 || started.elapsed() < cap)
    {
        let round = timed_round(options, rounds.len(), false, report)?;
        setups.push(round.setup.as_secs_f64());
        rounds.push(round);
    }
    let steal_ticks: u64 = rounds.iter().map(|r| r.steal_ticks).sum();
    let made = rounds.len();
    for (i, r) in rounds.iter().enumerate() {
        report.note(
            &format!("round{i}.p50_us"),
            percentile(&r.latencies_us(), 50.0),
        );
        report.note(&format!("round{i}.steal"), r.steal_ticks as f64);
    }
    // Acceptance and verdicts do not depend on the machine's speed, so
    // they count every round made. Acceptance is over each fresh
    // service's whole fixed sequence, warm-up included: on `mixed-small`
    // the pool fills during warm-up.
    let samples: Vec<&Sample> = rounds.iter().flat_map(|r| &r.samples).collect();
    let rounds_resubmits: f64 = rounds.iter().map(|r| resubmits(&r.samples)).sum();
    let attempted = samples.len() as f64;
    let decided = samples.iter().filter(|s| s.outcome.decided()).count() as f64;
    let timed_accepted = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Accepted)
        .count();
    let accepted = timed_accepted + rounds.iter().map(|r| r.warmup_accepted).sum::<usize>();
    let sequence = attempted + rounds.iter().map(|r| r.warmup_admits).sum::<usize>() as f64;
    let delta = |f: fn(&Counters) -> u64| -> f64 {
        rounds
            .iter()
            .map(|r| f(&r.after).saturating_sub(f(&r.before)))
            .sum::<u64>() as f64
            / made as f64
    };
    let twopc = [
        delta(|c| c.twopc_started),
        delta(|c| c.twopc_committed),
        delta(|c| c.twopc_retries),
    ];

    // A round the hypervisor stole from measured the machine, not the
    // service. Every round is one sample of the same quantity, so the
    // time and memory figures come from the calmer half: the rounds
    // with the least steal per second of their timed window, ties
    // included, so that every round counts when none lost time to
    // steal. The median over them keeps a burst of machine noise out of
    // the result.
    rounds.sort_by(|a, b| a.steal_rate().total_cmp(&b.steal_rate()));
    let calm = rounds[made.div_ceil(2).max(2) - 1].steal_rate();
    rounds.retain(|r| r.steal_rate() <= calm);
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());

    report.metric(
        "admit_p50_us",
        per_round(&|r| percentile(&r.latencies_us(), 50.0)),
        "us",
    );
    // The p99 is recorded but not gated: hypervisor stalls land in the
    // top percent first, and its spread between runs exceeds any bound
    // the benchmark may set (see README). The p90 is the gated tail.
    report.metric(
        "admit_p90_us",
        per_round(&|r| percentile(&r.latencies_us(), 90.0)),
        "us",
    );
    report.metric(
        "throughput_rps",
        per_round(&|r| r.latencies_us().len() as f64 / r.window.as_secs_f64()),
        "1/s",
    );
    report.metric(
        "cpu_us_per_admit",
        per_round(&|r| {
            r.cpu_ticks as f64 / proc::CLOCK_TICKS_PER_SEC * 1e6 / r.samples.len().max(1) as f64
        }),
        "us",
    );
    report.metric("accept_ratio", ratio(accepted as f64, sequence), "ratio");
    report.metric("verdict_ratio", ratio(decided, attempted), "ratio");
    report.metric(
        "oracle_match_ratio",
        ratio(matches as f64, compared as f64),
        "ratio",
    );
    report.metric(
        "peak_rss_mb",
        per_round(&|r| r.peak_rss_kb as f64 / 1024.0),
        "MB",
    );
    report.metric("setup_s", median(&setups), "s");

    report.note("rounds_made", made as f64);
    report.note("rounds_reported", rounds.len() as f64);
    report.note("timed_admits", attempted);
    report.note("cold_starts", setups.len() as f64);
    report.note("steal_ticks", steal_ticks as f64);
    let warmup: Vec<f64> = rounds.iter().map(|r| r.warmup_p50_us).collect();
    report.note("warmup_p50_us", median(&warmup));
    report.note(
        "timed_p50_us",
        per_round(&|r| percentile(&r.latencies_us(), 50.0)),
    );
    report.note(
        "admit_p99_us",
        per_round(&|r| percentile(&r.latencies_us(), 99.0)),
    );
    report.note("oracle_mismatches", (compared - matches) as f64);
    report.note("accepted_per_round", accepted as f64 / made as f64);
    report.note(
        "timed_accepted_per_round",
        timed_accepted as f64 / made as f64,
    );
    report.note("timed_twopc_started_per_round", twopc[0]);
    report.note("timed_twopc_committed_per_round", twopc[1]);
    report.note("timed_twopc_retries_per_round", twopc[2]);
    report.note("timed_undecided", attempted - decided);
    report.note("timed_resubmits", rounds_resubmits);
    Ok(())
}

/// Starts a fresh service, warms it, runs the fixed timed job sequence
/// of round `index` and checks the service's own accounting against the
/// client's.
fn timed_round(
    options: &Options,
    index: usize,
    keep_responses: bool,
    report: &mut Report,
) -> Result<Round, String> {
    let w = &options.workload;
    let warmup = jobs(w, options.seed, Phase::Warmup, index, w.warmup_jobs);
    let timed = jobs(w, options.seed, Phase::Timed, index, w.timed_jobs);
    let service = Service::spawn(&options.cli, w, options.seed)?;
    let pid = service.pid();
    let mut control = Control::connect(&service.addrs)?;
    let mut generator = Generator::connect(&service.addrs, CONNECTIONS)?;
    let warm = generator.run_serial(&warmup);
    let before = control.counters()?;
    let cpu0 = proc::cpu_ticks(pid).ok_or("cannot read service CPU time")?;
    let steal0 = proc::steal_ticks();
    let (samples, window) = generator.run(&timed, keep_responses);
    let cpu1 = proc::cpu_ticks(pid).ok_or("cannot read service CPU time")?;
    let steal1 = proc::steal_ticks();
    let after = control.counters()?;
    let peak_rss_kb = proc::peak_rss_kb(pid).ok_or("cannot read service VmHWM")?;
    report.problems.extend(check_service(
        w.is_cluster(),
        &[(&warmup, &warm), (&timed, &samples)],
        &after,
        service.addrs.len(),
    ));
    report.tally(&warm);
    report.tally(&samples);
    let round = Round {
        warmup,
        timed,
        setup: service.setup,
        warmup_p50_us: percentile(&answered_us(&warm), 50.0),
        warmup_admits: warm.len(),
        warmup_accepted: warm
            .iter()
            .filter(|s| s.outcome == Outcome::Accepted)
            .count(),
        samples,
        window,
        cpu_ticks: cpu1.saturating_sub(cpu0),
        steal_ticks: steal1.saturating_sub(steal0),
        peak_rss_kb,
        before,
        after,
    };
    drop(control);
    drop(generator);
    service.stop();
    Ok(round)
}

/// The node a sample's connection talks to: connection `c` dials node
/// `c mod nodes`.
fn node_of(sample: &Sample, nodes: usize) -> usize {
    sample.connection % nodes.max(1)
}

/// How many admits the routers handled on each cluster route, given
/// the node each job was sent to; a resubmitted job takes its route
/// once per send.
pub fn route_counts(phases: &[(&[Job], &[Sample])], nodes: usize) -> BTreeMap<Route, u64> {
    let mut routes = BTreeMap::new();
    for (jobs, samples) in phases {
        for s in *samples {
            *routes
                .entry(Route::classify(&jobs[s.job].owners, node_of(s, nodes)))
                .or_default() += 1 + u64::from(s.resubmits);
        }
    }
    routes
}

fn resubmits(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| f64::from(s.resubmits)).sum()
}

/// The output checks every service instance must pass, returning what
/// failed: every decision names the job it answers, the service's
/// layers account for every decision the client saw, nothing was
/// replayed from the decision cache, and (for a cluster of `nodes`)
/// the routers forwarded and two-phase committed exactly the jobs the
/// route classifier predicts. `counters` are read after all `phases`.
pub fn check_service(
    cluster: bool,
    phases: &[(&[Job], &[Sample])],
    counters: &Counters,
    nodes: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut decided = 0u64;
    for (jobs, samples) in phases {
        for s in *samples {
            if let Outcome::WrongName(name) = &s.outcome {
                problems.push(format!("`{}` was answered for `{name}`", jobs[s.job].name));
            }
            decided += u64::from(s.outcome.decided());
        }
    }
    let accounted = counters.accounted_decisions();
    if decided != accounted {
        problems.push(format!(
            "client saw {decided} decisions, the service accounts for {accounted} \
             ({counters:?})"
        ));
    }
    if counters.dedup_hits != 0 {
        problems.push(format!(
            "{} admits were replayed from the decision cache",
            counters.dedup_hits
        ));
    }
    if cluster {
        let routes = route_counts(phases, nodes);
        let forwards = routes.get(&Route::Forward).copied().unwrap_or(0);
        let twopc = routes.get(&Route::TwoPhase).copied().unwrap_or(0);
        if forwards != counters.forwards || twopc != counters.twopc_started {
            problems.push(format!(
                "route classifier predicts {forwards} forwards and {twopc} 2PCs, the \
                 routers counted {} and {}",
                counters.forwards, counters.twopc_started
            ));
        }
    }
    problems
}

/// Submits the oracle jobs over one connection to a fresh service, so
/// their order is fixed, and compares every verdict with one
/// merged-state controller fed the same jobs in the same order.
/// Returns `(matches, compared)`.
fn oracle_pass(
    options: &Options,
    oracle: &[Job],
    report: &mut Report,
    setups: &mut Vec<f64>,
) -> Result<(usize, usize), String> {
    let w = &options.workload;
    let service = Service::spawn(&options.cli, w, options.seed)?;
    setups.push(service.setup.as_secs_f64());
    let mut control = Control::connect(&service.addrs)?;
    let mut generator = Generator::connect(&service.addrs[..1], 1)?;
    let (samples, _) = generator.run(oracle, false);
    let counters = control.counters()?;
    report.problems.extend(check_service(
        w.is_cluster(),
        &[(oracle, &samples)],
        &counters,
        1,
    ));
    report.tally(&samples);
    drop(control);
    drop(generator);
    service.stop();

    let mut merged = AdmissionController::new(
        RotaPolicy,
        base_resources(&w.config(options.seed)),
        TimePoint::ZERO,
    );
    let cost = TableCostModel::paper();
    let matches = oracle
        .iter()
        .zip(&samples)
        .filter(|(job, sample)| {
            let priced = AdmissionRequest::price(job.computation.clone(), &cost, GRANULARITY);
            let accepted = merged.submit(&priced).is_accept();
            match sample.outcome {
                Outcome::Accepted => accepted,
                Outcome::Rejected => !accepted,
                _ => false,
            }
        })
        .count();
    Ok((matches, samples.len()))
}

/// The per-layer figures one traced round yields from the service's
/// counters and the client's route-split round trips.
fn network_layers(w: &Workload, round: &Round) -> Vec<Metric> {
    let attempted = round.samples.len() as f64;
    let client_p50 = percentile(&round.latencies_us(), 50.0);
    let delta = |f: fn(&Counters) -> u64| f(&round.after).saturating_sub(f(&round.before)) as f64;
    let server = round.after.request_ns.since(&round.before.request_ns);
    let server_p50 = server.quantile(0.5) / 1e3;
    let mut out = vec![
        ("server.request_p50_us".to_string(), server_p50, "us"),
        (
            "server.request_mean_us".to_string(),
            server.mean() / 1e3,
            "us",
        ),
        (
            "server.outside_us".to_string(),
            client_p50 - server_p50,
            "us",
        ),
        (
            "server.outside_mean_us".to_string(),
            mean(&round.latencies_us()) - server.mean() / 1e3,
            "us",
        ),
        (
            "server.overloaded_ratio".to_string(),
            ratio(delta(|c| c.overloaded), attempted),
            "ratio",
        ),
        (
            "analyze.lint_reject_ratio".to_string(),
            ratio(delta(|c| c.lint_rejects), attempted),
            "ratio",
        ),
    ];
    let mut by_route: BTreeMap<Route, Vec<f64>> = BTreeMap::new();
    for s in &round.samples {
        let route = if w.is_cluster() {
            Route::classify(&round.timed[s.job].owners, node_of(s, w.nodes))
        } else {
            Route::Direct
        };
        by_route.entry(route).or_default().push(s.ns as f64 / 1e3);
    }
    for route in Route::ALL {
        let values = by_route.get(&route).map_or(&[][..], Vec::as_slice);
        out.push((
            format!("cluster.{}_p50_us", route.name()),
            percentile(values, 50.0),
            "us",
        ));
    }
    let started = delta(|c| c.twopc_started);
    out.push((
        "cluster.twopc_share".to_string(),
        ratio(started, attempted),
        "ratio",
    ));
    out.push((
        "cluster.twopc_retry_ratio".to_string(),
        ratio(delta(|c| c.twopc_retries), started),
        "ratio",
    ));
    out.push((
        "cluster.resubmit_ratio".to_string(),
        ratio(resubmits(&round.samples), attempted),
        "ratio",
    ));
    out.push((
        "cluster.peer_connects_per_admit".to_string(),
        ratio(
            delta(|c| c.connections) - delta(|c| c.gossip_exchanges),
            attempted,
        ),
        "count",
    ));
    out
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The traced run: untraced and traced rounds alternate in pairs on
/// the same sequences, so the tracing overhead compares like with like;
/// then the two-phase probes and the in-process replay.
fn traced(options: &Options, report: &mut Report) -> Result<(), String> {
    let w = &options.workload;
    let started = Instant::now();
    let cap = Duration::from_secs(options.seconds) * SLOWDOWN_CAP;
    let mut untraced_p50 = Vec::new();
    let mut traced_rounds = Vec::new();
    // Half the rounds are traced, half untraced, in pairs.
    while traced_rounds.len() < (w.rounds(options.seconds) / 2).max(2)
        && (traced_rounds.len() < 2 || started.elapsed() < cap)
    {
        // Both rounds of a pair run the same sequence.
        let index = traced_rounds.len();
        let plain = timed_round(options, index, false, report)?;
        untraced_p50.push(percentile(&plain.latencies_us(), 50.0));
        traced_rounds.push(timed_round(options, index, true, report)?);
    }
    let layers: Vec<Vec<Metric>> = traced_rounds.iter().map(|r| network_layers(w, r)).collect();
    for (i, (name, _, unit)) in layers[0].iter().enumerate() {
        let values: Vec<f64> = layers.iter().map(|l| l[i].1).collect();
        report.metric(name, median(&values), unit);
    }

    let (snapshot_us, prepare_us) = probe_two_phase(options)?;
    report.metric("cluster.snapshot_us", snapshot_us, "us");
    report.metric("cluster.prepare_us", prepare_us, "us");

    // The replay encodes each job's real response from the last traced
    // round, so `protocol.encode_us` and the response size are measured
    // on what the service actually sent.
    let last = traced_rounds.last().ok_or("no traced round")?;
    let responses: BTreeMap<String, Response> = last
        .samples
        .iter()
        .filter_map(|s| Some((last.timed[s.job].name.clone(), s.response.clone()?)))
        .collect();
    let sequence: Vec<&Job> = last.warmup.iter().chain(&last.timed).collect();
    let mut recorder = Recorder::default();
    let figures = replay::replay(w, options.seed, &sequence, &responses, &mut recorder);
    report.metrics.extend(figures);
    let harness: Vec<f64> = recorder
        .self_ns()
        .into_iter()
        .filter(|(_, name, _)| *name == "replay")
        .map(|(_, _, ns)| ns as f64 / 1e3)
        .collect();
    report.metric("trace.replay_self_us", median(&harness), "us");
    let traced_p50: Vec<f64> = traced_rounds
        .iter()
        .map(|r| percentile(&r.latencies_us(), 50.0))
        .collect();
    let (traced_p50, untraced_p50) = (median(&traced_p50), median(&untraced_p50));
    report.metric("trace.overhead_us", traced_p50 - untraced_p50, "us");
    report.metric(
        "trace.overhead_ratio",
        ratio(traced_p50 - untraced_p50, untraced_p50),
        "ratio",
    );
    let path = Path::new(SPANS_DIR).join(format!("spans-{}-{}.jsonl", w.name, options.seed));
    recorder
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    report.note("rounds", traced_rounds.len() as f64 * 2.0);
    report.note("untraced_p50_us", untraced_p50);
    report.note("traced_p50_us", traced_p50);
    report.note(
        "steal_ticks",
        traced_rounds.iter().map(|r| r.steal_ticks).sum::<u64>() as f64,
    );
    Ok(())
}

/// Sends `cluster-snapshot`, then `prepare` against the returned basis,
/// then `abort-reservation`, straight to the first node of a fresh,
/// warmed service; returns the median snapshot and prepare round trips
/// in microseconds.
fn probe_two_phase(options: &Options) -> Result<(f64, f64), String> {
    let w = &options.workload;
    let probes = jobs(w, options.seed, Phase::Probe, 0, PROBES);
    let service = Service::spawn(&options.cli, w, options.seed)?;
    let mut generator = Generator::connect(&service.addrs, CONNECTIONS)?;
    generator.run_serial(&jobs(w, options.seed, Phase::Warmup, 0, w.warmup_jobs));
    let mut control = Control::connect(&service.addrs[..1])?;
    let client = control.client(0);
    let mut snapshot_us = Vec::with_capacity(probes.len());
    let mut prepare_us = Vec::with_capacity(probes.len());
    for job in &probes {
        let Request::Admit { computation, .. } = &job.request else {
            continue;
        };
        let sent = Instant::now();
        let state = client.call(&Request::ClusterSnapshot);
        snapshot_us.push(sent.elapsed().as_secs_f64() * 1e6);
        let Ok(Response::ClusterState { epochs, resources }) = state else {
            return Err(format!("cluster-snapshot failed: {state:?}"));
        };
        let basis = resources
            .as_array()
            .map(resources_from_json)
            .transpose()
            .map_err(|e| format!("snapshot basis: {e}"))?
            .unwrap_or_default();
        let sent = Instant::now();
        let prepared = client.call(&Request::Prepare {
            name: job.name.clone(),
            computation: computation.clone(),
            granularity: GRANULARITY,
            basis,
            epochs,
            ttl_ms: 2_000,
        });
        prepare_us.push(sent.elapsed().as_secs_f64() * 1e6);
        match prepared {
            Ok(Response::Prepared { .. } | Response::Decision { .. }) => {}
            other => return Err(format!("prepare failed: {other:?}")),
        }
        client
            .call(&Request::AbortReservation {
                name: job.name.clone(),
            })
            .map_err(|e| format!("abort-reservation: {e}"))?;
    }
    drop(control);
    drop(generator);
    service.stop();
    Ok((median(&snapshot_us), median(&prepare_us)))
}
