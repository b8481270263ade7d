//! `rota` — deadline assurance from the command line.
//!
//! ```text
//! rota check <spec.json> [--granularity per-action|maximal-run] [--format text|json]
//! rota simulate [--seed N] [--load X] [--nodes N] [--horizon T]
//!               [--shape chain|forkjoin|pipeline|mixed]
//!               [--policy rota|naive|optimistic|edf] [--churn P] [--trace]
//! rota compare  [--seed N] [--load X] [--nodes N] [--horizon T] [--shape …]
//! rota stats    [--json] [--out <path>]
//! rota serve    [--addr HOST:PORT] [--policy …] [--shards N] [--queue N]
//! rota cluster  [--nodes N | --topology FILE] [--gossip-ms N] [--duration-ms N]
//! rota loadtest [--policy …|all] [--jobs N] [--connections N] [--nodes N]
//!               [--addr HOST:PORT | --cluster N]
//! ```
//!
//! `check` reads a JSON system+computation spec (see
//! `rota_analyze::spec`), runs the `rota-analyze` lint passes over it
//! (stable `R`-coded diagnostics with source spans; errors exit `1`
//! without consulting the policy), and — when the lints pass — prints
//! the admission verdict with the schedule ROTA would pin the
//! computation to (`0` admissible, `2` infeasible). `--format json`
//! emits the diagnostics and verdict as one machine-readable
//! document. `simulate` and `compare`
//! run seeded synthetic open-system workloads. `stats` runs an
//! instrumented demo (admission under overload plus one model-check)
//! and dumps the metrics registry and its decisions. `serve`
//! runs the sharded TCP admission service; `cluster` runs an in-process
//! federation; `loadtest` drives a server or cluster with generated
//! traffic and reports throughput/latency/acceptance.
//!
//! Each verb has one table of accepted flags ([`VERBS`]): an unknown
//! flag, a missing value, or a value that does not parse exits `1` with
//! the usage text. Every verb accepts `--metrics-out <path>` and writes
//! its run's metric snapshot and decisions there as JSON (`serve` once
//! it has drained, `cluster` one document keyed by node id once
//! `--duration-ms` elapses, `loadtest` what its target holds once the
//! run ends).

#![forbid(unsafe_code)]

mod formula;

use std::fmt::Display;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use rota_actor::Granularity;
use rota_admission::{
    decision_event, standard_policies, AdmissionController, AdmissionObs, AdmissionPolicy,
    AdmissionRequest, Decision, RotaPolicy, StandardPolicy,
};
use rota_analyze::spec::{resource_set, SpecModel};
use rota_client::{run_loadtest, Client, ClientError, LoadtestConfig};
use rota_interval::TimePoint;
use rota_logic::{CheckOutcome, Formula, State};
use rota_obs::{DecisionEvent, Json, Registry};
use rota_server::{Server, ServerConfig, ServerHandle};
use rota_sim::{compare_policies, run_scenario_observed, run_scenario_traced_observed};
use rota_workload::{base_resources, build_scenario, JobShape, WorkloadConfig};

/// Writes one line to stdout — every verb's only way to print —
/// ignoring a closed pipe: a verb keeps running, and exits with its own
/// code, after whoever read its first lines has gone away (`rota
/// compare | head -1`, or a `serve` whose launcher stopped reading).
macro_rules! say {
    ($($arg:tt)*) => {
        say(format_args!($($arg)*))
    };
}

fn say(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("stdout: {e}");
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let verb = match raw.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        Some(verb) => verb,
    };
    let Some(&(_, flags, positional, run)) = VERBS.iter().find(|(name, ..)| *name == verb) else {
        eprintln!("unknown subcommand `{verb}`\n");
        print_usage();
        return ExitCode::FAILURE;
    };
    match Args::parse(flags, positional, &raw[1..]) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("{verb}: {e}\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("rota — temporal reasoning about resources for deadline assurance");
    eprintln!();
    eprintln!("USAGE:");
    eprintln!("  rota check <spec.json> [--granularity per-action|maximal-run]");
    eprintln!("             [--format text|json]   (lint + admission; exits 1 on lint");
    eprintln!("             errors without consulting the policy, 2 on INFEASIBLE)");
    eprintln!("  rota simulate [--seed N] [--load X] [--nodes N] [--horizon T]");
    eprintln!("                [--shape chain|forkjoin|pipeline|mixed]");
    eprintln!("                [--policy rota|naive|optimistic|edf] [--churn P] [--trace]");
    eprintln!("  rota compare  [same options as simulate, runs all policies]");
    eprintln!("  rota holds <spec.json> --formula \"<formula>\" [--depth N]");
    eprintln!("  rota holds --resources \"[4]^(0,20)_cpu@l1; …\" --formula \"…\"");
    eprintln!("  rota stats    [--json] [--out <path>]");
    eprintln!("  rota serve    [--addr HOST:PORT] [--policy rota|naive|optimistic|edf]");
    eprintln!("                [--shards N] [--queue N] [--nodes N] [--horizon T] [--seed N]");
    eprintln!("                [--slack X] [--shape …]");
    eprintln!("  rota cluster  [--nodes N | --topology FILE] [--base-port P] [--seed N]");
    eprintln!("                [--horizon T] [--slack X] [--shape …] [--gossip-ms N]");
    eprintln!("                [--shards N] [--queue N] [--duration-ms N]   (N-node");
    eprintln!("                federation; each node owns its locations, any node");
    eprintln!("                accepts any admission; --metrics-out is written per");
    eprintln!("                node when --duration-ms elapses)");
    eprintln!("  rota loadtest [--policy rota|naive|optimistic|edf|all] [--nodes N]");
    eprintln!("                [--jobs N] [--connections N] [--shape …] [--slack X]");
    eprintln!("                [--granularity …] [--shards N] [--queue N] [--horizon T]");
    eprintln!("                [--seed N] [--addr HOST:PORT] [--cluster N [--gossip-ms N]]");
    eprintln!();
    eprintln!("loadtest drives a fresh server per policy, the server at --addr, or");
    eprintln!("a fresh N-node --cluster; connection i starts at node i mod N and");
    eprintln!("moves to the next node if its node stops answering. --seed N also");
    eprintln!("makes the request schedule deterministic (static round-robin");
    eprintln!("partition). Each job gets one attempt, so `overloaded` answers are");
    eprintln!("tallied.");
    eprintln!();
    eprintln!("Every subcommand also accepts --metrics-out <path> to dump its");
    eprintln!("metric snapshot and decisions as JSON (loadtest: its spawned");
    eprintln!("server's, one document per node id for --cluster, the metrics answer");
    eprintln!("of the --addr server; keyed by policy for --policy all). A server's");
    eprintln!("decisions are the verdict frames its shards keep by name, shard by");
    eprintln!("shard (admits, and the two-phase verdicts a shard confirmed or held):");
    eprintln!("{{\"ok\", \"op\":\"decision\", \"computation\", \"accepted\", \"shard\",");
    eprintln!("\"reason\", \"violated_term\", \"clause\"[, \"diagnostics\" for lint");
    eprintln!("rejects]}}. An unknown flag, or a value that does not parse, exits 1");
    eprintln!("with this text.");
    eprintln!();
    eprintln!("FORMULAS (rota holds):");
    eprintln!("  satisfy(cpu@l1:8 in 0..10)    eventually …    always …    not …");
    eprintln!("  … and …    … or …    satisfy(cpu@l1:8, network@l1->l2:4 in 0..20)");
}

/// What follows a flag: nothing (a switch), or a value the check
/// accepts.
#[derive(Clone, Copy)]
enum Takes {
    Nothing,
    Value(fn(&str) -> Result<(), String>),
}

/// A group of flags, each with what it takes.
type Flags = &'static [(&'static str, Takes)];

fn number<T: FromStr>(value: &str) -> Result<(), String>
where
    T::Err: Display,
{
    value.parse::<T>().map(drop).map_err(|e| e.to_string())
}

fn text(_: &str) -> Result<(), String> {
    Ok(())
}

fn parse_shape(value: &str) -> Result<JobShape, String> {
    match value {
        "chain" => Ok(JobShape::Chain { evals: 3 }),
        "forkjoin" => Ok(JobShape::ForkJoin {
            actors: 2,
            evals_each: 2,
        }),
        "pipeline" => Ok(JobShape::Pipeline { hops: 2 }),
        "mixed" => Ok(JobShape::Mixed),
        other => Err(format!("unknown shape `{other}`")),
    }
}

fn parse_granularity(value: &str) -> Result<Granularity, String> {
    Granularity::from_name(value).ok_or_else(|| format!("unknown granularity `{value}`"))
}

fn parse_policy(value: &str) -> Result<StandardPolicy, String> {
    StandardPolicy::named(value).ok_or_else(|| {
        let names: Vec<&str> = standard_policies().iter().map(|p| p.name).collect();
        format!(
            "unknown policy `{value}` (expected one of {})",
            names.join("|")
        )
    })
}

const SWITCH: Takes = Takes::Nothing;
const TEXT: Takes = Takes::Value(text);
const INT: Takes = Takes::Value(number::<u64>);
const COUNT: Takes = Takes::Value(number::<usize>);
const REAL: Takes = Takes::Value(number::<f64>);
const ADDR: Takes = Takes::Value(number::<SocketAddr>);
const SHAPE: Takes = Takes::Value(|v| parse_shape(v).map(drop));
const GRANULARITY: Takes = Takes::Value(|v| parse_granularity(v).map(drop));
const POLICY: Takes = Takes::Value(|v| parse_policy(v).map(drop));

const METRICS_OUT: Flags = &[("--metrics-out", TEXT)];
const SIMULATE: Flags = &[
    ("--seed", INT),
    ("--load", REAL),
    ("--nodes", COUNT),
    ("--horizon", INT),
    ("--churn", REAL),
    ("--shape", SHAPE),
    ("--policy", POLICY),
    ("--trace", SWITCH),
];
/// The workload flags `serve`, `cluster` and `loadtest` share
/// ([`service_workload`]).
const WORKLOAD: Flags = &[
    ("--seed", INT),
    ("--nodes", COUNT),
    ("--horizon", INT),
    ("--slack", REAL),
    ("--shape", SHAPE),
];
/// [`server_config`]'s flags.
const SERVER: Flags = &[("--shards", COUNT), ("--queue", COUNT)];
/// [`cluster_config`]'s flags.
const CLUSTER: Flags = &[
    ("--gossip-ms", INT),
    ("--shards", COUNT),
    ("--queue", COUNT),
];

/// A verb's command, run once its flags have parsed.
type Command = fn(&Args) -> ExitCode;

/// Every verb: its flag groups, whether it takes one leading
/// positional argument, and the command that runs it.
const VERBS: &[(&str, &[Flags], bool, Command)] = &[
    (
        "check",
        &[
            METRICS_OUT,
            &[("--granularity", GRANULARITY), ("--format", TEXT)],
        ],
        true,
        cmd_check,
    ),
    (
        "holds",
        &[
            METRICS_OUT,
            &[
                ("--resources", TEXT),
                ("--formula", TEXT),
                ("--depth", COUNT),
            ],
        ],
        true,
        cmd_holds,
    ),
    ("simulate", &[METRICS_OUT, SIMULATE], false, |args| {
        run_simulation(args, false)
    }),
    ("compare", &[METRICS_OUT, SIMULATE], false, |args| {
        run_simulation(args, true)
    }),
    (
        "stats",
        &[METRICS_OUT, &[("--json", SWITCH), ("--out", TEXT)]],
        false,
        cmd_stats,
    ),
    (
        "serve",
        &[
            METRICS_OUT,
            WORKLOAD,
            SERVER,
            &[("--policy", POLICY), ("--addr", ADDR)],
        ],
        false,
        cmd_serve,
    ),
    (
        "cluster",
        &[
            METRICS_OUT,
            WORKLOAD,
            CLUSTER,
            &[
                ("--topology", TEXT),
                ("--base-port", Takes::Value(number::<u16>)),
                ("--duration-ms", INT),
            ],
        ],
        false,
        cmd_cluster,
    ),
    (
        "loadtest",
        &[
            METRICS_OUT,
            WORKLOAD,
            SERVER,
            CLUSTER,
            &[
                (
                    "--policy",
                    Takes::Value(|v| match v {
                        "all" => Ok(()),
                        name => parse_policy(name).map(drop),
                    }),
                ),
                ("--jobs", COUNT),
                ("--connections", COUNT),
                ("--granularity", GRANULARITY),
                ("--addr", ADDR),
                ("--cluster", COUNT),
            ],
        ],
        false,
        cmd_loadtest,
    ),
];

/// One verb's command line, checked against its flag table.
struct Args {
    positional: Option<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `raw`; a leading non-flag argument is the positional one
    /// when the verb takes it.
    fn parse(groups: &[Flags], positional: bool, raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            positional: None,
            flags: Vec::new(),
        };
        let mut rest = raw.iter().enumerate();
        while let Some((i, arg)) = rest.next() {
            let found = groups
                .iter()
                .flat_map(|g| g.iter())
                .find(|(name, _)| name == arg);
            match found {
                Some(&(name, Takes::Nothing)) => args.flags.push((name, None)),
                Some(&(name, Takes::Value(check))) => {
                    let (_, value) = rest.next().ok_or(format!("`{name}` needs a value"))?;
                    check(value).map_err(|e| format!("bad value `{value}` for `{name}`: {e}"))?;
                    args.flags.push((name, Some(value.clone())));
                }
                None if i == 0 && positional && !arg.starts_with('-') => {
                    args.positional = Some(arg.clone());
                }
                None => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(args)
    }

    /// The value of the first `name` flag given.
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(flag, _)| *flag == name)
            .and_then(|(_, value)| value.as_deref())
    }

    /// Whether `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(flag, _)| *flag == name)
    }

    /// The parsed value of `name`, if given (the table has already
    /// checked that it parses).
    fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        self.get(name)?.parse().ok()
    }
}

/// Packages a registry snapshot plus a record of decisions as one JSON
/// value: `{"metrics": {...}, "decisions": [...]}`.
fn observability_json(registry: &Registry, decisions: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("metrics".into(), registry.snapshot().to_json()),
        ("decisions".into(), Json::Arr(decisions)),
    ])
}

/// A model-check run on `formula` as its decision event.
fn model_check_event(formula: &Formula, outcome: CheckOutcome) -> DecisionEvent {
    DecisionEvent::ModelCheck {
        formula: formula.to_string(),
        verdict: outcome.holds,
        states_visited: outcome.states_visited,
        falsifying_prefix: outcome.falsifying_prefix,
    }
}

/// [`observability_json`] with decision events as the decisions.
fn events_json(registry: &Registry, events: &[DecisionEvent]) -> Json {
    observability_json(
        registry,
        events.iter().map(DecisionEvent::to_json).collect(),
    )
}

/// A server's observability JSON: its registry, and as `decisions` its
/// shards' verdict frames ([`ServerHandle::decisions`]), parsed.
fn server_metrics_json(registry: &Registry, frames: &[Arc<str>]) -> Json {
    let decisions = frames
        .iter()
        .map(|frame| Json::parse(frame).unwrap_or_else(|_| Json::Str(frame.to_string())))
        .collect();
    observability_json(registry, decisions)
}

/// Every node's observability JSON, keyed by node id.
fn cluster_metrics_json(cluster: &rota_cluster::Cluster) -> Json {
    Json::Obj(
        cluster
            .nodes()
            .iter()
            .map(|node| {
                let doc = server_metrics_json(&node.registry(), &node.decisions());
                (node.id().to_string().into(), doc)
            })
            .collect(),
    )
}

/// Honors `--metrics-out <path>`: writes the run's observability JSON.
/// Returns `false` (printing an error) when the write fails.
fn write_metrics_out(args: &Args, registry: &Registry, decisions: &[DecisionEvent]) -> bool {
    write_metrics_doc(args, || events_json(registry, decisions))
}

/// Writes the document `doc` builds to the `--metrics-out` path, if
/// one was given. Returns `false` (printing an error) when the write
/// fails.
fn write_metrics_doc(args: &Args, doc: impl FnOnce() -> Json) -> bool {
    let Some(path) = args.get("--metrics-out") else {
        return true;
    };
    let payload = doc().pretty();
    match std::fs::write(path, payload + "\n") {
        Ok(()) => {
            eprintln!("(metrics written to {path})");
            true
        }
        Err(e) => {
            eprintln!("cannot write metrics to {path}: {e}");
            false
        }
    }
}

fn cmd_check(args: &Args) -> ExitCode {
    let Some(path) = &args.positional else {
        eprintln!("check: missing spec file path");
        return ExitCode::FAILURE;
    };
    let granularity = args
        .get("--granularity")
        .and_then(|v| parse_granularity(v).ok())
        .unwrap_or(Granularity::MaximalRun);
    let format_json = match args.get("--format") {
        Some("json") => true,
        Some("text") | None => false,
        Some(other) => {
            eprintln!("check: unknown format `{other}`, expected `text` or `json`");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match SpecModel::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("check: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Static analysis before any admission machinery: the lint passes
    // see the declarations as written, including content the library
    // types refuse to represent, and anchor findings to source spans.
    let report =
        rota_analyze::analyze_with(&spec, &rota_actor::TableCostModel::paper(), granularity);
    if format_json {
        let (verdict, code) = if report.has_errors() {
            ("lint-error", ExitCode::FAILURE)
        } else {
            match check_verdict(&spec, granularity, args, true) {
                Ok(code) if code == ExitCode::SUCCESS => ("admissible", code),
                Ok(code) => ("infeasible", code),
                Err(code) => return code,
            }
        };
        say!(
            "{}",
            Json::Obj(vec![
                ("file".into(), Json::Str(path.clone())),
                ("verdict".into(), Json::Str(verdict.into())),
                (
                    "errors".into(),
                    Json::Num(report.count(rota_analyze::Severity::Error) as f64),
                ),
                (
                    "warnings".into(),
                    Json::Num(report.count(rota_analyze::Severity::Warning) as f64),
                ),
                ("diagnostics".into(), report.to_json(Some(&text))),
            ])
            .pretty()
        );
        return code;
    }
    let rendered = report.render(Some(path), Some(&text));
    if !rendered.is_empty() {
        eprint!("{rendered}");
    }
    if report.has_errors() {
        eprintln!("check: spec has lint errors; admission not attempted");
        return ExitCode::FAILURE;
    }
    match check_verdict(&spec, granularity, args, false) {
        Ok(code) | Err(code) => code,
    }
}

/// Prices the spec and asks the admission controller for a verdict,
/// printing the human report unless `quiet`. `Ok` carries the exit
/// code for a decided spec (success or the INFEASIBLE `2`); `Err`
/// carries the code for a spec that could not be decided at all.
fn check_verdict(
    spec: &SpecModel,
    granularity: Granularity,
    args: &Args,
    quiet: bool,
) -> Result<ExitCode, ExitCode> {
    let (theta, lambda) = match (resource_set(&spec.resources), spec.computation.build()) {
        (Ok(t), Ok(l)) => (t, l),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("check: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    if !quiet {
        say!("system Θ     : {theta}");
        say!("computation  : {lambda}");
    }
    let request =
        AdmissionRequest::price(lambda, &rota_actor::TableCostModel::paper(), granularity);
    if !quiet {
        say!("requirement  : {}", request.requirement());
    }
    // Decide through an instrumented controller so --metrics-out captures
    // the decision counters, next to the verdict's event.
    let registry = Registry::new();
    let mut ctl = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO)
        .with_obs(AdmissionObs::new(&registry, RotaPolicy.name()));
    let decision = ctl.submit(&request);
    let code = match &decision {
        Decision::Accept(commitments) => {
            if !quiet {
                say!("verdict      : ADMISSIBLE — the deadline is assured");
                for c in commitments {
                    say!("  actor {}", c.actor());
                    for seg in c.pending() {
                        say!("    {}", seg.requirement());
                    }
                }
                say!("");
                print_gantt(commitments, request.window());
            }
            ExitCode::SUCCESS
        }
        Decision::Reject(reason) => {
            if !quiet {
                say!("verdict      : INFEASIBLE — {reason}");
                if let Some(term) = reason.violated_term() {
                    say!("violated     : {term} ({})", reason.clause());
                }
            }
            ExitCode::from(2)
        }
    };
    let event = decision_event(RotaPolicy.name(), ctl.now(), &request, &decision);
    if !write_metrics_out(args, &registry, &[event]) {
        return Err(ExitCode::FAILURE);
    }
    Ok(code)
}

/// Renders the pinned schedule as a per-actor text timeline: digits mark
/// which segment occupies each tick, `·` marks slack.
fn print_gantt(commitments: &[rota_logic::Commitment], window: rota_interval::TimeInterval) {
    let span = window.duration().ticks().min(120); // keep rows terminal-sized
    let start = window.start().ticks();
    say!(
        "schedule     : t{start} … t{} (one column per Δt)",
        start + span
    );
    for c in commitments {
        let mut row = String::with_capacity(span as usize);
        for t in start..start + span {
            let tick = TimePoint::new(t);
            let mark = c
                .pending()
                .enumerate()
                .find(|(_, seg)| seg.requirement().window().contains_tick(tick))
                .map(|(i, _)| char::from_digit(((i + 1) % 36) as u32, 36).unwrap_or('#'))
                .unwrap_or('·');
            row.push(mark);
        }
        say!("  {:>10} |{row}|", c.actor().to_string());
    }
}

/// `rota holds`: evaluate a temporal formula against a spec's system
/// state (with its computation admitted first, if one is given and fits).
fn cmd_holds(args: &Args) -> ExitCode {
    let path = args.positional.as_deref();
    let inline = args.get("--resources");
    let Some(formula_text) = args.get("--formula") else {
        eprintln!("holds: missing --formula");
        return ExitCode::FAILURE;
    };
    let depth = args.value("--depth").unwrap_or(64usize);
    let formula = match formula::parse_formula(formula_text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("holds: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut state;
    match (path, inline) {
        (Some(path), _) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("holds: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let spec = match SpecModel::from_json(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("holds: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let theta = match resource_set(&spec.resources) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("holds: {e}");
                    return ExitCode::FAILURE;
                }
            };
            state = State::new(theta, TimePoint::ZERO);
            // Admit the spec's computation if it fits, so the formula is
            // evaluated against the committed system (Θ_expire semantics).
            if let Ok(lambda) = spec.computation.build() {
                if !lambda.actors().is_empty() {
                    let request = AdmissionRequest::price(
                        lambda,
                        &rota_actor::TableCostModel::paper(),
                        Granularity::MaximalRun,
                    );
                    match RotaPolicy.decide(&state, &request) {
                        Decision::Accept(commitments) => {
                            for c in commitments {
                                state.accommodate(c).expect("policy checked the guard");
                            }
                            say!("(computation admitted before evaluation)");
                        }
                        Decision::Reject(reason) => {
                            say!("(computation not admitted: {reason})");
                        }
                    }
                }
            }
        }
        (None, Some(inline)) => {
            // `--resources "[5]^(0,3)_cpu@l1; [4]^(0,20)_network@l1->l2"`
            let mut theta = rota_resource::ResourceSet::new();
            for part in inline.split(';').filter(|p| !p.trim().is_empty()) {
                match part.parse::<rota_resource::ResourceTerm>() {
                    Ok(term) => {
                        if let Err(e) = theta.insert(term) {
                            eprintln!("holds: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    Err(e) => {
                        eprintln!("holds: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            state = State::new(theta, TimePoint::ZERO);
        }
        (None, None) => {
            eprintln!("holds: provide a spec file or --resources \"[r]^(s,e)_kind@loc; …\"");
            return ExitCode::FAILURE;
        }
    }
    say!("formula : {formula}");
    let registry = Registry::new();
    let checker =
        rota_logic::ModelChecker::greedy(depth).with_obs(rota_logic::CheckObs::new(&registry));
    let outcome = checker.check(&state, &formula);
    let verdict = outcome.holds;
    say!(
        "verdict : {}",
        if verdict { "HOLDS" } else { "DOES NOT HOLD" }
    );
    if !outcome.falsifying_prefix.is_empty() {
        say!("falsified after:");
        for (i, step) in outcome.falsifying_prefix.iter().enumerate() {
            say!("  {i:>3}. {step}");
        }
    }
    if !write_metrics_out(args, &registry, &[model_check_event(&formula, outcome)]) {
        return ExitCode::FAILURE;
    }
    if verdict {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn run_simulation(args: &Args, compare: bool) -> ExitCode {
    let seed = args.value("--seed").unwrap_or(7u64);
    let load = args.value("--load").unwrap_or(1.0f64);
    let nodes = args.value("--nodes").unwrap_or(6usize);
    let horizon = args.value("--horizon").unwrap_or(96u64);
    let churn = args.value("--churn").unwrap_or(0.0f64);
    let shape = workload_shape(args);
    let mut config = WorkloadConfig::new(seed)
        .with_nodes(nodes)
        .with_horizon(horizon)
        .with_shape(shape)
        .with_load(load);
    if churn > 0.0 {
        config = config.with_churn(churn, 12, 3);
    }
    let scenario = build_scenario(&config);
    say!(
        "scenario: seed {seed}, load {load}, {nodes} nodes, horizon {horizon}, {} arrivals",
        scenario.arrival_count()
    );
    let registry = Registry::new();
    if compare {
        say!(
            "{:<12} {:>8} {:>8} {:>10} {:>7} {:>12}",
            "policy",
            "accept%",
            "miss%",
            "completed",
            "util%",
            "delivered"
        );
        let mut decisions = Vec::new();
        for (name, report) in compare_policies(&scenario, &registry) {
            say!(
                "{:<12} {:>7.1}% {:>7.1}% {:>10} {:>6.1}% {:>12}",
                name,
                report.acceptance_rate() * 100.0,
                report.miss_rate() * 100.0,
                report.completed,
                report.utilization() * 100.0,
                report.delivered_units
            );
            decisions.extend(report.decisions);
        }
        if !write_metrics_out(args, &registry, &decisions) {
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    let policy = chosen_policy(args);
    let traced = args.has("--trace");
    let (report, trace) =
        run_scenario_traced_observed(&scenario, policy.policy, policy.strategy, &registry);
    say!("policy {}: {report}", policy.name);
    say!(
        "utilization {:.1}% ({} of {} offered units delivered), withdrawn {}",
        report.utilization() * 100.0,
        report.delivered_units,
        report.offered_units,
        report.withdrawn
    );
    if traced {
        say!("in-flight : {}", trace.sparkline());
        say!(
            "peak {} in flight; per-tick throughput max {}",
            trace.peak_in_flight(),
            trace.throughput().into_iter().max().unwrap_or(0)
        );
    }
    if !write_metrics_out(args, &registry, &report.decisions) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `rota stats`: run a small fully-instrumented demo — an overloaded
/// admission scenario (2 of 8 requests fit) plus one bounded model-check
/// — and dump the resulting metric snapshot and decisions.
fn cmd_stats(args: &Args) -> ExitCode {
    use rota_actor::{ActionKind, ActorComputation, DistributedComputation, TableCostModel};
    use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};

    let registry = Registry::new();

    // Admission under overload: 32 cpu-units of capacity, 8 jobs of 16
    // units each → 2 admitted, 6 rejected with the violated term named.
    let theta: ResourceSet = [ResourceTerm::new(
        Rate::new(4),
        rota_interval::TimeInterval::from_ticks(0, 8).expect("static interval"),
        LocatedType::cpu(Location::new("l1")),
    )]
    .into_iter()
    .collect();
    let mut scenario = rota_sim::Scenario::new(TimePoint::new(8)).with_initial(theta.clone());
    for i in 0..8 {
        let mut gamma = ActorComputation::new(format!("job{i}-actor"), "l1");
        for _ in 0..2 {
            gamma.push(ActionKind::evaluate());
        }
        let request = AdmissionRequest::price(
            DistributedComputation::single(
                format!("job{i}"),
                gamma,
                TimePoint::ZERO,
                TimePoint::new(8),
            )
            .expect("static computation"),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        );
        scenario.add_arrival(TimePoint::ZERO, request);
    }
    let report = run_scenario_observed(
        &scenario,
        RotaPolicy,
        rota_admission::ExecutionStrategy::FirstEntitled,
        &registry,
    );
    let mut decisions = report.decisions;

    // One model-check run, so LTS rule-firing counts appear: the demand
    // that was admissible must be deliverable on every path.
    let checker =
        rota_logic::ModelChecker::greedy(16).with_obs(rota_logic::CheckObs::new(&registry));
    let formula =
        formula::parse_formula("always satisfy(cpu@l1:4 in 0..8)").expect("static demo formula");
    let state = State::new(theta, TimePoint::ZERO);
    let outcome = checker.check(&state, &formula);
    decisions.push(model_check_event(&formula, outcome));

    let json = args.has("--json");
    let rendered = if json {
        events_json(&registry, &decisions).pretty() + "\n"
    } else {
        let mut out = registry.snapshot().render_table();
        out.push_str("\ndecisions:\n");
        for event in &decisions {
            out.push_str("  ");
            out.push_str(&event.summary());
            out.push('\n');
        }
        out
    };
    match args.get("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("stats: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("(stats written to {path})");
        }
        None => say!("{}", rendered.trim_end_matches('\n')),
    }
    if !write_metrics_out(args, &registry, &decisions) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Workload + server knobs shared by `serve` and `loadtest`.
/// Resources served are `base_resources` of this workload config, so a
/// loadtest generated from the same flags targets exactly the capacity
/// the server holds.
fn service_workload(args: &Args) -> WorkloadConfig {
    WorkloadConfig::new(args.value("--seed").unwrap_or(7))
        .with_nodes(args.value("--nodes").unwrap_or(4))
        .with_horizon(args.value("--horizon").unwrap_or(96))
        .with_shape(workload_shape(args))
        .with_slack(args.value("--slack").unwrap_or(3.0))
}

/// `--shape`, `mixed` when absent.
fn workload_shape(args: &Args) -> JobShape {
    args.get("--shape")
        .and_then(|v| parse_shape(v).ok())
        .unwrap_or(JobShape::Mixed)
}

/// `--policy`, `rota` when absent (`loadtest --policy all` is handled
/// before this is asked).
fn chosen_policy(args: &Args) -> StandardPolicy {
    let name = args.get("--policy").unwrap_or("rota");
    StandardPolicy::named(name).expect("the flag table checked `--policy`")
}

fn server_config(args: &Args, addr: SocketAddr) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        addr,
        shards: args.value("--shards").unwrap_or(defaults.shards),
        queue_capacity: args.value("--queue").unwrap_or(defaults.queue_capacity),
        ..defaults
    }
}

fn cmd_serve(args: &Args) -> ExitCode {
    let policy = chosen_policy(args);
    let addr = args
        .value("--addr")
        .unwrap_or(SocketAddr::from(([127, 0, 0, 1], 7463)));
    let workload = service_workload(args);
    let theta = base_resources(&workload);
    let config = server_config(args, addr);
    let shards = config.shards;
    let queue = config.queue_capacity;
    let handle = match Server::spawn(config, policy.policy, &theta) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    say!(
        "serving `{}` admission on {} — {} shards, queue {} each, {} resource terms over {} nodes",
        policy.name,
        handle.local_addr(),
        shards,
        queue,
        theta.term_count(),
        workload.nodes,
    );
    say!("send {{\"op\":\"shutdown\"}} (or drop the process) to stop; draining is graceful");
    handle.wait();
    let doc = || server_metrics_json(&handle.registry(), &handle.decisions());
    if !write_metrics_doc(args, doc) {
        return ExitCode::FAILURE;
    }
    say!("drained; bye");
    ExitCode::SUCCESS
}

/// Builds a [`rota_cluster::ClusterConfig`] from the shared flags.
fn cluster_config(args: &Args, seed: u64) -> rota_cluster::ClusterConfig {
    let defaults = rota_cluster::ClusterConfig::default();
    rota_cluster::ClusterConfig {
        seed,
        gossip_interval: args
            .value("--gossip-ms")
            .map_or(defaults.gossip_interval, std::time::Duration::from_millis),
        shards: args.value("--shards").unwrap_or(defaults.shards),
        queue_capacity: args.value("--queue").unwrap_or(defaults.queue_capacity),
        ..defaults
    }
}

/// `rota cluster`: run an N-node federation in this process. Each node
/// is a full rota-server owning a disjoint slice of the locations;
/// gossip keeps the peers' liveness views fresh, and any
/// node accepts any admission (forwarding or two-phase committing
/// cross-location demand).
fn cmd_cluster(args: &Args) -> ExitCode {
    use rota_cluster::{Cluster, Topology};

    let workload = service_workload(args);
    let (mut topology, theta) = match args.get("--topology") {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cluster: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let topology = match Topology::parse(&text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cluster: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // A file topology names its own locations, so the workload
            // supply shape does not apply: serve per-location CPU at
            // the workload node rate; links can be added via `offer`.
            let horizon = rota_interval::TimeInterval::from_ticks(0, workload.horizon.max(1))
                .expect("horizon ≥ 1");
            let theta: rota_resource::ResourceSet = topology
                .locations()
                .into_iter()
                .map(|location| {
                    rota_resource::ResourceTerm::new(
                        rota_resource::Rate::new(workload.node_rate),
                        horizon,
                        rota_resource::LocatedType::cpu(rota_resource::Location::new(location)),
                    )
                })
                .collect();
            (topology, theta)
        }
        None => (
            Topology::auto(workload.nodes.max(1)),
            base_resources(&workload),
        ),
    };
    // `--base-port P` pins node addresses to consecutive ports; nodes
    // whose topology entry already names an address keep it.
    if let Some(base) = args.value::<u16>("--base-port") {
        let unbound: Vec<String> = topology
            .nodes()
            .iter()
            .filter(|n| n.addr.is_empty())
            .map(|n| n.id.clone())
            .collect();
        for (i, id) in unbound.iter().enumerate() {
            topology.set_addr(id, &format!("127.0.0.1:{}", base.saturating_add(i as u16)));
        }
    }
    let config = cluster_config(args, workload.seed);
    let gossip_ms = config.gossip_interval.as_millis();
    let cluster = match Cluster::launch(topology, &theta, RotaPolicy, config) {
        Ok(cluster) => cluster,
        Err(e) => {
            eprintln!("cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    say!(
        "cluster: {} nodes, {} resource terms, gossip every {}ms (seed {})",
        cluster.nodes().len(),
        theta.term_count(),
        gossip_ms,
        workload.seed,
    );
    {
        let topology = cluster
            .topology()
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        for node in cluster.nodes() {
            let locations = topology
                .node(node.id())
                .map(|s| s.locations.join(","))
                .unwrap_or_default();
            say!("  {} @ {} owns {}", node.id(), node.addr(), locations);
        }
    }
    if cluster.await_converged(std::time::Duration::from_secs(10)) {
        say!("gossip converged; every node sees every peer alive");
    } else {
        eprintln!("warning: gossip has not converged after 10s; serving anyway");
    }
    say!("admit at any node: owners decide locally, cross-location demand two-phase commits");
    match args.value::<u64>("--duration-ms") {
        Some(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            let written = write_metrics_doc(args, || cluster_metrics_json(&cluster));
            cluster.shutdown();
            say!("duration elapsed; cluster stopped");
            if !written {
                return ExitCode::FAILURE;
            }
        }
        None => {
            say!("(drop the process to stop)");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(1));
            }
        }
    }
    ExitCode::SUCCESS
}

/// Sums every `cluster.*` counter across the nodes' metric snapshots:
/// `(name, total)` pairs, name stripped of the `cluster.` prefix.
fn cluster_counter_sums(addrs: &[SocketAddr]) -> Vec<(String, u64)> {
    let mut sums: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for addr in addrs {
        let Ok(snapshot) = Client::connect(*addr).and_then(|mut c| c.metrics()) else {
            continue;
        };
        let Json::Obj(entries) = snapshot else {
            continue;
        };
        for (name, metric) in entries {
            let Some(rest) = name.strip_prefix("cluster.") else {
                continue;
            };
            if metric.get("kind").and_then(Json::as_str) != Some("counter") {
                continue;
            }
            let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            *sums.entry(rest.to_string()).or_default() += value as u64;
        }
    }
    sums.into_iter().collect()
}

/// The loadtest report's server-side tally. The `stats` verb counts only
/// controller verdicts; admits bounced by shard pre-validation never reach
/// a controller, so their count (`server.shard.lint_rejects`, summed over
/// shards) comes from the `metrics` verb. The parts add up to every admit
/// the server decided.
fn server_side(addr: SocketAddr) -> Result<String, ClientError> {
    let mut client = Client::connect(addr)?;
    let (stats, shards) = client.stats()?;
    let Json::Obj(metrics) = client.metrics()? else {
        return Err(ClientError::Server(
            "metrics snapshot is not an object".into(),
        ));
    };
    let linted: u64 = metrics
        .iter()
        .filter(|(name, _)| name.starts_with("server.shard.lint_rejects{"))
        .filter_map(|(_, metric)| metric.get("value").and_then(Json::as_u64))
        .sum();
    Ok(format!(
        "{} accepted / {} rejected / {} lint-rejected = {} decided across {} shard(s)",
        stats.accepted,
        stats.rejected,
        linted,
        stats.accepted + stats.rejected + linted,
        shards
    ))
}

/// What one loadtest run drives: a server or cluster spawned for the
/// run, or a server already running elsewhere.
enum Target {
    External(SocketAddr),
    Server(ServerHandle),
    Cluster(rota_cluster::Cluster),
}

impl Target {
    /// Spawns what the flags ask for: a `nodes`-node cluster, a server
    /// running `policy`, or nothing when `external` names one.
    fn spawn(
        args: &Args,
        policy: &StandardPolicy,
        nodes: Option<usize>,
        external: Option<SocketAddr>,
        workload: &WorkloadConfig,
    ) -> Result<Target, String> {
        if let Some(addr) = external {
            return Ok(Target::External(addr));
        }
        let theta = base_resources(workload);
        let Some(nodes) = nodes else {
            let config = server_config(args, SocketAddr::from(([127, 0, 0, 1], 0)));
            return Server::spawn(config, Arc::clone(&policy.policy), &theta)
                .map(Target::Server)
                .map_err(|e| format!("cannot spawn server: {e}"));
        };
        let cluster = rota_cluster::Cluster::launch(
            rota_cluster::Topology::auto(nodes),
            &theta,
            RotaPolicy,
            cluster_config(args, workload.seed),
        )
        .map_err(|e| format!("cannot launch cluster: {e}"))?;
        if !cluster.await_converged(std::time::Duration::from_secs(10)) {
            cluster.shutdown();
            return Err("cluster gossip failed to converge".into());
        }
        Ok(Target::Cluster(cluster))
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        match self {
            Target::External(addr) => vec![*addr],
            Target::Server(handle) => vec![handle.local_addr()],
            Target::Cluster(cluster) => cluster.addrs(),
        }
    }

    /// The target's own tally under the report: per-node stats and the
    /// summed `cluster.*` counters for a cluster, the server-side line
    /// otherwise.
    fn print_tally(&self) {
        let addrs = self.addrs();
        if !matches!(self, Target::Cluster(_)) {
            match server_side(addrs[0]) {
                Ok(line) => say!("  server side  {line}\n"),
                Err(e) => say!("  server side  (stats unavailable: {e})\n"),
            }
            return;
        }
        for (i, addr) in addrs.iter().enumerate() {
            match Client::connect(*addr).and_then(|mut c| c.stats()) {
                Ok((stats, shards)) => say!(
                    "  node{i}        {} accepted / {} rejected across {} shard(s)",
                    stats.accepted,
                    stats.rejected,
                    shards
                ),
                Err(e) => say!("  node{i}        (stats unavailable: {e})"),
            }
        }
        let counters = cluster_counter_sums(&addrs);
        if !counters.is_empty() {
            let rendered: Vec<String> = counters
                .into_iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            say!("  cluster      {}", rendered.join(" "));
        }
        say!("");
    }

    /// What `--metrics-out` records for the target: a spawned server's
    /// registry and verdict frames (as `serve` writes them), one such
    /// document per node id for a cluster (as `cluster` writes), or an
    /// external server's `metrics` answer under `metrics`.
    fn metrics_doc(&self) -> Result<Json, ClientError> {
        match self {
            Target::Server(handle) => {
                Ok(server_metrics_json(&handle.registry(), &handle.decisions()))
            }
            Target::Cluster(cluster) => Ok(cluster_metrics_json(cluster)),
            Target::External(addr) => {
                let snapshot = Client::connect(*addr).and_then(|mut c| c.metrics())?;
                Ok(Json::Obj(vec![("metrics".into(), snapshot)]))
            }
        }
    }

    fn shutdown(self) {
        match self {
            Target::External(_) => {}
            Target::Server(handle) => handle.shutdown(),
            Target::Cluster(cluster) => cluster.shutdown(),
        }
    }
}

fn cmd_loadtest(args: &Args) -> ExitCode {
    let policy_flag = args.get("--policy").unwrap_or("rota");
    let policies = if policy_flag == "all" {
        Vec::from(standard_policies())
    } else {
        vec![chosen_policy(args)]
    };
    let external: Option<SocketAddr> = args.value("--addr");
    if external.is_some() && policies.len() > 1 {
        eprintln!("loadtest: --addr drives one external server; pick a single --policy");
        return ExitCode::FAILURE;
    }
    let nodes: Option<usize> = args.value("--cluster");
    let mut workload = service_workload(args);
    if let Some(nodes) = nodes {
        let problem = if nodes == 0 {
            Some("--cluster needs a node count ≥ 1")
        } else if external.is_some() {
            Some("--cluster spawns its own nodes; drop --addr")
        } else if policy_flag != "rota" {
            Some("--cluster federates the rota policy; drop --policy")
        } else {
            None
        };
        if let Some(problem) = problem {
            eprintln!("loadtest: {problem}");
            return ExitCode::FAILURE;
        }
        // The workload's locations must be exactly the cluster's, so
        // the node count wins over `--nodes`.
        workload = workload.with_nodes(nodes);
    }
    let mut docs = Vec::new();
    for policy in policies {
        let target = match Target::spawn(args, &policy, nodes, external, &workload) {
            Ok(target) => target,
            Err(e) => {
                eprintln!("loadtest: {e}");
                return ExitCode::FAILURE;
            }
        };
        let addrs = target.addrs();
        let config = LoadtestConfig {
            addrs: addrs.clone(),
            connections: args.value("--connections").unwrap_or(4),
            jobs: args.value("--jobs").unwrap_or(400),
            workload: workload.clone(),
            granularity: args
                .get("--granularity")
                .and_then(|v| parse_granularity(v).ok())
                .unwrap_or(Granularity::MaximalRun),
            // `--seed` pins the whole run: the same flag set replays
            // the exact same per-connection request schedule.
            deterministic: args.has("--seed"),
            ..LoadtestConfig::new(addrs[0])
        };
        let report = match run_loadtest(&config) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("loadtest: {e}");
                target.shutdown();
                return ExitCode::FAILURE;
            }
        };
        let label = match &target {
            Target::Cluster(_) => format!("rota ({}-node cluster)", addrs.len()),
            _ => policy.name.to_string(),
        };
        say!("{}", report.render(&label).trim_end_matches('\n'));
        target.print_tally();
        if args.has("--metrics-out") {
            match target.metrics_doc() {
                Ok(doc) => docs.push((policy.name, doc)),
                Err(e) => {
                    eprintln!("loadtest: cannot read the target's metrics: {e}");
                    target.shutdown();
                    return ExitCode::FAILURE;
                }
            }
        }
        target.shutdown();
    }
    // One target's document as it is; several (`--policy all`) keyed by
    // policy name.
    let doc = if docs.len() == 1 {
        docs.remove(0).1
    } else {
        let keyed = docs.into_iter().map(|(name, doc)| (name.into(), doc));
        Json::Obj(keyed.collect())
    };
    if !write_metrics_doc(args, || doc) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
