//! Integration tests for the observability surface: `rota-cli stats`
//! and `--metrics-out` must emit a JSON snapshot containing per-policy
//! admission counters, LTS rule-firing counts from a model-check run,
//! and at least one rejection `DecisionEvent` naming the violated
//! resource term.

use std::process::Command;

use rota_obs::Json;

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
}

#[test]
fn stats_json_covers_the_acceptance_criteria() {
    let (stdout, _, ok) = run_cli(&["stats", "--json"]);
    assert!(ok, "stats exits zero");
    let doc = Json::parse(&stdout).expect("stats --json emits valid JSON");
    let metrics = doc.get("metrics").expect("snapshot present");

    // Per-policy admission accept/reject counters.
    assert_eq!(counter(metrics, "admission.requests{policy=rota}"), 8);
    assert_eq!(counter(metrics, "admission.accepted{policy=rota}"), 2);
    assert_eq!(counter(metrics, "admission.rejected{policy=rota}"), 6);

    // LTS rule-firing counts from one model-checking run: the demo
    // checks an uncommitted system, so expiration steps dominate.
    let rule_total: u64 = [
        "sequential",
        "concurrent",
        "expiration",
        "concurrent_expiration",
        "general",
        "acquisition",
        "accommodation",
        "leave",
    ]
    .iter()
    .map(|rule| counter(metrics, &format!("logic.rule.{rule}")))
    .sum();
    assert!(rule_total > 0, "model check fired LTS rules");
    assert!(counter(metrics, "logic.states_visited") > 0);

    // ≥1 DecisionEvent with the violated resource term for a rejection.
    let decisions = doc
        .get("decisions")
        .and_then(Json::as_array)
        .expect("decisions present");
    assert!(!decisions.is_empty());
    let violated: Vec<&Json> = decisions
        .iter()
        .filter(|d| {
            d.get("accepted").and_then(Json::as_bool) == Some(false)
                && d.get("violated_term").and_then(Json::as_str).is_some()
        })
        .collect();
    assert!(
        !violated.is_empty(),
        "a rejected admission names its violated term"
    );
    let term = violated[0]
        .get("violated_term")
        .and_then(Json::as_str)
        .unwrap();
    assert!(term.contains("cpu"), "term names the resource: {term}");
    assert!(
        term.contains("short by"),
        "term names the shortfall: {term}"
    );
    // The demo's rejects are refuted by the total bound: no segment was
    // scheduled, so the clause is Section III's, not Theorem 4's.
    let clause = violated[0].get("clause").and_then(Json::as_str).unwrap();
    assert_eq!(
        clause, "Section III: total supply over (s, d) below demand",
        "a refuted reject cites the total bound"
    );
    let reason = violated[0].get("reason").and_then(Json::as_str).unwrap();
    assert!(
        reason.contains("total"),
        "the reason states the total: {reason}"
    );
}

#[test]
fn stats_table_lists_metrics_and_decisions() {
    let (stdout, _, ok) = run_cli(&["stats"]);
    assert!(ok);
    assert!(stdout.contains("admission.accepted{policy=rota}"));
    assert!(stdout.contains("logic.states_visited"));
    assert!(stdout.contains("decisions:"));
    assert!(stdout.contains("reject"));
}

#[test]
fn simulate_metrics_out_writes_snapshot() {
    let dir = std::env::temp_dir().join("rota-cli-test-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sim-metrics.json");
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) = run_cli(&[
        "simulate",
        "--seed",
        "7",
        "--load",
        "2.0",
        "--horizon",
        "48",
        "--metrics-out",
        path_str,
    ]);
    assert!(ok, "simulate exits zero: {stderr}");
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let doc = Json::parse(&text).expect("metrics file is valid JSON");
    let metrics = doc.get("metrics").expect("snapshot present");
    assert!(counter(metrics, "admission.requests{policy=rota}") > 0);
    assert!(metrics.get("sim.events_processed").is_some());
    assert!(metrics.get("sim.queue_depth").is_some());
    assert!(doc.get("decisions").and_then(Json::as_array).is_some());
    std::fs::remove_file(&path).ok();
}

#[test]
fn loadtest_server_side_line_accounts_for_lint_rejects() {
    // Four shards: location-spanning jobs are bounced by shard
    // pre-validation (R0006) before any policy sees them.
    let args = "loadtest --policy optimistic --nodes 4 --jobs 120 --connections 2 --seed 7";
    let (stdout, stderr, ok) = run_cli(&args.split(' ').collect::<Vec<_>>());
    assert!(ok, "loadtest exits zero: {stderr}");
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("server side"))
        .unwrap_or_else(|| panic!("no server side line in {stdout}"));
    let numbers: Vec<u64> = line
        .split_whitespace()
        .filter_map(|word| word.parse().ok())
        .collect();
    let [accepted, rejected, linted, decided, shards] = numbers[..] else {
        panic!("unexpected server side line: {line}");
    };
    assert_eq!(shards, 4);
    assert!(linted > 0, "spanning jobs are lint-rejected: {line}");
    assert_eq!(accepted + rejected + linted, decided);
    assert_eq!(decided, 120, "every sent job is decided somewhere: {line}");
}

/// Runs `args` plus `--metrics-out` and returns stdout and the written
/// document's text.
fn run_with_metrics_out(name: &str, args: &[&str]) -> (String, String) {
    let path = std::env::temp_dir().join(format!("rota-{name}-{}.json", std::process::id()));
    let path_str = path.to_str().unwrap();
    let mut full = args.to_vec();
    full.extend(["--metrics-out", path_str]);
    let (stdout, stderr, _) = run_cli(&full);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: metrics file not written ({e}): {stderr}"));
    std::fs::remove_file(&path).ok();
    (stdout, text)
}

#[test]
fn library_metrics_are_reproducible() {
    let (first, _, ok) = run_cli(&["stats", "--json"]);
    assert!(ok);
    let (second, _, _) = run_cli(&["stats", "--json"]);
    assert_eq!(first, second, "two stats --json runs print the same bytes");
    let args = ["simulate", "--seed", "3", "--load", "1.2"];
    let (_, first) = run_with_metrics_out("sim-repro-a", &args);
    let (_, second) = run_with_metrics_out("sim-repro-b", &args);
    assert_eq!(first, second, "two simulate runs write the same document");
}

#[test]
fn holds_prints_the_falsifying_prefix_it_records() {
    let (stdout, doc) = run_with_metrics_out(
        "holds-falsified",
        &[
            "holds",
            "--resources",
            "[4]^(0,8)_cpu@l1",
            "--formula",
            "always satisfy(cpu@l1:8 in 0..8)",
        ],
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[1], "verdict : DOES NOT HOLD");
    assert_eq!(lines[2], "falsified after:");
    let printed: Vec<&str> = lines[3..].to_vec();
    let expected: Vec<String> = (0..7)
        .map(|i| format!("  {i:>3}. step{{expire ⟨cpu, l1⟩}}"))
        .collect();
    assert_eq!(printed, expected);
    let doc = Json::parse(&doc).expect("metrics file is JSON");
    let decisions = doc.get("decisions").and_then(Json::as_array).unwrap();
    let [check] = decisions else {
        panic!("one model-check decision: {decisions:?}");
    };
    assert_eq!(
        check.get("type").and_then(Json::as_str),
        Some("model_check")
    );
    assert_eq!(check.get("verdict").and_then(Json::as_bool), Some(false));
    let prefix: Vec<&str> = check
        .get("falsifying_prefix")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|step| step.as_str().unwrap())
        .collect();
    let printed_steps: Vec<&str> = printed
        .iter()
        .map(|line| line.split_once(". ").unwrap().1)
        .collect();
    assert_eq!(
        prefix, printed_steps,
        "the record carries the printed prefix"
    );
}

#[test]
fn holds_prints_nothing_after_a_held_verdict() {
    let (stdout, doc) = run_with_metrics_out(
        "holds-held",
        &[
            "holds",
            "--resources",
            "[4]^(0,100)_cpu@l1",
            "--formula",
            "always satisfy(cpu@l1:4 in 0..100)",
        ],
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert_eq!(lines[1], "verdict : HOLDS");
    let doc = Json::parse(&doc).expect("metrics file is JSON");
    let decisions = doc.get("decisions").and_then(Json::as_array).unwrap();
    assert_eq!(decisions.len(), 1);
    assert_eq!(
        decisions[0].get("verdict").and_then(Json::as_bool),
        Some(true)
    );
    let prefix = decisions[0]
        .get("falsifying_prefix")
        .and_then(Json::as_array);
    assert_eq!(prefix.map(<[Json]>::len), Some(0));
}
