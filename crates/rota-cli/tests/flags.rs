//! The CLI rejects what it does not understand: each verb has one table
//! of accepted flags, and an unknown flag, a missing value, or a value
//! that does not parse exits 1 with the usage text — before anything
//! binds a port.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the binary and waits at most 20 s: a verb that got past its
/// flags would bind and serve until killed.
fn run_bounded(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("wait").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`rota-cli {}` did not exit", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    let (status, stdout, stderr) = run_bounded(args);
    assert_eq!(status, Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        stderr.contains("USAGE:"),
        "{args:?} prints the usage: {stderr}"
    );
    assert!(stdout.is_empty(), "{args:?} did nothing else: {stdout}");
}

#[test]
fn serve_help_exits_without_binding() {
    assert_usage_error(&["serve", "--help"], "serve: unexpected argument `--help`");
}

#[test]
fn unparsable_values_exit_without_running() {
    assert_usage_error(
        &["loadtest", "--shards", "x"],
        "loadtest: bad value `x` for `--shards`",
    );
    assert_usage_error(
        &["serve", "--shards", "abc"],
        "bad value `abc` for `--shards`",
    );
    assert_usage_error(
        &["serve", "--addr", "nowhere"],
        "bad value `nowhere` for `--addr`",
    );
    assert_usage_error(&["simulate", "--shape", "ring"], "unknown shape `ring`");
}

#[test]
fn unknown_flags_and_missing_values_exit_with_usage() {
    assert_usage_error(
        &["cluster", "--bogus", "1"],
        "unexpected argument `--bogus`",
    );
    assert_usage_error(&["simulate", "--seed"], "`--seed` needs a value");
    assert_usage_error(&["stats", "extra"], "unexpected argument `extra`");
    // `--cluster` is a loadtest flag, not a simulate one.
    assert_usage_error(
        &["simulate", "--cluster", "3"],
        "unexpected argument `--cluster`",
    );
    // Faults come from outside the process (a proxy in the tests), so
    // neither service verb takes a fault plan.
    for verb in ["serve", "loadtest"] {
        assert_usage_error(
            &[verb, "--chaos", "seed=1"],
            &format!("{verb}: unexpected argument `--chaos`"),
        );
    }
}

#[test]
fn every_verb_accepts_metrics_out_and_the_service_flags() {
    let out = std::env::temp_dir().join("rota-cli-flags-metrics.json");
    let out = out.to_str().unwrap();
    let (status, stdout, stderr) = run_bounded(&[
        "cluster",
        "--seed",
        "1",
        "--gossip-ms",
        "20",
        "--shards",
        "1",
        "--nodes",
        "2",
        "--horizon",
        "64",
        "--queue",
        "8",
        "--duration-ms",
        "50",
        "--metrics-out",
        out,
    ]);
    assert_eq!(status, Some(0), "{stderr}");
    assert!(stdout.starts_with("cluster: 2 nodes"), "{stdout}");

    // `serve` runs until stopped: read its banner, then kill it.
    let mut child = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--policy",
            "rota",
            "--shards",
            "2",
            "--nodes",
            "4",
            "--horizon",
            "64",
            "--queue",
            "8",
            "--metrics-out",
            out,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut banner)
        .expect("banner");
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        banner.starts_with("serving `rota` admission on 127.0.0.1:"),
        "{banner}"
    );
    assert!(banner.contains("2 shards, queue 8 each"), "{banner}");
}

#[test]
fn every_verb_knows_the_same_four_policies() {
    let small = ["--horizon", "48", "--nodes", "3"];
    for policy in ["rota", "naive", "optimistic", "edf"] {
        let mut args = vec!["simulate", "--policy", policy];
        args.extend(small);
        let (status, stdout, stderr) = run_bounded(&args);
        assert_eq!(status, Some(0), "{args:?}: {stderr}");
        assert!(stdout.contains(&format!("\npolicy {policy}: ")), "{stdout}");
    }

    let mut args = vec!["compare"];
    args.extend(small);
    let (status, stdout, stderr) = run_bounded(&args);
    assert_eq!(status, Some(0), "{stderr}");
    let rows: Vec<&str> = stdout
        .lines()
        .skip(2)
        .filter_map(|row| row.split_whitespace().next())
        .collect();
    assert_eq!(
        rows,
        ["rota", "greedy-edf", "naive-total", "optimistic"],
        "{stdout}"
    );

    for verb in ["serve", "loadtest", "simulate"] {
        let (status, stdout, stderr) = run_bounded(&[verb, "--policy", "bogus"]);
        assert_eq!(status, Some(1), "{verb}: {stderr}");
        assert!(stdout.is_empty(), "{verb} did nothing else: {stdout}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.contains("`bogus`"), "{verb}: {error}");
        for known in ["rota", "naive", "optimistic", "edf"] {
            assert!(error.contains(known), "{verb} names `{known}`: {error}");
        }
    }
}

#[test]
fn cluster_refuses_topology_files_it_does_not_understand() {
    let dir = std::env::temp_dir().join(format!("rota-cli-topology-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases = [
        (
            "bad-addr",
            r#"{"nodes": [{"id": "a", "addr": "not-an-address", "locations": ["l0"]},
                          {"id": "b", "locations": ["l1"]}]}"#,
            "cluster: topology: node `a`: address `not-an-address` is not `ip:port`",
        ),
        (
            "unknown-key",
            r#"{"nodes": [{"id": "a", "locations": ["l0"], "colour": "red"},
                          {"id": "b", "locations": ["l1"]}]}"#,
            "cluster: topology: node `a`: unknown key `colour`",
        ),
        (
            "numeric-addr",
            r#"{"nodes": [{"id": "a", "locations": ["l0"]},
                          {"id": "b", "addr": 7, "locations": ["l1"]}]}"#,
            "cluster: topology: node `b`: `addr` must be a string",
        ),
    ];
    for (name, text, error) in cases {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).expect("write topology");
        let path = path.to_str().expect("utf-8 temp path");
        let args = ["cluster", "--topology", path, "--duration-ms", "300"];
        let (status, stdout, stderr) = run_bounded(&args);
        assert_eq!(status, Some(1), "{name}: {stderr}");
        assert_eq!(stderr.lines().next(), Some(error), "{name}: {stderr}");
        assert!(stdout.is_empty(), "{name} started no node: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
