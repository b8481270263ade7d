//! Golden-file tests for `rota-cli check` over the lint fixtures.
//!
//! Each fixture under `tests/fixtures/` triggers exactly one lint code
//! (plus any codes that necessarily co-fire) with a known exit status;
//! `clean.json` triggers none. The table below is the contract the
//! `just check-fixtures` recipe re-verifies: running the real binary,
//! parsing its `--format json` output, and comparing the emitted code
//! set and exit code against the expectation.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use rota_obs::Json;

/// (fixture, exact set of expected codes, expected exit code).
///
/// Exit 0: admissible, warnings and notes do not block. Exit 1: lint
/// errors, admission not attempted.
const CASES: &[(&str, &[&str], i32)] = &[
    ("clean.json", &[], 0),
    ("r0001_empty_interval.json", &["R0001"], 1),
    ("r0002_zero_rate.json", &["R0002"], 0),
    ("r0003_bad_window.json", &["R0003"], 1),
    ("r0004_duplicate_resource.json", &["R0004"], 0),
    ("r0005_duplicate_actor.json", &["R0005"], 1),
    // The sole cpu term serves nobody once the only actor sits at an
    // unsupplied location, so R0007 necessarily co-fires.
    ("r0006_unknown_supply.json", &["R0006", "R0007"], 1),
    ("r0007_unused_term.json", &["R0007"], 0),
    ("r0008_overcommit.json", &["R0008"], 1),
    ("r0009_tight.json", &["R0009"], 0),
    ("r0010_infeasible_schedule.json", &["R0010"], 1),
    ("r0011_conflicting_constraints.json", &["R0011"], 1),
    ("r0012_unknown_ref.json", &["R0012"], 1),
    ("r0013_idle_actor.json", &["R0013"], 0),
    ("r0014_outside_window.json", &["R0014"], 0),
    ("r0015_unknown_relation.json", &["R0015"], 1),
];

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn run_check(name: &str, json: bool) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rota-cli"));
    cmd.arg("check").arg(fixture(name));
    if json {
        cmd.args(["--format", "json"]);
    }
    let out = cmd.output().expect("spawn rota-cli");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn fixtures_emit_exactly_their_codes() {
    for (name, expected_codes, expected_exit) in CASES {
        let (exit, stdout, stderr) = run_check(name, true);
        assert_eq!(
            exit, *expected_exit,
            "{name}: exit {exit}, expected {expected_exit}\nstdout: {stdout}\nstderr: {stderr}"
        );
        let doc =
            Json::parse(&stdout).unwrap_or_else(|e| panic!("{name}: bad JSON ({e}): {stdout}"));
        let emitted: BTreeSet<String> = doc
            .get("diagnostics")
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{name}: no diagnostics array"))
            .iter()
            .filter_map(|d| d.get("code").and_then(Json::as_str))
            .map(str::to_string)
            .collect();
        let expected: BTreeSet<String> = expected_codes.iter().map(|c| c.to_string()).collect();
        assert_eq!(emitted, expected, "{name}: code set mismatch\n{stdout}");
        // Severity in the output matches the published code table.
        for d in doc.get("diagnostics").and_then(Json::as_array).unwrap() {
            let code = d.get("code").and_then(Json::as_str).unwrap();
            let sev = d.get("severity").and_then(Json::as_str).unwrap();
            let table = rota_analyze::CODES
                .iter()
                .find(|(c, _, _)| *c == code)
                .unwrap_or_else(|| panic!("{name}: code {code} missing from CODES"));
            let expected_sev = match table.1 {
                rota_analyze::Severity::Error => "error",
                rota_analyze::Severity::Warning => "warning",
                rota_analyze::Severity::Note => "note",
            };
            assert_eq!(sev, expected_sev, "{name}: {code} severity drifted");
            // Every diagnostic resolves to a real span in the file.
            assert!(d.get("line").is_some(), "{name}: {code} lost its span");
        }
        let verdict = doc.get("verdict").and_then(Json::as_str).unwrap();
        if *expected_exit == 1 {
            assert_eq!(verdict, "lint-error", "{name}");
        } else {
            assert_eq!(verdict, "admissible", "{name}");
        }
    }
}

/// The corpus itself demonstrates at least 8 distinct error codes with
/// a non-zero exit — the analyzer's acceptance bar.
#[test]
fn corpus_covers_at_least_eight_error_codes() {
    let covered: BTreeSet<&str> = CASES
        .iter()
        .filter(|(_, _, exit)| *exit != 0)
        .flat_map(|(_, codes, _)| codes.iter().copied())
        .filter(|code| {
            rota_analyze::CODES
                .iter()
                .any(|(c, sev, _)| c == code && *sev == rota_analyze::Severity::Error)
        })
        .collect();
    assert!(
        covered.len() >= 8,
        "only {} error codes demonstrated: {covered:?}",
        covered.len()
    );
}

/// Text mode renders rustc-style diagnostics with carets into the spec
/// text, and explains that admission was not attempted.
#[test]
fn text_mode_renders_spans() {
    let (exit, _stdout, stderr) = run_check("r0008_overcommit.json", false);
    assert_eq!(exit, 1, "{stderr}");
    assert!(stderr.contains("error[R0008]"), "{stderr}");
    assert!(stderr.contains("-->"), "{stderr}");
    assert!(stderr.contains('^'), "{stderr}");
    assert!(stderr.contains("check result: 1 error"), "{stderr}");
    assert!(stderr.contains("admission not attempted"), "{stderr}");
}

/// The clean fixture stays byte-boring: no diagnostics, zero counts.
#[test]
fn clean_fixture_reports_zero_counts() {
    let (exit, stdout, _stderr) = run_check("clean.json", true);
    assert_eq!(exit, 0);
    let doc = Json::parse(&stdout).unwrap();
    assert_eq!(doc.get("errors").and_then(Json::as_u64), Some(0));
    assert_eq!(doc.get("warnings").and_then(Json::as_u64), Some(0));
    assert_eq!(
        doc.get("diagnostics")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(0)
    );
}
