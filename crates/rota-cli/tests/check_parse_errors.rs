//! Golden tests for `rota-cli check` on specs the strict codec refuses.
//!
//! Each spec under `tests/fixtures/parse/` breaks the schema in one
//! way. The real binary must exit 1, print nothing on stdout, and print
//! exactly one `check: spec parse error: <ctx>: …` line on stderr — the
//! message naming the offending field, byte for byte.

use std::path::Path;
use std::process::Command;

/// Runs `check` on one fixture and asserts the exact stderr line
/// (without its newline), exit 1 and an empty stdout.
fn assert_parse_error(name: &str, expected: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parse")
        .join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_rota-cli"))
        .arg("check")
        .arg(&path)
        .output()
        .expect("spawn rota-cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{name}: stderr {stderr}");
    assert_eq!(stdout, "", "{name}");
    assert_eq!(stderr, format!("{expected}\n"), "{name}");
}

#[test]
fn unknown_field_is_named_with_the_allowed_set() {
    assert_parse_error(
        "unknown_field.json",
        "check: spec parse error: resources[0]: unknown field `zone`, \
         expected one of [\"kind\", \"location\", \"rate\", \"start\", \"end\"]",
    );
}

#[test]
fn duplicate_key_is_named() {
    assert_parse_error(
        "duplicate_key.json",
        "check: spec parse error: computation: duplicate field `deadline`",
    );
}

#[test]
fn mistyped_field_is_named() {
    assert_parse_error(
        "mistyped_field.json",
        "check: spec parse error: actor `worker` actions[0]: \
         field `work` must be a non-negative integer",
    );
}

/// 2^53 + 1 has no exact `f64`; the codec refuses it rather than
/// reading the neighbouring 2^53.
#[test]
fn integer_above_the_exact_range_is_refused() {
    assert_parse_error(
        "large_integer.json",
        "check: spec parse error: resources[0]: field `end` must be a non-negative integer",
    );
}
