//! repolint — source-level lints the compiler does not enforce,
//! run from `just verify` alongside clippy.
//!
//! Checks, over every `crates/*/src` tree:
//!
//! 1. `todo!(` / `dbg!(` anywhere (debug leftovers);
//! 2. `.unwrap()` / `.expect(` in **non-test** code of the service
//!    crates (`rota-server`, `rota-client`, `rota-cluster`) — the
//!    serving path must degrade, not panic. A line may opt out with a
//!    `// PANIC-OK: <reason>` comment on the same line or in the comment
//!    block immediately above;
//! 3. crate roots (`src/lib.rs` / `src/main.rs`) must carry
//!    `#![forbid(unsafe_code)]`;
//! 4. no clock read (`Instant::now`, `SystemTime::now`, `.elapsed()`)
//!    in the **non-test** code of `rota-server`'s `src/shard.rs`,
//!    `rota-admission`'s `src/controller.rs` and `rota-logic`'s
//!    `src/formula.rs` — a shard is a state machine whose time is
//!    passed in by its pool, which reads it through `rota_server::Clock`
//!    (defined elsewhere), and the library's admission and
//!    model-checking verdicts are functions of their inputs: whoever
//!    wants them timed times the call;
//! 5. in the **non-test** code of `rota-server`'s `src/shard.rs`, a
//!    shard's `state.lock()` appears only in the functions `locked`,
//!    `locked_all` and `decisions`. A call that holds several shard locks
//!    is deadlock-free only while each takes them in the one index order
//!    `ShardPool::locked_all` does, so no other function may take one.
//!
//! Test code — `#[cfg(test)]` modules, `tests/`, `benches/`,
//! `examples/` — is exempt from rules 2, 4 and 5.
//!
//! Exit status: 0 clean, 1 findings, 2 usage/IO error.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose non-test code must not panic on `Option`/`Result`.
const NO_PANIC_CRATES: &[&str] = &["rota-server", "rota-client", "rota-cluster"];

/// `(crate, file under src/)` whose non-test code must not read a clock.
const CLOCKLESS_FILES: &[(&str, &str)] = &[
    ("rota-server", "shard.rs"),
    ("rota-admission", "controller.rs"),
    ("rota-logic", "formula.rs"),
];

/// What reads a clock.
const CLOCK_READS: &[&str] = &["Instant::now", "SystemTime::now", ".elapsed()"];

/// `(crate, file under src/)` whose non-test code takes a shard's lock
/// only in [`LOCK_TAKERS`].
const LOCK_ORDER_FILE: (&str, &str) = ("rota-server", "shard.rs");

/// The functions that may take a shard's lock: one shard, every shard
/// in index order, and one shard at a time.
const LOCK_TAKERS: &[&str] = &["locked", "locked_all", "decisions"];

/// Taking a shard's lock.
const SHARD_LOCK: &str = "state.lock()";

#[derive(Debug)]
struct Finding {
    file: PathBuf,
    line: usize,
    message: String,
}

fn main() {
    let root = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let crates_dir = Path::new(&root).join("crates");
    let mut findings = Vec::new();

    let crate_dirs = match sorted_dirs(&crates_dir) {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("repolint: cannot read {}: {e}", crates_dir.display());
            std::process::exit(2);
        }
    };

    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = crate_dir.join("src");
        let Ok(files) = rust_files(&src) else {
            continue;
        };
        let mut has_root = false;
        for file in &files {
            let Ok(text) = std::fs::read_to_string(file) else {
                continue;
            };
            let is_root =
                file.ends_with(Path::new("lib.rs")) || file.ends_with(Path::new("main.rs"));
            let is_direct_child = file.parent() == Some(src.as_path());
            if is_root && is_direct_child {
                has_root = true;
                if !text.contains("#![forbid(unsafe_code)]") {
                    findings.push(Finding {
                        file: file.clone(),
                        line: 1,
                        message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
                    });
                }
            }
            lint_file(&crate_name, file, &text, &mut findings);
        }
        if !files.is_empty() && !has_root {
            findings.push(Finding {
                file: src.clone(),
                line: 1,
                message: "crate has no src/lib.rs or src/main.rs root".into(),
            });
        }
    }

    if findings.is_empty() {
        println!("repolint: clean ({} crates)", crate_dirs.len());
        return;
    }
    let mut out = String::new();
    for f in &findings {
        let _ = writeln!(out, "{}:{}: {}", f.file.display(), f.line, f.message);
    }
    eprint!("{out}");
    eprintln!("repolint: {} finding(s)", findings.len());
    std::process::exit(1);
}

fn sorted_dirs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// All `.rs` files under `dir`, recursively, in stable order.
fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&current)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lexical state carried across lines so multi-line strings and block
/// comments never contribute fake braces or fake matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Ordinary `"…"` string.
    Str,
    /// Raw string `r##"…"##` with this many hashes.
    RawStr(usize),
    /// `/* … */` comments, which nest in Rust.
    Block(usize),
}

/// Strips comments and string/char literals from one line, updating
/// `mode` for the next line. Returns only the code characters.
fn code_portion(line: &str, mode: &mut Mode) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        match *mode {
            Mode::Str => match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    *mode = Mode::Code;
                    i += 1;
                }
                _ => i += 1,
            },
            Mode::RawStr(hashes) => {
                if bytes[i] == b'"'
                    && bytes[i + 1..].len() >= hashes
                    && bytes[i + 1..i + 1 + hashes].iter().all(|&b| b == b'#')
                {
                    *mode = Mode::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            Mode::Block(depth) => {
                if bytes[i..].starts_with(b"*/") {
                    *mode = if depth > 1 {
                        Mode::Block(depth - 1)
                    } else {
                        Mode::Code
                    };
                    i += 2;
                } else if bytes[i..].starts_with(b"/*") {
                    *mode = Mode::Block(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Mode::Code => {
                let rest = &bytes[i..];
                if rest.starts_with(b"//") {
                    break;
                }
                if rest.starts_with(b"/*") {
                    *mode = Mode::Block(1);
                    i += 2;
                    continue;
                }
                // Raw (byte) string openers: r"…", r#"…"#, br"…", …
                let after_prefix = if rest.starts_with(b"br") || rest.starts_with(b"cr") {
                    Some(2)
                } else if rest.starts_with(b"r") {
                    Some(1)
                } else {
                    None
                };
                if let Some(skip) = after_prefix {
                    let tail = &rest[skip..];
                    let hashes = tail.iter().take_while(|&&b| b == b'#').count();
                    if tail.get(hashes) == Some(&b'"')
                        && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_')
                    {
                        *mode = Mode::RawStr(hashes);
                        i += skip + hashes + 1;
                        continue;
                    }
                }
                match bytes[i] {
                    b'"' => {
                        *mode = Mode::Str;
                        i += 1;
                    }
                    b'\'' => {
                        // Char literal vs lifetime: a literal closes with
                        // `'` after one (possibly escaped) character.
                        if rest.len() >= 3 && rest[1] == b'\\' {
                            let close = rest[2..].iter().position(|&b| b == b'\'');
                            i += close.map_or(1, |c| c + 3);
                        } else if rest.len() >= 3 && rest[2] == b'\'' {
                            i += 3;
                        } else {
                            out.push('\'');
                            i += 1;
                        }
                    }
                    b => {
                        out.push(b as char);
                        i += 1;
                    }
                }
            }
        }
    }
    out
}

fn lint_file(crate_name: &str, file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let no_panic = NO_PANIC_CRATES.contains(&crate_name);
    let in_src = |&(krate, name): &(&str, &str)| {
        krate == crate_name && file.ends_with(Path::new("src").join(name))
    };
    let clockless = CLOCKLESS_FILES.iter().any(in_src);
    let lock_ordered = in_src(&LOCK_ORDER_FILE);
    // The functions whose bodies enclose the line, innermost last, each
    // with the depth its body opened at; and a signature seen whose body
    // has not opened yet.
    let mut functions: Vec<(String, i64)> = Vec::new();
    let mut signature: Option<String> = None;
    // Depth of the brace nesting, and the depth at which a
    // `#[cfg(test)]` item started — everything inside is test code.
    let mut depth: i64 = 0;
    let mut test_from: Option<i64> = None;
    let mut pending_cfg_test = false;
    let mut mode = Mode::Code;
    // A `// PANIC-OK` marker exempts the first code line after its
    // comment block.
    let mut panic_ok_pending = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = code_portion(raw, &mut mode);
        let trimmed = code.trim();

        if test_from.is_none() && trimmed.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }

        let in_test = test_from.is_some();
        if !in_test {
            for pattern in ["todo!(", "dbg!("] {
                if code.contains(pattern) {
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line: line_no,
                        message: format!("banned pattern `{}`", &pattern[..pattern.len() - 1]),
                    });
                }
            }
            if clockless {
                for read in CLOCK_READS.iter().filter(|read| code.contains(*read)) {
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line: line_no,
                        message: format!(
                            "clock read `{read}` in {crate_name} non-test code of a clockless \
                             file (pass the time in, or time the call from outside)"
                        ),
                    });
                }
            }
            if lock_ordered && code.contains(SHARD_LOCK) {
                let within = functions.last().map_or("", |(name, _)| name.as_str());
                if !LOCK_TAKERS.contains(&within) {
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line: line_no,
                        message: format!(
                            "shard lock `{SHARD_LOCK}` taken in `{within}`: only {} may take \
                             one, so every multi-shard call keeps the index order",
                            LOCK_TAKERS.join(", ")
                        ),
                    });
                }
            }
            if no_panic
                && (code.contains(".unwrap()") || code.contains(".expect("))
                && !raw.contains("PANIC-OK")
                && !panic_ok_pending
            {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: line_no,
                    message: format!(
                        "`unwrap()`/`expect()` in {crate_name} non-test code (append `// PANIC-OK: <reason>` if the invariant is local and documented)"
                    ),
                });
            }
        }
        if raw.contains("PANIC-OK") {
            panic_ok_pending = true;
        } else if !trimmed.is_empty() {
            panic_ok_pending = false;
        }

        if let Some(name) = declared_function(&code) {
            signature = Some(name);
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_cfg_test && test_from.is_none() {
                        test_from = Some(depth);
                        pending_cfg_test = false;
                    }
                    if let Some(name) = signature.take() {
                        functions.push((name, depth));
                    }
                }
                '}' => {
                    if test_from == Some(depth) {
                        test_from = None;
                    }
                    if functions.last().is_some_and(|&(_, opened)| opened == depth) {
                        functions.pop();
                    }
                    depth -= 1;
                }
                // A declaration without a body.
                ';' => signature = None,
                _ => {}
            }
        }
    }
}

/// The name of the last function a line of code declares (`fn name`),
/// if any.
fn declared_function(code: &str) -> Option<String> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = None;
    for (at, _) in code.match_indices("fn ") {
        if code[..at].chars().next_back().is_some_and(is_ident) {
            continue;
        }
        let name: String = code[at + 3..]
            .trim_start()
            .chars()
            .take_while(|&c| is_ident(c))
            .collect();
        if !name.is_empty() {
            found = Some(name);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(crate_name: &str, file: &str, text: &str) -> Vec<(usize, String)> {
        let mut findings = Vec::new();
        lint_file(crate_name, Path::new(file), text, &mut findings);
        findings.into_iter().map(|f| (f.line, f.message)).collect()
    }

    const SHARD: &str = "crates/rota-server/src/shard.rs";

    #[test]
    fn a_shard_lock_outside_the_lock_takers_is_flagged() {
        let text = "\
impl ShardPool {
    fn locked_all<R>(&self, now: Instant, f: impl FnOnce(&mut [Guard]) -> R) -> R {
        let states = self.shards.iter().map(|shard| shard.state.lock()).collect();
        f(&mut states)
    }

    fn decisions(&self) -> Vec<Arc<str>> {
        let frames = |shard: &Shard| {
            let state = shard.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.frames()
        };
        self.shards.iter().flat_map(frames).collect()
    }

    fn stats(&self) -> Stats {
        let first = self.shards[0].state.lock();
        let second = self.shards[1].state.lock();
    }
}

#[cfg(test)]
mod tests {
    fn reaches_in(pool: &ShardPool) {
        pool.shards[1].state.lock();
    }
}
";
        let findings = lint("rota-server", SHARD, text);
        let lines: Vec<usize> = findings.iter().map(|(line, _)| *line).collect();
        assert_eq!(lines, [16, 17], "{findings:?}");
        assert!(findings[0].1.contains("taken in `stats`"), "{findings:?}");
        assert!(lint("rota-server", "crates/rota-server/src/server.rs", text).is_empty());
    }

    #[test]
    fn a_declaration_without_a_body_does_not_name_the_next_block() {
        let text = "\
trait Lock {
    fn lock_it(&self);
}
fn locked(shard: &Shard) {
    let state = shard.state.lock();
}
fn other(shard: &Shard) {
    if true {
        let state = shard.state.lock();
    }
}
";
        let lines: Vec<usize> = lint("rota-server", SHARD, text)
            .iter()
            .map(|f| f.0)
            .collect();
        assert_eq!(lines, [9]);
    }
}
