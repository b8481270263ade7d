//! The diagnostics framework: stable codes, severities, spec spans,
//! and the two renderers (rustc-style text, `rota_obs::Json`).
//!
//! Every lint names itself with a stable `R`-prefixed code so tooling
//! can match on codes rather than wording; the wording itself is
//! regression-locked by the golden-file fixture tests in `rota-cli`.

use core::fmt;

use rota_obs::json::write_string;
use rota_obs::Json;

use crate::span::locate;

/// How bad a diagnostic is.
///
/// Errors are reserved for conditions that provably prevent admission
/// (or make the spec unbuildable): any spec [`RotaPolicy`] would accept
/// from a fresh state is guaranteed to carry zero error-severity
/// diagnostics. Warnings flag suspicious-but-admissible content; notes
/// are informational.
///
/// [`RotaPolicy`]: https://docs.rs/rota-admission
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational observation.
    Note,
    /// Suspicious but not necessarily fatal.
    Warning,
    /// Provably prevents admission; `rota-cli check` exits non-zero.
    Error,
}

impl Severity {
    /// The lowercase label used in rendered output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One diagnostic: a stable code, a severity, a primary message, a
/// path into the spec document, and optional supporting notes.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code, e.g. `R0008`.
    pub code: &'static str,
    /// Error / warning / note.
    pub severity: Severity,
    /// One-line human message.
    pub message: String,
    /// Dotted path into the spec document, e.g. `resources[1].end` or
    /// `computation.actors[0]`. Empty for whole-spec diagnostics.
    pub path: String,
    /// Supporting `= note:` lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Builds a diagnostic with no notes.
    pub fn new(
        code: &'static str,
        severity: Severity,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            path: path.into(),
            notes: Vec::new(),
        }
    }

    /// Appends a `= note:` line.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic in rustc style. When `source` (the spec
    /// file's text) and `file` are given and the path resolves, a
    /// caret-annotated source line is included.
    pub fn render(&self, file: Option<&str>, source: Option<&str>) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        let located = source.and_then(|text| locate(text, &self.path));
        match located {
            Some(loc) => {
                let file = file.unwrap_or("<spec>");
                out.push_str(&format!(
                    "  --> {file}:{}:{} ({})\n",
                    loc.line,
                    loc.column,
                    self.path_label()
                ));
                let gutter = loc.line.to_string();
                let pad = " ".repeat(gutter.len());
                out.push_str(&format!("{pad} |\n"));
                out.push_str(&format!("{gutter} | {}\n", loc.text));
                out.push_str(&format!(
                    "{pad} | {}^\n",
                    " ".repeat(loc.column.saturating_sub(1))
                ));
            }
            None => {
                out.push_str(&format!("  --> {}\n", self.path_label()));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  = note: {note}\n"));
        }
        out
    }

    fn path_label(&self) -> &str {
        if self.path.is_empty() {
            "spec"
        } else {
            &self.path
        }
    }

    /// The machine-readable form.
    pub fn to_json(&self, source: Option<&str>) -> Json {
        let mut pairs = vec![
            ("code".into(), Json::Str(self.code.into())),
            ("severity".into(), Json::Str(self.severity.label().into())),
            ("message".into(), Json::Str(self.message.clone())),
            ("path".into(), Json::Str(self.path.clone())),
        ];
        if let Some(loc) = source.and_then(|text| locate(text, &self.path)) {
            pairs.push(("line".into(), Json::Num(loc.line as f64)));
            pairs.push(("column".into(), Json::Num(loc.column as f64)));
        }
        if !self.notes.is_empty() {
            pairs.push((
                "notes".into(),
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Appends the compact JSON `to_json(None)` writes, without
    /// building it.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"code\":");
        write_string(out, self.code);
        out.push_str(",\"severity\":");
        write_string(out, self.severity.label());
        out.push_str(",\"message\":");
        write_string(out, &self.message);
        out.push_str(",\"path\":");
        write_string(out, &self.path);
        if !self.notes.is_empty() {
            out.push_str(",\"notes\":[");
            for (i, note) in self.notes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, note);
            }
            out.push(']');
        }
        out.push('}');
    }
}

/// The outcome of an analysis run: diagnostics in pass order, errors
/// first within equal paths not guaranteed — stable order is pass
/// order, which the golden files lock.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// All diagnostics, in emission (pass) order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Keeps only the diagnostics `keep` accepts — used by embedders
    /// that run the shared passes but own part of the spec themselves
    /// (a server validating a request against *its* supply drops
    /// style lints about that supply).
    pub fn retain(&mut self, keep: impl FnMut(&Diagnostic) -> bool) {
        self.diagnostics.retain(keep);
    }

    /// Whether any diagnostic is error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Count at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the report is empty (a clean spec).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders every diagnostic followed by a summary line, rustc
    /// style. Returns the empty string for a clean report.
    pub fn render(&self, file: Option<&str>, source: Option<&str>) -> String {
        if self.diagnostics.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render(file, source));
            out.push('\n');
        }
        let errors = self.count(Severity::Error);
        let warnings = self.count(Severity::Warning);
        let mut parts = Vec::new();
        if errors > 0 {
            parts.push(format!(
                "{errors} error{}",
                if errors == 1 { "" } else { "s" }
            ));
        }
        if warnings > 0 {
            parts.push(format!(
                "{warnings} warning{}",
                if warnings == 1 { "" } else { "s" }
            ));
        }
        if parts.is_empty() {
            parts.push(format!("{} note(s)", self.count(Severity::Note)));
        }
        out.push_str(&format!("check result: {}\n", parts.join(", ")));
        out
    }

    /// The machine-readable form: an array of diagnostic objects.
    pub fn to_json(&self, source: Option<&str>) -> Json {
        Json::Arr(self.diagnostics.iter().map(|d| d.to_json(source)).collect())
    }
}
