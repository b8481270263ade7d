//! Structural lints: shape problems visible from the declarations
//! alone, with no pricing and no scheduling (R0001–R0005, R0013,
//! R0014).
//!
//! The pass has a resource half (R0001, R0002, R0004, R0014) and a
//! computation half (R0003, R0005, R0013), so pre-admission validation
//! can run the computation half on a request without the server's
//! supply side.

use crate::diag::{Diagnostic, Report, Severity};
use crate::spec::{ComputationSpec, ResourceSpec, SpecModel};

/// The whole pass, in the order `rota-cli check` reports it.
pub(crate) fn run(model: &SpecModel, report: &mut Report) {
    resource_shape(&model.resources, report);
    computation(&model.computation, report);
    outside_window(model, report);
}

/// R0001 for one declaration.
fn empty_interval(i: usize, decl: &ResourceSpec) -> Option<Diagnostic> {
    (decl.end <= decl.start).then(|| {
        Diagnostic::new(
            "R0001",
            Severity::Error,
            format!("resources[{i}].end"),
            format!(
                "resource {} declares the empty interval ({}, {})",
                decl.located, decl.start, decl.end
            ),
        )
        .with_note("intervals are half-open (start, end); `end` must exceed `start`")
    })
}

/// R0001 alone: the only resource-side error, and so the only
/// resource-side finding pre-admission validation reports.
pub(crate) fn empty_intervals(resources: &[ResourceSpec], report: &mut Report) {
    for (i, decl) in resources.iter().enumerate() {
        if let Some(d) = empty_interval(i, decl) {
            report.push(d);
        }
    }
}

/// R0001, R0002 and R0004.
fn resource_shape(resources: &[ResourceSpec], report: &mut Report) {
    for (i, decl) in resources.iter().enumerate() {
        if let Some(d) = empty_interval(i, decl) {
            report.push(d);
        }
        if decl.rate == 0 {
            report.push(
                Diagnostic::new(
                    "R0002",
                    Severity::Warning,
                    format!("resources[{i}].rate"),
                    format!("resource {} is declared at rate 0", decl.located),
                )
                .with_note("a zero-rate term supplies nothing and cannot help any computation"),
            );
        }
    }

    for (j, decl) in resources.iter().enumerate() {
        if let Some(i) = resources[..j].iter().position(|earlier| {
            earlier.located == decl.located
                && earlier.start == decl.start
                && earlier.end == decl.end
        }) {
            report.push(
                Diagnostic::new(
                    "R0004",
                    Severity::Warning,
                    format!("resources[{j}]"),
                    format!(
                        "duplicate declaration of {} over ({}, {})",
                        decl.located, decl.start, decl.end
                    ),
                )
                .with_note(format!("first declared at resources[{i}]; rates add up — if that is intended, declare one term with the combined rate")),
            );
        }
    }
}

/// R0003, R0005 and R0013: what the request alone can get wrong.
pub(crate) fn computation(c: &ComputationSpec, report: &mut Report) {
    if c.deadline <= c.start {
        report.push(
            Diagnostic::new(
                "R0003",
                Severity::Error,
                "computation.deadline",
                format!(
                    "deadline {} does not follow start {}; the window (s, d) is empty",
                    c.deadline, c.start
                ),
            )
            .with_note("no computation can be admitted into an empty window"),
        );
    }

    for (j, actor) in c.actors.iter().enumerate() {
        if let Some(i) = c.actors[..j].iter().position(|a| a.name == actor.name) {
            report.push(
                Diagnostic::new(
                    "R0005",
                    Severity::Error,
                    format!("computation.actors[{j}].name"),
                    format!("duplicate actor name `{}`", actor.name),
                )
                .with_note(format!(
                    "first declared at computation.actors[{i}]; the system state keys commitments by actor name, so a second commitment for `{}` can never be installed", actor.name
                )),
            );
        }
        if actor.actions.is_empty() {
            report.push(
                Diagnostic::new(
                    "R0013",
                    Severity::Note,
                    format!("computation.actors[{j}].actions"),
                    format!("actor `{}` has no actions", actor.name),
                )
                .with_note("it demands nothing and contributes nothing to the computation"),
            );
        }
    }
}

/// R0014.
fn outside_window(model: &SpecModel, report: &mut Report) {
    let c = &model.computation;
    if c.deadline > c.start {
        for (i, decl) in model.resources.iter().enumerate() {
            if decl.end > decl.start && (decl.end <= c.start || decl.start >= c.deadline) {
                report.push(
                    Diagnostic::new(
                        "R0014",
                        Severity::Warning,
                        format!("resources[{i}]"),
                        format!(
                            "resource {} over ({}, {}) lies entirely outside the computation window ({}, {})",
                            decl.located, decl.start, decl.end, c.start, c.deadline
                        ),
                    )
                    .with_note("it can never serve this computation"),
                );
            }
        }
    }
}
