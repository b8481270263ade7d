//! The deadline-feasibility precheck (R0010): run the Theorem 3/4
//! conditions symbolically — schedule every actor's requirement into
//! the resources that would otherwise expire on a fresh state — and
//! flag computations no schedule can save.
//!
//! This is exactly the check `RotaPolicy` performs at admission time
//! against an uncommitted state, so the precheck is both sound and
//! complete for a fresh system: R0010 fires iff a fresh `RotaPolicy`
//! would reject. (Cascade suppression: when R0006/R0008 already
//! proved a capacity hole, the precheck is skipped — it could only
//! restate the same root cause.)

use rota_actor::ConcurrentRequirement;
use rota_interval::TimePoint;
use rota_logic::{schedule_concurrent, State};
use rota_resource::ResourceSet;

use crate::diag::{Diagnostic, Report, Severity};
use crate::spec::SpecModel;

pub(crate) fn run(
    model: &SpecModel,
    theta: &ResourceSet,
    requirement: Option<&ConcurrentRequirement>,
    report: &mut Report,
) {
    let Some(requirement) = requirement else {
        return;
    };
    if report
        .diagnostics()
        .iter()
        .any(|d| d.code == "R0006" || d.code == "R0008")
    {
        return;
    }
    let state = State::new(theta.clone(), TimePoint::new(0));
    if let Err((actor_index, err)) =
        schedule_concurrent(&state.expiring_resources(), requirement, state.now())
    {
        let actor_name = model
            .computation
            .actors
            .get(actor_index)
            .map_or("?", |a| a.name.as_str());
        let theorem = if requirement.parts().len() == 1 {
            "Theorem 3 (meet-deadline path)"
        } else {
            "Theorem 4: segment feasibility over Θ_expire"
        };
        let mut d = Diagnostic::new(
            "R0010",
            Severity::Error,
            format!("computation.actors[{actor_index}]"),
            format!(
                "no schedule lets actor `{actor_name}` meet deadline {}: {err}",
                model.computation.deadline
            ),
        );
        if let Some(lt) = err.located() {
            d = d.with_note(format!("{lt} short by {}", err.shortfall()));
        }
        d = d.with_note(format!("violated clause: {theorem}"));
        report.push(d);
    }
}
