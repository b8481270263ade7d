//! Demand-vs-supply lints: unknown located types (R0006), unused
//! supply (R0007), and the overcommitment sweep (R0008/R0009).
//!
//! The sweep walks each demanded located type's supply profile across
//! the computation window — the same event boundaries a sweep-line
//! over rate change-points visits — accumulating the obtainable
//! quantity. An integral short of the summed demand is *provably*
//! fatal (Theorem 4's premise can never hold: even the naive
//! total-quantity bound fails), so it is an error; an exact match
//! leaves zero slack and is flagged as tight.

use rota_actor::ResourceDemand;
use rota_interval::TimeInterval;
use rota_resource::{LocatedType, Quantity, ResourceSet};

use crate::diag::{Diagnostic, Report, Severity};
use crate::spec::{ActionSpec, ComputationSpec, SpecModel};

/// Index of the first declaration supplying `lt`, if any.
fn first_supply(model: &SpecModel, lt: &LocatedType) -> Option<usize> {
    model.resources.iter().position(|d| &d.located == lt)
}

/// Best-effort attribution of a demand back to the spec fragment that
/// induces it: the actor origin, `migrate`, or `send` that makes the
/// cost model charge `lt`.
fn demand_site(computation: &ComputationSpec, lt: &LocatedType) -> String {
    match lt {
        LocatedType::Node { location, .. } => {
            let name = location.name();
            for (i, actor) in computation.actors.iter().enumerate() {
                if actor.origin == name {
                    return format!("computation.actors[{i}].origin");
                }
            }
            for (i, actor) in computation.actors.iter().enumerate() {
                for (j, action) in actor.actions.iter().enumerate() {
                    if matches!(action, ActionSpec::Migrate { dest } if dest == name) {
                        return format!("computation.actors[{i}].actions[{j}]");
                    }
                }
            }
        }
        LocatedType::Link { to, .. } => {
            let name = to.name();
            for (i, actor) in computation.actors.iter().enumerate() {
                for (j, action) in actor.actions.iter().enumerate() {
                    let hits = match action {
                        ActionSpec::Send { dest, .. } => dest == name,
                        ActionSpec::Migrate { dest } => dest == name,
                        _ => false,
                    };
                    if hits {
                        return format!("computation.actors[{i}].actions[{j}]");
                    }
                }
            }
        }
    }
    "computation".to_string()
}

/// R0006: positive demand on a located type with no supply anywhere —
/// one lookup per demanded type.
pub(crate) fn unknown_supply(
    computation: &ComputationSpec,
    supply: &ResourceSet,
    demand: &ResourceDemand,
    report: &mut Report,
) {
    for (lt, q) in demand.iter() {
        if !q.is_zero() && !supply.supplies(lt) {
            report.push(
                Diagnostic::new(
                    "R0006",
                    Severity::Error,
                    demand_site(computation, lt),
                    format!(
                        "computation demands {q} of {lt}, but the spec declares no such resource"
                    ),
                )
                .with_note(
                    "every located type a computation touches needs at least one resource term",
                )
                .with_note("check the location name for typos"),
            );
        }
    }
}

pub(crate) fn run(
    model: &SpecModel,
    theta: &ResourceSet,
    demand: Option<&ResourceDemand>,
    window: Option<TimeInterval>,
    report: &mut Report,
) {
    let Some(demand) = demand else { return };

    unknown_supply(&model.computation, theta, demand, report);

    // R0007: declared supply the computation never touches.
    for (i, decl) in model.resources.iter().enumerate() {
        if decl.rate == 0 || decl.end <= decl.start {
            continue; // already R0002 / R0001
        }
        if decl
            .interval()
            .zip(window)
            .is_some_and(|(iv, w)| iv.intersect(&w).is_none())
        {
            continue; // already R0014
        }
        if demand.amount(&decl.located).is_zero() {
            report.push(
                Diagnostic::new(
                    "R0007",
                    Severity::Warning,
                    format!("resources[{i}]"),
                    format!(
                        "resource {} is never demanded by the computation",
                        decl.located
                    ),
                )
                .with_note("harmless for this check, but the declaration may be stale"),
            );
        }
    }

    // R0008/R0009: the overcommitment sweep.
    let Some(window) = window else { return };
    for (lt, q) in demand.iter() {
        if q.is_zero() {
            continue;
        }
        let Some(first) = first_supply(model, lt) else {
            continue; // already R0006
        };
        // Sweep the profile's change points across the window,
        // accumulating the obtainable quantity and remembering where
        // supply runs out.
        let profile = theta.profile(lt);
        let mut obtained = Quantity::ZERO;
        let mut exhausted_at = window.start();
        for (iv, rate) in profile.segments() {
            let Some(shared) = iv.intersect(&window) else {
                continue;
            };
            let len = shared.end().ticks().saturating_sub(shared.start().ticks());
            obtained = obtained
                .checked_add(Quantity::new(rate.units_per_tick().saturating_mul(len)))
                .unwrap_or(Quantity::new(u64::MAX));
            exhausted_at = exhausted_at.max(shared.end());
        }
        if obtained < q {
            let slack = window.end().ticks().saturating_sub(exhausted_at.ticks());
            let mut d = Diagnostic::new(
                "R0008",
                Severity::Error,
                format!("resources[{first}]"),
                format!(
                    "demand for {lt} overcommits its supply: {q} demanded vs {obtained} obtainable over {window}"
                ),
            )
            .with_note(format!(
                "short by {} even if every declared tick is consumed",
                q.saturating_sub(obtained)
            ));
            if slack > 0 {
                d = d.with_note(format!(
                    "supply of {lt} is exhausted at t={exhausted_at}, {slack} tick(s) before the deadline"
                ));
            }
            report.push(d);
        } else if obtained == q {
            report.push(
                Diagnostic::new(
                    "R0009",
                    Severity::Warning,
                    format!("resources[{first}]"),
                    format!(
                        "supply of {lt} is exactly tight: {q} demanded vs {obtained} obtainable over {window}"
                    ),
                )
                .with_note("any competing admission or timing slip leaves this computation short"),
            );
        }
    }
}
