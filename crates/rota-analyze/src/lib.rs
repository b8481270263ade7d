//! # rota-analyze — static analysis for ROTA specs
//!
//! A compiler-style front end for deadline assurance: lint passes run
//! over a parsed spec *without executing it*, and report findings as
//! stable-coded diagnostics ([`Diagnostic`]) with severities, spec
//! spans, rustc-style rendering, and `rota_obs::Json` machine output.
//!
//! ## Diagnostic codes
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | R0001 | error    | resource interval is empty (`end ≤ start`) |
//! | R0002 | warning  | resource declared at rate 0 |
//! | R0003 | error    | computation deadline does not follow its start |
//! | R0004 | warning  | duplicate resource declaration (same type and interval) |
//! | R0005 | error    | duplicate actor name (a second commitment per name can never be installed) |
//! | R0006 | error    | computation demands a located type with no declared supply |
//! | R0007 | warning  | resource term never demanded by the computation |
//! | R0008 | error    | provable overcommitment: demand exceeds obtainable supply |
//! | R0009 | warning  | supply exactly tight against demand |
//! | R0010 | error    | Theorem 3/4 precheck: no schedule meets the deadline |
//! | R0011 | error    | temporal constraints unsatisfiable (path consistency) |
//! | R0012 | error    | constraint references an unknown entity |
//! | R0013 | note     | actor with no actions |
//! | R0014 | warning  | resource term entirely outside the computation window |
//! | R0015 | error    | unknown Allen relation name / empty relation set |
//! | R0016 | error    | demand at a location no cluster node owns |
//!
//! Severities follow one invariant: **error-severity diagnostics are
//! sound** — a spec that a fresh `RotaPolicy` would accept *and whose
//! commitments the state can install* never carries an R-error
//! (enforced by the property suite). Warnings and notes may fire on
//! admissible specs. R0005 is the one code justified by the second
//! clause: the pure policy accepts a duplicate-actor spec, but the
//! state keys commitments by actor name and refuses the second
//! install, so such a spec can never actually be admitted.
//!
//! ## Passes
//!
//! 1. *structural* — shape checks on the raw declarations
//!    (R0001–R0005, R0013, R0014);
//! 2. *constraints* — interval-algebra consistency of declared Allen
//!    constraints via PC-2 over `rota_interval::network`, reporting a
//!    minimal inconsistent core (R0011, R0012, R0015);
//! 3. *capacity* — demand/supply reconciliation and the
//!    overcommitment sweep-line (R0006–R0009);
//! 4. *feasibility* — the symbolic Theorem 3/4 precheck, identical to
//!    a fresh `RotaPolicy` decision (R0010; suppressed when a
//!    capacity error already explains the failure).
//!
//! Three layers consume the analyzer: `rota-cli check` (renders
//! diagnostics, exits non-zero on errors), the `rota-server` shards
//! (pre-admission validation rejecting with machine diagnostics
//! before the policy runs), and `rota-workload` (self-validation of
//! generated load).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod span;
pub mod spec;

mod capacity;
mod constraints;
mod feasibility;
mod structural;

pub use diag::{Diagnostic, Report, Severity};
pub use span::{locate, Loc};
pub use spec::{
    ActionSpec, ActorSpec, ComputationSpec, ConstraintSpec, ResourceSpec, SpecError, SpecModel,
};

use rota_actor::{ConcurrentRequirement, CostModel, Granularity, ResourceDemand, TableCostModel};
use rota_resource::ResourceSet;

/// Every stable code with its default severity and a one-line summary
/// — the table DESIGN.md §11 documents, kept here so tests can assert
/// docs and implementation agree.
pub const CODES: &[(&str, Severity, &str)] = &[
    ("R0001", Severity::Error, "empty resource interval"),
    ("R0002", Severity::Warning, "zero-rate resource term"),
    ("R0003", Severity::Error, "deadline does not follow start"),
    ("R0004", Severity::Warning, "duplicate resource declaration"),
    ("R0005", Severity::Error, "duplicate actor name"),
    (
        "R0006",
        Severity::Error,
        "demand on undeclared located type",
    ),
    ("R0007", Severity::Warning, "unused resource term"),
    ("R0008", Severity::Error, "provable overcommitment"),
    ("R0009", Severity::Warning, "supply exactly tight"),
    (
        "R0010",
        Severity::Error,
        "deadline infeasible (Theorem 3/4)",
    ),
    (
        "R0011",
        Severity::Error,
        "temporal constraints unsatisfiable",
    ),
    ("R0012", Severity::Error, "unknown constraint reference"),
    ("R0013", Severity::Note, "actor with no actions"),
    (
        "R0014",
        Severity::Warning,
        "resource outside computation window",
    ),
    ("R0015", Severity::Error, "unknown Allen relation name"),
    (
        "R0016",
        Severity::Error,
        "location owned by no cluster node",
    ),
];

/// Runs every pass with the paper's cost model at the default
/// granularity — the configuration `rota-cli check` prices with.
pub fn analyze(model: &SpecModel) -> Report {
    analyze_with(model, &TableCostModel::paper(), Granularity::default())
}

/// Runs every pass, pricing demand with `cost` at `granularity` (must
/// match whatever the admission layer will use, or the feasibility
/// precheck and the policy can disagree).
pub fn analyze_with(model: &SpecModel, cost: &dyn CostModel, granularity: Granularity) -> Report {
    let mut report = Report::new();
    structural::run(model, &mut report);
    constraints::run(model, &mut report);

    let theta = model.theta();
    let lambda = model.computation.build().ok();
    let requirement = lambda
        .as_ref()
        .map(|l| ConcurrentRequirement::of_computation(l, cost, granularity));
    let window = lambda.as_ref().map(|l| l.window());
    let total = requirement.as_ref().map(|r| r.total_demand());

    capacity::run(model, &theta, total.as_ref(), window, &mut report);
    feasibility::run(model, &theta, requirement.as_ref(), &mut report);
    report
}

/// Runs only the state-independent structural pass (R0001–R0005,
/// R0013, R0014) — the cheap subset layers on the hot path use.
pub fn analyze_structural(model: &SpecModel) -> Report {
    let mut report = Report::new();
    structural::run(model, &mut report);
    report
}

/// Pre-admission validation of a spec: R0001 on its resource
/// declarations, then exactly the checks [`prevalidate_request`] runs,
/// against the supply the declarations add up to and a `demand`
/// already priced by the admission layer.
pub fn prevalidate(model: &SpecModel, demand: &ResourceDemand) -> Report {
    let mut report = Report::new();
    structural::empty_intervals(&model.resources, &mut report);
    check_request(&model.computation, &model.theta(), demand, &mut report);
    report
}

/// Pre-admission validation for a serving layer: the computation half
/// of the structural lints (R0003, R0005, R0013) on the request's
/// `computation` as decoded, then the unknown-supply check (R0006)
/// against the live `supply`, with `demand` already priced by the
/// admission layer. It costs one lookup per demanded located type,
/// whatever the size of `supply`.
///
/// The overcommitment sweep and the feasibility precheck are
/// deliberately absent — the policy is about to decide those against
/// committed state anyway, and its verdict carries the theorem-grade
/// attribution. Style lints about the supply side (R0002, R0004,
/// R0007, R0014) would blame the server's own terms on every request,
/// so they are not run; what remains is exactly the set of findings
/// worth sending back to the client.
pub fn prevalidate_request(
    computation: &ComputationSpec,
    supply: &ResourceSet,
    demand: &ResourceDemand,
) -> Report {
    let mut report = Report::new();
    check_request(computation, supply, demand, &mut report);
    report
}

/// The request-side passes both pre-admission entry points share.
fn check_request(
    computation: &ComputationSpec,
    supply: &ResourceSet,
    demand: &ResourceDemand,
    report: &mut Report,
) {
    structural::computation(computation, report);
    capacity::unknown_supply(computation, supply, demand, report);
}

/// Cluster routing validation (R0016): every located type the priced
/// demand touches must live at a location some cluster node owns —
/// keyed, like shard routing, by the term's first location. A demand at
/// an unowned location can never be admitted anywhere in the
/// federation, so the router rejects it up front with this diagnostic
/// instead of forwarding it into the void.
///
/// `owned` answers whether some node owns a location. It is called
/// once per non-zero located term of the demand, in demand order, so a
/// caller can collect the owners in the same pass.
pub fn check_ownership(demand: &ResourceDemand, mut owned: impl FnMut(&str) -> bool) -> Report {
    let mut report = Report::new();
    for (lt, q) in demand.iter() {
        if q.is_zero() {
            continue;
        }
        let Some(location) = lt.locations().first().copied() else {
            continue;
        };
        if !owned(location.name()) {
            report.push(
                Diagnostic::new(
                    "R0016",
                    Severity::Error,
                    format!("demand[{lt}]"),
                    format!(
                        "computation demands {q} of {lt}, but no cluster node owns \
                         location `{}`",
                        location.name()
                    ),
                )
                .with_note("the cluster topology assigns every location to exactly one node")
                .with_note("check the location name against the topology file"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_actor::{ActionKind, ActorComputation, DistributedComputation};
    use rota_interval::{TimeInterval, TimePoint};
    use rota_resource::{LocatedType, Location, Rate, ResourceTerm};

    fn decl(located: LocatedType, rate: u64, start: u64, end: u64) -> ResourceSpec {
        ResourceSpec {
            located,
            rate,
            start,
            end,
        }
    }

    fn simple_model() -> SpecModel {
        let lambda = DistributedComputation::new(
            "job",
            vec![ActorComputation::new("a", "l1").then(ActionKind::evaluate())],
            TimePoint::new(0),
            TimePoint::new(20),
        )
        .unwrap();
        let terms = vec![ResourceTerm::new(
            Rate::new(4),
            TimeInterval::from_ticks(0, 20).unwrap(),
            LocatedType::cpu(Location::new("l1")),
        )];
        SpecModel::from_parts(&terms, &lambda)
    }

    fn codes(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    /// A caret stands under the value its diagnostic names however many
    /// bytes the characters before it on the line take, and the JSON
    /// form reports that same column, in characters.
    #[test]
    fn carets_stand_under_the_value_after_multibyte_characters() {
        let text = concat!(
            "{\n",
            "  \"resources\": [],\n",
            "  \"computation\": { \"name\": \"café\", \"start\": 9, \"deadline\": 5, \"actors\": [] }\n",
            "}\n"
        );
        let report = analyze(&SpecModel::from_json(text).unwrap());
        let r0003 = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "R0003")
            .expect("the window is empty");
        let rendered = r0003.render(Some("spec.json"), Some(text));
        let source = rendered.lines().find(|l| l.starts_with("3 | ")).unwrap();
        let caret = rendered.lines().find(|l| l.ends_with('^')).unwrap();
        // The gutters are as wide, so the caret's character index is
        // the one it points at on the source line.
        let under = source.chars().nth(caret.chars().count() - 1);
        assert_eq!(under, Some('5'), "{rendered}");
        let column = r0003
            .to_json(Some(text))
            .get("column")
            .and_then(rota_obs::Json::as_u64);
        let line = text.lines().nth(2).unwrap();
        assert_eq!(line.chars().nth(column.unwrap() as usize - 1), Some('5'));
    }

    #[test]
    fn clean_spec_produces_zero_diagnostics() {
        let report = analyze(&simple_model());
        assert!(report.is_clean(), "{:?}", report.diagnostics());
    }

    #[test]
    fn empty_interval_and_zero_rate_fire() {
        let mut model = simple_model();
        model
            .resources
            .push(decl(LocatedType::cpu(Location::new("l1")), 0, 9, 3));
        let report = analyze(&model);
        assert!(codes(&report).contains(&"R0001"));
        assert!(codes(&report).contains(&"R0002"));
        assert!(report.has_errors());
    }

    #[test]
    fn overcommitment_is_an_error_and_suppresses_feasibility() {
        let mut model = simple_model();
        // evaluate costs 8 CPU; shrink supply integral below it.
        model.resources[0].rate = 1;
        model.resources[0].end = 5;
        let report = analyze(&model);
        assert!(codes(&report).contains(&"R0008"));
        assert!(!codes(&report).contains(&"R0010"), "{:?}", codes(&report));
    }

    #[test]
    fn feasibility_precheck_fires_without_capacity_error() {
        let mut model = simple_model();
        // Plenty of total supply, but only before the window closes at
        // t=2 for a 2-actor contention: actor b's send needs a link
        // that only exists early.
        model.computation.actors[0].actions.push(ActionSpec::Send {
            to: "peer".into(),
            dest: "l2".into(),
            size: 2,
        });
        // Link supply: 8 units total (≥ send's 4·2 = 8? send size 2 →
        // demand 4·2? paper: send = 4 network units × size factor).
        model.resources.push(decl(
            LocatedType::network(Location::new("l1"), Location::new("l2")),
            8,
            0,
            2,
        ));
        let report = analyze(&model);
        // The CPU run (8 units at rate 4) completes at t=2; whether the
        // link window suffices depends on ordering — assert only that
        // analysis stays error-sound vs the real policy elsewhere. Here
        // we force infeasibility by moving the link before the window.
        if !report.has_errors() {
            model.resources.last_mut().unwrap().rate = 1;
            let report = analyze(&model);
            assert!(codes(&report).contains(&"R0010") || codes(&report).contains(&"R0008"));
        }
    }

    #[test]
    fn constraint_conflicts_report_a_minimal_core() {
        let mut model = simple_model();
        model.constraints.push(ConstraintSpec {
            left: "resources[0]".into(),
            rel: vec!["equals".into()],
            right: "computation".into(),
        });
        model.constraints.push(ConstraintSpec {
            left: "resources[0]".into(),
            rel: vec!["before".into()],
            right: "computation".into(),
        });
        let report = analyze(&model);
        let r11: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "R0011")
            .collect();
        assert_eq!(r11.len(), 1);
        // The satisfied `equals` constraint is not in the core.
        assert!(r11[0].notes.iter().any(|n| n.contains("constraints[1]")));
        assert!(!r11[0]
            .notes
            .iter()
            .any(|n| n.contains("constraints[0] asserts")));
    }

    #[test]
    fn bad_constraint_references_fire_r0012_and_r0015() {
        let mut model = simple_model();
        model.constraints.push(ConstraintSpec {
            left: "resources[7]".into(),
            rel: vec!["befor".into()],
            right: "nonsense".into(),
        });
        let report = analyze(&model);
        assert!(codes(&report).contains(&"R0012"));
        assert!(codes(&report).contains(&"R0015"));
    }

    #[test]
    fn code_table_matches_emitted_severities() {
        // Every code the passes can emit appears in CODES with the
        // severity the passes use — spot-checked via the fixtures; here
        // just assert the table is well-formed and codes are unique.
        let mut seen = std::collections::BTreeSet::new();
        for (code, _, _) in CODES {
            assert!(seen.insert(*code), "duplicate code {code}");
            assert!(code.starts_with('R') && code.len() == 5);
        }
    }

    #[test]
    fn ownership_check_flags_unowned_locations() {
        use rota_resource::Quantity;
        let owned: std::collections::BTreeSet<String> =
            ["l0", "l1"].iter().map(|s| (*s).to_string()).collect();
        let mut demand = rota_actor::ResourceDemand::new();
        demand.add(LocatedType::cpu(Location::new("l0")), Quantity::new(4));
        demand.add(LocatedType::cpu(Location::new("ghost")), Quantity::new(1));
        let report = check_ownership(&demand, |l| owned.contains(l));
        assert_eq!(report.count(Severity::Error), 1);
        let diag = &report.diagnostics()[0];
        assert_eq!(diag.code, "R0016");
        assert!(diag.message.contains("ghost"), "{}", diag.message);
        // Demand entirely inside the topology is clean; zero-quantity
        // demand at an unowned location is not worth rejecting.
        let mut fine = rota_actor::ResourceDemand::new();
        fine.add(LocatedType::cpu(Location::new("l1")), Quantity::new(2));
        fine.add(LocatedType::cpu(Location::new("ghost")), Quantity::new(0));
        assert!(check_ownership(&fine, |l| owned.contains(l)).is_clean());
    }
}
