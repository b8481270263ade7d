//! Differential test of pre-admission validation: the shard path
//! (`prevalidate_request`, straight against a live `ResourceSet`) and
//! the spec path (`prevalidate`, over a `SpecModel`) must both report
//! exactly what the original implementation reported — every
//! diagnostic's code, severity, path, message and notes, in order.
//!
//! The oracle is that original implementation, copied here: the full
//! structural pass and the unknown-supply and unused-supply checks of
//! the capacity pass, run over a `SpecModel` rebuilt from the supply,
//! with every supply-side finding below error severity dropped
//! afterwards. The inputs are generated jobs of every `JobShape`,
//! optionally mutated to trip R0005, R0013 and R0006, checked against
//! random subsets of the base supply.
//!
//! A second property holds the shard path to its input: linting the
//! computation spec as a server decodes it reports exactly what linting
//! the spec rebuilt from the built computation reports.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rota_actor::{
    ActionKind, ActorComputation, DistributedComputation, Granularity, ResourceDemand,
    TableCostModel,
};
use rota_admission::AdmissionRequest;
use rota_analyze::{
    prevalidate, prevalidate_request, ActionSpec, ActorSpec, ComputationSpec, Diagnostic, Report,
    ResourceSpec, Severity, SpecModel,
};
use rota_interval::TimeInterval;
use rota_resource::{LocatedType, ResourceSet};
use rota_workload::{base_resources, generate_job, JobShape, WorkloadConfig};

/// The original `prevalidate` body.
fn oracle(model: &SpecModel, demand: &ResourceDemand) -> Report {
    let mut report = Report::new();
    old_structural(model, &mut report);
    old_capacity(model, &model.theta(), Some(demand), None, &mut report);
    report.retain(|d| d.severity == Severity::Error || !d.path.starts_with("resources["));
    report
}

fn arb_shape() -> impl Strategy<Value = JobShape> {
    prop_oneof![
        (1usize..5).prop_map(|evals| JobShape::Chain { evals }),
        ((2usize..4), (1usize..4))
            .prop_map(|(actors, evals_each)| JobShape::ForkJoin { actors, evals_each }),
        (1usize..3).prop_map(|hops| JobShape::Pipeline { hops }),
        Just(JobShape::Mixed),
    ]
}

/// `job` with the mutants selected by `mutants` appended: bit 0 a
/// second actor under the first actor's name (R0005), bit 1 an actor
/// with no actions (R0013), bit 2 an actor at a location outside every
/// supply (R0006).
fn mutate(job: &DistributedComputation, mutants: u8) -> DistributedComputation {
    let mut actors = job.actors().to_vec();
    let first = actors[0].clone();
    if mutants & 1 != 0 {
        actors.push(first.clone());
    }
    if mutants & 2 != 0 {
        actors.push(ActorComputation::new("idle", first.origin().clone()));
    }
    if mutants & 4 != 0 {
        actors.push(ActorComputation::new("stray", "ghost").then(ActionKind::evaluate()));
    }
    DistributedComputation::new(job.name(), actors, job.start(), job.deadline())
        .expect("the window is unchanged")
}

/// The declarations selected by `bad` appended to `model`: bit 0 an
/// empty interval (R0001), bit 1 a zero rate (R0002), bit 2 a repeat of
/// the first declaration (R0004). Only the spec path can carry them.
fn mutate_resources(model: &mut SpecModel, bad: u8) {
    let Some(first) = model.resources.first().cloned() else {
        return;
    };
    if bad & 1 != 0 {
        model.resources.push(ResourceSpec {
            start: first.end,
            end: first.start,
            ..first.clone()
        });
    }
    if bad & 2 != 0 {
        model.resources.push(ResourceSpec {
            rate: 0,
            ..first.clone()
        });
    }
    if bad & 4 != 0 {
        model.resources.push(first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prevalidation_matches_the_original(
        seed in 0u64..1024,
        shape in arb_shape(),
        // Each base term is kept with probability 3/4.
        masks in (any::<u64>(), any::<u64>()),
        mutants in 0u8..8,
        bad in 0u8..8,
    ) {
        let config = WorkloadConfig::new(seed).with_shape(shape);
        let mut rng = StdRng::seed_from_u64(seed);
        let job = mutate(&generate_job(&config, &mut rng, "d", 0), mutants);
        let terms = base_resources(&config).to_terms();
        let supply: ResourceSet = terms
            .iter()
            .enumerate()
            .filter(|(i, _)| (masks.0 | masks.1) >> (i % 64) & 1 == 1)
            .map(|(_, term)| term.clone())
            .collect();
        let demand = AdmissionRequest::price(job.clone(), &TableCostModel::paper(), config.granularity)
            .requirement()
            .total_demand();

        let mut model = SpecModel::from_parts(&supply.to_terms(), &job);
        let expected = oracle(&model, &demand);
        let shard = prevalidate_request(&ComputationSpec::from(&job), &supply, &demand);
        prop_assert_eq!(shard.diagnostics(), expected.diagnostics());

        mutate_resources(&mut model, bad);
        let expected = oracle(&model, &demand);
        prop_assert_eq!(prevalidate(&model, &demand).diagnostics(), expected.diagnostics());
    }

    #[test]
    fn decoded_spec_lints_as_the_built_one(spec in arb_spec(), seed in 0u64..64) {
        let Ok(built) = spec.build() else {
            // A server answers an unbuildable spec without linting it.
            return Ok(());
        };
        let supply = base_resources(&WorkloadConfig::new(seed));
        let request = AdmissionRequest::price(
            built,
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        );
        let rebuilt = ComputationSpec::from(request.computation());
        let decoded = prevalidate_request(&spec, &supply, request.demand());
        let parent = prevalidate_request(&rebuilt, &supply, request.demand());
        prop_assert_eq!(decoded.diagnostics(), parent.diagnostics());
    }
}

/// A location: one of the base supply's (`l0`…), or one no supply has.
fn arb_location() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..6).prop_map(|i| format!("l{i}")),
        Just("ghost".to_string()),
    ]
}

/// Any action, aimed at any location.
fn arb_action() -> impl Strategy<Value = ActionSpec> {
    prop_oneof![
        (0u64..7).prop_map(|work| ActionSpec::Evaluate {
            work: (work < 6).then_some(work),
        }),
        (0u8..4, arb_location(), 0u64..3).prop_map(|(to, dest, size)| ActionSpec::Send {
            to: format!("a{to}"),
            dest,
            size,
        }),
        (0u8..4).prop_map(|child| ActionSpec::Create {
            child: format!("c{child}"),
        }),
        Just(ActionSpec::Ready),
        arb_location().prop_map(|dest| ActionSpec::Migrate { dest }),
    ]
}

/// A computation spec as a server decodes one: actor names drawn from
/// four, so repeats (R0005) are common; actions possibly none (R0013);
/// origins and destinations possibly unsupplied (R0006); and windows
/// possibly empty, which do not build.
fn arb_spec() -> impl Strategy<Value = ComputationSpec> {
    let actor = (
        0u8..4,
        arb_location(),
        proptest::collection::vec(arb_action(), 0..4),
    )
        .prop_map(|(name, origin, actions)| ActorSpec {
            name: format!("a{name}"),
            origin,
            actions,
        });
    (proptest::collection::vec(actor, 0..5), 0u64..8, 0u64..64).prop_map(
        |(actors, start, deadline)| ComputationSpec {
            name: "job".to_string(),
            start,
            deadline,
            actors,
        },
    )
}

// The original implementation, unchanged but for formatting.

fn old_structural(model: &SpecModel, report: &mut Report) {
    for (i, decl) in model.resources.iter().enumerate() {
        if decl.end <= decl.start {
            report.push(
                Diagnostic::new(
                    "R0001",
                    Severity::Error,
                    format!("resources[{i}].end"),
                    format!(
                        "resource {} declares the empty interval ({}, {})",
                        decl.located, decl.start, decl.end
                    ),
                )
                .with_note("intervals are half-open (start, end); `end` must exceed `start`"),
            );
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

    for (j, decl) in model.resources.iter().enumerate() {
        if let Some(i) = model.resources[..j].iter().position(|earlier| {
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

    let c = &model.computation;
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

/// Best-effort attribution of a demand back to the spec fragment that
/// induces it: the actor origin, `migrate`, or `send` that makes the
/// cost model charge `lt`.
fn demand_site(model: &SpecModel, lt: &LocatedType) -> String {
    match lt {
        LocatedType::Node { location, .. } => {
            let name = location.name();
            for (i, actor) in model.computation.actors.iter().enumerate() {
                if actor.origin == name {
                    return format!("computation.actors[{i}].origin");
                }
            }
            for (i, actor) in model.computation.actors.iter().enumerate() {
                for (j, action) in actor.actions.iter().enumerate() {
                    if matches!(action, ActionSpec::Migrate { dest } if dest == name) {
                        return format!("computation.actors[{i}].actions[{j}]");
                    }
                }
            }
        }
        LocatedType::Link { to, .. } => {
            let name = to.name();
            for (i, actor) in model.computation.actors.iter().enumerate() {
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

fn old_capacity(
    model: &SpecModel,
    theta: &ResourceSet,
    demand: Option<&ResourceDemand>,
    window: Option<TimeInterval>,
    report: &mut Report,
) {
    let Some(demand) = demand else { return };

    // R0006: positive demand on a located type with no supply anywhere.
    for (lt, q) in demand.iter() {
        if !q.is_zero() && theta.profile(lt).is_empty() {
            report.push(
                Diagnostic::new(
                    "R0006",
                    Severity::Error,
                    demand_site(model, lt),
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
    // The R0008/R0009 sweep that followed returned at once: the old
    // `prevalidate` passed no window.
}
