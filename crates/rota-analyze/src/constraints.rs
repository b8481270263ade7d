//! Interval-algebra consistency (R0011/R0012/R0015): declared
//! temporal constraints are checked against each other *and* the
//! concrete intervals they reference, by running path consistency
//! (PC-2 over Allen's composition table) on a constraint network —
//! the Table I machinery from the paper, reused from
//! `rota_interval::network`.
//!
//! When the network is unsatisfiable the pass re-runs consistency
//! with each declared constraint removed in turn, keeping only those
//! whose removal restores consistency — a minimal inconsistent core —
//! and reports that cycle.

use rota_interval::{AllenRelation, ConstraintNetwork, RelationSet, TimeInterval, ALL_RELATIONS};

use crate::diag::{Diagnostic, Report, Severity};
use crate::spec::SpecModel;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Entity {
    Computation,
    Resource(usize),
}

impl Entity {
    fn label(self) -> String {
        match self {
            Entity::Computation => "computation".to_string(),
            Entity::Resource(i) => format!("resources[{i}]"),
        }
    }
}

fn parse_entity(s: &str) -> Option<Entity> {
    if s == "computation" {
        return Some(Entity::Computation);
    }
    let inner = s.strip_prefix("resources[")?.strip_suffix(']')?;
    inner.parse().ok().map(Entity::Resource)
}

fn relation_from_name(name: &str) -> Option<AllenRelation> {
    ALL_RELATIONS.iter().copied().find(|r| r.name() == name)
}

fn valid_names() -> String {
    ALL_RELATIONS
        .iter()
        .map(|r| r.name())
        .collect::<Vec<_>>()
        .join(", ")
}

struct Resolved {
    index: usize,
    left: Entity,
    right: Entity,
    rel: RelationSet,
    rel_names: String,
}

/// Checks whether `subset` of the resolved constraints, together with
/// the concrete relations among every referenced interval, survives
/// path consistency.
fn consistent(entities: &[(Entity, TimeInterval)], subset: &[&Resolved]) -> bool {
    let mut network = ConstraintNetwork::new();
    let vars: Vec<_> = entities.iter().map(|_| network.add_variable()).collect();
    let var_of = |e: Entity| {
        entities
            .iter()
            .position(|(other, _)| *other == e)
            .map(|i| vars[i])
    };
    for i in 0..entities.len() {
        for j in i + 1..entities.len() {
            let actual = AllenRelation::relate(&entities[i].1, &entities[j].1);
            let _ = network.constrain(vars[i], vars[j], RelationSet::singleton(actual));
        }
    }
    for c in subset {
        let (Some(a), Some(b)) = (var_of(c.left), var_of(c.right)) else {
            continue;
        };
        let _ = network.constrain(a, b, c.rel);
    }
    network.path_consistency()
}

pub(crate) fn run(model: &SpecModel, report: &mut Report) {
    if model.constraints.is_empty() {
        return;
    }

    let window = TimeInterval::from_ticks(model.computation.start, model.computation.deadline).ok();
    let interval_of = |e: Entity| -> Option<TimeInterval> {
        match e {
            Entity::Computation => window,
            Entity::Resource(i) => model.resources.get(i).and_then(|d| d.interval()),
        }
    };

    let mut resolved: Vec<Resolved> = Vec::new();
    for (ci, c) in model.constraints.iter().enumerate() {
        let mut sides = Vec::new();
        let mut ok = true;
        for (field, reference) in [("left", &c.left), ("right", &c.right)] {
            match parse_entity(reference) {
                Some(Entity::Resource(i)) if i >= model.resources.len() => {
                    report.push(
                        Diagnostic::new(
                            "R0012",
                            Severity::Error,
                            format!("constraints[{ci}].{field}"),
                            format!(
                                "constraint references `resources[{i}]`, which is out of range"
                            ),
                        )
                        .with_note(format!(
                            "the spec declares {} resource term(s)",
                            model.resources.len()
                        )),
                    );
                    ok = false;
                }
                Some(entity) => sides.push(entity),
                None => {
                    report.push(
                        Diagnostic::new(
                            "R0012",
                            Severity::Error,
                            format!("constraints[{ci}].{field}"),
                            format!("unknown constraint reference `{reference}`"),
                        )
                        .with_note("valid references are `computation` and `resources[<index>]`"),
                    );
                    ok = false;
                }
            }
        }

        let mut rel = RelationSet::EMPTY;
        let mut rel_names = Vec::new();
        for name in &c.rel {
            match relation_from_name(name) {
                Some(r) => {
                    rel = rel.with(r);
                    rel_names.push(r.name());
                }
                None => {
                    report.push(
                        Diagnostic::new(
                            "R0015",
                            Severity::Error,
                            format!("constraints[{ci}].rel"),
                            format!("unknown Allen relation `{name}`"),
                        )
                        .with_note(format!("valid relations: {}", valid_names())),
                    );
                    ok = false;
                }
            }
        }
        if c.rel.is_empty() {
            report.push(
                Diagnostic::new(
                    "R0015",
                    Severity::Error,
                    format!("constraints[{ci}].rel"),
                    "constraint allows no relations (empty `rel` list)".to_string(),
                )
                .with_note("an empty relation set is unsatisfiable by definition"),
            );
            ok = false;
        }

        if !ok {
            continue;
        }
        let [left, right] = sides[..] else { continue };
        // Sides whose interval is unavailable already carry R0001/R0003.
        if interval_of(left).is_none() || interval_of(right).is_none() {
            continue;
        }
        resolved.push(Resolved {
            index: ci,
            left,
            right,
            rel,
            rel_names: rel_names.join(", "),
        });
    }

    if resolved.is_empty() {
        return;
    }

    let mut entities: Vec<(Entity, TimeInterval)> = Vec::new();
    for c in &resolved {
        for e in [c.left, c.right] {
            if !entities.iter().any(|(other, _)| *other == e) {
                entities.push((e, interval_of(e).expect("filtered above")));
            }
        }
    }

    let all: Vec<&Resolved> = resolved.iter().collect();
    if consistent(&entities, &all) {
        return;
    }

    // Greedy minimal core: drop every constraint whose removal keeps
    // the network inconsistent.
    let mut core: Vec<&Resolved> = all.clone();
    for victim in &all {
        let without: Vec<&Resolved> = core
            .iter()
            .copied()
            .filter(|c| c.index != victim.index)
            .collect();
        if without.len() < core.len() && !consistent(&entities, &without) {
            core = without;
        }
    }

    let first = core.first().map_or(0, |c| c.index);
    let mut d = Diagnostic::new(
        "R0011",
        Severity::Error,
        format!("constraints[{first}]"),
        "temporal constraints are unsatisfiable against the declared intervals".to_string(),
    )
    .with_note("path consistency (PC-2 over Allen's composition table) narrowed a constraint to the empty set");
    for c in &core {
        let actual = AllenRelation::relate(
            &interval_of(c.left).expect("resolved"),
            &interval_of(c.right).expect("resolved"),
        );
        d = d.with_note(format!(
            "constraints[{}] asserts {} {{{}}} {}, but the declared intervals relate as `{}`",
            c.index,
            c.left.label(),
            c.rel_names,
            c.right.label(),
            actual.name()
        ));
    }
    report.push(d);
}
