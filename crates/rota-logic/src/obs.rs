//! Observability hooks for the logic layer: classification of realized
//! transitions onto the paper's eight LTS rules, and the metric bundle
//! the [`ModelChecker`](crate::ModelChecker) counts into. The bundle
//! records no verdict: [`check`](crate::ModelChecker::check) returns
//! its explanation to the caller.
//!
//! Metric names (see `rota-obs` for the naming convention):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `logic.states_visited` | counter | states explored by temporal operators |
//! | `logic.rule.<rule>` | counter | firings of each LTS rule (8 names) |
//! | `logic.eval_depth` | histogram | syntactic depth of checked formulas |

use std::sync::Arc;

use rota_obs::{Counter, Histogram, Registry};

use crate::state::TransitionLabel;

/// The paper's eight labeled-transition rules (Section V-A), as a
/// classification of realized [`TransitionLabel`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// `Δt` with exactly one assignment and nothing expiring.
    Sequential,
    /// `Δt` with several assignments and nothing expiring.
    Concurrent,
    /// `Δt` consuming nothing, at most one type expiring.
    Expiration,
    /// `Δt` consuming nothing, several types expiring.
    ConcurrentExpiration,
    /// `Δt` with both consumption and expiration.
    General,
    /// Instantaneous `Θ ∪ Θ_join`.
    Acquisition,
    /// Instantaneous `ρ ∪ ρ(Λ,s,d)` (guard `t < d`).
    Accommodation,
    /// Instantaneous `ρ \ ρ(Λ,s,d)` (guard `t < s`).
    Leave,
}

impl RuleKind {
    /// All eight rules, in presentation order.
    pub const ALL: [RuleKind; 8] = [
        RuleKind::Sequential,
        RuleKind::Concurrent,
        RuleKind::Expiration,
        RuleKind::ConcurrentExpiration,
        RuleKind::General,
        RuleKind::Acquisition,
        RuleKind::Accommodation,
        RuleKind::Leave,
    ];

    /// Stable snake_case name, used as the metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            RuleKind::Sequential => "sequential",
            RuleKind::Concurrent => "concurrent",
            RuleKind::Expiration => "expiration",
            RuleKind::ConcurrentExpiration => "concurrent_expiration",
            RuleKind::General => "general",
            RuleKind::Acquisition => "acquisition",
            RuleKind::Accommodation => "accommodation",
            RuleKind::Leave => "leave",
        }
    }

    /// Classifies a realized transition label.
    ///
    /// A `Δt` step with neither assignments nor expirations (time
    /// passing over an idle system) counts as [`RuleKind::Expiration`]:
    /// it is the expiration rule applied to zero availability.
    pub fn of(label: &TransitionLabel) -> RuleKind {
        match label {
            TransitionLabel::Step {
                assignments,
                expired,
            } => match (assignments.len(), expired.len()) {
                (0, n) if n <= 1 => RuleKind::Expiration,
                (0, _) => RuleKind::ConcurrentExpiration,
                (1, 0) => RuleKind::Sequential,
                (_, 0) => RuleKind::Concurrent,
                (_, _) => RuleKind::General,
            },
            TransitionLabel::Acquire { .. } => RuleKind::Acquisition,
            TransitionLabel::Accommodate { .. } => RuleKind::Accommodation,
            TransitionLabel::Leave { .. } => RuleKind::Leave,
        }
    }
}

/// Renders a transition label as a short string, e.g.
/// `step{cpu@l1↦a1}`, `expire{cpu@l1}`, `accommodate{a2}`.
pub fn describe_label(label: &TransitionLabel) -> String {
    match label {
        TransitionLabel::Step {
            assignments,
            expired,
        } => {
            let mut parts: Vec<String> = assignments
                .iter()
                .map(|(lt, actor)| format!("{lt}↦{actor}"))
                .collect();
            parts.extend(expired.iter().map(|lt| format!("expire {lt}")));
            if parts.is_empty() {
                "step{idle}".to_string()
            } else {
                format!("step{{{}}}", parts.join(", "))
            }
        }
        TransitionLabel::Acquire { joined } => {
            format!("acquire{{{} terms}}", joined.term_count())
        }
        TransitionLabel::Accommodate { actor } => format!("accommodate{{{actor}}}"),
        TransitionLabel::Leave { actor } => format!("leave{{{actor}}}"),
    }
}

/// The model checker's observability bundle: rule-firing counters,
/// states-visited counter and formula-depth histogram.
#[derive(Debug, Clone)]
pub struct CheckObs {
    states_visited: Arc<Counter>,
    rules: [Arc<Counter>; 8],
    eval_depth: Arc<Histogram>,
}

impl CheckObs {
    /// Wires the logic metrics into `registry`.
    pub fn new(registry: &Registry) -> Self {
        let rules =
            RuleKind::ALL.map(|kind| registry.counter(&format!("logic.rule.{}", kind.name())));
        CheckObs {
            states_visited: registry.counter("logic.states_visited"),
            rules,
            eval_depth: registry.histogram("logic.eval_depth", Histogram::depth_bounds()),
        }
    }

    /// Counts one firing of `kind`.
    pub fn count_rule(&self, kind: RuleKind) {
        self.rules[kind as usize].inc();
    }

    /// Counts `n` explored states.
    pub fn count_states(&self, n: u64) {
        self.states_visited.add(n);
    }

    /// Records the syntactic depth of a checked formula.
    pub fn observe_eval_depth(&self, depth: u64) {
        self.eval_depth.observe(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_actor::ActorName;
    use rota_resource::{LocatedType, Location, ResourceSet};

    fn cpu(l: &str) -> LocatedType {
        LocatedType::cpu(Location::new(l))
    }

    fn step(n_assign: usize, n_expire: usize) -> TransitionLabel {
        TransitionLabel::Step {
            assignments: (0..n_assign)
                .map(|i| (cpu(&format!("l{i}")), ActorName::new(format!("a{i}"))))
                .collect(),
            expired: (0..n_expire).map(|i| cpu(&format!("e{i}"))).collect(),
        }
    }

    #[test]
    fn labels_classify_onto_the_eight_rules() {
        assert_eq!(RuleKind::of(&step(1, 0)), RuleKind::Sequential);
        assert_eq!(RuleKind::of(&step(3, 0)), RuleKind::Concurrent);
        assert_eq!(RuleKind::of(&step(0, 0)), RuleKind::Expiration);
        assert_eq!(RuleKind::of(&step(0, 1)), RuleKind::Expiration);
        assert_eq!(RuleKind::of(&step(0, 2)), RuleKind::ConcurrentExpiration);
        assert_eq!(RuleKind::of(&step(2, 1)), RuleKind::General);
        assert_eq!(
            RuleKind::of(&TransitionLabel::Acquire {
                joined: ResourceSet::new()
            }),
            RuleKind::Acquisition
        );
        assert_eq!(
            RuleKind::of(&TransitionLabel::Accommodate {
                actor: ActorName::new("a")
            }),
            RuleKind::Accommodation
        );
        assert_eq!(
            RuleKind::of(&TransitionLabel::Leave {
                actor: ActorName::new("a")
            }),
            RuleKind::Leave
        );
    }

    #[test]
    fn descriptions_are_compact() {
        assert!(describe_label(&step(1, 1)).starts_with("step{"));
        assert_eq!(describe_label(&step(0, 0)), "step{idle}");
        assert!(describe_label(&TransitionLabel::Leave {
            actor: ActorName::new("a9")
        })
        .contains("a9"));
    }

    #[test]
    fn check_obs_counts_into_registry() {
        let registry = Registry::new();
        let obs = CheckObs::new(&registry);
        obs.count_rule(RuleKind::Sequential);
        obs.count_rule(RuleKind::Sequential);
        obs.count_rule(RuleKind::Leave);
        obs.count_states(5);
        obs.observe_eval_depth(3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("logic.rule.sequential"), Some(2));
        assert_eq!(snap.counter("logic.rule.leave"), Some(1));
        assert_eq!(snap.counter("logic.rule.general"), Some(0));
        assert_eq!(snap.counter("logic.states_visited"), Some(5));
        assert_eq!(snap.histogram("logic.eval_depth").unwrap().count, 1);
    }
}
