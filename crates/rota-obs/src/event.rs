//! Decision events: why an admission verdict or a model-checking run
//! came out as it did.
//!
//! Metrics say *how often*; a [`DecisionEvent`] says *why*. It carries
//! the decisive fact — the violated resource term and the theorem
//! clause that failed, or the first falsifying path prefix. The event
//! is a value: whoever keeps a record of verdicts (the simulator's
//! report, the CLI's `--metrics-out` document) holds its own, bounded
//! as it needs.

use crate::json::Json;

/// Why an observed subsystem decided what it decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecisionEvent {
    /// An admission verdict from the controller.
    Admission {
        /// Simulation / controller time of the verdict.
        time: u64,
        /// Name of the deciding policy (e.g. `rota`, `greedy-edf`).
        policy: String,
        /// Name of the computation that asked for admission.
        computation: String,
        /// Whether the request was admitted.
        accepted: bool,
        /// Human-readable ground for the verdict.
        reason: String,
        /// For rejections: the resource term / interval that could not
        /// be satisfied, e.g. `cpu[12,20) short by 3`.
        violated_term: Option<String>,
        /// For rejections: the theorem clause that failed, e.g.
        /// `Theorem 4: segment feasibility`.
        clause: Option<String>,
    },
    /// A model-checking run's outcome.
    ModelCheck {
        /// Display form of the checked formula.
        formula: String,
        /// Whether the formula held.
        verdict: bool,
        /// States visited during the run.
        states_visited: u64,
        /// For falsified universal formulas: the labels of the first
        /// falsifying path prefix, outermost transition first.
        falsifying_prefix: Vec<String>,
    },
}

impl DecisionEvent {
    /// One-line human-readable rendering.
    pub fn summary(&self) -> String {
        match self {
            DecisionEvent::Admission {
                time,
                policy,
                computation,
                accepted,
                reason,
                violated_term,
                ..
            } => {
                let verdict = if *accepted { "accept" } else { "reject" };
                match violated_term {
                    Some(term) => {
                        format!("t={time} [{policy}] {verdict} {computation}: {reason} ({term})")
                    }
                    None => format!("t={time} [{policy}] {verdict} {computation}: {reason}"),
                }
            }
            DecisionEvent::ModelCheck {
                formula,
                verdict,
                states_visited,
                falsifying_prefix,
            } => {
                let outcome = if *verdict { "holds" } else { "fails" };
                if falsifying_prefix.is_empty() {
                    format!("check {formula}: {outcome} ({states_visited} states)")
                } else {
                    format!(
                        "check {formula}: {outcome} ({states_visited} states) via {}",
                        falsifying_prefix.join(" ; ")
                    )
                }
            }
        }
    }

    /// Serializes the event as a JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            DecisionEvent::Admission {
                time,
                policy,
                computation,
                accepted,
                reason,
                violated_term,
                clause,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("admission".into())),
                ("time".into(), Json::Num(*time as f64)),
                ("policy".into(), Json::Str(policy.clone())),
                ("computation".into(), Json::Str(computation.clone())),
                ("accepted".into(), Json::Bool(*accepted)),
                ("reason".into(), Json::Str(reason.clone())),
                (
                    "violated_term".into(),
                    violated_term
                        .as_ref()
                        .map_or(Json::Null, |t| Json::Str(t.clone())),
                ),
                (
                    "clause".into(),
                    clause.as_ref().map_or(Json::Null, |c| Json::Str(c.clone())),
                ),
            ]),
            DecisionEvent::ModelCheck {
                formula,
                verdict,
                states_visited,
                falsifying_prefix,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("model_check".into())),
                ("formula".into(), Json::Str(formula.clone())),
                ("verdict".into(), Json::Bool(*verdict)),
                ("states_visited".into(), Json::Num(*states_visited as f64)),
                (
                    "falsifying_prefix".into(),
                    Json::Arr(
                        falsifying_prefix
                            .iter()
                            .map(|s| Json::Str(s.clone()))
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_event_renders_term() {
        let event = DecisionEvent::Admission {
            time: 7,
            policy: "rota".into(),
            computation: "job-1".into(),
            accepted: false,
            reason: "segment 0 cannot complete by 12".into(),
            violated_term: Some("cpu[4,12) short by 3".into()),
            clause: Some("Theorem 4: segment feasibility".into()),
        };
        let line = event.summary();
        assert!(line.contains("reject job-1"));
        assert!(line.contains("cpu[4,12) short by 3"));
        let json = event.to_json().to_string();
        assert!(json.contains("\"violated_term\":\"cpu[4,12) short by 3\""));
    }

    #[test]
    fn model_check_event_renders_prefix() {
        let event = DecisionEvent::ModelCheck {
            formula: "□ satisfy(...)".into(),
            verdict: false,
            states_visited: 42,
            falsifying_prefix: vec!["step{a1}".into(), "expire{r2}".into()],
        };
        let line = event.summary();
        assert!(line.contains("fails"));
        assert!(line.contains("step{a1} ; expire{r2}"));
        let json = event.to_json().to_string();
        assert!(json.contains("\"falsifying_prefix\":[\"step{a1}\",\"expire{r2}\"]"));
    }
}
