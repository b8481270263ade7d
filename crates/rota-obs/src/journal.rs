//! A bounded ring-buffer journal of decision events.
//!
//! Metrics say *how often*; the journal says *why*. Each admission
//! verdict and model-check run can append a [`DecisionEvent`] carrying
//! the decisive fact — the violated resource term and the theorem
//! clause that failed, or the first falsifying path prefix — without
//! unbounded memory: old events are overwritten once capacity is
//! reached.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::Json;

/// A bounded, thread-safe ring buffer of events.
///
/// Recording past capacity drops the oldest event.
#[derive(Debug)]
pub struct Journal<T> {
    inner: Mutex<Ring<T>>,
}

#[derive(Debug)]
struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
}

impl<T: Clone> Journal<T> {
    /// A journal keeping at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        Journal {
            inner: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&self, event: T) {
        let mut ring = self.inner.lock().expect("journal poisoned");
        if ring.buf.len() == ring.capacity {
            ring.buf.pop_front();
        }
        ring.buf.push_back(event);
    }

    /// Copies of all events currently held, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.inner
            .lock()
            .expect("journal poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }
}

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
    fn ring_evicts_oldest() {
        let journal = Journal::new(3);
        for i in 0..5 {
            journal.record(i);
        }
        assert_eq!(journal.snapshot(), vec![2, 3, 4]);
    }

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
