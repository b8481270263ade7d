//! Observability for the admission layer: per-policy counters and
//! execution-rule accounting. The bundle reads no clock, and it counts
//! verdicts and records none: a caller that keeps a record of
//! *why* each request was admitted or refused builds its events with
//! [`decision_event`](crate::decision_event) (the simulator and
//! `rota-cli check`), or keeps the verdict frames it already holds (the
//! server's shards).
//!
//! Metric names (see `rota-obs` for the naming convention; `<p>` is the
//! policy name, e.g. `rota`):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `admission.requests{policy=<p>}` | counter | requests submitted |
//! | `admission.accepted{policy=<p>}` | counter | requests admitted |
//! | `admission.rejected{policy=<p>}` | counter | requests refused |
//! | `admission.in_flight{policy=<p>}` | gauge | admitted computations still executing |
//! | `admission.rule.<rule>{policy=<p>}` | counter | LTS rule firings realized by [`tick`](crate::AdmissionController::tick) |

use std::sync::Arc;

use rota_logic::{RuleKind, TransitionLabel};
use rota_obs::{Counter, Gauge, Registry};

/// The admission controller's observability bundle. Construct with
/// [`AdmissionObs::new`] against a shared [`Registry`] and attach via
/// [`AdmissionController::with_obs`](crate::AdmissionController::with_obs).
#[derive(Debug, Clone)]
pub struct AdmissionObs {
    requests: Arc<Counter>,
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    in_flight: Arc<Gauge>,
    rules: [Arc<Counter>; 8],
}

impl AdmissionObs {
    /// Wires the admission metrics for `policy` into `registry`.
    pub fn new(registry: &Registry, policy: &str) -> Self {
        AdmissionObs {
            requests: registry.counter(&format!("admission.requests{{policy={policy}}}")),
            accepted: registry.counter(&format!("admission.accepted{{policy={policy}}}")),
            rejected: registry.counter(&format!("admission.rejected{{policy={policy}}}")),
            in_flight: registry.gauge(&format!("admission.in_flight{{policy={policy}}}")),
            rules: RuleKind::ALL.map(|kind| {
                registry.counter(&format!(
                    "admission.rule.{}{{policy={policy}}}",
                    kind.name()
                ))
            }),
        }
    }

    /// Counts one submitted request and its verdict.
    pub fn count_decision(&self, accepted: bool) {
        self.requests.inc();
        if accepted {
            self.accepted.inc();
        } else {
            self.rejected.inc();
        }
    }

    /// Moves the count of admitted computations still executing by
    /// `delta`. Every controller sharing the policy label adds its own
    /// changes, so the gauge reads their sum.
    pub fn add_in_flight(&self, delta: i64) {
        self.in_flight.add(delta);
    }

    /// Counts the LTS rule realized by an executed transition.
    pub fn count_transition(&self, label: &TransitionLabel) {
        self.rules[RuleKind::of(label) as usize].inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_actor::ActorName;

    #[test]
    fn metrics_are_per_policy() {
        let registry = Registry::new();
        let obs = AdmissionObs::new(&registry, "rota");
        obs.count_decision(true);
        obs.count_decision(false);
        obs.count_decision(false);
        obs.add_in_flight(1);
        obs.count_transition(&TransitionLabel::Accommodate {
            actor: ActorName::new("a1"),
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("admission.requests{policy=rota}"), Some(3));
        assert_eq!(snap.counter("admission.accepted{policy=rota}"), Some(1));
        assert_eq!(snap.counter("admission.rejected{policy=rota}"), Some(2));
        assert_eq!(snap.gauge("admission.in_flight{policy=rota}"), Some(1));
        assert_eq!(
            snap.counter("admission.rule.accommodation{policy=rota}"),
            Some(1)
        );
    }
}
