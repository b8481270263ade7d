//! The simulation driver: replays a [`Scenario`] through an
//! [`AdmissionController`] and reports outcome metrics.
//!
//! Every run is instrumented: admission counters flow into a
//! [`Registry`] (a private throwaway one unless the caller supplies
//! their own via [`run_scenario_observed`]) and the run keeps the
//! latest admission verdicts as [`SimulationReport::decisions`].
//! Driver-level metric names:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `sim.events_processed` | counter | scenario events applied (joins, arrivals, leaves) |
//! | `sim.queue_depth` | gauge | events still pending after each tick's drain |
//! | `sim.ticks` | counter | `Δt` steps executed |
//! | `sim.misses` | counter | deadline misses observed |

use core::fmt;
use std::collections::VecDeque;

use rota_admission::{
    decision_event, AdmissionController, AdmissionObs, AdmissionPolicy, ExecutionStrategy,
};
use rota_interval::TimePoint;
use rota_obs::{DecisionEvent, Registry};

use crate::event::Event;
use crate::scenario::Scenario;

/// Outcome metrics of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Requests accepted by the policy.
    pub accepted: u64,
    /// Requests rejected by the policy.
    pub rejected: u64,
    /// Admitted computations that completed in time.
    pub completed: u64,
    /// Admitted computations that missed their deadlines.
    pub missed: u64,
    /// Admitted computations withdrawn before starting (leave rule).
    pub withdrawn: u64,
    /// Total resource units offered by the scenario.
    pub offered_units: u64,
    /// Total resource units actually delivered to admitted work.
    pub delivered_units: u64,
    /// The horizon the run ended at.
    pub horizon: TimePoint,
    /// Why each request was admitted or refused, in submission order
    /// (bounded: the run keeps the most recent 256 verdicts).
    pub decisions: Vec<DecisionEvent>,
}

/// How many verdicts a run keeps.
const DECISION_CAPACITY: usize = 256;

impl SimulationReport {
    /// Fraction of requests accepted.
    pub fn acceptance_rate(&self) -> f64 {
        let total = self.accepted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.accepted as f64 / total as f64
        }
    }

    /// Fraction of admitted computations that missed their deadline.
    pub fn miss_rate(&self) -> f64 {
        let resolved = self.completed + self.missed;
        if resolved == 0 {
            0.0
        } else {
            self.missed as f64 / resolved as f64
        }
    }

    /// Fraction of admitted computations that completed — the *goodput*
    /// of the admission policy.
    pub fn completion_rate(&self) -> f64 {
        1.0 - self.miss_rate()
    }

    /// Delivered units as a fraction of offered units — how much of the
    /// open system's capacity the policy managed to put to work.
    pub fn utilization(&self) -> f64 {
        if self.offered_units == 0 {
            0.0
        } else {
            self.delivered_units as f64 / self.offered_units as f64
        }
    }
}

impl fmt::Display for SimulationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accepted {}/{} ({:.0}%), completed {}, missed {} ({:.0}% miss)",
            self.accepted,
            self.accepted + self.rejected,
            self.acceptance_rate() * 100.0,
            self.completed,
            self.missed,
            self.miss_rate() * 100.0
        )
    }
}

/// Replays `scenario` under `policy` with the given execution strategy.
///
/// The driver loop is the standard discrete-event shape: at each tick,
/// apply every due event (resource joins via the acquisition rule, then
/// arrivals via the policy), then advance the controller one `Δt` step.
/// After the horizon, the controller keeps ticking until every in-flight
/// computation resolves (completes or misses), so reports never truncate
/// outcomes.
pub fn run_scenario<P: AdmissionPolicy>(
    scenario: &Scenario,
    policy: P,
    strategy: ExecutionStrategy,
) -> SimulationReport {
    run_impl(scenario, policy, strategy, None, &Registry::new())
}

/// Like [`run_scenario`], but counting into a caller-supplied
/// [`Registry`] — for the CLI's `--metrics-out` and for benches.
pub fn run_scenario_observed<P: AdmissionPolicy>(
    scenario: &Scenario,
    policy: P,
    strategy: ExecutionStrategy,
    registry: &Registry,
) -> SimulationReport {
    run_impl(scenario, policy, strategy, None, registry)
}

/// Like [`run_scenario`], additionally recording a per-tick
/// [`Trace`](crate::Trace) of the controller's state. Traced runs go
/// through the same driver as untraced ones — the trace is sampled off
/// the controller after each tick, and the decisions are kept
/// identically.
pub fn run_scenario_traced<P: AdmissionPolicy>(
    scenario: &Scenario,
    policy: P,
    strategy: ExecutionStrategy,
) -> (SimulationReport, crate::trace::Trace) {
    run_scenario_traced_observed(scenario, policy, strategy, &Registry::new())
}

/// [`run_scenario_traced`] with a caller-supplied [`Registry`] — trace,
/// metrics, and decisions from one run.
pub fn run_scenario_traced_observed<P: AdmissionPolicy>(
    scenario: &Scenario,
    policy: P,
    strategy: ExecutionStrategy,
    registry: &Registry,
) -> (SimulationReport, crate::trace::Trace) {
    let mut trace = crate::trace::Trace::new();
    let report = run_impl(scenario, policy, strategy, Some(&mut trace), registry);
    (report, trace)
}

fn run_impl<P: AdmissionPolicy>(
    scenario: &Scenario,
    policy: P,
    strategy: ExecutionStrategy,
    mut trace: Option<&mut crate::trace::Trace>,
    registry: &Registry,
) -> SimulationReport {
    let obs = AdmissionObs::new(registry, policy.name());
    let events_processed = registry.counter("sim.events_processed");
    let queue_depth = registry.gauge("sim.queue_depth");
    let ticks = registry.counter("sim.ticks");
    let misses = registry.counter("sim.misses");
    let mut decisions = VecDeque::with_capacity(DECISION_CAPACITY);
    let mut controller =
        AdmissionController::new(policy, scenario.initial().clone(), TimePoint::ZERO)
            .with_strategy(strategy)
            .with_obs(obs);
    let mut queue = scenario.queue();
    let horizon = scenario.horizon();
    let mut seen_missed = 0u64;
    while controller.now() < horizon || controller.in_flight() > 0 {
        while let Some((_, event)) = queue.pop_due(controller.now()) {
            events_processed.inc();
            match event {
                Event::ResourceJoin { theta } => {
                    controller
                        .offer_resources(theta)
                        .expect("scenario resources stay within u64 rates");
                }
                Event::Arrival { request } => {
                    let decision = controller.submit(&request);
                    if decisions.len() == DECISION_CAPACITY {
                        decisions.pop_front();
                    }
                    decisions.push_back(decision_event(
                        controller.policy().name(),
                        controller.now(),
                        &request,
                        &decision,
                    ));
                }
                Event::ComputationLeave { actors } => {
                    let _ = controller.cancel(&actors);
                }
            }
        }
        queue_depth.set(queue.len() as i64);
        controller.tick();
        ticks.inc();
        let stats = controller.stats();
        misses.add(stats.missed - seen_missed);
        seen_missed = stats.missed;
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(crate::trace::TraceSample::of_controller(&controller));
        }
        // Hard stop: nothing more can happen once events are exhausted,
        // no work is in flight, and we are past the horizon.
        if controller.now() >= horizon && queue.is_empty() && controller.in_flight() == 0 {
            break;
        }
    }
    let stats = controller.stats();
    SimulationReport {
        accepted: stats.accepted,
        rejected: stats.rejected,
        completed: stats.completed,
        missed: stats.missed,
        withdrawn: stats.withdrawn,
        offered_units: scenario.offered_units(),
        delivered_units: controller.delivered_units(),
        horizon: controller.now(),
        decisions: decisions.into(),
    }
}

/// Runs the same scenario under each of the four
/// [standard policies](rota_admission::standard_policies), each with its
/// own execution strategy, counting into `registry` (the per-policy
/// metric labels keep the runs apart). Returns `(policy label, report)`
/// pairs in the table's order.
pub fn compare_policies(
    scenario: &Scenario,
    registry: &Registry,
) -> Vec<(&'static str, SimulationReport)> {
    rota_admission::standard_policies()
        .into_iter()
        .map(|p| {
            let label = p.policy.name();
            (
                label,
                run_scenario_observed(scenario, p.policy, p.strategy, registry),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rota_actor::{
        ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
    };
    use rota_admission::{AdmissionRequest, OptimisticPolicy, RotaPolicy};
    use rota_interval::TimeInterval;
    use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};

    fn theta(rate: u64, s: u64, e: u64) -> ResourceSet {
        [ResourceTerm::new(
            Rate::new(rate),
            TimeInterval::from_ticks(s, e).unwrap(),
            LocatedType::cpu(Location::new("l1")),
        )]
        .into_iter()
        .collect()
    }

    fn request(name: &str, evals: usize, s: u64, d: u64) -> AdmissionRequest {
        let mut gamma = ActorComputation::new(format!("{name}-actor"), "l1");
        for _ in 0..evals {
            gamma.push(ActionKind::evaluate());
        }
        AdmissionRequest::price(
            DistributedComputation::single(name, gamma, TimePoint::new(s), TimePoint::new(d))
                .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        )
    }

    fn overload_scenario() -> Scenario {
        // 32 units of capacity; 8 jobs × 16 units demanded.
        let mut s = Scenario::new(TimePoint::new(8)).with_initial(theta(4, 0, 8));
        for i in 0..8 {
            s.add_arrival(TimePoint::ZERO, request(&format!("j{i}"), 2, 0, 8));
        }
        s
    }

    #[test]
    fn rota_report_has_zero_misses() {
        let report = run_scenario(
            &overload_scenario(),
            RotaPolicy,
            ExecutionStrategy::FirstEntitled,
        );
        assert_eq!(report.accepted, 2);
        assert_eq!(report.missed, 0);
        assert_eq!(report.completed, 2);
        assert!(report.acceptance_rate() < 0.3);
        assert_eq!(report.offered_units, 32);
    }

    #[test]
    fn optimistic_overadmits_and_misses() {
        let report = run_scenario(
            &overload_scenario(),
            OptimisticPolicy,
            ExecutionStrategy::EarliestDeadline,
        );
        assert_eq!(report.accepted, 8);
        assert!(report.missed >= 6);
        assert!(report.miss_rate() > 0.5);
        assert!(report.completion_rate() < 0.5);
    }

    #[test]
    fn mid_run_joins_and_arrivals_are_applied() {
        let mut s = Scenario::new(TimePoint::new(20));
        s.add_join(TimePoint::new(4), theta(4, 4, 20));
        s.add_arrival(TimePoint::new(5), request("late", 2, 5, 20));
        let report = run_scenario(&s, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.missed, 0);
    }

    #[test]
    fn compare_policies_covers_all_four() {
        let results = compare_policies(&overload_scenario(), &Registry::new());
        let names: Vec<_> = results.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["rota", "greedy-edf", "naive-total", "optimistic"]
        );
        let rota = &results[0].1;
        let optimistic = &results[3].1;
        assert_eq!(rota.missed, 0);
        assert!(optimistic.accepted >= rota.accepted);
        assert!(optimistic.missed > 0);
        for (_, r) in &results {
            assert!(r.to_string().contains("accepted"));
        }
    }

    #[test]
    fn leave_before_start_withdraws() {
        let mut s = Scenario::new(TimePoint::new(20)).with_initial(theta(4, 0, 20));
        // arrives at t=0 but only starts at t=10; withdraws at t=5
        let r = request("late-start", 2, 10, 20);
        let actors = r.actor_names();
        s.add_arrival(TimePoint::ZERO, r);
        s.add_leave(TimePoint::new(5), actors);
        let report = run_scenario(&s, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.withdrawn, 1);
        assert_eq!(report.completed, 0);
        assert_eq!(report.missed, 0);
    }

    #[test]
    fn leave_after_start_is_refused() {
        let mut s = Scenario::new(TimePoint::new(20)).with_initial(theta(4, 0, 20));
        let r = request("started", 2, 0, 20);
        let actors = r.actor_names();
        s.add_arrival(TimePoint::ZERO, r);
        // by t=5 the computation has started: the leave rule's guard fails
        s.add_leave(TimePoint::new(5), actors);
        let report = run_scenario(&s, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.withdrawn, 0);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn utilization_reflects_delivery() {
        // 32 offered units; one 16-unit job completes → utilization 0.5
        let mut s = Scenario::new(TimePoint::new(8)).with_initial(theta(4, 0, 8));
        s.add_arrival(TimePoint::ZERO, request("half", 2, 0, 8));
        let report = run_scenario(&s, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.delivered_units, 16);
        assert_eq!(report.offered_units, 32);
        assert!((report.utilization() - 0.5).abs() < 1e-9);
        // empty run: utilization 0
        let empty = run_scenario(
            &Scenario::new(TimePoint::new(4)),
            RotaPolicy,
            ExecutionStrategy::FirstEntitled,
        );
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn decisions_keep_the_last_256_verdicts_in_submission_order() {
        let mut scenario = Scenario::new(TimePoint::new(8)).with_initial(theta(4, 0, 8));
        for i in 0..300 {
            scenario.add_arrival(TimePoint::new(i % 4), request(&format!("j{i}"), 2, 0, 8));
        }
        let report = run_scenario(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.accepted + report.rejected, 300);
        let names: Vec<&str> = report
            .decisions
            .iter()
            .map(|event| match event {
                DecisionEvent::Admission { computation, .. } => computation.as_str(),
                DecisionEvent::ModelCheck { .. } => unreachable!("a run records verdicts"),
            })
            .collect();
        let mut submitted: Vec<u64> = (0..300).collect();
        submitted.sort_by_key(|i| i % 4);
        let expected: Vec<String> = submitted[300 - 256..]
            .iter()
            .map(|i| format!("j{i}"))
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn reports_carry_decisions_and_metrics_flow_into_registry() {
        let registry = Registry::new();
        let report = run_scenario_observed(
            &overload_scenario(),
            RotaPolicy,
            ExecutionStrategy::FirstEntitled,
            &registry,
        );
        assert_eq!(report.decisions.len(), 8, "one verdict per arrival");
        let rejected_with_term = report
            .decisions
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    DecisionEvent::Admission {
                        accepted: false,
                        violated_term: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(rejected_with_term, 6, "each rejection names the short term");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim.events_processed"), Some(8));
        assert_eq!(snap.counter("sim.misses"), Some(0));
        assert_eq!(snap.gauge("sim.queue_depth"), Some(0));
        assert!(snap.counter("sim.ticks").unwrap() >= 8);
        assert_eq!(snap.counter("admission.accepted{policy=rota}"), Some(2));
        assert_eq!(snap.counter("admission.rejected{policy=rota}"), Some(6));
    }

    #[test]
    fn traced_and_untraced_runs_agree() {
        let scenario = overload_scenario();
        let plain = run_scenario(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
        let (traced, trace) =
            run_scenario_traced(&scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(plain, traced, "one code path drives both");
        assert!(!trace.is_empty());
        let last = trace.samples().last().unwrap();
        assert_eq!(last.accepted, traced.accepted);
        assert_eq!(last.missed, traced.missed);
    }

    #[test]
    fn empty_scenario_terminates() {
        let report = run_scenario(
            &Scenario::new(TimePoint::new(5)),
            RotaPolicy,
            ExecutionStrategy::FirstEntitled,
        );
        assert_eq!(report.accepted + report.rejected, 0);
        assert!(report.horizon >= TimePoint::new(5));
    }
}
