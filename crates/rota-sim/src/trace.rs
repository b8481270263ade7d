//! Per-tick execution traces: time series of what a run actually did.

use rota_admission::{AdmissionController, AdmissionPolicy};
use rota_interval::TimePoint;

/// One tick's observation of a running controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSample {
    /// The instant observed (after the tick executed).
    pub t: TimePoint,
    /// Computations in flight.
    pub in_flight: usize,
    /// Cumulative accepted requests.
    pub accepted: u64,
    /// Cumulative rejected requests.
    pub rejected: u64,
    /// Cumulative deadline misses.
    pub missed: u64,
    /// Cumulative delivered resource units.
    pub delivered_units: u64,
}

impl TraceSample {
    /// Samples a controller after a tick — the single sampling path for
    /// traced runs.
    pub fn of_controller<P: AdmissionPolicy>(controller: &AdmissionController<P>) -> Self {
        let stats = controller.stats();
        TraceSample {
            t: controller.now(),
            in_flight: controller.in_flight(),
            accepted: stats.accepted,
            rejected: stats.rejected,
            missed: stats.missed,
            delivered_units: controller.delivered_units(),
        }
    }
}

/// The full time series of a traced run.
///
/// # Examples
///
/// ```
/// use rota_sim::{run_scenario_traced, Scenario};
/// use rota_admission::{ExecutionStrategy, RotaPolicy};
/// use rota_interval::TimePoint;
///
/// let scenario = Scenario::new(TimePoint::new(4));
/// let (report, trace) = run_scenario_traced(
///     &scenario, RotaPolicy, ExecutionStrategy::FirstEntitled);
/// assert_eq!(report.accepted, 0);
/// assert!(trace.len() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    samples: Vec<TraceSample>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace {
            samples: Vec::new(),
        }
    }

    /// Appends a sample (driver-internal).
    pub(crate) fn push(&mut self, sample: TraceSample) {
        self.samples.push(sample);
    }

    /// The recorded samples, in time order.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of samples (ticks observed).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The maximum number of computations simultaneously in flight.
    pub fn peak_in_flight(&self) -> usize {
        self.samples.iter().map(|s| s.in_flight).max().unwrap_or(0)
    }

    /// Per-tick delivered units (the derivative of the cumulative
    /// counter) — the instantaneous throughput series.
    pub fn throughput(&self) -> Vec<u64> {
        let mut prev = 0u64;
        self.samples
            .iter()
            .map(|s| {
                let d = s.delivered_units.saturating_sub(prev);
                prev = s.delivered_units;
                d
            })
            .collect()
    }

    /// A compact one-line sparkline of in-flight computations over time —
    /// handy for terminal output.
    pub fn sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let peak = self.peak_in_flight().max(1);
        self.samples
            .iter()
            .map(|s| {
                let idx = (s.in_flight * (BARS.len() - 1) + peak / 2) / peak;
                BARS[idx.min(BARS.len() - 1)]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::sim::run_scenario_traced;
    use rota_actor::{
        ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
    };
    use rota_admission::{AdmissionRequest, ExecutionStrategy, RotaPolicy};
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

    fn request(name: &str, evals: usize, d: u64) -> AdmissionRequest {
        let mut gamma = ActorComputation::new(format!("{name}-actor"), "l1");
        for _ in 0..evals {
            gamma.push(ActionKind::evaluate());
        }
        AdmissionRequest::price(
            DistributedComputation::single(
                name,
                gamma,
                rota_interval::TimePoint::ZERO,
                rota_interval::TimePoint::new(d),
            )
            .unwrap(),
            &TableCostModel::paper(),
            Granularity::MaximalRun,
        )
    }

    #[test]
    fn trace_records_every_tick_and_monotone_counters() {
        let mut s = Scenario::new(rota_interval::TimePoint::new(10)).with_initial(theta(4, 0, 10));
        s.add_arrival(rota_interval::TimePoint::ZERO, request("j", 2, 10));
        let (report, trace) = run_scenario_traced(&s, RotaPolicy, ExecutionStrategy::FirstEntitled);
        assert_eq!(report.accepted, 1);
        assert!(trace.len() >= 10);
        // times strictly increase, cumulative counters never decrease
        for w in trace.samples().windows(2) {
            assert!(w[0].t < w[1].t);
            assert!(w[0].delivered_units <= w[1].delivered_units);
            assert!(w[0].accepted <= w[1].accepted);
            assert!(w[0].missed <= w[1].missed);
        }
        assert_eq!(trace.peak_in_flight(), 1);
        // the job delivers 16 units across its 4 active ticks
        let total: u64 = trace.throughput().iter().sum();
        assert_eq!(total, 16);
        assert_eq!(trace.sparkline().chars().count(), trace.len());
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.peak_in_flight(), 0);
        assert!(t.throughput().is_empty());
        assert_eq!(t.sparkline(), "");
    }
}
