//! Lock-free counters, gauges, and histograms behind a snapshotable
//! registry.
//!
//! Hot-path updates (`inc`, `set`, `observe`) are relaxed atomic
//! operations on pre-registered handles; the registry mutex is touched
//! only at registration and snapshot time. Relaxed ordering is enough:
//! metrics are monotone tallies, not synchronization edges, and a
//! snapshot taken mid-update may lag an in-flight increment but never
//! tears a value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{Json, Key};

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depth, in-flight count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// Buckets are cumulative-style upper bounds (`value <= bound` lands in
/// the first matching bucket); observations above every bound go to an
/// implicit overflow bucket. Bounds are fixed at registration, so
/// `observe` is a binary search plus two atomic adds (bucket and sum);
/// the count is the sum of the buckets.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// One slot per bound, plus the trailing overflow slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Default bounds for nanosecond latencies: 250ns to 16ms,
    /// roughly ×4 per bucket.
    pub fn latency_ns_bounds() -> &'static [u64] {
        &[
            250, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, 4_000_000, 16_000_000,
        ]
    }

    /// Default bounds for small structural quantities (depths, sizes).
    pub fn depth_bounds() -> &'static [u64] {
        &[1, 2, 4, 8, 16, 32, 64, 128]
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, self.buckets[i].load(Ordering::Relaxed)))
            .collect();
        let overflow = self.buckets[self.bounds.len()].load(Ordering::Relaxed);
        // Counted from the loaded buckets, so the snapshot is consistent.
        let count = buckets.iter().map(|(_, n)| n).sum::<u64>() + overflow;
        HistogramSnapshot {
            buckets,
            overflow,
            count,
            sum: self.sum(),
        }
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) are
/// `Arc`s: fetch them once at setup and update them lock-free on the
/// hot path. Asking for the same name again returns the same metric.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Handle>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let handle = metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Counter(Arc::new(Counter::default())));
        match handle {
            Handle::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let handle = metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Gauge(Arc::new(Gauge::default())));
        match handle {
            Handle::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// The histogram named `name`, registering it with `bounds` on
    /// first use (later calls keep the original bounds).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let handle = metrics
            .entry(name.to_string())
            .or_insert_with(|| Handle::Histogram(Arc::new(Histogram::new(bounds))));
        match handle {
            Handle::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        Snapshot {
            metrics: metrics
                .iter()
                .map(|(name, handle)| {
                    let value = match handle {
                        Handle::Counter(c) => MetricValue::Counter(c.get()),
                        Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                        Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    MetricSnapshot {
                        name: name.clone(),
                        value,
                    }
                })
                .collect(),
        }
    }
}

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(upper_bound, count)` per bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Frozen value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's count.
    Counter(u64),
    /// A gauge's level.
    Gauge(i64),
    /// A histogram's buckets and totals.
    Histogram(HistogramSnapshot),
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The registered name, e.g. `admission.accepted{policy=rota}`.
    pub name: String,
    /// The frozen value.
    pub value: MetricValue,
}

/// A point-in-time copy of a [`Registry`], ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by name.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// Looks up a counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find(|m| m.name == name).and_then(|m| {
            if let MetricValue::Counter(v) = m.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Looks up a gauge value by exact name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics.iter().find(|m| m.name == name).and_then(|m| {
            if let MetricValue::Gauge(v) = m.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Looks up a histogram snapshot by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.iter().find(|m| m.name == name).and_then(|m| {
            if let MetricValue::Histogram(ref h) = m.value {
                Some(h)
            } else {
                None
            }
        })
    }

    /// Serializes the snapshot as a JSON object keyed by metric name.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let value = match &m.value {
                        MetricValue::Counter(v) => Json::Obj(vec![
                            ("kind".into(), Json::Str("counter".into())),
                            ("value".into(), Json::Num(*v as f64)),
                        ]),
                        MetricValue::Gauge(v) => Json::Obj(vec![
                            ("kind".into(), Json::Str("gauge".into())),
                            ("value".into(), Json::Num(*v as f64)),
                        ]),
                        MetricValue::Histogram(h) => Json::Obj(vec![
                            ("kind".into(), Json::Str("histogram".into())),
                            ("count".into(), Json::Num(h.count as f64)),
                            ("sum".into(), Json::Num(h.sum as f64)),
                            (
                                "buckets".into(),
                                Json::Arr(
                                    h.buckets
                                        .iter()
                                        .map(|(le, n)| {
                                            Json::Obj(vec![
                                                ("le".into(), Json::Num(*le as f64)),
                                                ("count".into(), Json::Num(*n as f64)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("overflow".into(), Json::Num(h.overflow as f64)),
                        ]),
                    };
                    (Key::new(&m.name), value)
                })
                .collect(),
        )
    }

    /// Renders the snapshot as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        let width = self
            .metrics
            .iter()
            .map(|m| m.name.len())
            .max()
            .unwrap_or(0)
            .max("metric".len());
        let mut out = format!("{:<width$}  value\n", "metric");
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{:<width$}  {v}\n", m.name));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{:<width$}  {v}\n", m.name));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{:<width$}  count={} sum={} mean={:.1}\n",
                        m.name,
                        h.count,
                        h.sum,
                        h.mean()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_and_gauge_round_trip() {
        let registry = Registry::new();
        let c = registry.counter("a.count");
        c.inc();
        c.add(4);
        let g = registry.gauge("a.level");
        g.set(10);
        g.add(-3);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("a.level"), Some(7));
        assert_eq!(snap.counter("a.level"), None);
    }

    #[test]
    fn same_name_returns_same_metric() {
        let registry = Registry::new();
        registry.counter("x").inc();
        registry.counter("x").inc();
        assert_eq!(registry.snapshot().counter("x"), Some(2));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(10, 3), (100, 2), (1000, 0)]);
        assert_eq!(snap.overflow, 1);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1 + 5 + 10 + 11 + 100 + 5000);
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_updates() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let registry = std::sync::Arc::new(Registry::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let registry = std::sync::Arc::clone(&registry);
                thread::spawn(move || {
                    let c = registry.counter("stress.count");
                    let g = registry.gauge("stress.level");
                    let h = registry.histogram("stress.hist", &[8, 64, 512]);
                    for i in 0..PER_THREAD {
                        c.inc();
                        g.add(1);
                        h.observe(i % 1000);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker panicked");
        }
        let snap = registry.snapshot();
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.counter("stress.count"), Some(total));
        assert_eq!(snap.gauge("stress.level"), Some(total as i64));
        let h = snap.histogram("stress.hist").expect("histogram registered");
        assert_eq!(h.count, total);
        let bucket_total: u64 = h.buckets.iter().map(|(_, n)| n).sum::<u64>() + h.overflow;
        assert_eq!(bucket_total, total);
    }

    #[test]
    fn json_and_table_render() {
        let registry = Registry::new();
        registry.counter("r.accepted{policy=rota}").add(3);
        registry
            .histogram("r.latency", Histogram::latency_ns_bounds())
            .observe(500);
        let snap = registry.snapshot();
        let json = snap.to_json().to_string();
        assert!(json.contains("\"r.accepted{policy=rota}\""));
        assert!(json.contains("\"counter\""));
        assert!(json.contains("\"histogram\""));
        let table = snap.render_table();
        assert!(table.contains("r.accepted{policy=rota}"));
        assert!(table.contains("count=1"));
    }
}
