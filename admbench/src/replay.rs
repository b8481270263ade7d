//! The traced in-process replay: the exact job bytes a service saw, fed
//! through each crate's public functions in the order the service runs
//! them, with a span around every call.
//!
//! A single-server workload replays into per-shard controllers built
//! with `split_by_shard` and `route_request`, so each controller holds
//! what its shard holds and pre-validation sees the shard's supply, as
//! on the server. A cluster workload replays into one merged-state
//! controller: the basis its two-phase commits decide against.
//!
//! Spans stay in memory and are written when the run ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use rota_actor::TableCostModel;
use rota_admission::{
    AdmissionController, AdmissionPolicy, AdmissionRequest, Decision, RotaPolicy,
};
use rota_analyze::{prevalidate, SpecModel};
use rota_interval::TimePoint;
use rota_server::protocol::{Request, Response};
use rota_server::spec::computation_to_json;
use rota_server::{route_request, split_by_shard};
use rota_workload::base_resources;

use crate::stats::median;
use crate::workload::{Job, Workload, GRANULARITY};

/// One timed call. `parent` names the enclosing span; the root span of
/// each job is `replay`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Job index in the replayed sequence.
    pub job: usize,
    /// Layer function, e.g. `logic.theta_expire`.
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Recorder {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as span `name` of `job` under `parent`.
    pub fn span<T>(
        &mut self,
        job: usize,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = black_box(f());
        let end_ns = self.now();
        self.spans.push(Span {
            job,
            name,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records an already-measured span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Nanoseconds since the recorder was created, for spans timed by
    /// the caller.
    pub fn clock(&self) -> u64 {
        self.now()
    }

    /// Duration of the most recent span, in nanoseconds.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::ns)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<(usize, &'static str, u64)> {
        let mut children: BTreeMap<(usize, &'static str), u64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *children.entry((span.job, parent)).or_default() += span.ns();
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let inner = children.get(&(s.job, s.name)).copied().unwrap_or(0);
                (s.job, s.name, s.ns().saturating_sub(inner))
            })
            .collect()
    }

    /// Median duration of the spans named `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        median(&values)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"job\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.job,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What the replay measured per decided job, for the decile split.
struct Decided {
    live: usize,
    theta_ns: u64,
    decide_ns: u64,
}

/// Replays `jobs` (warm-up then timed, in job order) through the layer
/// functions, recording spans into `recorder`. `responses` holds the
/// real response each job received from the service, keyed by name.
pub fn replay(
    workload: &Workload,
    seed: u64,
    jobs: &[&Job],
    responses: &BTreeMap<String, Response>,
    recorder: &mut Recorder,
) -> Vec<Metric> {
    let theta = base_resources(&workload.config(seed));
    let shards = if workload.is_cluster() {
        1
    } else {
        workload.shards()
    };
    let slices = if shards == 1 {
        vec![theta]
    } else {
        split_by_shard(&theta, shards)
    };
    let mut controllers: Vec<AdmissionController<RotaPolicy>> = slices
        .into_iter()
        .map(|slice| AdmissionController::new(RotaPolicy, slice, TimePoint::ZERO))
        .collect();
    let cost = TableCostModel::paper();
    let mut request_bytes = Vec::new();
    let mut response_bytes = Vec::new();
    let mut decided = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let root_start = recorder.clock();
        let root = Some("replay");
        let frame = recorder.span(i, "client.encode", root, || {
            let doc = computation_to_json(&job.computation);
            black_box(doc);
            job.request.to_json().to_string()
        });
        request_bytes.push(frame.len() as f64 + 1.0);
        let request = recorder.span(i, "protocol.decode", root, || Request::from_line(&frame));
        let Ok(Request::Admit { computation, .. }) = request else {
            continue;
        };
        let Ok(lambda) = recorder.span(i, "spec.build", root, || computation.build()) else {
            continue;
        };
        let priced = recorder.span(i, "admission.price", root, || {
            AdmissionRequest::price(lambda, &cost, GRANULARITY)
        });
        let shard = route_request(&priced, shards);
        let controller = &mut controllers[shard];
        let lint = recorder.span(i, "analyze.prevalidate", root, || {
            let model =
                SpecModel::from_parts(&controller.state().theta().to_terms(), priced.computation());
            prevalidate(&model, &priced.requirement().total_demand())
        });
        if !lint.has_errors() {
            let live = controller.state().rho().len();
            recorder.span(i, "logic.theta_expire", root, || {
                controller.state().expiring_resources()
            });
            let theta_ns = recorder.last_ns();
            let decision = recorder.span(i, "admission.decide", root, || {
                RotaPolicy.decide(controller.state(), &priced)
            });
            let decide_ns = recorder.last_ns();
            // The commit half of `submit`: installing the accepted
            // commitments into the shard's state.
            if let Decision::Accept(commitments) = decision {
                recorder
                    .span(i, "admission.commit", root, || {
                        controller.install(commitments, priced.deadline())
                    })
                    .expect("every replayed job has fresh actor names");
            }
            decided.push(Decided {
                live,
                theta_ns,
                decide_ns,
            });
        }
        if let Some(response) = responses.get(&job.name) {
            let text = recorder.span(i, "protocol.encode", root, || {
                response.to_json().to_string()
            });
            response_bytes.push(text.len() as f64 + 1.0);
        }
        let root_end = recorder.clock();
        recorder.push(Span {
            job: i,
            name: "replay",
            parent: None,
            start_ns: root_start,
            end_ns: root_end,
        });
    }

    let mut figures = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        figures.push((name.to_string(), value, unit));
    };
    put(
        "protocol.decode_us",
        recorder.median_us("protocol.decode"),
        "us",
    );
    put(
        "protocol.encode_us",
        recorder.median_us("protocol.encode"),
        "us",
    );
    put("protocol.request_bytes", median(&request_bytes), "bytes");
    put("protocol.response_bytes", median(&response_bytes), "bytes");
    put(
        "client.encode_us",
        recorder.median_us("client.encode"),
        "us",
    );
    put("spec.build_us", recorder.median_us("spec.build"), "us");
    put(
        "admission.price_us",
        recorder.median_us("admission.price"),
        "us",
    );
    put(
        "analyze.prevalidate_us",
        recorder.median_us("analyze.prevalidate"),
        "us",
    );
    let theta_us = recorder.median_us("logic.theta_expire");
    let decide_us = recorder.median_us("admission.decide");
    put("logic.theta_expire_us", theta_us, "us");
    put("admission.decide_us", decide_us, "us");
    put(
        "admission.decide_self_us",
        (decide_us - theta_us).max(0.0),
        "us",
    );
    put(
        "admission.commit_us",
        recorder.median_us("admission.commit"),
        "us",
    );
    put(
        "logic.live_commitments",
        controllers
            .iter()
            .map(|c| c.state().rho().len())
            .sum::<usize>() as f64,
        "count",
    );
    decided.sort_by_key(|d| d.live);
    for decile in 0..10 {
        let lo = decided.len() * decile / 10;
        let hi = decided.len() * (decile + 1) / 10;
        let part = &decided[lo..hi];
        let theta: Vec<f64> = part.iter().map(|d| d.theta_ns as f64 / 1e3).collect();
        let decide: Vec<f64> = part.iter().map(|d| d.decide_ns as f64 / 1e3).collect();
        put(
            &format!("logic.theta_expire_us.d{}", decile + 1),
            median(&theta),
            "us",
        );
        put(
            &format!("admission.decide_us.d{}", decile + 1),
            median(&decide),
            "us",
        );
    }
    figures
}
