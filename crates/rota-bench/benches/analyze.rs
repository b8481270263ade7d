//! E15 — static-analysis overhead: the `rota-analyze` lint pipeline
//! versus the admission decision it precedes, across computation sizes
//! and supply sizes (see EXPERIMENTS.md E15).
//!
//! Three configurations matter: the full pipeline (`analyze_with`, what
//! `rota-cli check` runs per spec), the structural-only subset
//! (`analyze_structural`, what `rota-workload` self-validation runs per
//! generated job), and pre-admission validation — `prevalidate` over a
//! spec model, and `prevalidate_request`, what every `rota-server`
//! shard runs per admit request on the decoded computation spec against
//! its live Θ. Each is compared
//! to `RotaPolicy::decide` on the same request — the work the lint
//! fronts.
//!
//! The supply-size group holds the request fixed and grows Θ from 24
//! to 768 terms. `spec-rebuild` is the shard's per-admit path before it
//! checked Θ in place: rebuild a `SpecModel` from Θ's terms, then
//! `prevalidate`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rota_actor::{
    ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
};
use rota_admission::{AdmissionPolicy, AdmissionRequest, RotaPolicy};
use rota_analyze::{
    analyze_structural, analyze_with, prevalidate, prevalidate_request, ComputationSpec, SpecModel,
};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::State;
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};

const HORIZON: u64 = 4_096;
const NODES: usize = 8;

fn theta() -> ResourceSet {
    let window = TimeInterval::from_ticks(0, HORIZON).expect("valid");
    let mut set = ResourceSet::new();
    for i in 0..NODES {
        set.insert(ResourceTerm::new(
            Rate::new(4),
            window,
            LocatedType::cpu(Location::new(format!("l{i}"))),
        ))
        .expect("bounded rates");
        let next = (i + 1) % NODES;
        set.insert(ResourceTerm::new(
            Rate::new(4),
            window,
            LocatedType::network(
                Location::new(format!("l{i}")),
                Location::new(format!("l{next}")),
            ),
        ))
        .expect("bounded rates");
    }
    set
}

/// Per-node CPU and both directions of every ring link (24 located
/// types), each over the horizon in `segments` pieces of alternating
/// rate, so the set holds `24 × segments` terms.
fn segmented_theta(segments: u64) -> ResourceSet {
    let len = HORIZON / segments;
    let mut set = ResourceSet::new();
    for i in 0..NODES {
        let here = Location::new(format!("l{i}"));
        let next = Location::new(format!("l{}", (i + 1) % NODES));
        for lt in [
            LocatedType::cpu(here.clone()),
            LocatedType::network(here.clone(), next.clone()),
            LocatedType::network(next, here),
        ] {
            for k in 0..segments {
                let window = TimeInterval::from_ticks(k * len, (k + 1) * len).expect("len > 0");
                set.insert(ResourceTerm::new(Rate::new(4 + k % 2), window, lt.clone()))
                    .expect("bounded rates");
            }
        }
    }
    set
}

/// A fork-join of `actors` actors round-robined over the nodes, two
/// evaluations each — the E4 probe shape, scaled.
fn job(actors: usize) -> DistributedComputation {
    let gammas = (0..actors)
        .map(|k| {
            ActorComputation::new(format!("a{k}"), format!("l{}", k % NODES))
                .then(ActionKind::evaluate())
                .then(ActionKind::evaluate())
        })
        .collect();
    DistributedComputation::new("probe", gammas, TimePoint::ZERO, TimePoint::new(HORIZON))
        .expect("deadline > 0")
}

fn bench_analyze_vs_decide(c: &mut Criterion) {
    let phi = TableCostModel::paper();
    let theta = theta();
    let state = State::new(theta.clone(), TimePoint::ZERO);
    let mut group = c.benchmark_group("e15/analyze_vs_decide");
    group.sample_size(20);
    for &n in &[1usize, 8, 32] {
        let lambda = job(n);
        let model = SpecModel::from_parts(&theta.to_terms(), &lambda);
        let request = AdmissionRequest::price(lambda, &phi, Granularity::MaximalRun);
        let demand = request.demand();
        group.bench_with_input(BenchmarkId::new("analyze-full", n), &n, |b, _| {
            b.iter(|| black_box(analyze_with(&model, &phi, Granularity::MaximalRun).has_errors()))
        });
        group.bench_with_input(BenchmarkId::new("analyze-structural", n), &n, |b, _| {
            b.iter(|| black_box(analyze_structural(&model).has_errors()))
        });
        group.bench_with_input(BenchmarkId::new("prevalidate", n), &n, |b, _| {
            b.iter(|| black_box(prevalidate(&model, demand).has_errors()))
        });
        group.bench_with_input(BenchmarkId::new("prevalidate-request", n), &n, |b, _| {
            b.iter(|| {
                black_box(prevalidate_request(&model.computation, &theta, demand).has_errors())
            })
        });
        group.bench_with_input(BenchmarkId::new("policy-decide", n), &n, |b, _| {
            b.iter(|| black_box(RotaPolicy.decide(&state, &request).is_accept()))
        });
    }
    group.finish();
}

fn bench_prevalidate_vs_supply(c: &mut Criterion) {
    let phi = TableCostModel::paper();
    let request = AdmissionRequest::price(job(NODES), &phi, Granularity::MaximalRun);
    let lambda = request.computation();
    let spec = ComputationSpec::from(lambda);
    let demand = request.demand();
    let mut group = c.benchmark_group("e15/prevalidate_vs_supply");
    group.sample_size(20);
    for segments in [1u64, 8, 32] {
        let theta = segmented_theta(segments);
        let terms = theta.term_count();
        let model = SpecModel::from_parts(&theta.to_terms(), lambda);
        group.bench_with_input(BenchmarkId::new("request", terms), &terms, |b, _| {
            b.iter(|| black_box(prevalidate_request(&spec, &theta, demand).has_errors()))
        });
        group.bench_with_input(BenchmarkId::new("model", terms), &terms, |b, _| {
            b.iter(|| black_box(prevalidate(&model, demand).has_errors()))
        });
        group.bench_with_input(BenchmarkId::new("spec-rebuild", terms), &terms, |b, _| {
            b.iter(|| {
                let model = SpecModel::from_parts(&theta.to_terms(), lambda);
                black_box(prevalidate(&model, demand).has_errors())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_analyze_vs_decide,
    bench_prevalidate_vs_supply
);
criterion_main!(benches);
