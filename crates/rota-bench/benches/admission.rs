//! E4 — Theorem-4 incremental admission: decision latency, and the whole
//! submit (decide plus install), vs the number of computations already
//! committed — plus the observability overhead
//! check: the same accept path with and without a metrics registry
//! attached (target: <5% overhead; see EXPERIMENTS.md).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rota_actor::{
    ActionKind, ActorComputation, DistributedComputation, Granularity, TableCostModel,
};
use rota_admission::{
    AdmissionController, AdmissionObs, AdmissionPolicy, AdmissionRequest, GreedyEdfPolicy,
    NaiveTotalPolicy, RotaPolicy,
};
use rota_interval::TimePoint;
use rota_logic::State;
use rota_obs::Registry;
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};

const HORIZON: u64 = 4_096;

fn request(name: &str, node: usize, deadline: u64) -> AdmissionRequest {
    let gamma = ActorComputation::new(format!("{name}-actor"), format!("l{node}"))
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate());
    AdmissionRequest::price(
        DistributedComputation::single(name, gamma, TimePoint::ZERO, TimePoint::new(deadline))
            .expect("deadline > 0"),
        &TableCostModel::paper(),
        Granularity::MaximalRun,
    )
}

/// A state with `n` computations already committed across 8 nodes, over
/// `horizon` ticks of supply.
fn committed_state(n: usize, horizon: u64) -> State {
    let window = rota_interval::TimeInterval::from_ticks(0, horizon).expect("valid");
    let theta = ResourceSet::from_terms((0..8).map(|i| {
        ResourceTerm::new(
            Rate::new(4),
            window,
            LocatedType::cpu(Location::new(format!("l{i}"))),
        )
    }))
    .expect("bounded rates");
    let mut state = State::new(theta, TimePoint::ZERO);
    for k in 0..n {
        let req = request(&format!("pre{k}"), k % 8, horizon);
        if let rota_admission::Decision::Accept(cs) = RotaPolicy.decide(&state, &req) {
            for c in cs {
                state.accommodate(c).expect("before deadline");
            }
        }
    }
    state
}

fn bench_admission_vs_committed(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4/admit_vs_committed");
    group.sample_size(20);
    for &n in &[1usize, 8, 32, 128, 512, 10_000] {
        // The horizon grows with n so no node saturates: every point
        // times an accept with all n computations committed.
        let horizon = HORIZON.max(n as u64);
        let state = committed_state(n, horizon);
        assert_eq!(state.rho().len(), n, "every pre-committed request fits");
        let probe = request("probe", 3, horizon);
        assert!(RotaPolicy.decide(&state, &probe).is_accept());
        group.bench_with_input(BenchmarkId::new("rota", n), &n, |b, _| {
            b.iter(|| black_box(RotaPolicy.decide(&state, &probe).is_accept()))
        });
        group.bench_with_input(BenchmarkId::new("naive-total", n), &n, |b, _| {
            b.iter(|| black_box(NaiveTotalPolicy.decide(&state, &probe).is_accept()))
        });
    }
    group.finish();
}

/// Ticks per slot of the fragmented controller: a two-evaluate job needs
/// 16 units, four ticks at rate 4, so each committed slot reserves its
/// first half and leaves its second half free.
const SLOT: u64 = 8;

/// A job on `l0` whose window is slot `k`.
fn slot_request(name: &str, k: u64) -> AdmissionRequest {
    let gamma = ActorComputation::new(format!("{name}-actor"), "l0")
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate());
    AdmissionRequest::price(
        DistributedComputation::single(
            name,
            gamma,
            TimePoint::new(k * SLOT),
            TimePoint::new((k + 1) * SLOT),
        )
        .expect("slot start < end"),
        &TableCostModel::paper(),
        Granularity::MaximalRun,
    )
}

/// A controller over one located type, `cpu@l0`, with `n` computations
/// committed in `n` of the slots `0..=n`, each reserving the first half
/// of its slot: the reserved profile holds `n` segments spread over the
/// horizon. The free slot, returned with it, lies in the middle.
fn fragmented_controller(n: u64) -> (AdmissionController<RotaPolicy>, u64) {
    let window = rota_interval::TimeInterval::from_ticks(0, (n + 1) * SLOT).expect("valid");
    let theta = ResourceSet::from_terms([ResourceTerm::new(
        Rate::new(4),
        window,
        LocatedType::cpu(Location::new("l0")),
    )])
    .expect("bounded rates");
    let mut ctl = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
    let free = n.div_ceil(2);
    for k in (0..=n).filter(|&k| k != free) {
        assert!(ctl.submit(&slot_request(&format!("pre{k}"), k)).is_accept());
    }
    (ctl, free)
}

/// E4 carried to the whole admit: `submit` (decide plus install) against
/// n live commitments whose reservations all lie on the probe's own
/// located type, so the reserved profile the decision reads and the
/// install writes has n segments. Each iteration withdraws the probe
/// again, so the row times submit plus withdraw on an unchanging state.
fn bench_submit_vs_committed(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4/submit_vs_committed");
    group.sample_size(20);
    for &n in &[1u64, 8, 32, 128, 512, 10_000] {
        let (mut ctl, free) = fragmented_controller(n);
        assert_eq!(
            ctl.state().rho().len() as u64,
            n,
            "every pre-committed request fits"
        );
        let probe = slot_request("probe", free);
        let actors = probe.actor_names();
        group.bench_with_input(BenchmarkId::new("rota", n), &n, |b, _| {
            b.iter(|| {
                let accepted = ctl.submit(&probe).is_accept();
                assert!(accepted, "the probe's slot is free");
                assert!(ctl.withdraw(&actors), "the probe withdraws");
                black_box(accepted)
            })
        });
    }
    group.finish();
}

fn bench_edf_simulation_cost(c: &mut Criterion) {
    // GreedyEDF pays a full simulation per decision — measured separately
    // (smaller sizes: it is orders of magnitude slower by design).
    let mut group = c.benchmark_group("e4/edf_simulation");
    group.sample_size(10);
    for &n in &[1usize, 8, 32] {
        let state = committed_state(n, HORIZON);
        let probe = request("probe", 3, HORIZON);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(GreedyEdfPolicy.decide(&state, &probe).is_accept()))
        });
    }
    group.finish();
}

/// A controller with `n` computations already committed across 8 nodes.
fn committed_controller(n: usize, obs: Option<AdmissionObs>) -> AdmissionController<RotaPolicy> {
    let window = rota_interval::TimeInterval::from_ticks(0, HORIZON).expect("valid");
    let theta = ResourceSet::from_terms((0..8).map(|i| {
        ResourceTerm::new(
            Rate::new(4),
            window,
            LocatedType::cpu(Location::new(format!("l{i}"))),
        )
    }))
    .expect("bounded rates");
    let mut ctl = AdmissionController::new(RotaPolicy, theta, TimePoint::ZERO);
    if let Some(obs) = obs {
        ctl = ctl.with_obs(obs);
    }
    for k in 0..n {
        let _ = ctl.submit(&request(&format!("pre{k}"), k % 8, HORIZON));
    }
    ctl
}

/// A request whose window starts in the future, so an accepted
/// submission can be withdrawn via the leave rule (guard `t < s`) —
/// letting the bench exercise the accept path repeatedly without the
/// controller's state drifting.
fn future_request(name: &str, node: usize, deadline: u64) -> AdmissionRequest {
    let gamma = ActorComputation::new(format!("{name}-actor"), format!("l{node}"))
        .then(ActionKind::evaluate())
        .then(ActionKind::evaluate());
    AdmissionRequest::price(
        DistributedComputation::single(name, gamma, TimePoint::new(1), TimePoint::new(deadline))
            .expect("deadline > start"),
        &TableCostModel::paper(),
        Granularity::MaximalRun,
    )
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/admission_overhead");
    group.sample_size(40);
    for &n in &[8usize, 128] {
        let probe = future_request("probe", 3, HORIZON);
        let actors = probe.actor_names();
        let mut plain = committed_controller(n, None);
        group.bench_with_input(BenchmarkId::new("disabled", n), &n, |b, _| {
            b.iter(|| {
                let accepted = plain.submit(&probe).is_accept();
                assert!(plain.cancel(&actors), "future start withdraws cleanly");
                black_box(accepted)
            })
        });
        let registry = Registry::new();
        let mut observed = committed_controller(n, Some(AdmissionObs::new(&registry, "rota")));
        group.bench_with_input(BenchmarkId::new("enabled", n), &n, |b, _| {
            b.iter(|| {
                let accepted = observed.submit(&probe).is_accept();
                assert!(observed.cancel(&actors), "future start withdraws cleanly");
                black_box(accepted)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_admission_vs_committed,
    bench_submit_vs_committed,
    bench_edf_simulation_cost,
    bench_metrics_overhead
);
criterion_main!(benches);
