//! E7 — Figure-1 model checking: ◇/□ evaluation cost vs exploration
//! depth and branching.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rota_actor::{ActorName, ResourceDemand, SimpleRequirement};
use rota_interval::{TimeInterval, TimePoint};
use rota_logic::{ChoiceUnfolding, Commitment, Formula, ModelChecker, State};
use rota_resource::{LocatedType, Location, Quantity, Rate, ResourceSet, ResourceTerm};

fn cpu(l: &str) -> LocatedType {
    LocatedType::cpu(Location::new(l))
}

fn busy_state(actors: usize, horizon: u64) -> State {
    let window = TimeInterval::from_ticks(0, horizon).expect("valid");
    let theta = ResourceSet::from_terms([
        ResourceTerm::new(Rate::new(4), window, cpu("l0")),
        ResourceTerm::new(Rate::new(4), window, cpu("l1")),
    ])
    .expect("bounded rates");
    let mut state = State::new(theta, TimePoint::ZERO);
    for k in 0..actors {
        state
            .accommodate(Commitment::opportunistic(
                ActorName::new(format!("a{k}")),
                [SimpleRequirement::new(
                    ResourceDemand::single(
                        cpu(if k % 2 == 0 { "l0" } else { "l1" }),
                        Quantity::new(8),
                    ),
                    window,
                )],
                TimePoint::new(horizon),
            ))
            .expect("before deadline");
    }
    state
}

fn atom(horizon: u64) -> Formula {
    Formula::SatisfySimple(SimpleRequirement::new(
        ResourceDemand::single(cpu("l0"), Quantity::new(4)),
        TimeInterval::from_ticks(0, horizon).expect("valid"),
    ))
}

fn bench_eventually_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7/eventually_vs_depth");
    for &depth in &[4usize, 16, 64, 256] {
        let state = busy_state(4, 512);
        let formula = atom(512).eventually();
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let checker = ModelChecker::greedy(depth);
            b.iter(|| black_box(checker.holds(&state, &formula)))
        });
    }
    group.finish();
}

fn bench_always_branching(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7/always_vs_branching");
    group.sample_size(10);
    for &branches in &[1usize, 2, 4] {
        let state = busy_state(4, 64);
        // □¬satisfy(huge demand): forces full-tree traversal
        let formula = Formula::SatisfySimple(SimpleRequirement::new(
            ResourceDemand::single(cpu("l0"), Quantity::new(1_000_000)),
            TimeInterval::from_ticks(0, 64).expect("valid"),
        ))
        .not()
        .always();
        group.bench_with_input(
            BenchmarkId::from_parameter(branches),
            &branches,
            |b, &branches| {
                let checker = ModelChecker::with_unfolding(
                    ChoiceUnfolding {
                        max_branches: branches,
                    },
                    8,
                );
                b.iter(|| black_box(checker.holds(&state, &formula)))
            },
        );
    }
    group.finish();
}

fn bench_satisfy_atoms(c: &mut Criterion) {
    let state = busy_state(8, 1_024);
    let simple = atom(1_024);
    c.bench_function("e7/satisfy_simple", |b| {
        let checker = ModelChecker::greedy(0);
        b.iter(|| black_box(checker.holds(&state, &simple)))
    });
    let complex = Formula::SatisfyComplex(rota_actor::ComplexRequirement::new(
        (0..8)
            .map(|_| ResourceDemand::single(cpu("l0"), Quantity::new(4)))
            .collect(),
        TimeInterval::from_ticks(0, 1_024).expect("valid"),
    ));
    c.bench_function("e7/satisfy_complex", |b| {
        let checker = ModelChecker::greedy(0);
        b.iter(|| black_box(checker.holds(&state, &complex)))
    });
}

criterion_group!(
    benches,
    bench_eventually_depth,
    bench_always_branching,
    bench_satisfy_atoms
);
criterion_main!(benches);
