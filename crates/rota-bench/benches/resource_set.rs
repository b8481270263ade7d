//! E2 — resource-set simplification: building the canonical form from n
//! random terms and from n terms on one located type in the worst
//! orders, and the windowed queries the satisfaction function uses.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rota_interval::TimeInterval;
use rota_resource::{LocatedType, Location, Rate, ResourceSet, ResourceTerm};

fn random_terms(n: usize, types: usize, seed: u64) -> Vec<ResourceTerm> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0u64..4_000);
            let e = rng.gen_range(s + 1..s + 400);
            let lt = LocatedType::cpu(Location::new(format!("l{}", rng.gen_range(0..types))));
            ResourceTerm::new(
                Rate::new(rng.gen_range(1..32)),
                TimeInterval::from_ticks(s, e).expect("s < e"),
                lt,
            )
        })
        .collect()
}

fn bench_simplification(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2/simplify");
    for &n in &[16usize, 64, 256, 1024, 4096] {
        let terms = random_terms(n, 16, 7);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &terms, |b, terms| {
            b.iter(|| {
                black_box(ResourceSet::from_terms(terms.iter().cloned()).expect("bounded rates"))
            })
        });
    }
    group.finish();
}

fn bench_type_spread(c: &mut Criterion) {
    // Same term count, varying located-type diversity: aggregation cost
    // concentrates on fewer, longer profiles as diversity falls.
    let mut group = c.benchmark_group("e2/simplify_types");
    for &types in &[1usize, 4, 16, 64] {
        let terms = random_terms(1024, types, 11);
        group.bench_with_input(BenchmarkId::from_parameter(types), &terms, |b, terms| {
            b.iter(|| {
                black_box(ResourceSet::from_terms(terms.iter().cloned()).expect("bounded rates"))
            })
        });
    }
    group.finish();
}

/// `n` overlapping terms on one located type, in `order`: `descending`
/// (each term starts before the last) or `nested` (each term inside
/// the last). A build that re-sorts the whole profile on every insert
/// is quadratic on both.
fn one_type_terms(order: &str, n: u64) -> Vec<ResourceTerm> {
    let lt = LocatedType::cpu(Location::new("l0"));
    (0..n)
        .map(|i| {
            let (s, e) = match order {
                "descending" => (n - i, n - i + 2),
                _ => (i, 2 * n - i),
            };
            ResourceTerm::new(
                Rate::new(1 + i % 3),
                TimeInterval::from_ticks(s, e).expect("s < e"),
                lt.clone(),
            )
        })
        .collect()
}

fn bench_worst_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2/worst_order");
    group.sample_size(10);
    for order in ["descending", "nested"] {
        for &n in &[64u64, 256, 1024, 4096] {
            let terms = one_type_terms(order, n);
            group.throughput(Throughput::Elements(n));
            group.bench_with_input(BenchmarkId::new(order, n), &terms, |b, terms| {
                b.iter(|| {
                    black_box(
                        ResourceSet::from_terms(terms.iter().cloned()).expect("bounded rates"),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let set = ResourceSet::from_terms(random_terms(1024, 16, 13)).expect("bounded rates");
    let window = TimeInterval::from_ticks(1_000, 2_000).expect("valid");
    let lt = LocatedType::cpu(Location::new("l3"));
    c.bench_function("e2/quantity_over", |b| {
        b.iter(|| black_box(set.quantity_over(&lt, &window).expect("no overflow")))
    });
    c.bench_function("e2/clamp", |b| b.iter(|| black_box(set.clamp(&window))));
    let demand = ResourceSet::from_terms(random_terms(64, 16, 17))
        .expect("bounded rates")
        .clamp(&window);
    c.bench_function("e2/relative_complement", |b| {
        b.iter(|| black_box(set.relative_complement(&demand).ok()))
    });
}

criterion_group!(
    benches,
    bench_simplification,
    bench_type_spread,
    bench_worst_order,
    bench_queries
);
criterion_main!(benches);
