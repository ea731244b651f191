//! E2 bench — Held–Karp exact solve (`O(2^n n²)`) vs the factorial oracle,
//! demonstrating the Corollary 1a scaling shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dclab_bench::{diam2_graph, l21};
use dclab_core::baseline::exact::exact_labeling_bruteforce;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::exact_route;
use std::hint::black_box;

fn bench_exact(c: &mut Criterion) {
    let p = l21();
    let mut group = c.benchmark_group("e2_held_karp");
    group.sample_size(10);
    for n in [10usize, 12, 14, 16] {
        let g = diam2_graph(n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| exact_route(&reduce_to_path_tsp(black_box(g), &p).unwrap()).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("e2_factorial_oracle");
    group.sample_size(10);
    for n in [8usize, 9] {
        let g = diam2_graph(n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| exact_labeling_bruteforce(black_box(g), &p))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact);
criterion_main!(benches);
