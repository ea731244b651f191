//! E7 bench — Corollary 3: the p_max-approximation pipeline (optimal
//! L(1^k) coloring + scaling) vs the exact TSP route.

use criterion::{criterion_group, criterion_main, Criterion};
use dclab_bench::{diam2_graph, l21};
use dclab_core::l1::{solve_pmax_approx, L1Engine};
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::exact_route;
use std::hint::black_box;

fn bench_pmax(c: &mut Criterion) {
    let p = l21();
    let mut group = c.benchmark_group("e7_pmax_approx");
    group.sample_size(10);
    let g = diam2_graph(12, 8);
    group.bench_function("exact_tsp_route_n12", |b| {
        b.iter(|| exact_route(&reduce_to_path_tsp(black_box(&g), &p).unwrap()).unwrap())
    });
    group.bench_function("pmax_approx_exact_coloring_n12", |b| {
        b.iter(|| solve_pmax_approx(black_box(&g), &p, L1Engine::Exact))
    });
    group.bench_function("pmax_approx_dsatur_n12", |b| {
        b.iter(|| solve_pmax_approx(black_box(&g), &p, L1Engine::Dsatur))
    });
    // Where exact TSP cannot go, the approximation still runs.
    let big = diam2_graph(200, 8);
    group.bench_function("pmax_approx_dsatur_n200", |b| {
        b.iter(|| solve_pmax_approx(black_box(&big), &p, L1Engine::Dsatur))
    });
    group.finish();
}

criterion_group!(benches, bench_pmax);
criterion_main!(benches);
