//! E3 bench — the polynomial 1.5-approximation (Hoogeveen/Christofides)
//! across sizes, including its MST + matching + Eulerian pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dclab_bench::{diam2_graph, l21};
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::approx15_route;
use dclab_tsp::matching::MatchingBackend;
use std::hint::black_box;

fn bench_approx(c: &mut Criterion) {
    let p = l21();
    let mut group = c.benchmark_group("e3_christofides_path");
    group.sample_size(10);
    for n in [20usize, 60, 150, 400] {
        let g = diam2_graph(n, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                let reduced = reduce_to_path_tsp(black_box(g), &p).unwrap();
                approx15_route(&reduced, MatchingBackend::Auto)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_approx);
criterion_main!(benches);
