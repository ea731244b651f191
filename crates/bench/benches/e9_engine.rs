//! E9 bench — engine dispatch overhead: `Strategy::Auto` vs. calling the
//! underlying route directly, plus batch fan-out throughput.
//!
//! Besides the criterion output, writes machine-readable timings to
//! `BENCH_engine.json` in the current directory (one object per bench,
//! mean ns/iter) so the perf trajectory can be tracked across PRs.

use criterion::{criterion_main, BenchmarkId, Criterion};
use dclab_bench::{diam2_graph, l21};
use dclab_core::reduction::{reduce_to_path_tsp, ReducedInstance};
use dclab_core::routes;
use dclab_engine::{solve, solve_batch, SolveRequest, Strategy};
use dclab_par::Deadline;
use dclab_tsp::exact::BbStatus;
use dclab_tsp::matching::MatchingBackend;
use std::hint::black_box;

/// Branch-and-bound span under a 100k node budget; `u64::MAX` when the
/// budget runs out before optimality is proved.
fn bb_span(reduced: &ReducedInstance) -> u64 {
    let (sol, status) =
        routes::branch_bound_route_anytime(reduced, 100_000, &Deadline::none(), None, None);
    if status == BbStatus::Proved {
        sol.span
    } else {
        u64::MAX
    }
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    // Small instance: Auto resolves to Held–Karp. Overhead = features +
    // stats + validation on top of the direct call.
    let mut group = c.benchmark_group("e9_auto_vs_direct_exact");
    group.sample_size(20);
    for n in [10usize, 16, 20] {
        let g = diam2_graph(n, 9);
        let p = l21();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("direct/{n}")),
            &g,
            |b, g| {
                b.iter(|| {
                    let reduced = reduce_to_path_tsp(black_box(g), &p).unwrap();
                    routes::exact_route(&reduced).unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("auto/{n}")),
            &g,
            |b, g| b.iter(|| solve(&SolveRequest::new(black_box(g).clone(), p.clone())).unwrap()),
        );
    }
    group.finish();

    // Larger instance: Auto goes through PIP/BB; direct comparator is the
    // heuristic route over a fresh reduction (what callers used before the
    // engine existed).
    let mut group = c.benchmark_group("e9_auto_vs_direct_large");
    group.sample_size(10);
    for n in [60usize, 120] {
        let g = diam2_graph(n, 9);
        let p = l21();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("heuristic/{n}")),
            &g,
            |b, g| {
                b.iter(|| {
                    let reduced = reduce_to_path_tsp(black_box(g), &p).unwrap();
                    routes::heuristic_route(&reduced, &Default::default())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("auto/{n}")),
            &g,
            |b, g| b.iter(|| solve(&SolveRequest::new(black_box(g).clone(), p.clone())).unwrap()),
        );
    }
    group.finish();

    // Route-layer reuse: reduction once + N routes vs. N routes that each
    // re-reduce.
    let mut group = c.benchmark_group("e9_shared_reduction");
    group.sample_size(10);
    let g = diam2_graph(120, 9);
    let p = l21();
    group.bench_function("reduce_once_three_routes", |b| {
        b.iter(|| {
            let reduced = reduce_to_path_tsp(black_box(&g), &p).unwrap();
            let a = routes::heuristic_route(&reduced, &Default::default()).span;
            let b2 = routes::approx15_route(&reduced, MatchingBackend::Auto).span;
            (a, b2, bb_span(&reduced))
        })
    });
    group.bench_function("re_reduce_three_wrappers", |b| {
        b.iter(|| {
            let reduce = || reduce_to_path_tsp(black_box(&g), &p).unwrap();
            let a = routes::heuristic_route(&reduce(), &Default::default()).span;
            let b2 = routes::approx15_route(&reduce(), MatchingBackend::Auto).span;
            (a, b2, bb_span(&reduce()))
        })
    });
    group.finish();

    // Batch fan-out over mixed sizes.
    let mut group = c.benchmark_group("e9_batch");
    group.sample_size(10);
    let requests: Vec<SolveRequest> = (0..16)
        .map(|i| SolveRequest::new(diam2_graph(10 + 2 * (i % 4), 100 + i as u64), l21()))
        .collect();
    group.bench_function("solve_batch_16", |b| {
        b.iter(|| solve_batch(black_box(&requests)))
    });
    group.bench_function("solve_seq_16", |b| {
        b.iter(|| {
            requests
                .iter()
                .map(|r| solve(black_box(r)))
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    // Explicit-strategy dispatch (engine bookkeeping only, no Auto logic).
    let mut group = c.benchmark_group("e9_explicit_routes");
    group.sample_size(20);
    let g = diam2_graph(16, 9);
    for strategy in [Strategy::Exact, Strategy::BranchBound, Strategy::Heuristic] {
        let req = SolveRequest::new(g.clone(), l21()).with_strategy(strategy);
        group.bench_function(strategy.name(), |b| {
            b.iter(|| solve(black_box(&req)).unwrap())
        });
    }
    group.finish();
}

fn write_bench_json(c: &Criterion) {
    let body: Vec<String> = c
        .measurements()
        .iter()
        .map(|m| {
            format!(
                "{{\"id\":\"{}\",\"mean_ns\":{:.1},\"iterations\":{}}}",
                m.id, m.mean_ns, m.iterations
            )
        })
        .collect();
    let json = format!(
        "{{\"bench\":\"e9_engine\",\"results\":[{}]}}\n",
        body.join(",")
    );
    // Land at the workspace root regardless of the bench CWD.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path} ({} entries)", c.measurements().len());
    }
}

fn benches_with_json() {
    let mut criterion = Criterion::default();
    bench_dispatch_overhead(&mut criterion);
    write_bench_json(&criterion);
}

criterion_main!(benches_with_json);
