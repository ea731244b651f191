//! E9 bench — engine dispatch overhead: `Strategy::Auto` vs. calling the
//! underlying route directly, plus batch fan-out throughput.
//!
//! Each cell is the median of `SAMPLES` timed runs in µs, written to
//! `BENCH_engine.json` at the workspace root (no cell is gated).

use dclab_bench::ledger::{median_us, Ledger};
use dclab_bench::{diam2_graph, l21};
use dclab_core::reduction::{reduce_to_path_tsp, ReducedInstance};
use dclab_core::routes;
use dclab_engine::{solve, solve_batch, SolveRequest, Strategy};
use dclab_par::Deadline;
use dclab_tsp::exact::BbStatus;
use dclab_tsp::matching::MatchingBackend;
use std::hint::black_box;

const SAMPLES: usize = 10;

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

fn main() {
    let mut ledger = Ledger::new("e9_engine", "BENCH_engine.json", SAMPLES);
    let mut cell = |name: String, us: f64| {
        println!("bench e9_engine/{name:<40} {us:>12.1} µs (median of {SAMPLES})");
        ledger.metric(&name, us);
    };
    let p = l21();

    // Small instance: Auto resolves to Held–Karp. Overhead = features +
    // stats + validation on top of the direct call.
    for n in [10usize, 16, 20] {
        let g = diam2_graph(n, 9);
        let direct = median_us(SAMPLES, || {
            let reduced = reduce_to_path_tsp(black_box(&g), &p).unwrap();
            routes::exact_route(&reduced).unwrap()
        });
        cell(format!("exact_direct_us_n{n}"), direct);
        let auto = median_us(SAMPLES, || {
            solve(&SolveRequest::new(black_box(&g).clone(), p.clone())).unwrap()
        });
        cell(format!("exact_auto_us_n{n}"), auto);
    }

    // Larger instance: Auto goes through PIP/BB; direct comparator is the
    // heuristic route over a fresh reduction (what callers used before the
    // engine existed).
    for n in [60usize, 120] {
        let g = diam2_graph(n, 9);
        let direct = median_us(SAMPLES, || {
            let reduced = reduce_to_path_tsp(black_box(&g), &p).unwrap();
            routes::heuristic_route(&reduced, &Default::default())
        });
        cell(format!("large_heuristic_us_n{n}"), direct);
        let auto = median_us(SAMPLES, || {
            solve(&SolveRequest::new(black_box(&g).clone(), p.clone())).unwrap()
        });
        cell(format!("large_auto_us_n{n}"), auto);
    }

    // Route-layer reuse: reduction once + N routes vs. N routes that each
    // re-reduce.
    let g = diam2_graph(120, 9);
    let once = median_us(SAMPLES, || {
        let reduced = reduce_to_path_tsp(black_box(&g), &p).unwrap();
        let a = routes::heuristic_route(&reduced, &Default::default()).span;
        let b = routes::approx15_route(&reduced, MatchingBackend::Auto).span;
        (a, b, bb_span(&reduced))
    });
    cell("reduce_once_three_routes_us".into(), once);
    let again = median_us(SAMPLES, || {
        let reduce = || reduce_to_path_tsp(black_box(&g), &p).unwrap();
        let a = routes::heuristic_route(&reduce(), &Default::default()).span;
        let b = routes::approx15_route(&reduce(), MatchingBackend::Auto).span;
        (a, b, bb_span(&reduce()))
    });
    cell("re_reduce_three_wrappers_us".into(), again);

    // Batch fan-out over mixed sizes.
    let requests: Vec<SolveRequest> = (0..16)
        .map(|i| SolveRequest::new(diam2_graph(10 + 2 * (i % 4), 100 + i as u64), l21()))
        .collect();
    let batch = median_us(SAMPLES, || solve_batch(black_box(&requests)));
    cell("solve_batch_16_us".into(), batch);
    let seq = median_us(SAMPLES, || {
        requests
            .iter()
            .map(|r| solve(black_box(r)))
            .collect::<Vec<_>>()
    });
    cell("solve_seq_16_us".into(), seq);

    // Explicit-strategy dispatch (engine bookkeeping only, no Auto logic).
    let g = diam2_graph(16, 9);
    for strategy in [Strategy::Exact, Strategy::BranchBound, Strategy::Heuristic] {
        let req = SolveRequest::new(g.clone(), l21()).with_strategy(strategy);
        let us = median_us(SAMPLES, || solve(black_box(&req)).unwrap());
        cell(
            format!("route_{}_us", strategy.name().replace('-', "_")),
            us,
        );
    }

    ledger.finish(&[]);
}
