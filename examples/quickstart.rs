//! Quickstart: label a small-diameter graph with L(2,1) via the TSP
//! reduction, three ways (exact / 1.5-approx / heuristic), and verify.
//!
//! Run with: `cargo run --release --example quickstart`

use dclab::core::reduction::labeling_from_order;
use dclab::prelude::*;

fn main() {
    // The Petersen graph: 10 vertices, 3-regular, diameter 2 — squarely in
    // Theorem 2's scope for p = (2, 1).
    let g = dclab::graph::generators::classic::petersen();
    let p = PVec::l21();
    println!(
        "graph: Petersen (n={}, m={}), constraint: {p}",
        g.n(),
        g.m()
    );

    // 1) The reduction itself (Theorem 2): a complete weighted graph H.
    let reduced = reduce_to_path_tsp(&g, &p).expect("Petersen is eligible");
    println!(
        "reduced to Path TSP on {} cities; metric: {}",
        reduced.tsp.n(),
        reduced.tsp.is_metric()
    );

    // Every route below runs through the engine's one front door; the
    // strategy names the route.
    let run = |strategy| {
        let req = SolveRequest::new(g.clone(), p.clone()).with_strategy(strategy);
        solve(&req).expect("Petersen is eligible").solution
    };

    // 2) Exact optimum via Held–Karp (Corollary 1).
    let exact = run(Strategy::Exact);
    println!("exact span (Held–Karp):        λ = {}", exact.span);
    assert!(exact.labeling.validate(&g, &p).is_ok());

    // 3) Polynomial 1.5-approximation (Christofides/Hoogeveen).
    let approx = run(Strategy::Approx15);
    println!("1.5-approximation:             λ ≤ {}", approx.span);
    assert!(approx.labeling.validate(&g, &p).is_ok());
    assert!(2 * approx.span <= 3 * exact.span);

    // 4) Practical heuristic (chained Lin–Kernighan-style, parallel).
    let heur = run(Strategy::Heuristic);
    println!("chained-LK heuristic:          λ ≤ {}", heur.span);
    assert!(heur.labeling.validate(&g, &p).is_ok());

    // 5) Greedy baseline for contrast (no reduction).
    let greedy = run(Strategy::Greedy);
    println!("greedy first-fit baseline:     λ ≤ {}", greedy.span);

    // The optimal labeling, vertex by vertex.
    println!("\noptimal labeling (span {}):", exact.span);
    for v in 0..g.n() {
        println!("  vertex {v}: label {}", exact.labeling.label(v));
    }

    // Recover the same labeling manually from the TSP path (Claim 1).
    let manual = labeling_from_order(&reduced, &exact.order);
    assert_eq!(manual.span(), exact.span);
    println!("\nClaim 1 prefix-sum recovery matches: ✓");
}
