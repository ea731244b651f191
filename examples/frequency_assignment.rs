//! Frequency assignment — the paper's motivating application.
//!
//! Transmitters in a dense urban cell are 'very close' (graph-adjacent:
//! frequencies ≥ 2 apart) or 'close' (distance 2: frequencies must differ).
//! We synthesize a dense transmitter network (diameter 2), assign
//! frequencies with the TSP pipeline, and compare channel usage across
//! solvers and against the greedy assignment a naive planner would use.
//!
//! Run with: `cargo run --release --example frequency_assignment`

use dclab::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2023);
    let p = PVec::l21();
    let run = |g: &Graph, strategy| {
        let req = SolveRequest::new(g.clone(), p.clone()).with_strategy(strategy);
        solve(&req).expect("diameter-2 instance").solution
    };

    println!("=== frequency assignment on synthetic transmitter networks ===\n");
    println!(
        "{:>5} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "n", "m", "exact", "approx", "chainedLK", "greedy"
    );

    for n in [8usize, 12, 16, 20] {
        // Urban cell: dense random network, resampled to diameter ≤ 2.
        let g = dclab::graph::generators::random::gnp_with_diameter_at_most(&mut rng, n, 0.55, 2);
        let exact = run(&g, Strategy::Exact);
        let approx = run(&g, Strategy::Approx15);
        let heur = run(&g, Strategy::Heuristic);
        let greedy = run(&g, Strategy::Greedy);
        for sol in [&exact, &approx, &heur, &greedy] {
            assert!(sol.labeling.validate(&g, &p).is_ok(), "invalid assignment");
        }
        println!(
            "{:>5} {:>7} {:>9} {:>9} {:>9} {:>9}",
            n,
            g.m(),
            exact.span,
            approx.span,
            heur.span,
            greedy.span
        );
    }

    // A larger deployment where exact search is hopeless: heuristic only.
    println!("\nlarge deployment (exact intractable):");
    let g = dclab::graph::generators::random::gnp_with_diameter_at_most(&mut rng, 300, 0.24, 2);
    let heur = run(&g, Strategy::Heuristic);
    let greedy = run(&g, Strategy::Greedy);
    assert!(heur.labeling.validate(&g, &p).is_ok());
    println!(
        "  n={} m={}: chained-LK span {} vs greedy span {} ({}% saved)",
        g.n(),
        g.m(),
        heur.span,
        greedy.span,
        (greedy.span.saturating_sub(heur.span)) * 100 / greedy.span.max(1)
    );
    println!("\nfrequencies are labels: channel count = span + 1");
}
