//! The paper's FPT routes in action (Corollary 2 & Theorem 4).
//!
//! * Diameter-2 `L(p,q)` via Partition into Paths, with the polynomial
//!   cotree DP on cographs — compared against the subset-DP and the full
//!   TSP route.
//! * `L(1,…,1)` via coloring `G^k` with the neighborhood-diversity FPT
//!   engine — compared against exact branch-and-bound and the resulting
//!   Corollary 3 `p_max`-approximation.
//!
//! Run with: `cargo run --release --example fpt_routes`

use dclab::core::diam2::{solve_diam2_lpq, PipSolver};
use dclab::core::l1::{solve_l1, solve_pmax_approx, L1Engine};
use dclab::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let exact = |g: &Graph, p: &PVec| {
        let req = SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::Exact);
        solve(&req).expect("diameter-2 instance").solution
    };

    println!("=== Corollary 2: diameter-2 L(p,q) via Partition into Paths ===\n");
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>10}",
        "n", "family", "λ(2,1) PIP", "λ(2,1) TSP", "s(paths)"
    );
    for n in [8usize, 10, 12, 14] {
        let g = dclab::graph::generators::random::gnp_with_diameter_at_most(&mut rng, n, 0.5, 2);
        let pip = solve_diam2_lpq(&g, 2, 1, PipSolver::SubsetDp).unwrap();
        let tsp = exact(&g, &PVec::l21());
        assert_eq!(pip.span, tsp.span);
        println!(
            "{:>5} {:>10} {:>12} {:>12} {:>10}",
            n, "G(n,.5)", pip.span, tsp.span, pip.partition_size
        );
    }

    println!("\ncographs: polynomial cotree DP scales where subset DP cannot");
    for n in [50usize, 200, 800] {
        let g = dclab::graph::generators::random::random_connected_cograph(&mut rng, n, 0.4);
        let t0 = std::time::Instant::now();
        let sol = solve_diam2_lpq(&g, 2, 1, PipSolver::Cotree).unwrap();
        println!(
            "  n={:>4}: λ(2,1) = {:>5}  (s = {:>3}, {:?})",
            n,
            sol.span,
            sol.partition_size,
            t0.elapsed()
        );
    }

    println!("\n=== Theorem 4: L(1,1) as coloring of G², nd-FPT engine ===\n");
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>10}",
        "n", "nd", "nd-FPT", "exact BB", "DSATUR"
    );
    for parts in [vec![6, 6, 6], vec![10, 5, 8, 4], vec![20, 20, 20, 20]] {
        let g = dclab::graph::generators::classic::complete_multipartite(&parts);
        let nd = dclab::graph::params::nd::nd(&g);
        let (_, fpt) = solve_l1(&g, 2, L1Engine::NdFpt);
        let (_, ds) = solve_l1(&g, 2, L1Engine::Dsatur);
        let exact = if g.n() <= 30 {
            format!("{}", solve_l1(&g, 2, L1Engine::Exact).1)
        } else {
            "—".to_string()
        };
        println!(
            "{:>6} {:>6} {:>10} {:>10} {:>10}",
            g.n(),
            nd,
            fpt,
            exact,
            ds
        );
    }

    println!("\n=== Corollary 3: p_max-approximation from L(1) ===\n");
    let p = PVec::l21();
    for n in [8usize, 10, 12] {
        let g = dclab::graph::generators::random::gnp_with_diameter_at_most(&mut rng, n, 0.5, 2);
        let opt = exact(&g, &p);
        let approx = solve_pmax_approx(&g, &p, L1Engine::Exact);
        assert!(approx.labeling.validate(&g, &p).is_ok());
        println!(
            "  n={:>3}: optimal {} vs p_max-approx {} (ratio {:.2}, guarantee {:.1})",
            n,
            opt.span,
            approx.span,
            approx.span as f64 / opt.span.max(1) as f64,
            p.pmax() as f64
        );
    }
}
