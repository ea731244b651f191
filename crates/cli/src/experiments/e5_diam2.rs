//! E5 — Diameter-2 `L(p,q)` via Partition into Paths (Corollary 2, Fig. 2).
//!
//! Part A: the PIP route agrees with the TSP route on random diameter-2
//! graphs, in both the `p ≤ q` and `p > q` (complement) cases.
//! Part B: the polynomial cotree DP scales on cographs where the subset DP
//! hits its exponential wall — the FPT shape of the Gajarský et al. claim.

use super::{header, ms, timed};
use dclab_core::diam2::{solve_diam2_lpq, PipSolver};
use dclab_core::pvec::PVec;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::exact_route;
use dclab_graph::generators::random;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(quick: bool) {
    header("E5a — Corollary 2 agreement: PIP route == TSP route (diam 2)");
    let trials = if quick { 5 } else { 25 };
    println!(
        "{:<12} {:>8} {:>8} {:>10}",
        "(p,q)", "trials", "agree", "complement"
    );
    let mut rng = StdRng::seed_from_u64(0xE5);
    for (p, q) in [(1u64, 2u64), (2, 1), (2, 2), (3, 2), (2, 3), (4, 3), (3, 4)] {
        let pv = PVec::lpq(p, q).unwrap();
        if !pv.is_smooth() {
            continue;
        }
        let mut agree = 0;
        let mut on_complement = false;
        for _ in 0..trials {
            let g = random::gnp_with_diameter_at_most(&mut rng, 12, 0.5, 2);
            let tsp = exact_route(&reduce_to_path_tsp(&g, &pv).unwrap()).unwrap();
            let pip = solve_diam2_lpq(&g, p, q, PipSolver::SubsetDp).unwrap();
            assert_eq!(tsp.span, pip.span, "Corollary 2 equality failed");
            on_complement = pip.on_complement;
            agree += 1;
        }
        println!(
            "{:<12} {:>8} {:>8} {:>10}",
            format!("({p},{q})"),
            trials,
            agree,
            on_complement
        );
    }

    header("E5b — FPT shape: polynomial cotree DP vs exponential subset DP");
    println!(
        "{:<8} {:>14} {:>14} {:>10}",
        "n", "cotree DP", "subset DP", "s(paths)"
    );
    let sizes: &[usize] = if quick {
        &[12, 16, 64]
    } else {
        &[12, 16, 20, 64, 256, 1024]
    };
    for &n in sizes {
        let g = random::random_connected_cograph(&mut rng, n, 0.4);
        let (fast, fast_ms) = timed(|| solve_diam2_lpq(&g, 2, 1, PipSolver::Cotree).unwrap());
        let slow = if n <= 20 {
            let (s, slow_ms) = timed(|| solve_diam2_lpq(&g, 2, 1, PipSolver::SubsetDp).unwrap());
            assert_eq!(s.span, fast.span, "cotree DP disagreed with subset DP");
            ms(slow_ms)
        } else {
            "— (2^n)".into()
        };
        println!(
            "{:<8} {:>14} {:>14} {:>10}",
            n,
            ms(fast_ms),
            slow,
            fast.partition_size
        );
    }
    println!("\nshape: the cotree DP stays polynomial (ms at n = 1024) while the");
    println!("subset DP is capped at n = 20 — the Corollary 2 FPT claim's shape.");
}
