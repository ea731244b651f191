//! E2 — Exact scaling (Corollary 1a).
//!
//! Held–Karp on the reduced instance is `O(2^n n²)`; the naive
//! sorted-order oracle is `Θ(n!·n²)`. The table shows wall-clock growth —
//! the doubling-per-vertex shape for Held–Karp and the factorial cliff for
//! the oracle (it drops out after n = 10).

use super::{header, ms, timed};
use dclab_core::baseline::exact::exact_labeling_bruteforce;
use dclab_core::pvec::PVec;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::exact_route;
use dclab_graph::generators::random;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(quick: bool) {
    header("E2 — exact scaling: Held–Karp O(2^n n²) vs factorial oracle");
    let max_n = if quick { 14 } else { 20 };
    let p = PVec::l21();
    println!(
        "{:<6} {:>12} {:>14} {:>10}",
        "n", "Held–Karp", "oracle (n!)", "λ(2,1)"
    );
    let mut rng = StdRng::seed_from_u64(0xE2);
    let mut prev_hk = 0.0f64;
    for n in (8..=max_n).step_by(2) {
        let g = random::gnp_with_diameter_at_most(&mut rng, n, 0.5, 2);
        let (sol, hk_ms) = timed(|| exact_route(&reduce_to_path_tsp(&g, &p).unwrap()).unwrap());
        let oracle = if n <= 10 {
            let (res, o_ms) = timed(|| exact_labeling_bruteforce(&g, &p));
            assert_eq!(res.1, sol.span);
            ms(o_ms)
        } else {
            "—".into()
        };
        let growth = if prev_hk > 0.0 {
            format!(" (×{:.1})", hk_ms / prev_hk)
        } else {
            String::new()
        };
        println!(
            "{:<6} {:>12} {:>14} {:>10}{growth}",
            n,
            ms(hk_ms),
            oracle,
            sol.span
        );
        prev_hk = hk_ms;
    }
    println!("\nshape: Held–Karp time roughly ×4 per +2 vertices (2^n n²); the");
    println!("oracle is already orders of magnitude slower at n = 10.");
}
