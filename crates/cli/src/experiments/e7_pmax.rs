//! E7 — Corollary 3: the `p_max`-approximation from `L(1)`.
//!
//! Scale an optimal `L(1^k)`-labeling by `p_max`: always a valid
//! `L(p)`-labeling, within factor `p_max` of optimal. The table reports
//! measured ratios against the exact TSP-route optimum.

use super::header;
use dclab_core::l1::{solve_pmax_approx, L1Engine};
use dclab_core::pvec::PVec;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::exact_route;
use dclab_graph::generators::random;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(quick: bool) {
    header("E7 — p_max-approximation via L(1): measured vs guaranteed ratio");
    let trials = if quick { 4 } else { 15 };
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>12}",
        "p", "trials", "mean", "max", "guarantee"
    );
    let mut rng = StdRng::seed_from_u64(0xE7);
    let ps = [
        PVec::l21(),
        PVec::lpq(2, 2).unwrap(),
        PVec::lpq(3, 2).unwrap(),
        PVec::lpq(4, 2).unwrap(),
        PVec::new(vec![2, 1, 1]).unwrap(),
    ];
    for p in &ps {
        let mut ratios = Vec::new();
        for _ in 0..trials {
            let g = random::gnp_with_diameter_at_most(&mut rng, 11, 0.5, p.k() as u32);
            let reduced = reduce_to_path_tsp(&g, p).unwrap();
            let opt = exact_route(&reduced).unwrap();
            let approx = solve_pmax_approx(&reduced.dist, p, L1Engine::Exact);
            assert!(approx.labeling.validate(&g, p).is_ok());
            assert!(
                approx.span <= p.pmax() * opt.span.max(1),
                "guarantee breach"
            );
            ratios.push(approx.span as f64 / opt.span.max(1) as f64);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        println!(
            "{:<12} {:>8} {:>10.3} {:>10.3} {:>12.1}",
            p.to_string(),
            trials,
            mean,
            max,
            p.pmax() as f64
        );
    }
    println!("\nshape: measured ratios track p_max/p_min-ish behaviour and never");
    println!("exceed the p_max guarantee (Corollary 3).");
}
