//! E3 — 1.5-approximation quality (Corollary 1b).
//!
//! Hoogeveen/Christofides on the reduced metric instance: measured
//! approximation ratios vs the Held–Karp optimum across graph families and
//! constraint vectors. The guarantee is 1.5; measured ratios sit far below.

use super::header;
use dclab_core::pvec::PVec;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::{approx15_route, exact_route};
use dclab_graph::generators::{classic, random};
use dclab_graph::Graph;
use dclab_tsp::matching::MatchingBackend;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn run(quick: bool) {
    header("E3 — 1.5-approximation: measured ratio vs Held–Karp optimum");
    let trials = if quick { 5 } else { 20 };
    println!(
        "{:<22} {:<10} {:>8} {:>10} {:>10} {:>10}",
        "family", "p", "trials", "mean", "max", "guarantee"
    );
    let mut rng = StdRng::seed_from_u64(0xE3);
    type GraphGen = Box<dyn FnMut(&mut StdRng) -> Graph>;
    let settings: Vec<(&str, GraphGen, PVec)> = vec![
        (
            "G(14,.5) diam2",
            Box::new(|r: &mut StdRng| random::gnp_with_diameter_at_most(r, 14, 0.5, 2)),
            PVec::l21(),
        ),
        (
            "G(16,.6) diam2",
            Box::new(|r: &mut StdRng| random::gnp_with_diameter_at_most(r, 16, 0.6, 2)),
            PVec::l21(),
        ),
        (
            "split(5,9)",
            Box::new(|r: &mut StdRng| loop {
                // Sparse cross edges occasionally give diameter 3; resample.
                let g = random::random_split(r, 5, 9, 0.4);
                if dclab_graph::diameter::has_diameter_at_most(&g, 2) {
                    return g;
                }
            }),
            PVec::l21(),
        ),
        (
            "multipartite",
            Box::new(|_r: &mut StdRng| classic::complete_multipartite(&[4, 5, 3, 4])),
            PVec::lpq(3, 2).unwrap(),
        ),
        (
            "G(13,.35) diam3",
            Box::new(|r: &mut StdRng| random::gnp_with_diameter_at_most(r, 13, 0.35, 3)),
            PVec::new(vec![2, 2, 1]).unwrap(),
        ),
    ];
    for (name, mut gen, p) in settings {
        let mut ratios = Vec::new();
        for _ in 0..trials {
            let g = gen(&mut rng);
            let reduced = reduce_to_path_tsp(&g, &p).unwrap();
            let exact = exact_route(&reduced).unwrap();
            let approx = approx15_route(&reduced, MatchingBackend::Auto);
            assert!(approx.labeling.validate(&g, &p).is_ok());
            assert!(2 * approx.span <= 3 * exact.span, "ratio guarantee breach");
            ratios.push(approx.span as f64 / exact.span.max(1) as f64);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        println!(
            "{:<22} {:<10} {:>8} {:>10.3} {:>10.3} {:>10}",
            name,
            p.to_string(),
            ratios.len(),
            mean,
            max,
            "1.500"
        );
    }
    println!("\nshape: every measured ratio ≤ 1.5 (most ≈ 1.0–1.25), matching Cor 1b.");
}
