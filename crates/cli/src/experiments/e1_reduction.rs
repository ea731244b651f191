//! E1 — Reduction correctness (Theorem 2 / Claim 1 / Figure 1).
//!
//! For a corpus of small graphs and constraint vectors, the span via the
//! TSP reduction + Held–Karp must equal the reduction-independent oracle
//! (exhaustive sorted-order search), and the recovered labeling must
//! validate.

use super::header;
use dclab_core::baseline::exact::exact_labeling_bruteforce;
use dclab_core::pvec::PVec;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::exact_route;
use dclab_graph::generators::{classic, random};
use dclab_graph::Graph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub fn run(quick: bool) {
    header("E1 — reduction correctness: TSP route == independent oracle");
    let trials = if quick { 10 } else { 60 };
    let ps = [
        PVec::l21(),
        PVec::ones(2),
        PVec::lpq(3, 2).unwrap(),
        PVec::lpq(2, 2).unwrap(),
        PVec::new(vec![2, 2, 1]).unwrap(),
        PVec::new(vec![4, 3, 2]).unwrap(),
    ];
    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>10}",
        "p", "eligible", "agree", "mismatch", "max span"
    );
    let mut rng = StdRng::seed_from_u64(0xE1);
    for p in &ps {
        let mut eligible = 0u32;
        let mut agree = 0u32;
        let mut mismatch = 0u32;
        let mut max_span = 0u64;
        let mut corpus: Vec<Graph> = vec![
            classic::path(3),
            classic::cycle(4),
            classic::cycle(5),
            classic::complete(6),
            classic::star(7),
            classic::wheel(6),
            classic::petersen(),
            classic::complete_bipartite(3, 4),
            classic::split_graph(3, 4),
        ];
        for _ in 0..trials {
            let n = 5 + rng.random_range(0..4usize);
            corpus.push(random::gnp(&mut rng, n, 0.5));
        }
        for g in &corpus {
            if g.n() > 9 {
                continue;
            }
            let Ok(reduced) = reduce_to_path_tsp(g, p) else {
                continue; // out of Theorem 2 scope
            };
            let sol = exact_route(&reduced).expect("n ≤ 9 is within the exact guard");
            eligible += 1;
            let (_, want) = exact_labeling_bruteforce(g, p);
            let valid = sol.labeling.validate(g, p).is_ok();
            if sol.span == want && valid {
                agree += 1;
                max_span = max_span.max(sol.span);
            } else {
                mismatch += 1;
                eprintln!("MISMATCH: p={p} g={g:?} got={} want={want}", sol.span);
            }
        }
        println!(
            "{:<12} {:>10} {:>10} {:>12} {:>10}",
            p.to_string(),
            eligible,
            agree,
            mismatch,
            max_span
        );
        assert_eq!(mismatch, 0, "reduction disagreed with the oracle");
    }
    println!("\nresult: zero mismatches — Theorem 2 + Claim 1 hold on the corpus.");
}
