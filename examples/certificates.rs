//! Optimality certificates at scale.
//!
//! Beyond n ≈ 24 the exact Held–Karp route is out of reach, but the
//! reduction still pays off twice: chained-LK produces a labeling, and the
//! TSP lower-bound machinery (chain / degree / MST / Held–Karp 1-tree
//! ascent) produces a certificate of how far from optimal it can be. On
//! most diameter-2 instances the two meet: the heuristic solution is
//! *provably* optimal with no exact search at all.
//!
//! Run with: `cargo run --release --example certificates`

use dclab::core::bounds::{chain_bound, degree_bound, held_karp_bound, mst_bound};
use dclab::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7_777);
    let p = PVec::l21();
    let heuristic = |g: &Graph| {
        let req = SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::Heuristic);
        solve(&req).expect("diameter-2 instance").solution
    };

    println!("heuristic span vs lower-bound ladder, L(2,1) on diameter-2 graphs\n");
    println!(
        "{:>6} {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>9} {:>10}",
        "n", "m", "chain", "degree", "MST", "HK1tree", "heuristic", "certified"
    );

    for n in [50usize, 120, 250, 500] {
        let density = (2.8 * (n as f64).ln() / n as f64).sqrt().min(0.6);
        let g =
            dclab::graph::generators::random::gnp_with_diameter_at_most(&mut rng, n, density, 2);
        let heur = heuristic(&g);
        assert!(heur.labeling.validate(&g, &p).is_ok());

        let chain = chain_bound(&g, &p).unwrap();
        let degree = degree_bound(&g, &p);
        let mst = mst_bound(&g, &p).unwrap();
        let hk = held_karp_bound(&g, &p, 100).unwrap();
        let best_lb = chain.max(degree).max(mst).max(hk);
        let certified = if heur.span == best_lb {
            "OPTIMAL".to_string()
        } else {
            format!(
                "≤{}·opt",
                (heur.span as f64 / best_lb as f64 * 100.0).round() / 100.0
            )
        };
        println!(
            "{:>6} {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>9} {:>10}",
            n,
            g.m(),
            chain,
            degree,
            mst,
            hk,
            heur.span,
            certified
        );
    }

    // A structured family where the chain bound is NOT tight: unbalanced
    // complete multipartite (the optimum needs t-1 expensive crossings the
    // chain bound cannot see; the MST bound recovers them exactly).
    println!("\nunbalanced multipartite (chain bound loose, MST bound exact):");
    for parts in [vec![40usize, 20, 10, 5, 5], vec![2; 60]] {
        let g = dclab::graph::generators::classic::complete_multipartite(&parts);
        let n = g.n() as u64;
        let t = parts.len() as u64;
        let optimal = (n - 1) + (t - 1); // Corollary 2 closed form
        let heur = heuristic(&g);
        let chain = chain_bound(&g, &p).unwrap();
        let mst = mst_bound(&g, &p).unwrap();
        println!(
            "  {} parts, n={}: optimal {}, heuristic {}, chain bound {}, MST bound {}",
            parts.len(),
            n,
            optimal,
            heur.span,
            chain,
            mst
        );
        assert!(mst <= optimal && heur.span >= optimal);
    }
    println!("\nthe MST bound recovers the crossing costs the chain bound misses.");
}
