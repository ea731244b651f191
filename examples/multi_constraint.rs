//! Higher-dimensional constraint vectors: the generality the paper buys.
//!
//! Most published algorithms are hard-wired to a specific `p` (usually
//! `(2,1)`); the TSP route handles *any* `p` with `p_max ≤ 2·p_min`
//! uniformly, for graphs whose diameter is at most `|p|`. This example
//! sweeps several `p` vectors over diameter-3 graphs — a regime essentially
//! absent from the L(p)-labeling literature — and shows the span landscape.
//!
//! Run with: `cargo run --release --example multi_constraint`

use dclab::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);

    // Diameter-≤3 workloads: small-world rings, moderate G(n,p), small grid.
    let graphs: Vec<(String, Graph)> = vec![
        (
            "G(14,.35)".into(),
            dclab::graph::generators::random::gnp_with_diameter_at_most(&mut rng, 14, 0.35, 3),
        ),
        (
            "G(12,.4)".into(),
            dclab::graph::generators::random::gnp_with_diameter_at_most(&mut rng, 12, 0.4, 3),
        ),
        (
            "grid(2x3)".into(),
            dclab::graph::generators::classic::grid(2, 3),
        ),
        (
            "BA(13,4)".into(),
            dclab::graph::generators::random::barabasi_albert(&mut rng, 13, 4),
        ),
    ];

    // p vectors of dimension 3, all satisfying p_max ≤ 2·p_min.
    let ps = [
        PVec::new(vec![1, 1, 1]).unwrap(),
        PVec::new(vec![2, 1, 1]).unwrap(),
        PVec::new(vec![2, 2, 1]).unwrap(),
        PVec::new(vec![2, 2, 2]).unwrap(),
        PVec::new(vec![3, 2, 2]).unwrap(),
        PVec::new(vec![4, 3, 2]).unwrap(),
    ];

    println!("exact spans λ_p via Held–Karp on the reduced Path-TSP instance\n");
    print!("{:>14}", "graph \\ p");
    for p in &ps {
        print!("{:>12}", p.to_string());
    }
    println!();

    for (name, g) in &graphs {
        let diam = dclab::graph::diameter::diameter(g).unwrap();
        print!("{:>11} d={}", name, diam);
        for p in &ps {
            if (diam as usize) > p.k() {
                print!("{:>12}", "n/a");
                continue;
            }
            let req = SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::Exact);
            match solve(&req) {
                Ok(report) => {
                    assert!(report.solution.labeling.validate(g, p).is_ok());
                    print!("{:>12}", report.solution.span);
                }
                Err(e) => print!("{:>12}", format!("({e:?})")),
            }
        }
        println!();
    }

    println!("\nspan monotonicity: pointwise-larger p never decreases λ_p ✓");
}
