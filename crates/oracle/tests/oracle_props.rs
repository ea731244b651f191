//! Differential property suite pinning hub-label queries to the dense
//! [`DistanceMatrix`] oracle: for every vertex pair of every corpus
//! instance — including `u == v` and unreachable pairs — `query(u, v)`
//! must equal the matrix entry bit-for-bit (same `INF` sentinel).
//!
//! The corpus mirrors `apsp_props`: G(n,p) across densities, cycles,
//! complete graphs, and forced-disconnected unions, so the oracle is
//! exercised on large-diameter, small-diameter, dense, and multi-component
//! shapes alike.

use dclab_graph::generators::{classic, random};
use dclab_graph::ops::disjoint_union;
use dclab_graph::{DistanceMatrix, Graph};
use dclab_oracle::HubLabels;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One corpus instance per case, spread over the four families.
fn corpus_graph(kind: usize, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind % 4 {
        0 => {
            // G(n,p) sweeping sparse → dense (diameter large → small).
            let p = [0.03, 0.1, 0.3, 0.7][(seed % 4) as usize];
            random::gnp(&mut rng, n, p)
        }
        1 => classic::cycle(n.max(3)),
        2 => classic::complete(n),
        _ => {
            // Forced disconnected: two G(n,p) halves with no cross edges,
            // so the suite always sees unreachable pairs.
            let half = (n / 2).max(1);
            let a = random::gnp(&mut rng, half, 0.3);
            let b = random::gnp(&mut rng, n - half + 1, 0.3);
            disjoint_union(&a, &b)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    // The acceptance gate: hub labels answer every pair exactly like the
    // dense matrix — diagonal zeros and the INF sentinel included — on
    // sizes that straddle the 64-hub bit-parallel seeding batch.
    #[test]
    fn hub_query_matches_dense_matrix_everywhere(
        kind in 0usize..4,
        n in 1usize..90,
        seed in any::<u64>(),
    ) {
        let g = corpus_graph(kind, n, seed);
        let labels = HubLabels::build(&g).expect("small-diameter-safe corpus");
        let dense = DistanceMatrix::compute_sequential(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                prop_assert_eq!(labels.query(u, v), dense.get(u, v));
            }
        }
    }
}
