//! Differential property tests pinning the bit-parallel blocked APSP
//! ([`DistanceMatrix::compute`]) and the diameter
//! ([`dclab_graph::diameter::diameter`], with its universal-vertex
//! shortcut) to the scalar one-BFS-per-source oracle
//! ([`DistanceMatrix::compute_sequential`]) across the corpora the paper's
//! pipeline actually sees: G(n,p) at several densities, cycles, complete
//! graphs, forced-disconnected instances, planted universal vertices,
//! stars, and the two-vertex edge cases.

use dclab_graph::diameter::diameter;
use dclab_graph::generators::{classic, random};
use dclab_graph::ops::{disjoint_union, join};
use dclab_graph::{DistanceMatrix, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of corpus families [`corpus_graph`] draws from.
const FAMILIES: usize = 7;

/// One corpus instance per case, spread over the families.
fn corpus_graph(kind: usize, n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind % FAMILIES {
        0 => {
            // G(n,p) sweeping sparse → dense (diameter large → small).
            let p = [0.03, 0.1, 0.3, 0.7][(seed % 4) as usize];
            random::gnp(&mut rng, n, p)
        }
        1 => classic::cycle(n.max(3)),
        2 => classic::complete(n),
        3 => {
            // Forced disconnected: two G(n,p) halves with no cross edges.
            let half = (n / 2).max(1);
            let a = random::gnp(&mut rng, half, 0.3);
            let b = random::gnp(&mut rng, n - half + 1, 0.3);
            disjoint_union(&a, &b)
        }
        4 => {
            // Planted universal vertices: K_r joined to G(n − r, p).
            let r = 1 + (seed % 3) as usize;
            let p = [0.03, 0.3, 0.7][(seed / 3 % 3) as usize];
            let rest = random::gnp(&mut rng, n.saturating_sub(r), p);
            join(&classic::complete(r), &rest)
        }
        5 => classic::star(n),
        // K₂ (both vertices universal) and 2K₁ (no edge, no universal
        // vertex, disconnected).
        _ if seed.is_multiple_of(2) => classic::complete(2),
        _ => Graph::new(2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    // The acceptance gate: bit-parallel blocked compute is bit-identical
    // to the scalar oracle on every corpus family, including sizes that
    // straddle the 64-source block boundary, and the diameter — streamed,
    // or settled by a universal vertex — is the oracle's.
    #[test]
    fn bit_parallel_apsp_matches_sequential_oracle(
        kind in 0usize..FAMILIES,
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let g = corpus_graph(kind, n, seed);
        let blocked = DistanceMatrix::compute(&g);
        let oracle = DistanceMatrix::compute_sequential(&g);
        prop_assert_eq!(diameter(&g), oracle.diameter());
        prop_assert_eq!(blocked, oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    // Metric sanity (zero diagonal, symmetry, triangle inequality) and
    // diameter agreement between the streaming fold and the full matrix.
    #[test]
    fn blocked_apsp_is_a_metric_and_diameters_agree(
        kind in 0usize..FAMILIES,
        n in 1usize..60,
        seed in any::<u64>(),
    ) {
        let g = corpus_graph(kind, n, seed);
        let d = DistanceMatrix::compute(&g);
        prop_assert!(d.validate().is_ok());
        prop_assert_eq!(diameter(&g), d.diameter());
    }
}
