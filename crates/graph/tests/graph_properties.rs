//! Property-based tests for the graph substrate.

use dclab_graph::generators::{classic, random};
use dclab_graph::ops::{complement, disjoint_union, induced_subgraph, join, power};
use dclab_graph::params::cotree::is_cograph;
use dclab_graph::params::nd::{nd, neighborhood_diversity};
use dclab_graph::traversal::{bfs_distances, connected_components, is_connected};
use dclab_graph::{DistanceMatrix, Graph, INF};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gnp_from(seed: u64, n: usize, p: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    random::gnp(&mut rng, n, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn graph_structure_always_validates(seed in any::<u64>(), n in 0usize..30) {
        let g = gnp_from(seed, n, 0.4);
        prop_assert!(g.validate().is_ok());
        let c = complement(&g);
        prop_assert!(c.validate().is_ok());
    }

    #[test]
    fn relabeling_preserves_invariants(seed in any::<u64>(), n in 2usize..15) {
        let g = gnp_from(seed, n, 0.4);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let perm = random::random_permutation(&mut rng, n);
        let h = g.relabeled(&perm);
        prop_assert_eq!(g.m(), h.m());
        prop_assert_eq!(is_connected(&g), is_connected(&h));
        prop_assert_eq!(nd(&g), nd(&h));
        prop_assert_eq!(is_cograph(&g), is_cograph(&h));
    }

    #[test]
    fn bfs_matches_apsp_row(seed in any::<u64>(), n in 1usize..20) {
        let g = gnp_from(seed, n, 0.3);
        let d = DistanceMatrix::compute(&g);
        for src in 0..n.min(4) {
            let row = bfs_distances(&g, src);
            prop_assert_eq!(row.as_slice(), d.row(src));
        }
    }

    #[test]
    fn distance_one_iff_edge(seed in any::<u64>(), n in 2usize..15) {
        let g = gnp_from(seed, n, 0.4);
        let d = DistanceMatrix::compute(&g);
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    prop_assert_eq!(d.get(u, v) == 1, g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn power_grows_monotonically(seed in any::<u64>(), n in 2usize..14) {
        let g = gnp_from(seed, n, 0.3);
        let d = DistanceMatrix::compute(&g);
        let g2 = power(&d, 2);
        let g3 = power(&d, 3);
        // Edge sets are nested: E(G) ⊆ E(G²) ⊆ E(G³).
        for (u, v) in g.edges() {
            prop_assert!(g2.has_edge(u, v));
        }
        for (u, v) in g2.edges() {
            prop_assert!(g3.has_edge(u, v));
        }
    }

    #[test]
    fn power_beyond_diameter_saturates(seed in any::<u64>(), n in 2usize..12) {
        let g = gnp_from(seed, n, 0.5);
        prop_assume!(is_connected(&g));
        let gk = power(&DistanceMatrix::compute(&g), n as u32);
        prop_assert!(gk.is_complete());
    }

    #[test]
    fn components_partition_vertices(seed in any::<u64>(), n in 1usize..25) {
        let g = gnp_from(seed, n, 0.15);
        let (comp, count) = connected_components(&g);
        prop_assert_eq!(comp.len(), n);
        prop_assert!(comp.iter().all(|&c| c < count));
        // Edges never cross components.
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u], comp[v]);
        }
        // Distances are finite exactly within components.
        let d = DistanceMatrix::compute(&g);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(d.get(u, v) != INF, comp[u] == comp[v]);
            }
        }
    }

    #[test]
    fn union_and_join_sizes(seed in any::<u64>(), a in 1usize..8, b in 1usize..8) {
        let ga = gnp_from(seed, a, 0.5);
        let gb = gnp_from(seed ^ 1, b, 0.5);
        let u = disjoint_union(&ga, &gb);
        let j = join(&ga, &gb);
        prop_assert_eq!(u.m(), ga.m() + gb.m());
        prop_assert_eq!(j.m(), ga.m() + gb.m() + a * b);
        // Join of anything is connected (both sides nonempty).
        prop_assert!(is_connected(&j));
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(seed in any::<u64>(), n in 3usize..14) {
        let g = gnp_from(seed, n, 0.5);
        let keep: Vec<usize> = (0..n).step_by(2).collect();
        let h = induced_subgraph(&g, &keep);
        for (i, &vi) in keep.iter().enumerate() {
            for (j, &vj) in keep.iter().enumerate() {
                if i < j {
                    prop_assert_eq!(h.has_edge(i, j), g.has_edge(vi, vj));
                }
            }
        }
    }

    #[test]
    fn nd_classes_are_cliques_or_independent(seed in any::<u64>(), n in 2usize..15) {
        let g = gnp_from(seed, n, 0.5);
        let ndp = neighborhood_diversity(&g);
        for (class, &is_clique) in ndp.classes.iter().zip(&ndp.is_clique) {
            for (i, &u) in class.iter().enumerate() {
                for &v in &class[i + 1..] {
                    prop_assert_eq!(g.has_edge(u, v), is_clique);
                }
            }
        }
    }

    #[test]
    fn cograph_generator_closed_under_complement(seed in any::<u64>(), n in 1usize..16) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random::random_cograph(&mut rng, n, 0.5);
        prop_assert!(is_cograph(&g));
        prop_assert!(is_cograph(&complement(&g)));
    }
}

#[test]
fn classic_families_have_expected_nd() {
    assert_eq!(nd(&classic::complete(9)), 1);
    assert_eq!(nd(&classic::complete_bipartite(3, 5)), 2);
    assert_eq!(nd(&classic::star(6)), 2);
}
