//! Coloring parameterized by neighborhood diversity (Theorem 4 machinery).
//!
//! Following Lampis's meta-theorem route: group vertices into nd-types,
//! observe that (a) every independent type is WLOG monochromatic-per-class
//! and (b) color classes correspond to independent sets of the type
//! quotient `Q`, with each class consuming at most one vertex per clique
//! type. Minimizing the number of classes is then an integer covering
//! problem over the ≤ `2^nd` maximal independent sets of `Q` with demands
//! `size(type)` for clique types and `1` for independent types. We solve
//! the covering exactly with memoized best-first search over residual
//! demand vectors — exponential only in `nd(G)`, polynomial in `n`, which
//! is exactly the FPT shape the theorem claims.

use dclab_graph::params::nd::{neighborhood_diversity, type_quotient, NeighborhoodDiversity};
use dclab_graph::Graph;
use std::collections::HashMap;

/// Exact chromatic number computed through the nd-type covering program.
///
/// Practical whenever `nd(G)` is small (≈ ≤ 16); `n` may be large.
pub fn chromatic_number_nd(g: &Graph) -> usize {
    if g.n() == 0 {
        return 0;
    }
    let ndp = neighborhood_diversity(g);
    let q = type_quotient(g, &ndp);
    let demands = build_demands(&ndp);
    let patterns = maximal_independent_sets(&q);
    cover_min_rounds(&demands, &patterns)
}

/// Demand per type: clique types must appear in `size` classes, independent
/// types in at least one.
fn build_demands(ndp: &NeighborhoodDiversity) -> Vec<u32> {
    ndp.classes
        .iter()
        .zip(&ndp.is_clique)
        .map(|(c, &clique)| if clique { c.len() as u32 } else { 1 })
        .collect()
}

/// All maximal independent sets of the (tiny) quotient graph, as bitmasks.
fn maximal_independent_sets(q: &Graph) -> Vec<u64> {
    let t = q.n();
    assert!(t <= 63, "nd too large for the FPT covering solver");
    let mut adjacency = vec![0u64; t];
    for (u, v) in q.edges() {
        adjacency[u] |= 1 << v;
        adjacency[v] |= 1 << u;
    }
    let mut sets = Vec::new();
    // Enumerate independent sets by DFS, keep maximal ones.
    fn dfs(v: usize, t: usize, current: u64, banned: u64, adjacency: &[u64], out: &mut Vec<u64>) {
        if v == t {
            // Maximal iff no vertex outside is addable.
            let addable = (0..t).any(|u| current & (1 << u) == 0 && adjacency[u] & current == 0);
            if !addable && current != 0 {
                out.push(current);
            }
            return;
        }
        if banned & (1 << v) == 0 {
            dfs(
                v + 1,
                t,
                current | (1 << v),
                banned | adjacency[v],
                adjacency,
                out,
            );
        }
        dfs(v + 1, t, current, banned, adjacency, out);
    }
    dfs(0, t, 0, 0, &adjacency, &mut sets);
    sets.sort_unstable();
    sets.dedup();
    sets
}

/// Minimum number of pattern applications covering the demand vector.
/// Each application of pattern `P` decrements the demand of every type in
/// `P` by at most 1.
///
/// Soundness of the branching: every unit of the maximum-demand type must
/// be covered by *some* pattern containing it, and pattern applications
/// commute, so branching only on patterns containing that type loses no
/// optimal solution. Pure memoization on the residual demand vector keeps
/// the state space bounded by `Π (d_t + 1)` — polynomial in `n` for fixed
/// `nd`.
fn cover_min_rounds(demands: &[u32], patterns: &[u64]) -> usize {
    let t = demands.len();
    if t == 0 || demands.iter().all(|&d| d == 0) {
        return 0;
    }
    if t == 1 {
        return demands[0] as usize; // single type: one class per demand unit
    }
    fn rec(demands: &mut Vec<u32>, patterns: &[u64], memo: &mut HashMap<Vec<u32>, u32>) -> u32 {
        let (target, &max_d) = demands
            .iter()
            .enumerate()
            .max_by_key(|&(i, &d)| (d, std::cmp::Reverse(i)))
            .unwrap();
        if max_d == 0 {
            return 0;
        }
        if let Some(&v) = memo.get(demands) {
            return v;
        }
        let mut best = u32::MAX / 2;
        for &p in patterns {
            if p & (1 << target) == 0 {
                continue;
            }
            let mut touched = Vec::new();
            for i in 0..demands.len() {
                if p & (1 << i) != 0 && demands[i] > 0 {
                    demands[i] -= 1;
                    touched.push(i);
                }
            }
            let sub = rec(demands, patterns, memo);
            for &i in &touched {
                demands[i] += 1;
            }
            best = best.min(sub + 1);
        }
        memo.insert(demands.clone(), best);
        best
    }
    let mut d = demands.to_vec();
    let mut memo = HashMap::new();
    rec(&mut d, patterns, &mut memo) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::chromatic_number_exact;
    use dclab_graph::generators::{classic, random};
    use dclab_graph::ops::power;
    use dclab_graph::DistanceMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_values() {
        assert_eq!(chromatic_number_nd(&classic::complete(7)), 7);
        assert_eq!(chromatic_number_nd(&Graph::new(9)), 1);
        assert_eq!(chromatic_number_nd(&classic::complete_bipartite(4, 6)), 2);
        assert_eq!(
            chromatic_number_nd(&classic::complete_multipartite(&[5, 1, 3])),
            3
        );
        assert_eq!(chromatic_number_nd(&classic::star(8)), 2);
    }

    #[test]
    fn matches_exact_on_random_cographs() {
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..25 {
            let n = 3 + trial % 12;
            let g = random::random_cograph(&mut rng, n, 0.5);
            assert_eq!(
                chromatic_number_nd(&g),
                chromatic_number_exact(&g),
                "trial={trial} {g:?}"
            );
        }
    }

    #[test]
    fn matches_exact_on_random_graphs() {
        // nd can be as large as n here, but n is small so it's fine.
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..15 {
            let g = random::gnp(&mut rng, 9, 0.45);
            assert_eq!(
                chromatic_number_nd(&g),
                chromatic_number_exact(&g),
                "trial={trial} {g:?}"
            );
        }
    }

    #[test]
    fn squares_of_multipartite_are_cliques() {
        let g = classic::complete_multipartite(&[4, 4]);
        let g2 = power(&DistanceMatrix::compute(&g), 2);
        assert_eq!(chromatic_number_nd(&g2), 8);
    }

    #[test]
    fn large_n_small_nd_is_fast() {
        // 400 vertices, nd = 4: the covering program is tiny.
        let g = classic::complete_multipartite(&[100, 100, 100, 100]);
        assert_eq!(chromatic_number_nd(&g), 4);
    }
}
