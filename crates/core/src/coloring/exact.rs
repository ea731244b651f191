//! Exact chromatic number by branch and bound.
//!
//! Backtracking over vertices in DSATUR-flavoured static order with the
//! standard symmetry break (a vertex may open at most one new color) and a
//! clique-based lower bound. Exponential worst case, practical to `n ≈ 30`
//! on the experiment graphs.

use dclab_graph::Graph;

/// Exact chromatic number of `g` (0 for the empty graph).
pub fn chromatic_number_exact(g: &Graph) -> usize {
    let n = g.n();
    if n == 0 {
        return 0;
    }
    if g.m() == 0 {
        return 1;
    }
    // Upper bound from DSATUR, lower bound from a greedy clique.
    let ub = crate::coloring::color_count(&crate::coloring::greedy::dsatur_coloring(g));
    let lb = greedy_clique_bound(g);
    if lb == ub {
        return ub;
    }
    // Static order: descending degree improves pruning.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    for k in lb..ub {
        let mut colors = vec![u32::MAX; n];
        if try_color(g, &order, 0, k as u32, &mut colors, 0) {
            return k;
        }
    }
    ub
}

fn greedy_clique_bound(g: &Graph) -> usize {
    let n = g.n();
    let mut best = 1;
    for seed in 0..n {
        let mut clique = vec![seed];
        let mut candidates: Vec<usize> = g.neighbors(seed).iter().map(|&u| u as usize).collect();
        candidates.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        for v in candidates {
            if clique.iter().all(|&c| g.has_edge(c, v)) {
                clique.push(v);
            }
        }
        best = best.max(clique.len());
    }
    best
}

fn try_color(
    g: &Graph,
    order: &[usize],
    idx: usize,
    k: u32,
    colors: &mut Vec<u32>,
    max_used: u32,
) -> bool {
    if idx == order.len() {
        return true;
    }
    let v = order[idx];
    // Colors adjacent to v.
    let mut forbidden = 0u64;
    for &u in g.neighbors(v) {
        let c = colors[u as usize];
        if c != u32::MAX && c < 64 {
            forbidden |= 1 << c;
        }
    }
    // Symmetry break: allow at most one fresh color (max_used).
    let limit = (max_used + 1).min(k);
    for c in 0..limit {
        if forbidden & (1 << c) != 0 {
            continue;
        }
        colors[v] = c;
        let new_max = max_used.max(c + 1);
        if try_color(g, order, idx + 1, k, colors, new_max) {
            return true;
        }
        colors[v] = u32::MAX;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::{classic, random};
    use dclab_graph::ops::power;
    use dclab_graph::DistanceMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_chromatic_numbers() {
        assert_eq!(chromatic_number_exact(&Graph::new(0)), 0);
        assert_eq!(chromatic_number_exact(&Graph::new(4)), 1);
        assert_eq!(chromatic_number_exact(&classic::path(5)), 2);
        assert_eq!(chromatic_number_exact(&classic::cycle(6)), 2);
        assert_eq!(chromatic_number_exact(&classic::cycle(7)), 3);
        assert_eq!(chromatic_number_exact(&classic::complete(5)), 5);
        assert_eq!(chromatic_number_exact(&classic::petersen()), 3);
        assert_eq!(chromatic_number_exact(&classic::wheel(6)), 4); // odd rim + hub
    }

    #[test]
    fn squares_of_graphs() {
        // χ(P5²): P5 squared is two overlapping triangles → 3.
        let square = |g: &Graph| power(&DistanceMatrix::compute(g), 2);
        assert_eq!(chromatic_number_exact(&square(&classic::path(5))), 3);
        // χ(C5²) = χ(K5) = 5.
        assert_eq!(chromatic_number_exact(&square(&classic::cycle(5))), 5);
    }

    #[test]
    fn bounded_by_heuristics_on_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let g = random::gnp(&mut rng, 14, 0.4);
            let exact = chromatic_number_exact(&g);
            let dsatur =
                crate::coloring::color_count(&crate::coloring::greedy::dsatur_coloring(&g));
            assert!(exact <= dsatur);
            assert!(exact >= 1);
            // Verify by recoloring exhaustively with k = exact - 1 failing is
            // implied by construction; spot-check via edge count bound.
            if exact == 1 {
                assert_eq!(g.m(), 0);
            }
        }
    }

    #[test]
    fn multipartite_equals_parts() {
        let g = classic::complete_multipartite(&[3, 4, 2]);
        assert_eq!(chromatic_number_exact(&g), 3);
    }
}
