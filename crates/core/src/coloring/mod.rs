//! Graph coloring substrate for the `L(1,…,1)` route (Theorem 4).
//!
//! `L(1^k)`-labeling of `G` is exactly proper coloring of `G^k`
//! (span = χ − 1), so this module provides: the DSATUR heuristic, an
//! exact branch-and-bound chromatic number, and the
//! neighborhood-diversity FPT algorithm of [`nd_fpt`].

pub mod exact;
pub mod greedy;
pub mod nd_fpt;

pub use exact::chromatic_number_exact;
pub use greedy::dsatur_coloring;
pub use nd_fpt::chromatic_number_nd;

use dclab_graph::Graph;

/// Check that `colors` is a proper coloring of `g`.
pub fn is_proper_coloring(g: &Graph, colors: &[u32]) -> bool {
    if colors.len() != g.n() {
        return false;
    }
    g.edges().all(|(u, v)| colors[u] != colors[v])
}

/// Number of distinct colors used.
pub fn color_count(colors: &[u32]) -> usize {
    let mut seen = std::collections::HashSet::new();
    for &c in colors {
        seen.insert(c);
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::classic;

    #[test]
    fn proper_coloring_checks() {
        let g = classic::path(3);
        assert!(is_proper_coloring(&g, &[0, 1, 0]));
        assert!(!is_proper_coloring(&g, &[0, 0, 1]));
        assert!(!is_proper_coloring(&g, &[0, 1])); // wrong length
        assert_eq!(color_count(&[0, 1, 0, 3]), 3);
    }
}
