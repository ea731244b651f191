//! The DSATUR coloring heuristic.

use dclab_graph::Graph;

/// DSATUR: repeatedly color the vertex of maximum color-saturation
/// (ties by degree, then index). Exact on bipartite graphs; a strong
/// heuristic elsewhere.
pub fn dsatur_coloring(g: &Graph) -> Vec<u32> {
    let n = g.n();
    let mut colors = vec![u32::MAX; n];
    let mut adjacent_colors: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); n];
    for _ in 0..n {
        // Pick uncolored vertex with max saturation, tie-break on degree.
        let v = (0..n)
            .filter(|&v| colors[v] == u32::MAX)
            .max_by_key(|&v| (adjacent_colors[v].len(), g.degree(v), std::cmp::Reverse(v)))
            .expect("some vertex uncolored");
        let mut c = 0u32;
        while adjacent_colors[v].contains(&c) {
            c += 1;
        }
        colors[v] = c;
        for &u in g.neighbors(v) {
            adjacent_colors[u as usize].insert(c);
        }
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::{color_count, is_proper_coloring};
    use dclab_graph::generators::{classic, random};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn greedy_proper_on_random() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let g = random::gnp(&mut rng, 30, 0.3);
            let c = dsatur_coloring(&g);
            assert!(is_proper_coloring(&g, &c));
            assert!(color_count(&c) <= g.max_degree() + 1);
        }
    }

    #[test]
    fn dsatur_proper_and_bipartite_exact() {
        let g = classic::complete_bipartite(4, 5);
        let c = dsatur_coloring(&g);
        assert!(is_proper_coloring(&g, &c));
        assert_eq!(color_count(&c), 2);
        let cyc = classic::cycle(6);
        assert_eq!(color_count(&dsatur_coloring(&cyc)), 2);
        let odd = classic::cycle(7);
        assert_eq!(color_count(&dsatur_coloring(&odd)), 3);
    }

    #[test]
    fn complete_graph_needs_n() {
        let g = classic::complete(6);
        assert_eq!(color_count(&dsatur_coloring(&g)), 6);
    }

    #[test]
    fn empty_graph_ok() {
        let g = Graph::new(0);
        assert!(dsatur_coloring(&g).is_empty());
    }
}
