//! Diameter helpers.

use crate::apsp::BLOCK;
use crate::csr::Csr;
use crate::graph::Graph;
use crate::traversal::bfs64_distances_csr;
use crate::INF;

/// Diameter of `g`, or `None` when `g` is disconnected or empty (`n = 0`
/// — no vertex pair, matching [`crate::DistanceMatrix::diameter`]).
///
/// A graph with a universal vertex is settled by one `O(n)` degree scan:
/// every pair meets through that vertex, so the diameter is 1 when `g` is
/// complete and 2 otherwise. Every other graph runs the same bit-parallel
/// BFS kernel as APSP, streaming blocks of 64 sources and folding their
/// eccentricities instead of materializing the `n × n` matrix — `O(n)`
/// words of memory per thread, but still `n` BFS waves of work, traced as
/// an `apsp` span with detail `diameter`.
pub fn diameter(g: &Graph) -> Option<u32> {
    let n = g.n();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(0);
    }
    if g.universal_count() > 0 {
        return Some(if g.is_complete() { 1 } else { 2 });
    }
    let trace = dclab_trace::current();
    let mut span = trace.span("apsp");
    if span.is_enabled() {
        span.set_detail(format!("diameter n={n}"));
    }
    let csr = Csr::from_graph(g);
    let per_block: Vec<Option<u32>> = dclab_par::par_map_chunks(n, BLOCK, |range| {
        let sources: Vec<usize> = range.collect();
        let mut rows = vec![0u32; sources.len() * n];
        bfs64_distances_csr(&csr, &sources, &mut rows);
        let mut max = 0u32;
        for &d in &rows {
            if d == INF {
                return None;
            }
            max = max.max(d);
        }
        Some(max)
    });
    per_block
        .into_iter()
        .try_fold(0u32, |acc, ecc| ecc.map(|e| acc.max(e)))
}

/// `true` iff `g` is connected with diameter at most `k` — the eligibility
/// check of Theorem 2.
pub fn has_diameter_at_most(g: &Graph, k: u32) -> bool {
    matches!(diameter(g), Some(d) if d <= k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn path_diameter() {
        assert_eq!(diameter(&classic::path(7)), Some(6));
    }

    #[test]
    fn star_has_diameter_two() {
        let g = classic::star(9);
        assert_eq!(diameter(&g), Some(2));
        assert!(has_diameter_at_most(&g, 2));
        assert!(!has_diameter_at_most(&g, 1));
    }

    #[test]
    fn disconnected_reports_none() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(diameter(&g), None);
        assert!(!has_diameter_at_most(&g, 5));
    }

    #[test]
    fn empty_and_singleton_edges() {
        // n = 0: no vertex pair → None everywhere, matching the
        // DistanceMatrix doc.
        assert_eq!(diameter(&Graph::new(0)), None);
        assert!(!has_diameter_at_most(&Graph::new(0), 0));
        // n = 1: a single vertex has diameter 0.
        assert_eq!(diameter(&Graph::new(1)), Some(0));
        assert!(has_diameter_at_most(&Graph::new(1), 0));
    }

    #[test]
    fn streaming_diameter_matches_matrix_across_blocks() {
        use crate::apsp::DistanceMatrix;
        use crate::generators::random;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        for n in [30usize, 64, 65, 150] {
            for p in [0.02f64, 0.15] {
                let g = random::gnp(&mut rng, n, p);
                assert_eq!(
                    diameter(&g),
                    DistanceMatrix::compute_sequential(&g).diameter(),
                    "n={n} p={p}"
                );
            }
        }
    }
}
