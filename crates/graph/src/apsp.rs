//! All-pairs shortest paths by bit-parallel blocked BFS.
//!
//! This is the workhorse of the Theorem 2 reduction: the distance matrix
//! of `G` becomes the weight matrix of the TSP instance `H`, and on the
//! paper's small-diameter instances computing it dominates everything the
//! TSP machinery does afterwards. Sources are processed in blocks of
//! [`BLOCK`] by [`bfs64_distances_csr`] — one `u64` word per vertex
//! advances 64 BFS waves per neighbor-list scan — and blocks (not single
//! sources) are fanned across threads with [`dclab_par::par_map_chunks`]
//! (deterministic row order, dynamic scheduling). The scalar
//! one-BFS-per-source path survives as [`DistanceMatrix::compute_sequential`],
//! the differential-test oracle.

use crate::csr::Csr;
use crate::graph::Graph;
use crate::traversal::{bfs64_distances_csr, bfs_distances_csr};
use crate::INF;

/// Sources per bit-parallel BFS block (the word width of the kernel).
pub const BLOCK: usize = 64;

/// Flat `n × n` matrix of hop distances; `INF` marks unreachable pairs.
/// The default is the empty matrix (`n = 0`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<u32>,
}

impl DistanceMatrix {
    /// Compute APSP for `g`: bit-parallel BFS in blocks of [`BLOCK`]
    /// sources, blocks fanned across threads.
    pub fn compute(g: &Graph) -> Self {
        let csr = Csr::from_graph(g);
        let n = csr.n();
        let trace = dclab_trace::current();
        let mut span = trace.span("apsp");
        if span.is_enabled() {
            span.set_detail(format!("n={n}"));
        }
        let blocks = dclab_par::par_map_chunks(n, BLOCK, |range| {
            let sources: Vec<usize> = range.collect();
            let mut rows = vec![0u32; sources.len() * n];
            bfs64_distances_csr(&csr, &sources, &mut rows);
            rows
        });
        let mut d = Vec::with_capacity(n * n);
        for block in blocks {
            d.extend_from_slice(&block);
        }
        debug_assert_eq!(d.len(), n * n);
        DistanceMatrix { n, d }
    }

    /// Sequential scalar reference — one classic BFS per source. This is
    /// the oracle the differential tests pin [`DistanceMatrix::compute`]
    /// against, and the scalar baseline of the `e11_apsp` bench.
    pub fn compute_sequential(g: &Graph) -> Self {
        let n = g.n();
        let csr = Csr::from_graph(g);
        let mut d = Vec::with_capacity(n * n);
        for s in 0..n {
            d.extend_from_slice(&bfs_distances_csr(&csr, s));
        }
        DistanceMatrix { n, d }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance between `u` and `v` (`INF` if unreachable).
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> u32 {
        self.d[u * self.n + v]
    }

    /// Row of distances from `u`.
    #[inline]
    pub fn row(&self, u: usize) -> &[u32] {
        &self.d[u * self.n..(u + 1) * self.n]
    }

    /// Largest finite entry; `None` if the graph is disconnected (some
    /// entry is `INF`) or empty (`n = 0`, where no distance exists at
    /// all). A single vertex has diameter 0.
    pub fn diameter(&self) -> Option<u32> {
        if self.n == 0 {
            return None;
        }
        if self.n == 1 {
            return Some(0);
        }
        let mut max = 0;
        for u in 0..self.n {
            for v in 0..self.n {
                let d = self.get(u, v);
                if u != v && d == INF {
                    return None;
                }
                if d != INF && d > max {
                    max = d;
                }
            }
        }
        Some(max)
    }

    /// Internal consistency: zero diagonal, symmetry, and the hop-metric
    /// triangle inequality on finite triples. Used by property tests.
    pub fn validate(&self) -> Result<(), String> {
        for u in 0..self.n {
            if self.get(u, u) != 0 {
                return Err(format!("d({u},{u}) != 0"));
            }
            for v in 0..self.n {
                if self.get(u, v) != self.get(v, u) {
                    return Err(format!("asymmetric at ({u},{v})"));
                }
            }
        }
        for u in 0..self.n {
            for v in 0..self.n {
                for w in 0..self.n {
                    let (a, b, c) = (self.get(u, v), self.get(u, w), self.get(w, v));
                    if a != INF && b != INF && c != INF && a > b + c {
                        return Err(format!("triangle violated at ({u},{v},{w})"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic, random};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let g = random::gnp(&mut rng, 40, 0.15);
            assert_eq!(
                DistanceMatrix::compute(&g),
                DistanceMatrix::compute_sequential(&g)
            );
        }
    }

    #[test]
    fn blocked_matches_sequential_across_block_boundaries() {
        // n straddling one and several 64-source blocks.
        let mut rng = StdRng::seed_from_u64(8);
        for n in [63usize, 64, 65, 128, 130, 200] {
            let g = random::gnp(&mut rng, n, 0.08);
            assert_eq!(
                DistanceMatrix::compute(&g),
                DistanceMatrix::compute_sequential(&g),
                "n={n}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        let empty = DistanceMatrix::compute(&Graph::new(0));
        assert_eq!(empty.n(), 0);
        assert_eq!(empty.diameter(), None, "no vertex pair → None");
        empty.validate().unwrap();
        let single = DistanceMatrix::compute(&Graph::new(1));
        assert_eq!(single.diameter(), Some(0));
        single.validate().unwrap();
    }

    #[test]
    fn cycle_distances() {
        let g = classic::cycle(6);
        let d = DistanceMatrix::compute(&g);
        assert_eq!(d.get(0, 3), 3);
        assert_eq!(d.get(0, 5), 1);
        assert_eq!(d.diameter(), Some(3));
        d.validate().unwrap();
    }

    #[test]
    fn disconnected_diameter_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = DistanceMatrix::compute(&g);
        assert_eq!(d.diameter(), None);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = classic::complete(7);
        let d = DistanceMatrix::compute(&g);
        assert_eq!(d.diameter(), Some(1));
    }
}
