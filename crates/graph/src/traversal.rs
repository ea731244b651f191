//! Breadth-first search (scalar and bit-parallel multi-source) and
//! connectivity.

use crate::bitset::BitRows;
use crate::csr::Csr;
use crate::graph::Graph;
use crate::INF;
use std::collections::VecDeque;

/// Distances from `src` to every vertex ([`INF`] when unreachable).
pub fn bfs_distances(g: &Graph, src: usize) -> Vec<u32> {
    let csr = Csr::from_graph(g);
    bfs_distances_csr(&csr, src)
}

/// CSR-based BFS kernel; reused by the parallel APSP driver.
pub fn bfs_distances_csr(csr: &Csr, src: usize) -> Vec<u32> {
    let n = csr.n();
    let mut dist = vec![INF; n];
    let mut queue = VecDeque::with_capacity(n);
    dist[src] = 0;
    queue.push_back(src as u32);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in csr.neighbors(u as usize) {
            if dist[v as usize] == INF {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Bit-parallel BFS from up to 64 sources at once.
///
/// Wave `i` starts at `sources[i]`; per vertex, one `u64` word holds which
/// waves have reached it (`visited`) and which reached it exactly this
/// level (`frontier`), so a single OR over a neighbor list advances all
/// waves together. On small-diameter graphs — the paper's regime — the
/// level count is tiny and frontiers are dense, which is where this wins
/// roughly a word-width factor over one BFS per source.
///
/// Distances land in `out`, row-major by source: `out[i * n + v]` is the
/// hop distance from `sources[i]` to `v`, [`INF`] when unreachable. `out`
/// must hold exactly `sources.len() * n` entries.
pub fn bfs64_distances_csr(csr: &Csr, sources: &[usize], out: &mut [u32]) {
    let n = csr.n();
    let b = sources.len();
    assert!(b <= 64, "bfs64 block is at most 64 sources, got {b}");
    assert_eq!(out.len(), b * n, "out must be sources.len() × n");
    out.fill(INF);
    let mut visited = BitRows::new(n, b);
    let mut frontier = BitRows::new(n, b);
    let mut next = BitRows::new(n, b);
    // Vertices whose frontier word is nonzero this level / touched by a
    // push this level. Lists keep sparse early levels cheap; the per-word
    // OR keeps dense late levels cheap.
    let mut active: Vec<u32> = Vec::with_capacity(b);
    let mut touched: Vec<u32> = Vec::with_capacity(n.min(1024));
    for (i, &s) in sources.iter().enumerate() {
        debug_assert!(s < n);
        out[i * n + s] = 0;
        if visited.word(s) == 0 {
            active.push(s as u32);
        }
        visited.or_word(s, 1u64 << i);
        frontier.or_word(s, 1u64 << i);
    }
    let mut level = 0u32;
    while !active.is_empty() {
        level += 1;
        for &u in &active {
            let fu = frontier.word(u as usize);
            for &v in csr.neighbors(u as usize) {
                if next.word(v as usize) == 0 {
                    touched.push(v);
                }
                next.or_word(v as usize, fu);
            }
        }
        active.clear();
        for &v in &touched {
            let vu = v as usize;
            let new = next.word(vu) & !visited.word(vu);
            next.set_word(vu, 0);
            if new != 0 {
                visited.or_word(vu, new);
                // Only the waves that arrived *this* level propagate next
                // level; stale frontier words of inactive vertices are
                // never read.
                frontier.set_word(vu, new);
                active.push(v);
                let mut bits = new;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    out[i * n + vu] = level;
                    bits &= bits - 1;
                }
            }
        }
        touched.clear();
    }
}

/// Connected components; returns `(component_id per vertex, #components)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    let mut stack = Vec::new();
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = count;
        stack.push(s);
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                let v = v as usize;
                if comp[v] == usize::MAX {
                    comp[v] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// `true` iff `g` is connected (the empty graph and `n = 1` count as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.n() <= 1 || connected_components(g).1 == 1
}

/// Vertex sets of each connected component, in ascending order of their
/// smallest vertex.
pub fn component_vertex_sets(g: &Graph) -> Vec<Vec<usize>> {
    let (comp, count) = connected_components(g);
    let mut sets = vec![Vec::new(); count];
    for (v, &c) in comp.iter().enumerate() {
        sets[c].push(v);
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn bfs_on_path() {
        let g = classic::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_unreachable_is_inf() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    fn bfs64_matches_scalar_bfs() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        for &(n, p) in &[(1usize, 0.0), (5, 0.3), (40, 0.1), (70, 0.05), (130, 0.04)] {
            let g = crate::generators::random::gnp(&mut rng, n, p);
            let csr = Csr::from_graph(&g);
            let sources: Vec<usize> = (0..n.min(64)).collect();
            let mut out = vec![0u32; sources.len() * n];
            bfs64_distances_csr(&csr, &sources, &mut out);
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(
                    out[i * n..(i + 1) * n],
                    bfs_distances_csr(&csr, s),
                    "n={n} source {s}"
                );
            }
        }
    }

    #[test]
    fn bfs64_arbitrary_source_subsets() {
        let g = classic::path(9);
        let csr = Csr::from_graph(&g);
        let sources = [8usize, 0, 4];
        let mut out = vec![0u32; 3 * 9];
        bfs64_distances_csr(&csr, &sources, &mut out);
        assert_eq!(out[8], 0); // row 0 = BFS from 8: d(8,8) = 0
        assert_eq!(out[0], 8); // d(8,0) = 8
        assert_eq!(out[9], 0); // row 1 = BFS from 0
        assert_eq!(out[9 + 8], 8);
        assert_eq!(out[18 + 4], 0); // row 2 = BFS from 4
        assert_eq!(out[18], 4);
    }

    #[test]
    fn bfs64_empty_block_and_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let csr = Csr::from_graph(&g);
        let mut out: Vec<u32> = Vec::new();
        bfs64_distances_csr(&csr, &[], &mut out);
        let mut out = vec![0u32; 4];
        bfs64_distances_csr(&csr, &[0], &mut out);
        assert_eq!(out, vec![0, 1, INF, INF]);
    }

    #[test]
    fn components_counted() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[0]);
        assert!(!is_connected(&g));
        let sets = component_vertex_sets(&g);
        assert_eq!(sets, vec![vec![0, 1, 2], vec![3, 4], vec![5]]);
    }

    #[test]
    fn singleton_and_empty_are_connected() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        assert!(!is_connected(&Graph::new(2)));
    }
}
