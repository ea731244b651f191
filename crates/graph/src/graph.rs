//! Core undirected simple-graph type.

use std::collections::HashSet;
use std::fmt;

/// An undirected simple graph on vertices `0..n`.
///
/// Neighbor lists are kept sorted, which gives `O(log deg)` adjacency tests
/// and cache-friendly iteration; construction APIs deduplicate edges and
/// reject self-loops.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    m: usize,
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// Empty graph on `n` vertices.
    ///
    /// # Panics
    /// If the ids `0..n` do not fit in `u32`, the neighbor-list type.
    pub fn new(n: usize) -> Self {
        assert_ids_fit(n);
        Graph {
            n,
            m: 0,
            adj: vec![Vec::new(); n],
        }
    }

    /// Build from an edge list; duplicate edges are ignored, self-loops are
    /// rejected with a panic (simple graphs only).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        Graph::counted(n, edges.iter().copied()).0
    }

    /// Strict bulk construction for the instance parsers: like
    /// [`Graph::from_edges`], but a repeated pair is an error. `Err(i)`
    /// names the first pair, in input order, that repeats an earlier one.
    pub(crate) fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Result<Self, usize> {
        let (g, repeated) = Graph::counted(n, pairs.iter().map(|&(u, v)| (u as usize, v as usize)));
        if !repeated {
            return Ok(g);
        }
        let mut seen = HashSet::with_capacity(pairs.len());
        Err(pairs
            .iter()
            .position(|&(u, v)| !seen.insert((u.min(v), u.max(v))))
            .expect("a repeated pair was seen"))
    }

    /// The one bulk constructor: count the degrees, allocate each neighbor
    /// list at its exact size, fill the lists in pair order and sort only
    /// the lists that arrived out of order. Repeated pairs are dropped; the
    /// flag says whether there were any.
    ///
    /// # Panics
    /// On out-of-range endpoints or a self-loop.
    fn counted<I>(n: usize, pairs: I) -> (Self, bool)
    where
        I: Iterator<Item = (usize, usize)> + Clone,
    {
        assert_ids_fit(n);
        let mut deg = vec![0usize; n];
        for (u, v) in pairs.clone() {
            assert!(u < n && v < n, "edge endpoint out of range");
            assert_ne!(u, v, "self-loops are not allowed in a simple graph");
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut adj: Vec<Vec<u32>> = deg.iter().map(|&d| Vec::with_capacity(d)).collect();
        // A list is still sorted while every id pushed exceeds its last.
        let mut unsorted = vec![false; n];
        for (u, v) in pairs {
            for (a, b) in [(u, v as u32), (v, u as u32)] {
                let list = &mut adj[a];
                unsorted[a] |= list.last().is_some_and(|&last| last >= b);
                list.push(b);
            }
        }
        let mut repeated = false;
        let mut ends = 0usize;
        for (list, unsorted) in adj.iter_mut().zip(unsorted) {
            if unsorted {
                list.sort_unstable();
                let len = list.len();
                list.dedup();
                repeated |= list.len() < len;
            }
            ends += list.len();
        }
        let m = ends / 2;
        (Graph { n, m, adj }, repeated)
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Add edge `{u, v}`. Returns `true` if the edge was new.
    ///
    /// # Panics
    /// On out-of-range endpoints or a self-loop.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed in a simple graph");
        let (u32v, v32u) = (v as u32, u as u32);
        match self.adj[u].binary_search(&u32v) {
            Ok(_) => false,
            Err(pos_u) => {
                self.adj[u].insert(pos_u, u32v);
                let pos_v = self.adj[v]
                    .binary_search(&v32u)
                    .expect_err("adjacency lists out of sync");
                self.adj[v].insert(pos_v, v32u);
                self.m += 1;
                true
            }
        }
    }

    /// Remove edge `{u, v}` if present. Returns `true` if removed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n || u == v {
            return false;
        }
        match self.adj[u].binary_search(&(v as u32)) {
            Ok(pos_u) => {
                self.adj[u].remove(pos_u);
                let pos_v = self.adj[v]
                    .binary_search(&(u as u32))
                    .expect("adjacency lists out of sync");
                self.adj[v].remove(pos_v);
                self.m -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Adjacency test in `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        if u >= self.n || v >= self.n || u == v {
            return false;
        }
        self.adj[u].binary_search(&(v as u32)).is_ok()
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree, 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterator over all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            nbrs.iter().filter_map(move |&v| {
                let v = v as usize;
                if u < v {
                    Some((u, v))
                } else {
                    None
                }
            })
        })
    }

    /// Edge density `m / C(n,2)`; 0 for graphs with fewer than 2 vertices.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let possible = self.n as f64 * (self.n as f64 - 1.0) / 2.0;
        self.m as f64 / possible
    }

    /// `true` iff every pair of distinct vertices is adjacent.
    pub fn is_complete(&self) -> bool {
        self.n < 2 || self.m == self.n * (self.n - 1) / 2
    }

    /// Number of universal vertices (degree `n − 1`), by one `O(n)` degree
    /// scan. With `n ≥ 2`, each one is adjacent to every other vertex, so
    /// any one proves `diam ≤ 2`, and each is an isolated vertex of the
    /// complement.
    pub fn universal_count(&self) -> usize {
        let full = self.n.saturating_sub(1);
        self.adj.iter().filter(|nbrs| nbrs.len() == full).count()
    }

    /// Relabel vertices according to `perm` (`perm[old] = new`), preserving
    /// the edge set. Useful for permutation-invariance tests.
    pub fn relabeled(&self, perm: &[usize]) -> Graph {
        assert_eq!(perm.len(), self.n);
        Graph::counted(self.n, self.edges().map(|(u, v)| (perm[u], perm[v]))).0
    }

    /// Consistency check used by tests and debug assertions: sorted,
    /// symmetric, loop-free lists and an accurate edge count.
    pub fn validate(&self) -> Result<(), String> {
        let mut count = 0usize;
        for (u, nbrs) in self.adj.iter().enumerate() {
            if nbrs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("neighbor list of {u} not strictly sorted"));
            }
            for &v in nbrs {
                let v = v as usize;
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if v >= self.n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if self.adj[v].binary_search(&(u as u32)).is_err() {
                    return Err(format!("edge ({u},{v}) not symmetric"));
                }
                count += 1;
            }
        }
        if count != 2 * self.m {
            return Err(format!("edge count mismatch: {} vs {}", count / 2, self.m));
        }
        Ok(())
    }
}

/// Neighbor lists store ids as `u32`.
fn assert_ids_fit(n: usize) {
    assert!(n as u64 <= 1 << 32, "vertex ids 0..{n} do not fit in u32");
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={}, edges=[", self.n, self.m)?;
        for (i, (u, v)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if i >= 40 {
                write!(f, "…")?;
                break;
            }
            write!(f, "({u},{v})")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(2, 1), "duplicate edge must be ignored");
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        g.validate().unwrap();
    }

    #[test]
    fn remove_edge_works() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(1, 0));
        assert_eq!(g.m(), 1);
        assert!(!g.has_edge(0, 1));
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn counting_build_matches_insertion() {
        // Unsorted, repeated pairs in both orientations: the bulk build
        // drops repeats as `add_edge` does, and strict construction names
        // the first one in input order.
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 5, 17, 60] {
            let pairs: Vec<(usize, usize)> = (0..3 * n)
                .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                .filter(|&(u, v)| u != v)
                .collect();
            let mut inserted = Graph::new(n);
            let fresh: Vec<bool> = pairs
                .iter()
                .map(|&(u, v)| inserted.add_edge(u, v))
                .collect();
            let first_repeat = fresh.iter().position(|&f| !f);
            let built = Graph::from_edges(n, &pairs);
            built.validate().unwrap();
            assert_eq!(built, inserted);
            let narrow: Vec<(u32, u32)> =
                pairs.iter().map(|&(u, v)| (u as u32, v as u32)).collect();
            match first_repeat {
                Some(i) => assert_eq!(Graph::from_pairs(n, &narrow), Err(i)),
                None => assert_eq!(Graph::from_pairs(n, &narrow), Ok(inserted)),
            }
        }
        assert_eq!(
            Graph::from_pairs(4, &[(0, 1), (2, 3), (1, 2), (3, 2), (1, 0)]),
            Err(3)
        );
    }

    #[test]
    #[should_panic(expected = "self-loops are not allowed")]
    fn counting_build_rejects_self_loops() {
        Graph::from_edges(3, &[(0, 1), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "do not fit in u32")]
    fn ids_must_fit_in_u32() {
        Graph::new((1 << 32) + 1);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = Graph::from_edges(5, &[(3, 1), (0, 4), (2, 0)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 2), (0, 4), (1, 3)]);
    }

    #[test]
    fn degrees_and_density() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.max_degree(), 3);
        assert!((g.density() - 0.5).abs() < 1e-12);
        assert!(!g.is_complete());
        let k3 = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        assert!(k3.is_complete());
    }

    #[test]
    fn relabeled_preserves_structure() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let perm = vec![3, 2, 1, 0];
        let h = g.relabeled(&perm);
        assert_eq!(h.m(), 3);
        assert!(h.has_edge(3, 2) && h.has_edge(2, 1) && h.has_edge(1, 0));
        h.validate().unwrap();
    }
}
