//! Core undirected simple-graph type.

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
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            m: 0,
            adj: vec![Vec::new(); n],
        }
    }

    /// Build from an edge list; duplicate edges are ignored, self-loops are
    /// rejected with a panic (simple graphs only).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
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

    /// Minimum degree, 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Iterator over all edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
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
        let mut g = Graph::new(self.n);
        for (u, v) in self.edges() {
            g.add_edge(perm[u], perm[v]);
        }
        g
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
        assert_eq!(g.min_degree(), 1);
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
