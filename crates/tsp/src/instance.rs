//! Dense symmetric TSP instances.

use crate::Weight;

/// A symmetric TSP instance on cities `0..n` with a dense weight matrix.
///
/// The Theorem 2 reduction always produces a *complete* graph, so a flat
/// `n × n` matrix (single allocation, row-major) is the right layout; all
/// solvers index it directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TspInstance {
    n: usize,
    w: Vec<Weight>,
}

impl TspInstance {
    /// Build from a row-major `n × n` matrix. The matrix must be symmetric
    /// with a zero diagonal.
    pub fn from_matrix(n: usize, w: Vec<Weight>) -> Self {
        assert_eq!(w.len(), n * n, "matrix size mismatch");
        let inst = TspInstance { n, w };
        debug_assert!(inst.check_symmetric().is_ok());
        inst
    }

    /// Build by evaluating `f(u, v)` for `u ≠ v`.
    pub fn from_fn(n: usize, f: impl Fn(usize, usize) -> Weight) -> Self {
        let mut w = vec![0; n * n];
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    w[u * n + v] = f(u, v);
                }
            }
        }
        let inst = TspInstance { n, w };
        assert!(
            inst.check_symmetric().is_ok(),
            "from_fn requires a symmetric weight function"
        );
        inst
    }

    /// Number of cities.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Weight of edge `{u, v}` (0 on the diagonal).
    #[inline]
    pub fn weight(&self, u: usize, v: usize) -> Weight {
        self.w[u * self.n + v]
    }

    /// Row of weights out of `u`.
    #[inline]
    pub fn row(&self, u: usize) -> &[Weight] {
        &self.w[u * self.n..(u + 1) * self.n]
    }

    fn check_symmetric(&self) -> Result<(), String> {
        for u in 0..self.n {
            if self.weight(u, u) != 0 {
                return Err(format!("nonzero diagonal at {u}"));
            }
            for v in (u + 1)..self.n {
                if self.weight(u, v) != self.weight(v, u) {
                    return Err(format!("asymmetric at ({u},{v})"));
                }
            }
        }
        Ok(())
    }

    /// `true` iff the triangle inequality holds on all triples — the
    /// precondition of Christofides/Hoogeveen. `O(n³)`.
    pub fn is_metric(&self) -> bool {
        for u in 0..self.n {
            for v in 0..self.n {
                if u == v {
                    continue;
                }
                let direct = self.weight(u, v);
                for x in 0..self.n {
                    if x == u || x == v {
                        continue;
                    }
                    if self.weight(u, x) + self.weight(x, v) < direct {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Minimum and maximum off-diagonal weights; `None` for `n < 2`.
    pub fn weight_range(&self) -> Option<(Weight, Weight)> {
        let mut min = Weight::MAX;
        let mut max = 0;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                let w = self.weight(u, v);
                min = min.min(w);
                max = max.max(w);
            }
        }
        if self.n < 2 {
            None
        } else {
            Some((min, max))
        }
    }

    /// `k` nearest neighbors of every city, by ascending weight (ties by
    /// index), as plain per-city vectors. This is the input of the
    /// *scalar-oracle* local-search kernels (`two_opt_scalar` /
    /// `or_opt_scalar`); the fast path uses [`Self::candidate_lists`],
    /// which produces the same lists in flat SoA form via partial
    /// selection instead of a full per-city sort.
    pub fn neighbor_lists(&self, k: usize) -> Vec<Vec<u32>> {
        let k = k.min(self.n.saturating_sub(1));
        (0..self.n)
            .map(|u| {
                let mut order: Vec<u32> = (0..self.n as u32).filter(|&v| v as usize != u).collect();
                order.sort_by_key(|&v| (self.weight(u, v as usize), v));
                order.truncate(k);
                order
            })
            .collect()
    }

    /// Flat SoA candidate lists for the vectorized local-search kernels:
    /// same contents and order as [`Self::neighbor_lists`], built with
    /// partial selection and with the candidate edge weights precomputed.
    /// See [`crate::localsearch::CandidateLists`].
    pub fn candidate_lists(&self, k: usize) -> crate::localsearch::CandidateLists {
        crate::localsearch::CandidateLists::build(self, k)
    }

    /// Extend with a "dummy" city at index `n` whose edges all weigh 0.
    ///
    /// Cycle tours of the extended instance correspond 1:1 (and weight-equal)
    /// to Hamiltonian *paths* of the original: remove the dummy from the
    /// cycle and its two 0-weight incident edges. This is how local-search
    /// heuristics solve Path TSP (the extension is intentionally *not*
    /// metric; only metric-requiring algorithms must avoid it).
    pub fn with_dummy_city(&self) -> TspInstance {
        let n = self.n + 1;
        let mut w = vec![0; n * n];
        for u in 0..self.n {
            for v in 0..self.n {
                w[u * n + v] = self.weight(u, v);
            }
        }
        TspInstance { n, w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TspInstance {
        // 4 cities on a line at coordinates 0, 1, 3, 6.
        let coords = [0i64, 1, 3, 6];
        TspInstance::from_fn(4, |u, v| coords[u].abs_diff(coords[v]))
    }

    #[test]
    fn weights_and_rows() {
        let t = small();
        assert_eq!(t.weight(0, 3), 6);
        assert_eq!(t.weight(3, 0), 6);
        assert_eq!(t.row(1), &[1, 0, 2, 5]);
    }

    #[test]
    fn line_metric_is_metric() {
        assert!(small().is_metric());
    }

    #[test]
    fn non_metric_detected() {
        let t = TspInstance::from_matrix(3, vec![0, 1, 10, 1, 0, 1, 10, 1, 0]);
        assert!(!t.is_metric());
    }

    #[test]
    fn neighbor_lists_sorted() {
        let t = small();
        let nl = t.neighbor_lists(2);
        assert_eq!(nl[0], vec![1, 2]);
        assert_eq!(nl[3], vec![2, 1]);
        let full = t.neighbor_lists(10);
        assert_eq!(full[0].len(), 3);
    }

    #[test]
    fn dummy_city_zero_weights() {
        let t = small().with_dummy_city();
        assert_eq!(t.n(), 5);
        for v in 0..4 {
            assert_eq!(t.weight(4, v), 0);
        }
        assert_eq!(t.weight(0, 3), 6);
    }

    #[test]
    fn weight_range() {
        assert_eq!(small().weight_range(), Some((1, 6)));
        assert_eq!(TspInstance::from_matrix(1, vec![0]).weight_range(), None);
    }

    #[test]
    #[should_panic(expected = "matrix size mismatch")]
    fn bad_matrix_size_panics() {
        TspInstance::from_matrix(2, vec![0, 1, 1]);
    }
}
