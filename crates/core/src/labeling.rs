//! Labelings and their validation.

use crate::pvec::PVec;
use dclab_graph::{DistanceMatrix, Graph, INF};

/// An assignment `l : V → ℕ ∪ {0}` of labels to the vertices of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labeling {
    labels: Vec<u64>,
}

/// A single violated constraint, reported by [`Labeling::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// One endpoint of the violated pair.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
    /// Graph distance `d(u, v)` that triggered the constraint.
    pub distance: u32,
    /// Required label gap `p_{d(u,v)}`.
    pub required_gap: u64,
    /// The actual gap `|f(u) − f(v)|` that fell short.
    pub actual_gap: u64,
}

impl Labeling {
    /// Wrap a label vector.
    pub fn new(labels: Vec<u64>) -> Self {
        Labeling { labels }
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: usize) -> u64 {
        self.labels[v]
    }

    /// All labels.
    pub fn labels(&self) -> &[u64] {
        &self.labels
    }

    /// Number of labeled vertices.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` for the empty labeling.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The span `max_v l(v)` (0 for the empty labeling).
    pub fn span(&self) -> u64 {
        self.labels.iter().copied().max().unwrap_or(0)
    }

    /// Check every distance constraint of `p` on `g`; `Ok(())` or the first
    /// violation found.
    pub fn validate(&self, g: &Graph, p: &PVec) -> Result<(), Violation> {
        assert_eq!(self.labels.len(), g.n(), "labeling size mismatch");
        let dist = DistanceMatrix::compute(g);
        self.validate_with_distances(&dist, p)
    }

    /// Validation against a precomputed distance matrix (cheaper when many
    /// labelings of the same graph are checked). The same windowed check as
    /// [`Self::validate_with_source`].
    pub fn validate_with_distances(
        &self,
        dist: &DistanceMatrix,
        p: &PVec,
    ) -> Result<(), Violation> {
        assert_eq!(dist.n(), self.labels.len(), "labeling size mismatch");
        self.validate_windowed(p, |u, v| dist.get(u, v))
    }

    /// Validation against any [`DistanceSource`](crate::distance::DistanceSource)
    /// without materialising the `n × n` pair sweep; every distance goes
    /// through [`DistanceSource::query`](crate::distance::DistanceSource::query),
    /// so the source's query count covers the check.
    pub fn validate_with_source(
        &self,
        src: &crate::distance::DistanceSource,
        p: &PVec,
    ) -> Result<(), Violation> {
        assert_eq!(src.n(), self.labels.len(), "labeling size mismatch");
        self.validate_windowed(p, |u, v| src.query(u, v))
    }

    /// The check both validators share, reading `d(u, v)` from `dist`.
    ///
    /// Only pairs whose label gap is below `p_max` can violate any
    /// constraint, and in label-sorted order those pairs form a
    /// contiguous window, so the check reads `O(n · p_max / p_min)`
    /// distances for smooth `p` instead of `O(n²)` — the difference between
    /// feasible and hopeless at `n ≥ 50k`. It reports the
    /// lexicographically first violating pair `(u, v)`, `u < v`, exactly as
    /// a sweep over all pairs would.
    fn validate_windowed(
        &self,
        p: &PVec,
        mut dist: impl FnMut(usize, usize) -> u32,
    ) -> Result<(), Violation> {
        let order = self.sorted_order();
        let pmax = p.pmax();
        let mut first: Option<Violation> = None;
        for (i, &a) in order.iter().enumerate() {
            let a = a as usize;
            for &bv in &order[i + 1..] {
                let b = bv as usize;
                // Sorted ascending, so the gap is monotone in the window.
                let actual = self.labels[b] - self.labels[a];
                if actual >= pmax {
                    break;
                }
                let d = dist(a, b);
                if d == INF || d as usize > p.k() {
                    continue;
                }
                let required = p.at_distance(d);
                if actual < required {
                    let v = Violation {
                        u: a.min(b),
                        v: a.max(b),
                        distance: d,
                        required_gap: required,
                        actual_gap: actual,
                    };
                    if first.as_ref().is_none_or(|f| (v.u, v.v) < (f.u, f.v)) {
                        first = Some(v);
                    }
                }
            }
        }
        match first {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }

    /// Vertices sorted by label (stable: ties by vertex id) — the
    /// permutation `π` of the paper's Claim 1.
    pub fn sorted_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.labels.len() as u32).collect();
        order.sort_by_key(|&v| (self.labels[v as usize], v));
        order
    }

    /// Normalize so the minimum label is 0 (never increases the span; any
    /// optimal labeling has a 0 label, as the paper observes).
    pub fn normalized(&self) -> Labeling {
        let min = self.labels.iter().copied().min().unwrap_or(0);
        Labeling {
            labels: self.labels.iter().map(|&l| l - min).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::classic;

    /// The plain `O(n²)` sweep over every pair, first violation in
    /// lexicographic `(u, v)` order: the reference the windowed check is
    /// held to.
    fn validate_by_sweep(l: &Labeling, dist: &DistanceMatrix, p: &PVec) -> Result<(), Violation> {
        let n = l.len();
        for u in 0..n {
            for v in (u + 1)..n {
                let d = dist.get(u, v);
                if d == INF || d as usize > p.k() {
                    continue;
                }
                let required = p.at_distance(d);
                let actual = l.label(u).abs_diff(l.label(v));
                if actual < required {
                    return Err(Violation {
                        u,
                        v,
                        distance: d,
                        required_gap: required,
                        actual_gap: actual,
                    });
                }
            }
        }
        Ok(())
    }

    #[test]
    fn validate_accepts_known_l21_of_path() {
        // P4: labels 0,2,4,... The optimal L(2,1) labeling of P4 has span 3:
        // e.g. 1,3,0,2.
        let g = classic::path(4);
        let good = Labeling::new(vec![1, 3, 0, 2]);
        assert!(good.validate(&g, &PVec::l21()).is_ok());
        assert_eq!(good.span(), 3);
    }

    #[test]
    fn validate_rejects_adjacent_gap_one() {
        let g = classic::path(2);
        let bad = Labeling::new(vec![0, 1]);
        let err = bad.validate(&g, &PVec::l21()).unwrap_err();
        assert_eq!(err.distance, 1);
        assert_eq!(err.required_gap, 2);
        assert_eq!(err.actual_gap, 1);
    }

    #[test]
    fn validate_rejects_distance_two_equal() {
        let g = classic::path(3);
        let bad = Labeling::new(vec![0, 2, 0]);
        let err = bad.validate(&g, &PVec::l21()).unwrap_err();
        assert_eq!((err.u, err.v), (0, 2));
        assert_eq!(err.distance, 2);
    }

    #[test]
    fn far_vertices_unconstrained() {
        let g = classic::path(4); // dist(0,3) = 3 > k = 2
        let l = Labeling::new(vec![0, 2, 4, 0]);
        assert!(l.validate(&g, &PVec::l21()).is_ok());
    }

    #[test]
    fn sorted_order_and_normalize() {
        let l = Labeling::new(vec![5, 2, 9, 2]);
        assert_eq!(l.sorted_order(), vec![1, 3, 0, 2]);
        let n = l.normalized();
        assert_eq!(n.labels(), &[3, 0, 7, 0]);
        assert_eq!(n.span(), 7);
    }

    #[test]
    fn disconnected_pairs_skipped() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let l = Labeling::new(vec![0, 2, 0]);
        assert!(l.validate(&g, &PVec::l21()).is_ok());
    }

    #[test]
    fn windowed_source_validation_matches_dense_sweep() {
        // Differential: the windowed oracle check must agree with the full
        // n² sweep — same verdict, same first violation — on random
        // labelings over random graphs, for both backends.
        use crate::distance::DistanceSource;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(77);
        let ps = [PVec::l21(), PVec::ones(3), PVec::new(vec![3, 2]).unwrap()];
        let mut violations_seen = 0;
        for round in 0..40 {
            let n = 2 + (round % 12);
            let g = dclab_graph::generators::random::gnp(&mut rng, n, 0.4);
            let dist = DistanceMatrix::compute(&g);
            let dense = DistanceSource::dense(DistanceMatrix::compute(&g));
            let hub = DistanceSource::build_hub(&g).unwrap();
            for p in &ps {
                let labels: Vec<u64> = (0..n).map(|_| rng.random_range(0..8u64)).collect();
                let l = Labeling::new(labels);
                let want = validate_by_sweep(&l, &dist, p);
                assert_eq!(l.validate_with_distances(&dist, p), want);
                assert_eq!(l.validate_with_source(&dense, p), want);
                assert_eq!(l.validate_with_source(&hub, p), want);
                if want.is_err() {
                    violations_seen += 1;
                }
            }
        }
        assert!(violations_seen > 20, "suite too tame: {violations_seen}");
    }
}
