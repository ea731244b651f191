//! **Theorem 2**: the `O(nm)` reduction from `L(p)`-labeling on a graph of
//! diameter ≤ `k = |p|` (with `p_max ≤ 2·p_min`) to Metric Path TSP.
//!
//! The reduced instance is the complete graph `H` on `V` with
//! `w(u,v) = p_{dist_G(u,v)}`; Claim 1 shows that the minimum span of an
//! `L(p)`-labeling ordered by a permutation `π` equals the weight of the
//! Hamiltonian path `π` in `H`, and the optimal labeling is recovered as
//! the prefix sums of the optimal path ([`labeling_from_order`]).

use crate::labeling::Labeling;
use crate::pvec::PVec;
use dclab_graph::{DistanceMatrix, Graph};
use dclab_tsp::tour::path_prefix_weights;
use dclab_tsp::TspInstance;

/// The product of the Theorem 2 reduction.
#[derive(Clone, Debug)]
pub struct ReducedInstance {
    /// The complete weighted graph `H` as a Path-TSP instance.
    pub tsp: TspInstance,
    /// The APSP matrix of `G` (kept for labeling validation and reuse).
    pub dist: DistanceMatrix,
}

/// Why a graph/p pair is outside Theorem 2's scope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReductionError {
    /// `G` must be connected for distances to be finite.
    Disconnected,
    /// `diam(G) > k`: some pair has no constraint entry.
    DiameterTooLarge {
        /// The graph's diameter.
        diameter: u32,
        /// Length of the constraint vector `p`.
        k: usize,
    },
    /// `p_max > 2·p_min`: the reduced weights would violate the triangle
    /// inequality and Claim 1's exchange argument breaks.
    NotSmooth {
        /// Smallest entry of `p`.
        pmin: u64,
        /// Largest entry of `p`.
        pmax: u64,
    },
}

impl std::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReductionError::Disconnected => write!(f, "graph is disconnected"),
            ReductionError::DiameterTooLarge { diameter, k } => {
                write!(f, "diameter {diameter} exceeds |p| = {k}")
            }
            ReductionError::NotSmooth { pmin, pmax } => {
                write!(f, "p_max = {pmax} > 2·p_min = {}", 2 * pmin)
            }
        }
    }
}

impl std::error::Error for ReductionError {}

/// Run the Theorem 2 reduction with all eligibility checks.
pub fn reduce_to_path_tsp(g: &Graph, p: &PVec) -> Result<ReducedInstance, ReductionError> {
    check_smooth(p)?;
    reduce_unchecked(g, p)
}

/// Run the reduction *without* the `p_max ≤ 2·p_min` check (the weight
/// matrix is still well-defined whenever `diam(G) ≤ k`). Without smoothness
/// the Path-TSP optimum is only a **lower bound** on `λ_p` (each consecutive
/// gap in a sorted labeling is at least the pair's weight), not equal to it.
pub fn reduce_unchecked(g: &Graph, p: &PVec) -> Result<ReducedInstance, ReductionError> {
    let dist = DistanceMatrix::compute(g);
    check_scope(dist.diameter(), p)?;
    Ok(reduce_matrix(dist, p))
}

/// Theorem 2's smoothness hypothesis, `p_max ≤ 2·p_min`, which Claim 1's
/// equality (and so every route that labels by prefix sums) needs.
pub fn check_smooth(p: &PVec) -> Result<(), ReductionError> {
    if p.is_smooth() {
        Ok(())
    } else {
        Err(ReductionError::NotSmooth {
            pmin: p.pmin(),
            pmax: p.pmax(),
        })
    }
}

/// Theorem 2's scope at a known diameter (`None` when disconnected): every
/// pair must be constrained, so `G` is connected with `diam(G) ≤ k`.
pub fn check_scope(diameter: Option<u32>, p: &PVec) -> Result<(), ReductionError> {
    match diameter {
        None => Err(ReductionError::Disconnected),
        Some(diameter) if diameter as usize > p.k() => {
            Err(ReductionError::DiameterTooLarge { diameter, k: p.k() })
        }
        Some(_) => Ok(()),
    }
}

/// The reduction over `G`'s distance matrix, which the instance keeps.
/// The caller has checked [`check_scope`]: every pair lies within `k`.
pub fn reduce_matrix(dist: DistanceMatrix, p: &PVec) -> ReducedInstance {
    let n = dist.n();
    let mut w = vec![0u64; n * n];
    for u in 0..n {
        for v in 0..n {
            if u != v {
                w[u * n + v] = p.at_distance(dist.get(u, v));
            }
        }
    }
    ReducedInstance {
        tsp: TspInstance::from_matrix(n, w),
        dist,
    }
}

/// Claim 1 recovery: the labeling whose sorted order is `order`, with
/// `l(v_i) = Σ_{t<i} w(v_t, v_{t+1})` (prefix sums of the path).
pub fn labeling_from_order(reduced: &ReducedInstance, order: &[u32]) -> Labeling {
    let prefix = path_prefix_weights(&reduced.tsp, order);
    let mut labels = vec![0u64; order.len()];
    for (i, &v) in order.iter().enumerate() {
        labels[v as usize] = prefix[i];
    }
    Labeling::new(labels)
}

/// The tightest labeling whose sorted order is `order`, enforcing **every**
/// pairwise constraint: `l(v_i) = max_{j<i} (l(v_j) + w(v_j, v_i))`.
///
/// Unlike [`labeling_from_order`] (prefix sums, valid only under Claim 1's
/// smoothness hypothesis), this construction is valid for *any* `p` the
/// reduction's weight matrix covers — at `O(n²)` instead of `O(n)`. For
/// smooth `p` the two coincide.
pub fn tight_labeling_for_order(reduced: &ReducedInstance, order: &[u32]) -> Labeling {
    let n = order.len();
    let mut labels = vec![0u64; n];
    let mut along = vec![0u64; n]; // labels in order position
    for i in 1..n {
        let vi = order[i] as usize;
        let mut l = 0u64;
        for (j, &lj) in along[..i].iter().enumerate() {
            let vj = order[j] as usize;
            l = l.max(lj + reduced.tsp.weight(vj, vi));
        }
        along[i] = l;
        labels[vi] = l;
    }
    Labeling::new(labels)
}

/// The span of the best labeling *for a fixed permutation* `π`
/// (`λ_p(G, π)` in the paper) — the weight of the Hamiltonian path `π` in
/// `H`. Used by Claim 1 property tests.
pub fn span_for_permutation(reduced: &ReducedInstance, order: &[u32]) -> u64 {
    dclab_tsp::path_weight(&reduced.tsp, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::classic;

    #[test]
    fn reduction_weights_are_p_values() {
        // Star K_{1,3}: center 0. dist(center, leaf) = 1, dist(leaf, leaf) = 2.
        let g = classic::star(4);
        let r = reduce_to_path_tsp(&g, &PVec::l21()).unwrap();
        assert_eq!(r.tsp.weight(0, 1), 2);
        assert_eq!(r.tsp.weight(1, 2), 1);
    }

    #[test]
    fn reduced_instance_is_metric_when_smooth() {
        let g = classic::petersen();
        let r = reduce_to_path_tsp(&g, &PVec::l21()).unwrap();
        assert!(r.tsp.is_metric());
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(
            reduce_to_path_tsp(&g, &PVec::l21()).unwrap_err(),
            ReductionError::Disconnected
        );
    }

    #[test]
    fn large_diameter_rejected() {
        let g = classic::path(5); // diameter 4 > k = 2
        match reduce_to_path_tsp(&g, &PVec::l21()).unwrap_err() {
            ReductionError::DiameterTooLarge { diameter, k } => {
                assert_eq!((diameter, k), (4, 2));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn non_smooth_rejected_but_unchecked_allows() {
        let g = classic::star(4); // diameter 2
        let p = PVec::lpq(5, 1).unwrap(); // 5 > 2·1
        assert!(matches!(
            reduce_to_path_tsp(&g, &p),
            Err(ReductionError::NotSmooth { .. })
        ));
        assert!(reduce_unchecked(&g, &p).is_ok());
    }

    #[test]
    fn labeling_from_order_is_prefix_sums() {
        let g = classic::star(4);
        let r = reduce_to_path_tsp(&g, &PVec::l21()).unwrap();
        // Order: leaf 1, leaf 2, leaf 3, center 0.
        let l = labeling_from_order(&r, &[1, 2, 3, 0]);
        assert_eq!(l.labels(), &[4, 0, 1, 2]);
        assert!(l.validate(&g, &PVec::l21()).is_ok());
        assert_eq!(l.span(), span_for_permutation(&r, &[1, 2, 3, 0]));
    }

    #[test]
    fn tight_labeling_always_valid_even_without_smoothness() {
        // C5 walked in distance-2 hops: every consecutive order pair costs
        // q = 1, yet 0 and 1 are adjacent and need p = 7 apart.
        let g = classic::cycle(5);
        let p = PVec::lpq(7, 1).unwrap(); // wildly non-smooth
        let r = reduce_unchecked(&g, &p).unwrap();
        let order: Vec<u32> = vec![0, 2, 4, 1, 3];
        let tight = tight_labeling_for_order(&r, &order);
        assert!(tight.validate(&g, &p).is_ok());
        // The prefix-sum labeling violates the center's p1-constraints here.
        let prefix = labeling_from_order(&r, &order);
        assert!(prefix.validate(&g, &p).is_err());
    }

    #[test]
    fn tight_labeling_matches_prefix_sums_when_smooth() {
        let g = classic::petersen();
        let r = reduce_to_path_tsp(&g, &PVec::l21()).unwrap();
        let order: Vec<u32> = (0..10).collect();
        assert_eq!(
            tight_labeling_for_order(&r, &order).labels(),
            labeling_from_order(&r, &order).labels()
        );
    }

    #[test]
    fn k3_reduction() {
        let g = classic::complete(3);
        let r = reduce_to_path_tsp(&g, &PVec::l21()).unwrap();
        // All pairs adjacent: all weights 2; optimal path weight 4 = λ_{2,1}(K3).
        let (_, w) = dclab_tsp::exact::held_karp_path(&r.tsp);
        assert_eq!(w, 4);
    }
}
