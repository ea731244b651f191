//! Greedy first-fit labeling — the classical constructive baseline.
//!
//! Vertices are processed in a chosen order; each receives the smallest
//! label consistent with all already-labeled vertices within distance `k`,
//! read off the rows of `G`'s distance matrix. Works on *any* graph (no
//! diameter or smoothness requirement) and runs in `O(n²)` per order past
//! the matrix; gives no approximation guarantee but is the standard
//! practical comparison point (E4).

use crate::labeling::Labeling;
use crate::pvec::PVec;
use dclab_graph::{DistanceMatrix, Graph, INF};

/// Vertex orderings for the greedy labeler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GreedyOrder {
    /// Natural order `0..n`.
    Identity,
    /// Non-increasing degree (classic "largest first").
    DegreeDescending,
    /// Breadth-first from a max-degree root.
    Bfs,
}

/// Greedy first-fit `L(p)`-labeling of `g` with the given vertex order;
/// `dist` is `g`'s distance matrix.
pub fn greedy_labeling(g: &Graph, dist: &DistanceMatrix, p: &PVec, order: GreedyOrder) -> Labeling {
    let n = g.n();
    let k = p.k() as u32;
    let mut labels = vec![u64::MAX; n];
    for v in build_order(g, order) {
        // Collect forbidden intervals [l(u) - p_d + 1, l(u) + p_d - 1] from
        // labeled vertices within distance k, then take the smallest
        // non-negative gap.
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (u, &d) in dist.row(v).iter().enumerate() {
            if labels[u] == u64::MAX || d == INF || d == 0 || d > k {
                continue;
            }
            let gap = p.at_distance(d);
            if gap == 0 {
                continue;
            }
            let lo = labels[u].saturating_sub(gap - 1);
            let hi = labels[u] + (gap - 1);
            intervals.push((lo, hi));
        }
        intervals.sort_unstable();
        let mut candidate = 0u64;
        for (lo, hi) in intervals {
            if candidate < lo {
                break; // fits before this interval
            }
            if candidate <= hi {
                candidate = hi + 1;
            }
        }
        labels[v] = candidate;
    }
    Labeling::new(labels)
}

fn build_order(g: &Graph, order: GreedyOrder) -> Vec<usize> {
    let n = g.n();
    match order {
        GreedyOrder::Identity => (0..n).collect(),
        GreedyOrder::DegreeDescending => {
            let mut vs: Vec<usize> = (0..n).collect();
            vs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            vs
        }
        GreedyOrder::Bfs => {
            if n == 0 {
                return vec![];
            }
            let root = (0..n).max_by_key(|&v| g.degree(v)).unwrap();
            let mut seen = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            let mut out = Vec::with_capacity(n);
            for start in std::iter::once(root).chain(0..n) {
                if seen[start] {
                    continue;
                }
                seen[start] = true;
                queue.push_back(start);
                while let Some(u) = queue.pop_front() {
                    out.push(u);
                    for &w in g.neighbors(u) {
                        let w = w as usize;
                        if !seen[w] {
                            seen[w] = true;
                            queue.push_back(w);
                        }
                    }
                }
            }
            out
        }
    }
}

/// Greedy span over all three orders — the cheap "best-of" baseline —
/// with a cooperative deadline checked *between* candidate orders (a
/// partially-labeled graph is not a labeling, so the order is the natural
/// checkpoint granule). The first order always runs to completion — the
/// result is a valid labeling even when the deadline expired before the
/// call.
pub fn best_greedy_span_anytime(
    g: &Graph,
    dist: &DistanceMatrix,
    p: &PVec,
    deadline: &dclab_par::Deadline,
) -> (Labeling, u64) {
    let candidates = [
        GreedyOrder::DegreeDescending,
        GreedyOrder::Bfs,
        GreedyOrder::Identity,
    ];
    let mut best: Option<Labeling> = None;
    for ord in candidates {
        if best.is_some() && deadline.expired() {
            break;
        }
        let l = greedy_labeling(g, dist, p, ord);
        if best.as_ref().is_none_or(|b| l.span() < b.span()) {
            best = Some(l);
        }
    }
    let l = best.expect("first candidate order always runs");
    let s = l.span();
    (l, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::csr::Csr;
    use dclab_graph::generators::{classic, random};
    use dclab_graph::ops::disjoint_union;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::VecDeque;

    const ORDERS: [GreedyOrder; 3] = [
        GreedyOrder::Identity,
        GreedyOrder::DegreeDescending,
        GreedyOrder::Bfs,
    ];

    fn labeling(g: &Graph, p: &PVec, order: GreedyOrder) -> Labeling {
        greedy_labeling(g, &DistanceMatrix::compute(g), p, order)
    }

    /// BFS from `src` truncated at `radius`: distances `> radius` are
    /// reported as [`INF`].
    fn bfs_distances_bounded(csr: &Csr, src: usize, radius: u32) -> Vec<u32> {
        let mut dist = vec![INF; csr.n()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src as u32);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            if du == radius {
                continue;
            }
            for &v in csr.neighbors(u as usize) {
                if dist[v as usize] == INF {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The first-fit rule over a depth-`k` BFS from every vertex, with no
    /// distance matrix: the reference the row-reading labeler is held to.
    fn greedy_labeling_by_bfs(g: &Graph, p: &PVec, order: GreedyOrder) -> Labeling {
        let n = g.n();
        let csr = Csr::from_graph(g);
        let k = p.k() as u32;
        let mut labels = vec![u64::MAX; n];
        for v in build_order(g, order) {
            let dist = bfs_distances_bounded(&csr, v, k);
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for u in 0..n {
                if labels[u] == u64::MAX || u == v {
                    continue;
                }
                let d = dist[u];
                if d == INF || d == 0 || d > k {
                    continue;
                }
                let gap = p.at_distance(d);
                if gap == 0 {
                    continue;
                }
                intervals.push((labels[u].saturating_sub(gap - 1), labels[u] + (gap - 1)));
            }
            intervals.sort_unstable();
            let mut candidate = 0u64;
            for (lo, hi) in intervals {
                if candidate < lo {
                    break;
                }
                if candidate <= hi {
                    candidate = hi + 1;
                }
            }
            labels[v] = candidate;
        }
        Labeling::new(labels)
    }

    #[test]
    fn bounded_bfs_truncates() {
        let csr = Csr::from_graph(&classic::path(6));
        let d = bfs_distances_bounded(&csr, 0, 2);
        assert_eq!(d[..3], [0, 1, 2]);
        assert_eq!(d[3], INF);
        assert_eq!(d[5], INF);
    }

    /// Differential: reading matrix rows gives the labels of the depth-`k`
    /// BFS reference, in every order, on connected and disconnected graphs,
    /// graphs of diameter above `k`, and p-vectors with a zero entry.
    #[test]
    fn row_reading_first_fit_matches_the_bfs_reference() {
        let mut rng = StdRng::seed_from_u64(0x6EED);
        let ps = [
            PVec::l21(),
            PVec::new(vec![4, 3, 2]).unwrap(),
            PVec::new(vec![5, 2]).unwrap(),
            PVec::new(vec![0, 1]).unwrap(),
            PVec::new(vec![3, 0, 1]).unwrap(),
            PVec::ones(1),
        ];
        let (mut disconnected, mut beyond_k) = (0, 0);
        for round in 0..240 {
            let n = 1 + rng.random_range(0..40usize);
            let g = match round % 4 {
                0 => random::gnp(&mut rng, n, 0.08),
                1 => random::gnp_with_diameter_at_most(&mut rng, n, 0.3, 3),
                2 => disjoint_union(
                    &random::gnp(&mut rng, n, 0.3),
                    &classic::path(1 + round % 7),
                ),
                _ => classic::path(n),
            };
            let dist = DistanceMatrix::compute(&g);
            let p = &ps[round % ps.len()];
            match dist.diameter() {
                None => disconnected += 1,
                Some(d) if d as usize > p.k() => beyond_k += 1,
                Some(_) => {}
            }
            for ord in ORDERS {
                assert_eq!(
                    greedy_labeling(&g, &dist, p, ord),
                    greedy_labeling_by_bfs(&g, p, ord),
                    "round {round}, {p}, {ord:?}"
                );
            }
        }
        assert!(
            disconnected >= 40 && beyond_k >= 40,
            "{disconnected} {beyond_k}"
        );
    }

    #[test]
    fn greedy_is_always_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let p21 = PVec::l21();
        for _ in 0..10 {
            let g = random::gnp(&mut rng, 25, 0.3);
            for ord in ORDERS {
                let l = labeling(&g, &p21, ord);
                assert!(l.validate(&g, &p21).is_ok());
            }
        }
    }

    #[test]
    fn greedy_on_k_n_is_exact() {
        // K_n with L(2,1): labels 0,2,4,… — greedy finds exactly that.
        let g = classic::complete(5);
        let l = labeling(&g, &PVec::l21(), GreedyOrder::Identity);
        assert_eq!(l.span(), 8);
    }

    #[test]
    fn greedy_valid_for_higher_dimension_p() {
        let g = classic::petersen();
        let p = PVec::new(vec![3, 2, 2]).unwrap();
        let l = labeling(&g, &p, GreedyOrder::DegreeDescending);
        assert!(l.validate(&g, &p).is_ok());
    }

    #[test]
    fn greedy_on_disconnected_graph_reuses_labels() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let l = labeling(&g, &PVec::l21(), GreedyOrder::Identity);
        assert!(l.validate(&g, &PVec::l21()).is_ok());
        // Components don't constrain each other, so span stays at 2.
        assert_eq!(l.span(), 2);
    }

    #[test]
    fn best_greedy_no_worse_than_each() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = random::connected_gnp(&mut rng, 20, 0.4);
        let p = PVec::l21();
        let dist = DistanceMatrix::compute(&g);
        let (_, best) = best_greedy_span_anytime(&g, &dist, &p, &dclab_par::Deadline::none());
        for ord in ORDERS {
            assert!(best <= greedy_labeling(&g, &dist, &p, ord).span());
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        let l = labeling(&g, &PVec::l21(), GreedyOrder::Bfs);
        assert!(l.is_empty());
        assert_eq!(l.span(), 0);
    }
}
