//! The large-`n` labeling route: Claim 1 without the matrix.
//!
//! The Theorem 2 pipeline materialises the reduced `n × n` weight matrix
//! (`reduce_to_path_tsp`), which caps it at a few thousand vertices. This
//! route produces a valid labeling from *point* distance queries only —
//! any [`DistanceSource`], dense or hub-labeled — in `O(n + m)` memory:
//!
//! 1. **Order.** A complement-greedy vertex order: start at a minimum-
//!    degree vertex and repeatedly pick the first unvisited *non*-neighbor
//!    of the current vertex (falling back to the first unvisited vertex
//!    when the remainder is all neighbors). Consecutive non-adjacent
//!    vertices avoid the heavy `p₁` gaps, and the order depends only on
//!    the adjacency structure — never on the distance backend.
//! 2. **Labels.** Prefix sums of the *clamped* Claim 1 weights along the
//!    order: `w(u, v) = p_d` when `d(u, v) = d ≤ k`, else `p_min`.
//! 3. **Polish.** At small `n`, an Or-opt (single-vertex relocation) pass
//!    over flat candidate lists built from the same clamped weights.
//!
//! **Validity (clamped Claim 1).** For smooth `p` (`p_max ≤ 2·p_min`,
//! which forces `p_min ≥ 1`) the prefix labeling of *any* order is a
//! valid `L(p)`-labeling of *any* graph — small diameter not required:
//! consecutive vertices get exactly their required gap (or `p_min ≥ 0`
//! when unconstrained), and vertices two or more apart in the order are
//! at least `2·p_min ≥ p_max` apart, dominating every constraint. The
//! clamp is what frees the route from the `diam(G) ≤ k` precondition of
//! [`crate::reduction::reduce_to_path_tsp`].
//!
//! Every step is deterministic and backend-agnostic, so a dense-backed
//! and a hub-backed solve of the same instance return identical
//! solutions — the differential tests below pin that.

use crate::distance::DistanceSource;
use crate::labeling::Labeling;
use crate::pvec::PVec;
use crate::routes::Solution;
use dclab_graph::{Graph, INF};
use dclab_tsp::localsearch::CandidateLists;

/// Above this size the Or-opt polish (which costs `O(n · k)` oracle
/// queries per pass plus an `O(n²)` candidate build) is skipped and the
/// complement-greedy order ships as-is.
pub const ORACLE_POLISH_MAX_N: usize = 1024;

/// Candidate list width of the polish pass.
pub const ORACLE_POLISH_NEIGHBOR_K: usize = 8;

/// Maximum Or-opt passes (each strictly improves the span, so this is a
/// time cap, not a correctness knob).
const POLISH_MAX_ROUNDS: usize = 16;

/// The clamped Claim 1 edge weight: the exact constraint `p_d` inside
/// the distance horizon, `p_min` beyond it (or across components).
#[inline]
pub fn clamped_weight(d: u32, p: &PVec) -> u64 {
    if d == INF || d as usize > p.k() {
        p.pmin()
    } else {
        p.at_distance(d)
    }
}

/// Complement-greedy vertex order in `O(n + m)`: begin at the minimum-
/// degree vertex (ties to the smallest id) and always step to the first
/// unvisited non-neighbor, falling back to the first unvisited vertex.
/// Depends only on adjacency — identical across distance backends.
pub fn complement_greedy_order(g: &Graph) -> Vec<u32> {
    let n = g.n();
    if n == 0 {
        return Vec::new();
    }
    // Unvisited vertices as a doubly-linked list in id order (sentinel
    // `n` closes the ring), so "first unvisited" and deletion are O(1).
    let sent = n;
    let mut next: Vec<u32> = (1..=n as u32).chain(std::iter::once(0)).collect();
    let mut prev: Vec<u32> = std::iter::once(n as u32).chain(0..n as u32).collect();
    let unlink = |next: &mut [u32], prev: &mut [u32], v: usize| {
        let (pr, nx) = (prev[v] as usize, next[v] as usize);
        next[pr] = nx as u32;
        prev[nx] = pr as u32;
    };

    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut order = Vec::with_capacity(n);
    let mut cur = (0..n).min_by_key(|&v| (g.degree(v), v)).unwrap();
    loop {
        order.push(cur as u32);
        unlink(&mut next, &mut prev, cur);
        if order.len() == n {
            break;
        }
        stamp += 1;
        for &w in g.neighbors(cur) {
            mark[w as usize] = stamp;
        }
        // First unvisited non-neighbor; the walk only ever crosses
        // neighbors of `cur`, so the total scan cost is O(m) overall.
        let mut pick = next[sent] as usize;
        let mut x = next[sent] as usize;
        while x != sent {
            if mark[x] != stamp {
                pick = x;
                break;
            }
            x = next[x] as usize;
        }
        cur = pick;
    }
    order
}

/// Prefix-sum labeling of `order` under the clamped Claim 1 weights.
/// Requires smooth `p` (asserted); valid on any graph — see the module
/// docs for the argument.
pub fn labeling_from_order_clamped(order: &[u32], src: &DistanceSource, p: &PVec) -> Solution {
    assert!(p.is_smooth(), "clamped Claim 1 labeling requires smooth p");
    assert_eq!(order.len(), src.n(), "order must cover every vertex");
    let n = order.len();
    let mut labels = vec![0u64; n];
    let mut acc = 0u64;
    for i in 1..n {
        let (a, b) = (order[i - 1] as usize, order[i] as usize);
        acc += clamped_weight(src.query(a, b), p);
        labels[b] = acc;
    }
    Solution {
        labeling: Labeling::new(labels),
        span: acc,
        order: order.to_vec(),
    }
}

/// One Or-opt polish: first-improvement single-vertex relocations driven
/// by clamped-weight candidate lists, repeated until a pass applies no
/// move (bounded by [`POLISH_MAX_ROUNDS`]). Deterministic: vertices are
/// scanned by id, candidates in list order, and every accepted move
/// strictly decreases the integer path weight.
fn polish_order(order: &mut Vec<u32>, src: &DistanceSource, p: &PVec) {
    let n = order.len();
    if n < 4 {
        return;
    }
    let w = |a: u32, b: u32| clamped_weight(src.query(a as usize, b as usize), p) as i64;
    let cands = CandidateLists::build_from_fn(n, ORACLE_POLISH_NEIGHBOR_K, |u, v| {
        clamped_weight(src.query(u, v), p)
    });
    let mut pos = vec![0u32; n];
    let reindex = |order: &[u32], pos: &mut [u32]| {
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
    };
    reindex(order, &mut pos);
    for _ in 0..POLISH_MAX_ROUNDS {
        let mut improved = false;
        for u in 0..n as u32 {
            let i = pos[u as usize] as usize;
            // Gain of cutting u out of the path.
            let cut = match (i > 0, i + 1 < n) {
                (true, true) => {
                    w(order[i - 1], order[i + 1]) - w(order[i - 1], u) - w(u, order[i + 1])
                }
                (true, false) => -w(order[i - 1], u),
                (false, true) => -w(u, order[i + 1]),
                (false, false) => 0,
            };
            let mut applied = false;
            for &c in cands.ids(u as usize) {
                let j = pos[c as usize] as usize;
                // Insert u directly after and directly before candidate c;
                // slots touching u's current position are no-ops.
                for slot in [j, j.wrapping_sub(1)] {
                    // slot = i inserts u next to itself; slot = i−1 is
                    // reinsertion at the same place. Both are no-ops.
                    if slot >= n || slot == i || slot + 1 == i {
                        continue;
                    }
                    let (a, b) = (order[slot], order.get(slot + 1).copied());
                    let ins = match b {
                        Some(b) => w(a, u) + w(u, b) - w(a, b),
                        None => w(a, u),
                    };
                    if cut + ins < 0 {
                        let v = order.remove(i);
                        let at = if slot < i { slot + 1 } else { slot };
                        order.insert(at, v);
                        reindex(order, &mut pos);
                        improved = true;
                        applied = true;
                        break;
                    }
                }
                if applied {
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// The oracle-path route: complement-greedy order, clamped Claim 1
/// prefix labels, Or-opt polish at small `n`. Valid for any graph under
/// smooth `p`; bit-identical across distance backends.
pub fn oracle_path_route(g: &Graph, p: &PVec, src: &DistanceSource) -> Solution {
    let trace = dclab_trace::current();
    let mut span = trace.span("oracle_query");
    if span.is_enabled() {
        span.set_detail(format!("n={} backend={}", g.n(), src.backend_name()));
    }
    let n = g.n();
    if n == 0 {
        return Solution::from_labeling(Labeling::new(Vec::new()));
    }
    let mut order = complement_greedy_order(g);
    if n <= ORACLE_POLISH_MAX_N {
        polish_order(&mut order, src, p);
    }
    labeling_from_order_clamped(&order, src, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::reduce_to_path_tsp;
    use crate::routes::{exact_route, greedy_route};
    use dclab_graph::generators::{classic, random};
    use dclab_par::Deadline;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sources(g: &Graph) -> (DistanceSource, DistanceSource) {
        (
            DistanceSource::build_dense(g),
            DistanceSource::build_hub(g).unwrap(),
        )
    }

    #[test]
    fn valid_on_arbitrary_graphs_including_large_diameter_and_disconnected() {
        // The clamp frees the route from diam ≤ k: paths, cycles, trees
        // and multi-component graphs must all come out valid.
        let mut rng = StdRng::seed_from_u64(90);
        let ps = [PVec::l21(), PVec::ones(2), PVec::new(vec![3, 2]).unwrap()];
        let mut graphs = vec![
            classic::path(17),
            classic::cycle(12),
            classic::star(9),
            Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]),
            Graph::from_edges(3, &[]),
        ];
        for _ in 0..10 {
            graphs.push(random::gnp(&mut rng, 14, 0.2));
        }
        for g in &graphs {
            let (dense, _) = sources(g);
            for p in &ps {
                let sol = oracle_path_route(g, p, &dense);
                assert!(
                    sol.labeling.validate(g, p).is_ok(),
                    "invalid on n={} m={} {p}",
                    g.n(),
                    g.m()
                );
                assert_eq!(sol.span, sol.labeling.span());
                assert_eq!(sol.order, sol.labeling.sorted_order());
            }
        }
    }

    #[test]
    fn dense_and_hub_backends_agree_exactly() {
        let mut rng = StdRng::seed_from_u64(91);
        for trial in 0..15 {
            let n = 3 + trial;
            let g = random::gnp(&mut rng, n, 0.3);
            let (dense, hub) = sources(&g);
            for p in [PVec::l21(), PVec::ones(3)] {
                let a = oracle_path_route(&g, &p, &dense);
                let b = oracle_path_route(&g, &p, &hub);
                assert_eq!(a, b, "backend divergence at n={n} {p}");
            }
        }
    }

    #[test]
    fn never_beats_exact_and_stays_close_on_small_diameter() {
        let mut rng = StdRng::seed_from_u64(92);
        let p = PVec::l21();
        for _ in 0..10 {
            let g = random::gnp_with_diameter_at_most(&mut rng, 12, 0.5, 2);
            let (dense, _) = sources(&g);
            let sol = oracle_path_route(&g, &p, &dense);
            let exact = exact_route(&reduce_to_path_tsp(&g, &p).unwrap()).unwrap();
            assert!(sol.span >= exact.span);
            // Claim 1's 2-approximation argument applies to any valid
            // sorted-order labeling under smooth p.
            assert!(sol.span <= 2 * exact.span + 2);
        }
    }

    #[test]
    fn polish_never_worsens_the_greedy_order() {
        let mut rng = StdRng::seed_from_u64(93);
        for _ in 0..10 {
            let g = random::gnp(&mut rng, 20, 0.4);
            let p = PVec::l21();
            let (dense, _) = sources(&g);
            let raw = labeling_from_order_clamped(&complement_greedy_order(&g), &dense, &p);
            let polished = oracle_path_route(&g, &p, &dense);
            assert!(polished.span <= raw.span);
            assert!(polished.labeling.validate(&g, &p).is_ok());
        }
    }

    #[test]
    fn complement_greedy_order_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(94);
        for n in [0usize, 1, 2, 5, 33, 64] {
            let g = random::gnp(&mut rng, n, 0.5);
            let mut order = complement_greedy_order(&g);
            assert_eq!(order.len(), n);
            order.sort_unstable();
            assert!(order.iter().enumerate().all(|(i, &v)| v as usize == i));
        }
        // Complete graph: the fallback path (everything is a neighbor).
        let order = complement_greedy_order(&classic::complete(6));
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn competitive_with_greedy_baseline_on_dense_graphs() {
        // Not a guarantee, just a quality regression tripwire: on dense
        // diameter-2 instances the complement-greedy order should not be
        // wildly worse than the first-fit greedy baseline.
        let mut rng = StdRng::seed_from_u64(95);
        let p = PVec::l21();
        let mut route_total = 0u64;
        let mut greedy_total = 0u64;
        for _ in 0..8 {
            let g = random::gnp_with_diameter_at_most(&mut rng, 40, 0.5, 2);
            let (dense, _) = sources(&g);
            route_total += oracle_path_route(&g, &p, &dense).span;
            greedy_total += greedy_route(&g, &p, &Deadline::none()).span;
        }
        assert!(
            route_total <= greedy_total + greedy_total / 2,
            "route {route_total} vs greedy {greedy_total}"
        );
    }
}
