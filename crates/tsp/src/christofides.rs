//! Hoogeveen's 1.5-approximation for metric **Path** TSP (Christofides
//! adapted to free endpoints).
//!
//! The paper's Corollary 1 invokes a polynomial 1.5-approximation for
//! Metric Path TSP (citing Zenklusen's LP-based algorithm). We implement
//! the classical combinatorial route instead: Hoogeveen's Christofides
//! variant for the *both-endpoints-free* path case, which matches the 3/2
//! guarantee needed here whenever the matching subroutine is exact
//! (see DESIGN.md §3 for the substitution note):
//!
//! 1. `T` ← minimum spanning tree;
//! 2. `O` ← odd-degree vertices of `T` (|O| even);
//! 3. add a minimum-weight matching covering all but two of `O` (the two
//!    survivors become the Eulerian path endpoints);
//! 4. Eulerian path over the multigraph (Hierholzer);
//! 5. shortcut repeated vertices (triangle inequality ⇒ no weight increase).

use crate::matching::{min_weight_near_perfect_matching, MatchingBackend};
use crate::mst::{odd_degree_vertices, prim_mst};
use crate::tour::path_weight;
use crate::{TspInstance, Weight};

/// Hoogeveen 1.5-approximation for metric Path TSP with both endpoints
/// free — the variant the Theorem 2 reduction needs. `backend` selects the
/// matching algorithm; with an exact backend ([`MatchingBackend::Auto`] up
/// to its exact range) the 3/2 ratio is guaranteed on metric instances.
pub fn christofides_path(inst: &TspInstance, backend: MatchingBackend) -> (Vec<u32>, Weight) {
    let n = inst.n();
    if n <= 2 {
        let order: Vec<u32> = (0..n as u32).collect();
        let w = path_weight(inst, &order);
        return (order, w);
    }
    let (mut edges, _) = prim_mst(inst);
    let odd = odd_degree_vertices(n, &edges);
    debug_assert!(odd.len() >= 2 && odd.len().is_multiple_of(2));
    let start = if odd.len() == 2 {
        // The tree is already a path in the Eulerian sense only if it *is*
        // a path; otherwise |O| ≥ 4. |O| = 2 means T is a Hamiltonian path.
        odd[0] as usize
    } else {
        let w = |a: usize, b: usize| inst.weight(odd[a] as usize, odd[b] as usize);
        let (pairs, (ua, ub)) = min_weight_near_perfect_matching(odd.len(), &w, backend);
        for (a, b) in pairs {
            edges.push((odd[a as usize], odd[b as usize]));
        }
        let _ = ub;
        odd[ua as usize] as usize
    };
    let walk = eulerian_walk(n, &edges, start);
    let order = shortcut(n, &walk);
    let w = path_weight(inst, &order);
    (order, w)
}

/// Hierholzer's algorithm over an edge multiset: an Eulerian walk from
/// `start`. The multigraph must have zero or two odd-degree vertices, and
/// `start` must be one of them when there are two. Returns the vertex
/// sequence of the walk.
pub fn eulerian_walk(n: usize, edges: &[(u32, u32)], start: usize) -> Vec<u32> {
    if edges.is_empty() {
        return vec![start as u32];
    }
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n]; // (neighbor, edge id)
    for (id, &(u, v)) in edges.iter().enumerate() {
        adj[u as usize].push((v, id as u32));
        adj[v as usize].push((u, id as u32));
    }
    debug_assert!(
        !adj[start].is_empty(),
        "start vertex must touch at least one edge"
    );
    let mut used = vec![false; edges.len()];
    let mut ptr = vec![0usize; n];
    let mut stack = vec![start as u32];
    let mut walk = Vec::with_capacity(edges.len() + 1);
    while let Some(&v) = stack.last() {
        let v = v as usize;
        let mut advanced = false;
        while ptr[v] < adj[v].len() {
            let (to, id) = adj[v][ptr[v]];
            ptr[v] += 1;
            if !used[id as usize] {
                used[id as usize] = true;
                stack.push(to);
                advanced = true;
                break;
            }
        }
        if !advanced {
            walk.push(stack.pop().unwrap());
        }
    }
    debug_assert!(used.iter().all(|&u| u), "graph not connected on its edges");
    walk.reverse();
    walk
}

/// Keep the first occurrence of each vertex in an Eulerian walk — the
/// triangle-inequality shortcut step. Vertices never visited (isolated in
/// the multigraph) are appended at the end, which cannot happen for
/// MST-based multigraphs.
pub fn shortcut(n: usize, walk: &[u32]) -> Vec<u32> {
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for &v in walk {
        if !seen[v as usize] {
            seen[v as usize] = true;
            order.push(v);
        }
    }
    for v in 0..n {
        if !seen[v] {
            order.push(v as u32);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force_path;
    use crate::tour::is_permutation;

    /// Random metric instance: shortest-path closure of random weights.
    fn random_metric(n: usize, salt: u64) -> TspInstance {
        let base = TspInstance::from_fn(n, |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a * 7919 + b * 104729 + salt * 31) % 50 + 10
        });
        // Floyd-Warshall closure to force the triangle inequality.
        let mut w: Vec<Weight> = (0..n * n).map(|i| base.weight(i / n, i % n)).collect();
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = w[i * n + k] + w[k * n + j];
                    if i != j && via < w[i * n + j] {
                        w[i * n + j] = via;
                    }
                }
            }
        }
        TspInstance::from_matrix(n, w)
    }

    #[test]
    fn metric_closure_is_metric() {
        for salt in 0..3 {
            assert!(random_metric(9, salt).is_metric());
        }
    }

    #[test]
    fn path_ratio_within_1_5() {
        for n in [4usize, 6, 8, 10] {
            for salt in 0..5 {
                let t = random_metric(n, salt);
                let (order, w) = christofides_path(&t, MatchingBackend::Auto);
                assert!(is_permutation(n, &order));
                let (_, opt) = brute_force_path(&t);
                assert!(w >= opt);
                assert!(
                    2 * w <= 3 * opt,
                    "ratio breach: n={n} salt={salt} {w}/{opt}"
                );
            }
        }
    }

    #[test]
    fn path_on_line_is_optimal() {
        let coords = [0i64, 2, 5, 9, 14];
        let t = TspInstance::from_fn(5, |u, v| coords[u].abs_diff(coords[v]));
        let (_, w) = christofides_path(&t, MatchingBackend::Auto);
        assert_eq!(w, 14); // MST of a line is the line; no odd surgery needed
    }

    #[test]
    fn eulerian_circuit_covers_all_edges() {
        // Two triangles sharing vertex 0: 0-1-2-0, 0-3-4-0. No odd vertex,
        // so the walk from 0 is a circuit.
        let edges = vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)];
        let walk = eulerian_walk(5, &edges, 0);
        assert_eq!(walk.len(), edges.len() + 1);
        assert_eq!(walk[0], *walk.last().unwrap());
    }

    #[test]
    fn eulerian_path_with_two_odd() {
        // Path multigraph 0-1, 1-2 has odd ends 0 and 2.
        let edges = vec![(0, 1), (1, 2)];
        let walk = eulerian_walk(3, &edges, 0);
        assert_eq!(walk, vec![0, 1, 2]);
    }

    #[test]
    fn shortcut_dedupes_and_completes() {
        let walk = vec![0u32, 1, 2, 1, 3, 0];
        assert_eq!(shortcut(5, &walk), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn small_instances() {
        let t = TspInstance::from_matrix(1, vec![0]);
        assert_eq!(christofides_path(&t, MatchingBackend::Auto).1, 0);
        let t2 = TspInstance::from_matrix(2, vec![0, 4, 4, 0]);
        assert_eq!(christofides_path(&t2, MatchingBackend::Auto).1, 4);
    }
}
