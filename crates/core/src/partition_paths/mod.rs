//! **Partition into Paths** (PIP): cover all vertices with the minimum
//! number of vertex-disjoint paths.
//!
//! Corollary 2 reduces diameter-2 `L(p,q)`-labeling to PIP (on `G` when
//! `p ≤ q`, on `Ḡ` when `p > q`). Three solvers:
//!
//! * [`exact_path_partition`] — subset DP, `O(2^n n²)`, exact for `n ≤ 20`;
//! * [`greedy_path_partition`] — linear-time walk-stripping upper bound
//!   (the witness for cographs past the subset DP);
//! * [`cograph`] — polynomial cotree DP, exact on cographs (the bounded
//!   modular-width family realising the FPT claim's shape).

pub mod cograph;

use dclab_graph::Graph;

/// Exact minimum number of paths partitioning `V(g)`: the length of
/// [`exact_path_partition_witness`]'s optimal partition.
///
/// # Panics
/// If `n > 20` (memory guard). `n == 0` returns 0.
pub fn exact_path_partition(g: &Graph) -> usize {
    exact_path_partition_witness(g).len()
}

/// An optimal partition into paths, by subset DP in `O(2^n n²)`,
/// reconstructed by walking the DP table backwards.
///
/// `dp[S][v]` = fewest paths covering exactly `S` with the *current* path
/// ending at `v`; transitions either extend the current path along an edge
/// or open a new path.
///
/// # Panics
/// If `n > 20` (memory guard). `n == 0` returns no paths.
pub fn exact_path_partition_witness(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.n();
    assert!(n <= 20, "subset DP guarded at n ≤ 20");
    if n == 0 {
        return Vec::new();
    }
    let full: usize = (1 << n) - 1;
    let mut dp = vec![u8::MAX; (full + 1) * n];
    for v in 0..n {
        dp[(1 << v) * n + v] = 1;
    }
    for mask in 1..=full {
        let mut rem = mask;
        while rem != 0 {
            let v = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            let cur = dp[mask * n + v];
            if cur == u8::MAX {
                continue;
            }
            // Extend the current path along an edge v-u.
            for &u in g.neighbors(v) {
                let u = u as usize;
                if mask & (1 << u) == 0 {
                    let nm = mask | (1 << u);
                    if cur < dp[nm * n + u] {
                        dp[nm * n + u] = cur;
                    }
                }
            }
            // Or open a new path at any unvisited vertex.
            for u in 0..n {
                if mask & (1 << u) == 0 {
                    let nm = mask | (1 << u);
                    if cur + 1 < dp[nm * n + u] {
                        dp[nm * n + u] = cur + 1;
                    }
                }
            }
        }
    }
    // Backward reconstruction. The second DP index is always the most
    // recently added vertex, so from (mask, v) the predecessor is either
    // (mask \ v, u) with u ~ v and equal count (v extended u's path) or
    // (mask \ v, u) with count − 1 (v opened a fresh path).
    let (mut v, _) = (0..n)
        .map(|v| (v, dp[full * n + v]))
        .min_by_key(|&(_, c)| c)
        .expect("nonempty graph");
    let mut mask = full;
    let mut paths: Vec<Vec<usize>> = Vec::new();
    let mut current = vec![v];
    while mask != 1 << v {
        let c = dp[mask * n + v];
        let prev_mask = mask & !(1 << v);
        let extend_pred = g
            .neighbors(v)
            .iter()
            .map(|&u| u as usize)
            .find(|&u| prev_mask & (1 << u) != 0 && dp[prev_mask * n + u] == c);
        match extend_pred {
            Some(u) => {
                // v was appended after u in the same path.
                current.push(u);
                mask = prev_mask;
                v = u;
            }
            None => {
                let u = (0..n)
                    .filter(|&u| prev_mask & (1 << u) != 0)
                    .find(|&u| dp[prev_mask * n + u] == c - 1)
                    .expect("DP table must contain a predecessor");
                paths.push(std::mem::take(&mut current));
                current = vec![u];
                mask = prev_mask;
                v = u;
            }
        }
    }
    paths.push(current);
    paths
}

/// Greedy upper bound: repeatedly strip a maximal path found by walking
/// from an unvisited vertex of minimum degree, always preferring the
/// unvisited neighbor of fewest unvisited neighbors (a cheap degree
/// heuristic in the spirit of Pósa rotations, without the rotations).
pub fn greedy_path_partition(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.n();
    let mut visited = vec![false; n];
    // Unvisited neighbours of each vertex, kept current as vertices are
    // taken, so choosing a step costs O(deg(tip)).
    let mut free: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let take = |v: usize, visited: &mut [bool], free: &mut [usize]| {
        visited[v] = true;
        for &w in g.neighbors(v) {
            free[w as usize] -= 1;
        }
    };
    let mut paths = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| g.degree(v));
    for &start in &order {
        if visited[start] {
            continue;
        }
        let mut path = vec![start];
        take(start, &mut visited, &mut free);
        // Extend forwards, then backwards from the start.
        for end_of in 0..2 {
            loop {
                let tip = if end_of == 0 {
                    *path.last().unwrap()
                } else {
                    path[0]
                };
                let next = g
                    .neighbors(tip)
                    .iter()
                    .map(|&u| u as usize)
                    .filter(|&u| !visited[u])
                    .min_by_key(|&u| free[u]);
                match next {
                    Some(u) => {
                        take(u, &mut visited, &mut free);
                        if end_of == 0 {
                            path.push(u);
                        } else {
                            path.insert(0, u);
                        }
                    }
                    None => break,
                }
            }
        }
        paths.push(path);
    }
    paths
}

/// Check that `paths` is a partition of `V(g)` into vertex-disjoint paths.
pub fn is_valid_path_partition(g: &Graph, paths: &[Vec<usize>]) -> bool {
    let mut seen = vec![false; g.n()];
    for path in paths {
        if path.is_empty() {
            return false;
        }
        for &v in path {
            if v >= g.n() || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        for w in path.windows(2) {
            if !g.has_edge(w[0], w[1]) {
                return false;
            }
        }
    }
    seen.iter().all(|&s| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::{classic, random};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_graph_needs_one() {
        assert_eq!(exact_path_partition(&classic::path(6)), 1);
    }

    #[test]
    fn edgeless_needs_n() {
        assert_eq!(exact_path_partition(&Graph::new(5)), 5);
    }

    #[test]
    fn star_needs_leaves_minus_one() {
        // K_{1,m}: one path through the center covers 2 leaves; the other
        // m-2 leaves are singletons → m-1 paths.
        assert_eq!(exact_path_partition(&classic::star(6)), 4);
    }

    #[test]
    fn complete_bipartite_formula() {
        // pc(K_{a,b}) = max(1, |a-b|) for a,b ≥ 1.
        assert_eq!(exact_path_partition(&classic::complete_bipartite(3, 3)), 1);
        assert_eq!(exact_path_partition(&classic::complete_bipartite(2, 5)), 3);
        assert_eq!(exact_path_partition(&classic::complete_bipartite(1, 4)), 3);
    }

    #[test]
    fn hamiltonian_graphs_need_one() {
        assert_eq!(exact_path_partition(&classic::cycle(7)), 1);
        assert_eq!(exact_path_partition(&classic::complete(5)), 1);
        assert_eq!(exact_path_partition(&classic::petersen()), 1);
    }

    #[test]
    fn greedy_is_valid_and_upper_bounds_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let g = random::gnp(&mut rng, 14, 0.25);
            let paths = greedy_path_partition(&g);
            assert!(is_valid_path_partition(&g, &paths));
            assert!(paths.len() >= exact_path_partition(&g));
        }
    }

    #[test]
    fn greedy_matches_the_recounting_walk() {
        // The walk that recounts each candidate's unvisited neighbours at
        // every step: the reference the kept counts are held to.
        fn recounting(g: &Graph) -> Vec<Vec<usize>> {
            let mut visited = vec![false; g.n()];
            let mut paths = Vec::new();
            let mut order: Vec<usize> = (0..g.n()).collect();
            order.sort_by_key(|&v| g.degree(v));
            for &start in &order {
                if visited[start] {
                    continue;
                }
                let mut path = vec![start];
                visited[start] = true;
                for end_of in 0..2 {
                    loop {
                        let tip = if end_of == 0 {
                            path[path.len() - 1]
                        } else {
                            path[0]
                        };
                        let next = g
                            .neighbors(tip)
                            .iter()
                            .map(|&u| u as usize)
                            .filter(|&u| !visited[u])
                            .min_by_key(|&u| {
                                g.neighbors(u)
                                    .iter()
                                    .filter(|&&w| !visited[w as usize])
                                    .count()
                            });
                        let Some(u) = next else { break };
                        visited[u] = true;
                        if end_of == 0 {
                            path.push(u);
                        } else {
                            path.insert(0, u);
                        }
                    }
                }
                paths.push(path);
            }
            paths
        }

        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..80 {
            let n = trial % 45;
            let g = random::gnp(&mut rng, n, [0.05, 0.15, 0.4, 0.85][trial % 4]);
            let c = dclab_graph::ops::complement(&g);
            assert_eq!(greedy_path_partition(&g), recounting(&g), "trial {trial}");
            assert_eq!(greedy_path_partition(&c), recounting(&c), "trial {trial}");
        }
    }

    #[test]
    fn valid_partition_checker() {
        let g = classic::path(4);
        assert!(is_valid_path_partition(&g, &[vec![0, 1, 2, 3]]));
        assert!(is_valid_path_partition(&g, &[vec![1, 0], vec![2, 3]]));
        assert!(!is_valid_path_partition(&g, &[vec![0, 2], vec![1, 3]])); // non-edges
        assert!(!is_valid_path_partition(&g, &[vec![0, 1, 2]])); // misses 3
        assert!(!is_valid_path_partition(
            &g,
            &[vec![0, 1], vec![1, 2], vec![3]]
        )); // reuse
    }

    #[test]
    fn empty_graph() {
        assert_eq!(exact_path_partition(&Graph::new(0)), 0);
        assert!(greedy_path_partition(&Graph::new(0)).is_empty());
        assert!(exact_path_partition_witness(&Graph::new(0)).is_empty());
    }

    #[test]
    fn witness_matches_exact_count_and_is_valid() {
        let mut rng = StdRng::seed_from_u64(6);
        for trial in 0..12 {
            let dens = [0.15, 0.35, 0.6][trial % 3];
            let g = random::gnp(&mut rng, 12, dens);
            let want = exact_path_partition(&g);
            let paths = exact_path_partition_witness(&g);
            assert!(is_valid_path_partition(&g, &paths), "trial {trial}");
            assert_eq!(paths.len(), want, "trial {trial}");
        }
    }

    #[test]
    fn witness_on_classic_families() {
        for (g, want) in [
            (classic::path(7), 1),
            (classic::star(6), 4),
            (classic::petersen(), 1),
            (Graph::new(5), 5),
        ] {
            let paths = exact_path_partition_witness(&g);
            assert!(is_valid_path_partition(&g, &paths));
            assert_eq!(paths.len(), want);
        }
    }
}
