//! Tour construction heuristics: nearest neighbor and greedy edge.

use crate::{TspInstance, Weight};

/// Nearest-neighbor cycle starting from `start`.
pub fn nearest_neighbor(inst: &TspInstance, start: usize) -> Vec<u32> {
    let n = inst.n();
    assert!(start < n);
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut cur = start;
    visited[cur] = true;
    order.push(cur as u32);
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut best_w = Weight::MAX;
        for v in 0..n {
            if !visited[v] {
                let w = inst.weight(cur, v);
                if w < best_w {
                    best_w = w;
                    best = v;
                }
            }
        }
        visited[best] = true;
        order.push(best as u32);
        cur = best;
    }
    order
}

/// Greedy-edge construction: repeatedly add the globally cheapest edge that
/// keeps all degrees ≤ 2 and closes no premature subcycle; the resulting
/// Hamiltonian cycle is returned as a city order.
pub fn greedy_edge(inst: &TspInstance) -> Vec<u32> {
    let n = inst.n();
    if n == 0 {
        return vec![];
    }
    if n <= 3 {
        // Cycles on ≤ 3 cities are unique up to rotation/reflection.
        return (0..n as u32).collect();
    }
    let mut edges: Vec<(Weight, u32, u32)> = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((inst.weight(u, v), u as u32, v as u32));
        }
    }
    edges.sort_unstable();
    let mut degree = vec![0u8; n];
    let mut comp: Vec<usize> = (0..n).collect();
    fn find(c: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while c[r] != r {
            r = c[r];
        }
        let mut cur = x;
        while c[cur] != r {
            let next = c[cur];
            c[cur] = r;
            cur = next;
        }
        r
    }
    let mut chosen: Vec<Vec<u32>> = vec![Vec::with_capacity(2); n];
    let mut added = 0;
    for &(_, u, v) in &edges {
        if added == n {
            break;
        }
        let (ui, vi) = (u as usize, v as usize);
        if degree[ui] >= 2 || degree[vi] >= 2 {
            continue;
        }
        let (ru, rv) = (find(&mut comp, ui), find(&mut comp, vi));
        // Allow closing the cycle only as the very last edge.
        if ru == rv && added != n - 1 {
            continue;
        }
        comp[ru] = rv;
        degree[ui] += 1;
        degree[vi] += 1;
        chosen[ui].push(v);
        chosen[vi].push(u);
        added += 1;
    }
    debug_assert_eq!(added, n);
    // Walk the 2-regular graph into a city order.
    let mut order = Vec::with_capacity(n);
    let mut prev = usize::MAX;
    let mut cur = 0usize;
    for _ in 0..n {
        order.push(cur as u32);
        let next = chosen[cur]
            .iter()
            .map(|&x| x as usize)
            .find(|&x| x != prev)
            .expect("greedy edge produced a non-2-regular vertex");
        prev = cur;
        cur = next;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force_cycle;
    use crate::tour::{cycle_weight, is_permutation};

    fn line(coords: &[i64]) -> TspInstance {
        TspInstance::from_fn(coords.len(), |u, v| coords[u].abs_diff(coords[v]))
    }

    #[test]
    fn nn_is_a_permutation() {
        let t = line(&[0, 5, 2, 9, 4, 7]);
        for start in 0..6 {
            let order = nearest_neighbor(&t, start);
            assert!(is_permutation(6, &order));
            assert_eq!(order[0] as usize, start);
        }
    }

    #[test]
    fn greedy_edge_is_a_permutation() {
        let t = line(&[3, 1, 4, 1 + 10, 5, 9, 2, 6]);
        let order = greedy_edge(&t);
        assert!(is_permutation(8, &order));
    }

    #[test]
    fn heuristics_not_far_from_optimal_small() {
        for salt in 0..5u64 {
            let t = TspInstance::from_fn(8, move |u, v| {
                let (a, b) = (u.min(v) as u64, u.max(v) as u64);
                (a * 7919 + b * 104729 + salt) % 40 + 1
            });
            let (_, opt) = brute_force_cycle(&t);
            let nn = cycle_weight(&t, &nearest_neighbor(&t, 0));
            let ge = cycle_weight(&t, &greedy_edge(&t));
            assert!(nn >= opt && ge >= opt);
            assert!(nn <= 3 * opt, "NN unexpectedly bad: {nn} vs {opt}");
            assert!(ge <= 3 * opt, "greedy unexpectedly bad: {ge} vs {opt}");
        }
    }

    #[test]
    fn degenerate_sizes() {
        let t1 = TspInstance::from_matrix(1, vec![0]);
        assert_eq!(greedy_edge(&t1), vec![0]);
        assert_eq!(nearest_neighbor(&t1, 0), vec![0]);
        let t2 = TspInstance::from_matrix(2, vec![0, 3, 3, 0]);
        assert!(is_permutation(2, &greedy_edge(&t2)));
    }
}
