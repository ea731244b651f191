//! Tour construction: nearest neighbor, the start tour of every chained-LK
//! restart (a cycle on the dummy-city extension of a Path TSP instance).

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
    fn heuristics_not_far_from_optimal_small() {
        for salt in 0..5u64 {
            let t = TspInstance::from_fn(8, move |u, v| {
                let (a, b) = (u.min(v) as u64, u.max(v) as u64);
                (a * 7919 + b * 104729 + salt) % 40 + 1
            });
            let (_, opt) = brute_force_cycle(&t);
            let nn = cycle_weight(&t, &nearest_neighbor(&t, 0));
            assert!(nn >= opt);
            assert!(nn <= 3 * opt, "NN unexpectedly bad: {nn} vs {opt}");
        }
    }

    #[test]
    fn degenerate_sizes() {
        let t1 = TspInstance::from_matrix(1, vec![0]);
        assert_eq!(nearest_neighbor(&t1, 0), vec![0]);
        let t2 = TspInstance::from_matrix(2, vec![0, 3, 3, 0]);
        assert!(is_permutation(2, &nearest_neighbor(&t2, 1)));
    }
}
