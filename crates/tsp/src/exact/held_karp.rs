//! Held–Karp dynamic programming for Metric Path TSP: `O(2^n n²)` time,
//! `O(2^n n)` space.
//!
//! This is the algorithm behind Corollary 1 of the paper — the exact
//! `O(2^n n²)` bound for `L(p)`-labeling on small-diameter graphs. Only the
//! *path* variant (both endpoints free, which the reduction needs) is
//! provided, with tour reconstruction.
//!
//! Memory note: the DP table stores `2^n · n` `u32` entries plus `u8`
//! parents; n = 24 needs ~1.5 GiB, so construction is guarded at n ≤ 24.

use crate::{TspInstance, Weight};

const UNREACHED: u32 = u32::MAX;

/// Exact minimum-weight Hamiltonian path with both endpoints free.
///
/// Returns `(order, weight)`.
///
/// # Panics
/// If `n == 0` or `n > 24`, or if a Hamiltonian path can weigh
/// `u32::MAX` or more, `(n − 1)·w_max ≥ u32::MAX` (the compact DP sums
/// path weights in `u32` and keeps `u32::MAX` for "unreached"; callers
/// refuse such instances first, as `dclab_core::guard::check_exact_range`
/// does).
pub fn held_karp_path(inst: &TspInstance) -> (Vec<u32>, Weight) {
    let n = inst.n();
    assert!(n >= 1, "empty instance");
    assert!(n <= 24, "Held-Karp guarded at n ≤ 24 (memory)");
    if n == 1 {
        return (vec![0], 0);
    }
    check_weights(inst);
    let full: usize = (1usize << n) - 1;
    // dp[mask * n + j] = min weight of a path visiting exactly `mask`,
    // ending at city j (j ∈ mask), starting anywhere in mask.
    let mut dp = vec![UNREACHED; (full + 1) * n];
    let mut parent = vec![u8::MAX; (full + 1) * n];
    for j in 0..n {
        dp[(1 << j) * n + j] = 0;
    }
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let mut rem = mask;
        while rem != 0 {
            let j = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            let prev_mask = mask & !(1 << j);
            let mut best = UNREACHED;
            let mut best_i = u8::MAX;
            let mut prem = prev_mask;
            while prem != 0 {
                let i = prem.trailing_zeros() as usize;
                prem &= prem - 1;
                let base = dp[prev_mask * n + i];
                if base == UNREACHED {
                    continue;
                }
                let cand = base + inst.weight(i, j) as u32;
                if cand < best {
                    best = cand;
                    best_i = i as u8;
                }
            }
            dp[mask * n + j] = best;
            parent[mask * n + j] = best_i;
        }
    }
    let (mut end, mut best) = (0usize, UNREACHED);
    for j in 0..n {
        let w = dp[full * n + j];
        if w < best {
            best = w;
            end = j;
        }
    }
    // Reconstruct backwards.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    let mut j = end;
    loop {
        order.push(j as u32);
        let p = parent[mask * n + j];
        let next_mask = mask & !(1 << j);
        if p == u8::MAX {
            debug_assert_eq!(next_mask.count_ones(), 0);
            break;
        }
        mask = next_mask;
        j = p as usize;
    }
    order.reverse();
    (order, best as Weight)
}

fn check_weights(inst: &TspInstance) {
    if let Some((_, max)) = inst.weight_range() {
        assert!(
            (inst.n() as u128 - 1) * (max as u128) < UNREACHED as u128,
            "path weights too large for compact Held-Karp DP"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute::{brute_force_cycle, brute_force_path};
    use crate::tour::{is_permutation, path_weight};

    fn pseudo_random_instance(n: usize, salt: u64) -> TspInstance {
        TspInstance::from_fn(n, |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a * 7919 + b * 104729 + salt * 31) % 97 + 1
        })
    }

    #[test]
    fn matches_brute_force_path() {
        for n in 2..=8 {
            for salt in 0..3 {
                let t = pseudo_random_instance(n, salt);
                let (order, w) = held_karp_path(&t);
                let (_, bw) = brute_force_path(&t);
                assert_eq!(w, bw, "n={n} salt={salt}");
                assert!(is_permutation(n, &order));
                assert_eq!(path_weight(&t, &order), w, "reconstruction consistent");
            }
        }
    }

    #[test]
    fn trivial_sizes() {
        let t1 = TspInstance::from_matrix(1, vec![0]);
        assert_eq!(held_karp_path(&t1), (vec![0], 0));
        let t2 = TspInstance::from_matrix(2, vec![0, 9, 9, 0]);
        assert_eq!(held_karp_path(&t2).1, 9);
    }

    /// `solve_path_heuristic` solves the cycle problem on the dummy-city
    /// extension; its optimum must equal the path optimum.
    #[test]
    fn path_equals_cycle_on_dummy_extension() {
        for salt in 0..4 {
            let t = pseudo_random_instance(7, salt);
            let (_, pw) = held_karp_path(&t);
            let ext = t.with_dummy_city();
            let (_, cw) = brute_force_cycle(&ext);
            assert_eq!(pw, cw, "dummy-city equivalence broken (salt={salt})");
        }
    }
}
