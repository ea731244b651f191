//! Executable hardness constructions (Theorems 1 and 3).
//!
//! The paper's W\[1\]-hardness results rest on two gadget reductions; both
//! are implemented here together with brute-force Hamiltonicity oracles so
//! the reductions' correctness properties are *testable*:
//!
//! * [`ham_cycle_to_path_gadget`] (Theorem 1): add a false twin `v'` of a
//!   chosen vertex `v` plus pendants `w, w'`; `G` has a Hamiltonian cycle
//!   iff the gadget has a Hamiltonian path (necessarily from `w` to `w'`).
//! * [`griggs_yeh_reduction`] (Theorem 3, after Griggs–Yeh): `Ḡ` plus a
//!   universal vertex has diameter ≤ 2, and `G` has a Hamiltonian path iff
//!   `λ_{2,1}` of the reduced graph is at most `n + 1`... concretely the
//!   span threshold distinguishing yes/no instances is `2n` vs `> 2n` in
//!   the original formulation; we expose the construction and test the
//!   equivalence via exact solvers on small instances.

use dclab_graph::ops::{add_universal_vertex, complement};
use dclab_graph::Graph;

/// Theorem 1 gadget: given `G` and a pivot vertex `v`, build `G'` with
/// a false twin `v'` of `v` (adjacent to `N(v)`), a pendant `w` on `v` and
/// a pendant `w'` on `v'`. Returns `(G', w, w')` where the new indices are
/// `v' = n`, `w = n+1`, `w' = n+2`.
pub fn ham_cycle_to_path_gadget(g: &Graph, v: usize) -> (Graph, usize, usize) {
    let n = g.n();
    assert!(v < n);
    let mut h = Graph::new(n + 3);
    for (a, b) in g.edges() {
        h.add_edge(a, b);
    }
    let vprime = n;
    let w = n + 1;
    let wprime = n + 2;
    for &u in g.neighbors(v) {
        h.add_edge(vprime, u as usize);
    }
    h.add_edge(v, w);
    h.add_edge(vprime, wprime);
    (h, w, wprime)
}

/// Theorem 3 construction (Griggs–Yeh): complement of `G` plus a universal
/// vertex (index `n`). The result always has diameter ≤ 2.
pub fn griggs_yeh_reduction(g: &Graph) -> Graph {
    add_universal_vertex(&complement(g))
}

/// Brute-force Hamiltonian cycle test (bitmask DP, `n ≤ 20`).
pub fn has_hamiltonian_cycle(g: &Graph) -> bool {
    let n = g.n();
    if n == 0 {
        return false;
    }
    if n == 1 {
        return true;
    }
    if n == 2 {
        return false; // simple graphs have no 2-cycles
    }
    assert!(n <= 20);
    // dp[mask][v]: path from 0 covering mask, ending at v.
    let full = (1usize << n) - 1;
    let mut dp = vec![false; (full + 1) * n];
    dp[n] = true;
    for mask in 1..=full {
        if mask & 1 == 0 {
            continue;
        }
        let mut rem = mask;
        while rem != 0 {
            let v = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            if !dp[mask * n + v] {
                continue;
            }
            for &u in g.neighbors(v) {
                let u = u as usize;
                if mask & (1 << u) == 0 {
                    dp[(mask | (1 << u)) * n + u] = true;
                }
            }
        }
    }
    (1..n).any(|v| dp[full * n + v] && g.has_edge(v, 0))
}

/// Brute-force Hamiltonian path test, optionally with fixed endpoints
/// (bitmask DP, `n ≤ 20`).
pub fn has_hamiltonian_path(g: &Graph, endpoints: Option<(usize, usize)>) -> bool {
    let n = g.n();
    if n == 0 {
        return false;
    }
    if n == 1 {
        return endpoints.is_none_or(|(a, b)| a == 0 && b == 0);
    }
    assert!(n <= 20);
    let full = (1usize << n) - 1;
    let mut dp = vec![false; (full + 1) * n];
    match endpoints {
        Some((a, _)) => dp[(1 << a) * n + a] = true,
        None => {
            for v in 0..n {
                dp[(1 << v) * n + v] = true;
            }
        }
    }
    for mask in 1..=full {
        let mut rem = mask;
        while rem != 0 {
            let v = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            if !dp[mask * n + v] {
                continue;
            }
            for &u in g.neighbors(v) {
                let u = u as usize;
                if mask & (1 << u) == 0 {
                    dp[(mask | (1 << u)) * n + u] = true;
                }
            }
        }
    }
    match endpoints {
        Some((_, b)) => dp[full * n + b],
        None => (0..n).any(|v| dp[full * n + v]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::diameter::diameter;
    use dclab_graph::generators::{classic, random};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hamiltonicity_oracles_on_known_graphs() {
        assert!(has_hamiltonian_cycle(&classic::cycle(5)));
        assert!(has_hamiltonian_cycle(&classic::complete(4)));
        assert!(!has_hamiltonian_cycle(&classic::path(4)));
        assert!(!has_hamiltonian_cycle(&classic::star(5)));
        assert!(!has_hamiltonian_cycle(&classic::petersen() /* yes? no! */));
        assert!(has_hamiltonian_path(&classic::path(6), None));
        assert!(has_hamiltonian_path(&classic::path(6), Some((0, 5))));
        assert!(!has_hamiltonian_path(&classic::path(6), Some((0, 3))));
        assert!(has_hamiltonian_path(&classic::petersen(), None));
        assert!(!has_hamiltonian_path(&classic::star(5), None));
    }

    #[test]
    fn gadget_equivalence_thm1() {
        let mut rng = StdRng::seed_from_u64(61);
        let mut yes = 0;
        let mut no = 0;
        for t in 0..20 {
            // Sweep density so the corpus contains both Hamiltonian and
            // non-Hamiltonian draws regardless of the RNG stream.
            let dens = [0.2, 0.45, 0.75][t % 3];
            let g = random::gnp(&mut rng, 8, dens);
            let hc = has_hamiltonian_cycle(&g);
            let (h, w, wprime) = ham_cycle_to_path_gadget(&g, 0);
            let hp = has_hamiltonian_path(&h, Some((w, wprime)));
            assert_eq!(hc, hp, "gadget equivalence failed on {g:?}");
            // The unconstrained HP of the gadget is also equivalent: any HP
            // must end at the two pendants.
            assert_eq!(hc, has_hamiltonian_path(&h, None));
            if hc {
                yes += 1;
            } else {
                no += 1;
            }
        }
        assert!(yes >= 2 && no >= 2, "test corpus not discriminating");
    }

    #[test]
    fn griggs_yeh_has_diameter_two() {
        let mut rng = StdRng::seed_from_u64(62);
        for _ in 0..10 {
            let g = random::gnp(&mut rng, 9, 0.5);
            let h = griggs_yeh_reduction(&g);
            assert_eq!(h.n(), g.n() + 1);
            assert!(diameter(&h).unwrap() <= 2);
        }
    }

    #[test]
    fn griggs_yeh_span_threshold() {
        // Griggs–Yeh: G (n vertices) has a Hamiltonian path iff
        // λ_{2,1}(Ḡ + universal) ≤ n + 1. Verified via the exact solver.
        use crate::pvec::PVec;
        use crate::reduction::reduce_to_path_tsp;
        use crate::routes::exact_route;
        let mut rng = StdRng::seed_from_u64(63);
        let mut yes = 0;
        let mut no = 0;
        for _ in 0..20 {
            let g = random::gnp(&mut rng, 7, 0.45);
            let n = g.n() as u64;
            let h = griggs_yeh_reduction(&g);
            let hp = has_hamiltonian_path(&g, None);
            let sol = exact_route(&reduce_to_path_tsp(&h, &PVec::l21()).unwrap()).unwrap();
            assert_eq!(
                hp,
                sol.span <= n + 1,
                "threshold equivalence failed: span={} n={n} g={g:?}",
                sol.span
            );
            if hp {
                yes += 1;
            } else {
                no += 1;
            }
        }
        assert!(yes >= 2 && no >= 2, "test corpus not discriminating");
    }
}
