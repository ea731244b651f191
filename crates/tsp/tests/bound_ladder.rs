//! Differential test of the lower-bound ladder on 1000 hand-rolled
//! instances: every rung must dominate the rung below it, and no rung may
//! ever exceed the brute-force optimum it claims to bound.
//!
//! The ladder under test (weakest to strongest, mirroring
//! `dclab_core::bounds::BoundKind`): `prim_mst` weight ≤ `path_lower_bound`
//! ≤ brute-force path optimum (the path-form ascent evaluates π = 0 as the
//! full-city MST, so one iteration already certifies the MST rung).
//!
//! The generator is a hand-rolled xorshift (no `rand` dependency, no
//! distribution shimmer between toolchains) sweeping sizes 3–7 and two
//! weight regimes: uniform 1–50, and the two-valued {1, 2} shape the
//! diameter-2 reductions produce — the regime the ascent was tuned on.

use dclab_par::Deadline;
use dclab_tsp::exact::brute_force_path;
use dclab_tsp::lowerbound::{path_lower_bound, path_lower_bound_anytime};
use dclab_tsp::mst::prim_mst;
use dclab_tsp::TspInstance;

/// xorshift64* — deterministic across platforms, no external crates.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A symmetric instance with zero diagonal from the case-specific stream.
fn rolled_instance(case: usize, rng: &mut XorShift) -> TspInstance {
    let n = 3 + case % 5; // 3..=7 — brute force stays cheap at 1000 cases
    let two_valued = case.is_multiple_of(3);
    let mut w = vec![0u64; n * n];
    for u in 0..n {
        for v in (u + 1)..n {
            let x = if two_valued {
                1 + rng.next() % 2
            } else {
                1 + rng.next() % 50
            };
            w[u * n + v] = x;
            w[v * n + u] = x;
        }
    }
    TspInstance::from_matrix(n, w)
}

#[test]
fn thousand_case_bound_ladder_differential() {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    for case in 0..1000 {
        let inst = rolled_instance(case, &mut rng);

        // MST ≤ ascended path bound ≤ path optimum.
        let mst = prim_mst(&inst).1;
        let path_ascent = path_lower_bound(&inst, 60);
        let (_, path_opt) = brute_force_path(&inst);
        assert!(
            path_ascent >= mst,
            "case {case}: path ascent {path_ascent} below MST {mst}"
        );
        assert!(
            path_ascent <= path_opt,
            "case {case}: path ascent {path_ascent} exceeds optimum {path_opt}"
        );

        // A single iteration is the π = 0 evaluation: exactly the MST rung.
        let first = path_lower_bound_anytime(&inst, 1, &Deadline::none());
        assert_eq!(
            first.bound, mst,
            "case {case}: first ascent iteration must certify the MST bound"
        );
        assert_eq!(first.iters, 1, "case {case}");
    }
}

#[test]
fn deadline_free_ascent_is_bit_stable() {
    // Deadline::none() performs zero clock reads, so the ascent must land
    // on the identical (bound, iters) pair every run — the determinism the
    // engine's deadline-free report contract builds on.
    let mut rng = XorShift(0xDEAD_BEEF_CAFE_F00D);
    for case in 0..50 {
        let inst = rolled_instance(case, &mut rng);
        let a = path_lower_bound_anytime(&inst, 60, &Deadline::none());
        let b = path_lower_bound_anytime(&inst, 60, &Deadline::none());
        assert_eq!(a, b, "case {case}: deadline-free ascent not deterministic");
    }
}
