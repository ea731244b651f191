//! The paper's experiment tables, one module each, run as `dclab e1..e8`
//! or `dclab all`: E1 the Theorem 2 reduction and Claim 1 against a
//! brute-force oracle, E2 Held–Karp scaling (Corollary 1a), E3 the
//! 1.5-approximation (Corollary 1b), E4 the heuristics at scale, E5
//! diameter-2 L(p,q) via Partition into Paths (Corollary 2), E6 L(1,1) via
//! colouring G² (Theorem 4), E7 the p_max-approximation (Corollary 3), and
//! E8 ablations. Each table asserts the claim it measures, so a run that
//! exits 0 has checked it.

pub mod e1_reduction;
pub mod e2_exact_scaling;
pub mod e3_approx;
pub mod e4_heuristics;
pub mod e5_diam2;
pub mod e6_l1;
pub mod e7_pmax;
pub mod e8_ablation;

use std::time::Instant;

/// Time a closure, returning (result, milliseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Format milliseconds compactly.
pub fn ms(x: f64) -> String {
    if x < 1.0 {
        format!("{:.3}ms", x)
    } else if x < 1000.0 {
        format!("{:.1}ms", x)
    } else {
        format!("{:.2}s", x / 1e3)
    }
}

pub fn header(title: &str) {
    println!("\n## {title}\n");
}

#[cfg(test)]
mod tests {
    // The quick sweeps, in tier-1: these hold the repo's only checks of
    // E3's ≤ 1.5 ratio against Held–Karp, E5's Corollary 2 equality, E6's
    // nd-FPT = exact, and E7's p_max guarantee.
    #[test]
    fn e1_reduction_matches_the_brute_force_oracle() {
        super::e1_reduction::run(true);
    }

    #[test]
    fn e2_held_karp_matches_the_factorial_oracle() {
        super::e2_exact_scaling::run(true);
    }

    #[test]
    fn e3_approx15_stays_within_its_ratio() {
        super::e3_approx::run(true);
    }

    #[test]
    fn e4_heuristics_never_beat_the_optimum() {
        super::e4_heuristics::run(true);
    }

    #[test]
    fn e5_corollary2_spans_agree() {
        super::e5_diam2::run(true);
    }

    #[test]
    fn e6_nd_fpt_matches_exact() {
        super::e6_l1::run(true);
    }

    #[test]
    fn e7_pmax_guarantee_holds() {
        super::e7_pmax::run(true);
    }

    #[test]
    fn e8_ablations_stay_valid() {
        super::e8_ablation::run(true);
    }
}
