//! Property tests over the engine (proptest): `Strategy::Auto` always
//! returns a valid labeling, never beats the `bounds.rs` lower bound, and
//! matches the exact span on small diameter-2 instances — with the
//! reduction computed exactly once per request.

use dclab_core::bounds::span_lower_bound;
use dclab_core::pvec::PVec;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::exact_route;
use dclab_engine::{solve, SolveRequest, Strategy};
use dclab_graph::generators::random;
use dclab_graph::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn diam2_graph(seed: u64, n: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    random::gnp_with_diameter_at_most(&mut rng, n, 0.5, 2)
}

fn smooth_pvec(raw: (u64, u64)) -> PVec {
    let base = 1 + raw.0 % 3;
    let p1 = base + raw.1 % (base + 1); // p1 ∈ [base, 2·base]
    PVec::new(vec![p1, base]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance: Auto == exact span on eligible small diameter-2
    /// instances, reduction computed once (engine stats).
    #[test]
    fn auto_is_exact_on_small_diam2(seed in any::<u64>(), n in 5usize..14, raw in any::<(u64, u64)>()) {
        let g = diam2_graph(seed, n);
        let p = smooth_pvec(raw);
        let exact = exact_route(&reduce_to_path_tsp(&g, &p).unwrap()).unwrap();
        let report = solve(&SolveRequest::new(g.clone(), p.clone())).unwrap();
        prop_assert_eq!(report.solution.span, exact.span);
        prop_assert!(report.optimal);
        prop_assert_eq!(report.stats.reductions_computed, 1);
        prop_assert!(report.solution.labeling.validate(&g, &p).is_ok());
    }

    /// Auto on arbitrary (possibly disconnected / large-diameter) graphs:
    /// always a valid labeling, span sandwiched by the bounds.
    #[test]
    fn auto_valid_and_bounded_on_arbitrary_graphs(seed in any::<u64>(), n in 2usize..16, dens in 0usize..3) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random::gnp(&mut rng, n, [0.2, 0.45, 0.7][dens]);
        let p = PVec::l21();
        let report = solve(&SolveRequest::new(g.clone(), p.clone())).unwrap();
        prop_assert!(report.solution.labeling.validate(&g, &p).is_ok());
        prop_assert!(report.solution.span >= span_lower_bound(&g, &p));
        prop_assert!(report.solution.span >= report.lower_bound);
        prop_assert!(report.stats.reductions_computed <= 1);
        prop_assert!(report.strategy_used != Strategy::Auto);
    }

    /// Non-smooth p: the engine still returns valid labelings with sound
    /// certificates.
    #[test]
    fn auto_handles_non_smooth_p(seed in any::<u64>(), n in 4usize..12, big in 3u64..9) {
        let g = diam2_graph(seed, n);
        let p = PVec::lpq(big, 1).unwrap();
        let report = solve(&SolveRequest::new(g.clone(), p.clone())).unwrap();
        prop_assert!(report.solution.labeling.validate(&g, &p).is_ok());
        prop_assert!(report.solution.span >= report.lower_bound);
    }
}
