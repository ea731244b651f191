//! End-to-end integration tests across all workspace crates:
//! generators → reduction → TSP solvers → labeling recovery → validation.

use dclab::core::baseline::exact::exact_labeling_bruteforce;
use dclab::core::diam2::{solve_diam2_lpq, PipSolver};
use dclab::core::guard::GuardError;
use dclab::core::l1::{solve_l1, L1Engine};
use dclab::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn diam2_graph(rng: &mut StdRng, n: usize) -> Graph {
    dclab::graph::generators::random::gnp_with_diameter_at_most(rng, n, 0.5, 2)
}

/// One engine solve over an explicit route.
fn solve_with(g: &Graph, p: &PVec, strategy: Strategy) -> Result<Solution, EngineError> {
    let req = SolveRequest::new(g.clone(), p.clone()).with_strategy(strategy);
    solve(&req).map(|report| report.solution)
}

#[test]
fn full_pipeline_agreement_ladder() {
    // exact == independent oracle ≤ approx ≤ 1.5·exact; heuristic ≥ exact;
    // all labelings valid.
    let mut rng = StdRng::seed_from_u64(1001);
    for trial in 0..8 {
        let g = diam2_graph(&mut rng, 9);
        for p in [PVec::l21(), PVec::lpq(3, 2).unwrap(), PVec::ones(2)] {
            let exact = solve_with(&g, &p, Strategy::Exact).unwrap();
            let (_, oracle) = exact_labeling_bruteforce(&g, &p);
            assert_eq!(exact.span, oracle, "trial={trial} {p}");
            let approx = solve_with(&g, &p, Strategy::Approx15).unwrap();
            let heur = solve_with(&g, &p, Strategy::Heuristic).unwrap();
            let greedy = solve_with(&g, &p, Strategy::Greedy).unwrap();
            for sol in [&exact, &approx, &heur, &greedy] {
                assert!(sol.labeling.validate(&g, &p).is_ok());
                assert_eq!(sol.labeling.span(), sol.span);
            }
            assert!(exact.span <= approx.span && 2 * approx.span <= 3 * exact.span);
            assert!(exact.span <= heur.span);
            assert!(exact.span <= greedy.span);
        }
    }
}

#[test]
fn reduction_span_invariant_under_relabeling() {
    let mut rng = StdRng::seed_from_u64(1002);
    for _ in 0..6 {
        let g = diam2_graph(&mut rng, 10);
        let perm = dclab::graph::generators::random::random_permutation(&mut rng, 10);
        let h = g.relabeled(&perm);
        let p = PVec::l21();
        assert_eq!(
            solve_with(&g, &p, Strategy::Exact).unwrap().span,
            solve_with(&h, &p, Strategy::Exact).unwrap().span
        );
    }
}

#[test]
fn diam2_pip_and_tsp_routes_agree_both_orders() {
    let mut rng = StdRng::seed_from_u64(1003);
    for _ in 0..6 {
        let g = diam2_graph(&mut rng, 10);
        // p ≤ q and p > q (both smooth).
        for (p, q) in [(1u64, 2u64), (2, 1), (2, 2), (3, 2), (2, 3), (4, 4)] {
            let pv = PVec::lpq(p, q).unwrap();
            if !pv.is_smooth() {
                continue;
            }
            let tsp = solve_with(&g, &pv, Strategy::Exact).unwrap();
            let pip = solve_diam2_lpq(&g, p, q, PipSolver::SubsetDp).unwrap();
            assert_eq!(tsp.span, pip.span, "p={p} q={q}");
        }
    }
}

#[test]
fn l1_route_agrees_with_tsp_route_on_diam2() {
    // L(1,1) on diameter-2 graphs: coloring of G² == TSP reduction.
    let mut rng = StdRng::seed_from_u64(1004);
    for _ in 0..6 {
        let g = diam2_graph(&mut rng, 9);
        let p = PVec::ones(2);
        let via_tsp = solve_with(&g, &p, Strategy::Exact).unwrap();
        let (_, via_coloring) = solve_l1(&g, 2, L1Engine::Exact);
        let (_, via_nd) = solve_l1(&g, 2, L1Engine::NdFpt);
        assert_eq!(via_tsp.span, via_coloring);
        assert_eq!(via_tsp.span, via_nd);
    }
}

#[test]
fn error_paths_are_reported() {
    let p = PVec::l21();
    // Disconnected.
    let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
    assert!(matches!(
        solve_with(&g, &p, Strategy::Exact),
        Err(EngineError::Reduction(_))
    ));
    // Diameter too large.
    let path = dclab::graph::generators::classic::path(6);
    assert!(matches!(
        solve_with(&path, &p, Strategy::Exact),
        Err(EngineError::Reduction(_))
    ));
    // Non-smooth p.
    let star = dclab::graph::generators::classic::star(5);
    let bad_p = PVec::lpq(7, 1).unwrap();
    assert!(matches!(
        solve_with(&star, &bad_p, Strategy::Exact),
        Err(EngineError::Reduction(_))
    ));
}

#[test]
fn scaling_identity_lambda_cp_equals_c_lambda_p() {
    // λ_{c·p} = c·λ_p (used by Corollary 3's proof).
    let mut rng = StdRng::seed_from_u64(1005);
    for _ in 0..5 {
        let g = diam2_graph(&mut rng, 8);
        let p = PVec::l21();
        let base = solve_with(&g, &p, Strategy::Exact).unwrap().span;
        for c in [2u64, 3, 5] {
            let scaled = p.scaled(c).unwrap();
            let got = solve_with(&g, &scaled, Strategy::Exact).unwrap().span;
            assert_eq!(got, c * base, "c={c}");
        }
    }
}

#[test]
fn heuristic_solves_sizes_exact_cannot() {
    let mut rng = StdRng::seed_from_u64(1006);
    let g = dclab::graph::generators::random::gnp_with_diameter_at_most(&mut rng, 120, 0.35, 2);
    let p = PVec::l21();
    assert!(matches!(
        solve_with(&g, &p, Strategy::Exact),
        Err(EngineError::Guard(GuardError::TooLargeForExact { .. }))
    ));
    let heur = solve_with(&g, &p, Strategy::Heuristic).unwrap();
    assert!(heur.labeling.validate(&g, &p).is_ok());
    // Lower bound: (n-1)·p_min.
    assert!(heur.span >= (g.n() as u64 - 1) * p.pmin());
}

#[test]
fn all_p_dimensions_work_when_diameter_allows() {
    let mut rng = StdRng::seed_from_u64(1007);
    // Watts-Strogatz with diameter ≤ 4, k = 4 constraint vectors.
    for _ in 0..3 {
        let g = dclab::graph::generators::random::watts_strogatz(&mut rng, 13, 4, 0.3);
        let diam = match dclab::graph::diameter::diameter(&g) {
            Some(d) => d,
            None => continue,
        };
        let p = PVec::new(vec![2; diam as usize]).unwrap();
        let sol = solve_with(&g, &p, Strategy::Exact).unwrap();
        assert!(sol.labeling.validate(&g, &p).is_ok());
        // All-equal p: λ = 2·(n-1) exactly (every step costs 2).
        assert_eq!(sol.span, 2 * (g.n() as u64 - 1));
    }
}
