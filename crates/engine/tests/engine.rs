//! Engine acceptance tests (the ISSUE-1 criteria): `Auto` validity and
//! exactness, reduction-once stats, batch determinism across thread
//! counts, and strategy coverage.

use dclab_core::bounds::span_lower_bound;
use dclab_core::guard::EXACT_MAX_N;
use dclab_core::hardness::griggs_yeh_reduction;
use dclab_core::pvec::PVec;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes::exact_route;
use dclab_engine::{solve, solve_batch, Budget, EngineError, OraclePolicy, SolveRequest, Strategy};
use dclab_graph::generators::{classic, random};
use dclab_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mixed_corpus() -> Vec<(Graph, PVec)> {
    let mut rng = StdRng::seed_from_u64(2026);
    let mut out: Vec<(Graph, PVec)> = Vec::new();
    // Small diameter-2 instances (exact route).
    for n in [6usize, 9, 12] {
        out.push((
            random::gnp_with_diameter_at_most(&mut rng, n, 0.5, 2),
            PVec::l21(),
        ));
    }
    // Classic families.
    out.push((classic::petersen(), PVec::l21()));
    out.push((classic::complete(8), PVec::lpq(3, 2).unwrap()));
    out.push((classic::star(9), PVec::ones(2)));
    // Beyond the exact guard: benign multipartite + a bigger gnp.
    out.push((classic::complete_multipartite(&[10, 8, 7, 5]), PVec::l21()));
    out.push((
        random::gnp_with_diameter_at_most(&mut rng, 40, 0.5, 2),
        PVec::l21(),
    ));
    // Cograph (PIP cotree route at n > 20).
    out.push((
        random::random_connected_cograph(&mut rng, 30, 0.4),
        PVec::lpq(2, 1).unwrap(),
    ));
    // Non-smooth p and a diameter-3 instance (fallback portfolio).
    out.push((classic::cycle(5), PVec::lpq(7, 1).unwrap()));
    out.push((classic::grid(3, 3), PVec::new(vec![2, 1, 1]).unwrap()));
    // Disconnected.
    out.push((Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]), PVec::l21()));
    out.extend(lk_leg_instances(&mut rng));
    out
}

/// Smooth, reducible instances past the exact guard and outside the
/// two-valued regime, so `Auto` ends on its chained-LK leg: G(n,p) with
/// diameter ≤ 3 under p = (4,3,2), diameter-2 G(n,p) under p = (2,1,1),
/// and Griggs–Yeh (Theorem 3) instances under p = (4,3,2).
fn lk_leg_instances(rng: &mut StdRng) -> Vec<(Graph, PVec)> {
    let p432 = PVec::new(vec![4, 3, 2]).unwrap();
    let p211 = PVec::new(vec![2, 1, 1]).unwrap();
    let mut out = Vec::new();
    for (n, density) in [(30usize, 0.3), (120, 0.16), (250, 0.13)] {
        out.push((
            random::gnp_with_diameter_at_most(rng, n, density, 3),
            p432.clone(),
        ));
        out.push((
            random::gnp_with_diameter_at_most(rng, n, 0.5, 2),
            p211.clone(),
        ));
        let h = griggs_yeh_reduction(&random::gnp(rng, n - 1, 0.5));
        out.push((h, p432.clone()));
    }
    out
}

#[test]
fn auto_always_valid_and_above_lower_bound() {
    for (i, (g, p)) in mixed_corpus().into_iter().enumerate() {
        let report = solve(&SolveRequest::new(g.clone(), p.clone()))
            .unwrap_or_else(|e| panic!("instance {i}: {e}"));
        assert!(
            report.solution.labeling.validate(&g, &p).is_ok(),
            "instance {i} invalid"
        );
        assert_eq!(report.solution.span, report.solution.labeling.span());
        assert!(
            report.solution.span >= span_lower_bound(&g, &p),
            "instance {i}: span {} below bounds.rs lower bound {}",
            report.solution.span,
            span_lower_bound(&g, &p)
        );
        assert!(report.solution.span >= report.lower_bound);
        assert_ne!(report.strategy_used, Strategy::Auto);
        assert!(
            report.stats.reductions_computed <= 1,
            "instance {i}: reduction computed {} times",
            report.stats.reductions_computed
        );
        assert!(!report.stats.routes_tried.is_empty());
        assert!(
            !report.stats.routes_tried.contains(&Strategy::Approx15),
            "instance {i}: Auto ran Christofides"
        );
    }
}

#[test]
fn auto_lk_leg_is_the_heuristic_strategy() {
    let mut lk_legs = 0;
    for (i, (g, p)) in mixed_corpus().into_iter().enumerate() {
        let run = |strategy| {
            solve(&SolveRequest::new(g.clone(), p.clone()).with_strategy(strategy))
                .unwrap_or_else(|e| panic!("instance {i} {strategy}: {e}"))
        };
        let auto = run(Strategy::Auto);
        // The shape Auto sends straight to chained LK.
        let f = &auto.stats.features;
        if !(f.reducible() && f.smooth && !f.two_valued && f.n > EXACT_MAX_N) {
            continue;
        }
        lk_legs += 1;
        let lk = run(Strategy::Heuristic);
        assert_eq!(
            (auto.strategy_used, auto.solution.span, auto.lower_bound),
            (lk.strategy_used, lk.solution.span, lk.lower_bound),
            "instance {i}: Auto's LK leg differs from Strategy::Heuristic"
        );
        // Auto leaves Christofides out because it never beats chained LK
        // here; this fails the day an LK change lets it.
        let approx = run(Strategy::Approx15);
        assert!(
            approx.solution.span >= auto.solution.span,
            "instance {i} (n={}): Christofides {} beat Auto {}",
            g.n(),
            approx.solution.span,
            auto.solution.span
        );
    }
    assert_eq!(lk_legs, 9, "LK-leg instances in the corpus");
}

#[test]
fn auto_matches_exact_on_small_diam2_instances() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut checked = 0;
    for trial in 0..20 {
        let n = 5 + trial % (EXACT_MAX_N - 10);
        let g = random::gnp_with_diameter_at_most(&mut rng, n, 0.5, 2);
        for p in [PVec::l21(), PVec::lpq(3, 2).unwrap(), PVec::ones(2)] {
            let exact = exact_route(&reduce_to_path_tsp(&g, &p).unwrap()).unwrap();
            let report = solve(&SolveRequest::new(g.clone(), p.clone())).unwrap();
            assert_eq!(
                report.solution.span, exact.span,
                "trial {trial} n={n} {p}: auto span {} != exact {}",
                report.solution.span, exact.span
            );
            assert!(
                report.optimal,
                "trial {trial}: exact result not marked optimal"
            );
            // The reduction must have been computed exactly once.
            assert_eq!(report.stats.reductions_computed, 1, "trial {trial}");
            checked += 1;
        }
    }
    assert!(checked >= 30);
}

#[test]
fn auto_closes_benign_instances_past_exact_guard() {
    // n = 30 > EXACT_MAX_N, non-cograph multipartite: Auto goes through
    // branch and bound and still proves optimality (Corollary 2 closed
    // form gives 32).
    let g = classic::complete_multipartite(&[10, 8, 7, 5]);
    let report = solve(&SolveRequest::new(g, PVec::l21())).unwrap();
    assert_eq!(report.solution.span, 32);
    assert!(report.optimal);
    assert_eq!(report.stats.reductions_computed, 1);
}

#[test]
fn batch_is_bit_identical_across_thread_counts() {
    let requests: Vec<SolveRequest> = mixed_corpus()
        .into_iter()
        .map(|(g, p)| SolveRequest::new(g, p))
        .collect();
    assert!(requests.len() >= 8, "acceptance needs ≥ 8 mixed instances");

    let json_at = |threads: &str| -> Vec<String> {
        std::env::set_var("DCLAB_THREADS", threads);
        let out = solve_batch(&requests)
            .into_iter()
            .map(|r| match r {
                Ok(rep) => rep.to_json(),
                Err(e) => format!("error: {e}"),
            })
            .collect();
        std::env::remove_var("DCLAB_THREADS");
        out
    };
    let one = json_at("1");
    let eight = json_at("8");
    assert_eq!(one, eight, "batch output depends on thread count");
}

#[test]
fn deadline_free_solves_read_no_clock_and_stay_bit_identical() {
    // The determinism contract behind the bit-identical batch test above:
    // with `deadline_ms: None` the engine takes the zero-clock-read path —
    // the bound certificate reports `time_us == 0` — and the *binary*
    // encoding (strictly tighter than JSON: it round-trips every stats
    // field) is identical across repeated solves and thread counts.
    let corpus = mixed_corpus();
    let bytes_at = |threads: &str| -> Vec<Vec<u8>> {
        std::env::set_var("DCLAB_THREADS", threads);
        let out = corpus
            .iter()
            .map(|(g, p)| {
                let report = solve(&SolveRequest::new(g.clone(), p.clone())).unwrap();
                assert_eq!(
                    report.stats.bound.time_us, 0,
                    "deadline-free solve read the clock for its bound"
                );
                assert_eq!(report.lower_bound, report.stats.bound.value);
                report.to_bytes()
            })
            .collect();
        std::env::remove_var("DCLAB_THREADS");
        out
    };
    let one = bytes_at("1");
    assert_eq!(one, bytes_at("8"), "binary reports depend on thread count");
    assert_eq!(one, bytes_at("1"), "repeated solves differ");

    // The same holds for the racing portfolio, whose member *order* is the
    // deadline-free scheduling policy frozen for bit-compatibility.
    let mut rng = StdRng::seed_from_u64(424);
    let g = random::gnp_with_diameter_at_most(&mut rng, 40, 0.5, 2);
    let race = |threads: &str| -> Vec<u8> {
        std::env::set_var("DCLAB_THREADS", threads);
        let report =
            solve(&SolveRequest::new(g.clone(), PVec::l21()).with_strategy(Strategy::Race))
                .unwrap();
        std::env::remove_var("DCLAB_THREADS");
        assert_eq!(report.stats.bound.time_us, 0);
        report.to_bytes()
    };
    assert_eq!(race("1"), race("8"), "race reports depend on thread count");
}

#[test]
fn explicit_strategies_agree_on_petersen() {
    let g = classic::petersen();
    let p = PVec::l21();
    for (strategy, want_span) in [
        (Strategy::Exact, Some(9)),
        (Strategy::BranchBound, Some(9)),
        (Strategy::Approx15, None),
        (Strategy::Heuristic, None),
        (Strategy::Greedy, None),
    ] {
        let report = solve(&SolveRequest::new(g.clone(), p.clone()).with_strategy(strategy))
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert_eq!(report.strategy_used, strategy);
        assert!(report.solution.labeling.validate(&g, &p).is_ok());
        match want_span {
            Some(s) => assert_eq!(report.solution.span, s, "{strategy}"),
            None => assert!(report.solution.span >= 9, "{strategy}"),
        }
    }
}

#[test]
fn diam2_pip_route_produces_optimal_labeling_with_witness() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..6 {
        let g = random::gnp_with_diameter_at_most(&mut rng, 14, 0.5, 2);
        let p = PVec::lpq(2, 1).unwrap();
        let exact = exact_route(&reduce_to_path_tsp(&g, &p).unwrap()).unwrap();
        let report =
            solve(&SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::Diam2Pip))
                .unwrap();
        assert_eq!(report.strategy_used, Strategy::Diam2Pip);
        assert_eq!(report.solution.span, exact.span);
        assert_eq!(report.lower_bound, exact.span);
        assert!(report.optimal);
        assert!(report.solution.labeling.validate(&g, &p).is_ok());
    }
}

#[test]
fn diam2_pip_rejects_wrong_shapes() {
    // k != 2.
    let r = solve(
        &SolveRequest::new(classic::petersen(), PVec::ones(3)).with_strategy(Strategy::Diam2Pip),
    );
    assert!(matches!(r, Err(EngineError::Unsupported { .. })));
    // Diameter 3.
    let r = solve(
        &SolveRequest::new(classic::grid(3, 3), PVec::l21()).with_strategy(Strategy::Diam2Pip),
    );
    assert!(matches!(r, Err(EngineError::Unsupported { .. })));
}

#[test]
fn l1_route_is_exact_coloring_on_small_all_ones() {
    // L(1,1) on Petersen = χ(G²) − 1; G² = K10 for Petersen, so span 9.
    let g = classic::petersen();
    let p = PVec::ones(2);
    let report =
        solve(&SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::L1Coloring))
            .unwrap();
    assert_eq!(report.solution.span, 9);
    assert!(report.optimal);
    assert!(report.solution.labeling.validate(&g, &p).is_ok());
}

#[test]
fn guard_errors_flow_through_single_error_type() {
    let big = classic::complete(30);
    let r = solve(&SolveRequest::new(big.clone(), PVec::l21()).with_strategy(Strategy::Exact));
    assert!(matches!(
        r,
        Err(EngineError::Guard(
            dclab_core::guard::GuardError::TooLargeForExact { n: 30, .. }
        ))
    ));
    let r = solve(
        &SolveRequest::new(classic::petersen(), PVec::l21())
            .with_strategy(Strategy::BranchBound)
            .with_budget(Budget {
                node_budget: Some(3),
                ..Budget::default()
            }),
    );
    assert!(matches!(
        r,
        Err(EngineError::Guard(
            dclab_core::guard::GuardError::BudgetExhausted { node_budget: 3 }
        ))
    ));
}

#[test]
fn restarts_past_the_guard_are_refused() {
    use dclab_core::guard::{GuardError, MAX_RESTARTS};
    let solve_with = |restarts| {
        let budget = Budget {
            restarts: Some(restarts),
            ..Budget::default()
        };
        let req = SolveRequest::new(classic::petersen(), PVec::l21());
        solve(&req.with_strategy(Strategy::Heuristic).with_budget(budget))
    };
    let accepted = solve_with(MAX_RESTARTS).expect("the guard's maximum is accepted");
    assert_eq!(accepted.solution.span, 9);
    let (restarts, max) = (MAX_RESTARTS + 1, MAX_RESTARTS);
    let refused = GuardError::TooManyRestarts { restarts, max };
    assert_eq!(solve_with(restarts), Err(EngineError::Guard(refused)));
}

#[test]
fn trivial_instances() {
    for n in [0usize, 1] {
        let report = solve(&SolveRequest::new(Graph::new(n), PVec::l21())).unwrap();
        assert_eq!(report.solution.span, 0);
        assert!(report.optimal);
    }
}

#[test]
fn report_json_is_parseable_shape() {
    let report = solve(&SolveRequest::new(classic::petersen(), PVec::l21())).unwrap();
    let j = report.to_json();
    assert!(j.starts_with('{') && j.ends_with('}'));
    assert!(j.contains("\"span\":9"));
    assert!(j.contains("\"strategy_used\":\"exact\""));
    assert!(j.contains("\"reductions_computed\":1"));
    assert!(!j.contains('\n'));
}

/// Corollary 2 through the oracle path: the 64 core vertices of a
/// core–periphery graph are universal, so the cheap certificate is
/// (n−1)·p₂ + 64·(p₁−p₂), which meets the served span. Dense and hub
/// backends report the same bytes apart from the backend-shape stats.
#[test]
fn oracle_path_proves_core_periphery_optimal() {
    let (n, core) = (2000u64, 64u64);
    let mut rng = StdRng::seed_from_u64(0);
    let g = random::core_periphery(&mut rng, n as usize, core as usize, 0.0);
    for p in [
        PVec::l21(),
        PVec::lpq(3, 2).unwrap(),
        PVec::new(vec![4, 3, 2]).unwrap(),
    ] {
        let (p1, p2) = (p.at_distance(1), p.at_distance(2));
        let want = (n - 1) * p2 + core * (p1 - p2);
        let base = SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::OraclePath);
        let mut json = Vec::new();
        for policy in [OraclePolicy::Dense, OraclePolicy::Hub] {
            let mut report = solve(&base.clone().with_oracle(policy)).unwrap();
            assert_eq!(report.lower_bound, want, "{p} {policy}");
            assert_eq!(report.solution.span, want, "{p} {policy}");
            assert!(report.optimal, "{p} {policy}");
            let j = report.to_json();
            assert!(
                j.contains("\"kind\":\"proved-optimal\""),
                "{p} {policy}: {j}"
            );
            assert!(j.contains("\"diameter\":2"), "{p} {policy}: {j}");
            let oracle = report.stats.oracle.take().expect("oracle stats");
            assert_eq!(oracle.backend, policy.to_string());
            json.push((report.to_json(), oracle.queries));
        }
        assert_eq!(json[0], json[1], "{p}: dense and hub reports differ");
    }
}
