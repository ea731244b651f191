//! Route layer: every TSP-backed solve path, expressed over a *precomputed*
//! [`ReducedInstance`], plus the reduction-free greedy baseline.
//!
//! The `dclab-engine` dispatcher calls these functions, so the Theorem 2
//! reduction is computed once per request and shared across candidate
//! routes instead of being re-derived (APSP and all) on every call. Code
//! that measures or checks a single route reduces once with
//! [`crate::reduction::reduce_to_path_tsp`] and calls the route directly.

use crate::baseline::greedy::best_greedy_span_anytime;
use crate::guard::{check_exact_size, GuardError};
use crate::labeling::Labeling;
use crate::pvec::PVec;
use crate::reduction::{labeling_from_order, ReducedInstance};
use dclab_graph::Graph;
use dclab_par::Deadline;
use dclab_tsp::christofides::christofides_path;
use dclab_tsp::driver::{solve_path_heuristic, HeuristicConfig};
use dclab_tsp::exact::{branch_bound_path_anytime, held_karp_path, BbStatus};
use dclab_tsp::matching::MatchingBackend;
use std::sync::atomic::AtomicU64;

/// A solved `L(p)`-labeling instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// The labeling itself (always valid for the instance it was built on).
    pub labeling: Labeling,
    /// Its span (`labeling.span()`, cached).
    pub span: u64,
    /// The sorted vertex order the labeling realises (the TSP path).
    pub order: Vec<u32>,
}

impl Solution {
    /// Wrap a labeling built without a vertex order: the span and the
    /// sorted order (Claim 1's `π`) are read off the labels.
    pub fn from_labeling(labeling: Labeling) -> Solution {
        let span = labeling.span();
        let order = labeling.sorted_order();
        Solution {
            labeling,
            span,
            order,
        }
    }
}

fn solution_from_order(reduced: &ReducedInstance, order: Vec<u32>, span: u64) -> Solution {
    let labeling = labeling_from_order(reduced, &order);
    debug_assert_eq!(labeling.span(), span);
    Solution {
        span,
        labeling,
        order,
    }
}

/// Exact optimum via Held–Karp (Corollary 1a). Guarded by
/// [`crate::guard::EXACT_MAX_N`].
pub fn exact_route(reduced: &ReducedInstance) -> Result<Solution, GuardError> {
    check_exact_size(reduced.tsp.n())?;
    let _span = dclab_trace::current().span("exact");
    let (order, span) = held_karp_path(&reduced.tsp);
    Ok(solution_from_order(reduced, order, span))
}

/// Anytime MST-bounded branch and bound: always returns the best incumbent
/// as a full, valid labeling, plus how the search ended (`Proved` means
/// optimal). It has no `2^n` memory, so it reaches past
/// [`crate::guard::EXACT_MAX_N`] when the instance is benign.
/// `shared_bound` is the racing portfolio's cross-member incumbent span;
/// `root_bound` is a proven span lower bound that lets the search stop
/// with a proof as soon as the incumbent pool meets it (see
/// `dclab_tsp::exact::branch_bound_path_anytime` for the proof semantics
/// of both).
pub fn branch_bound_route_anytime(
    reduced: &ReducedInstance,
    node_budget: u64,
    deadline: &Deadline,
    shared_bound: Option<&AtomicU64>,
    root_bound: Option<u64>,
) -> (Solution, BbStatus) {
    let r = branch_bound_path_anytime(
        &reduced.tsp,
        node_budget,
        deadline,
        shared_bound,
        root_bound,
    );
    (solution_from_order(reduced, r.order, r.weight), r.status)
}

/// Hoogeveen/Christofides 1.5-approximation (Corollary 1b).
pub fn approx15_route(reduced: &ReducedInstance, backend: MatchingBackend) -> Solution {
    let _span = dclab_trace::current().span("approx15");
    let (order, span) = christofides_path(&reduced.tsp, backend);
    solution_from_order(reduced, order, span)
}

/// Multi-start chained-LK heuristic (paper §I-A practical route).
pub fn heuristic_route(reduced: &ReducedInstance, cfg: &HeuristicConfig) -> Solution {
    let (order, span) = solve_path_heuristic(&reduced.tsp, cfg);
    solution_from_order(reduced, order, span)
}

/// Greedy first-fit baseline: no reduction, so any graph and any `p`. The
/// deadline is checked between candidate vertex orders, so the result is
/// always a complete valid labeling, just possibly from fewer orders.
pub fn greedy_route(g: &Graph, p: &PVec, deadline: &Deadline) -> Solution {
    let _span = dclab_trace::current().span("greedy");
    let (labeling, _) = best_greedy_span_anytime(g, p, deadline);
    Solution::from_labeling(labeling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::exact::exact_labeling_bruteforce;
    use crate::reduction::reduce_to_path_tsp;
    use dclab_graph::generators::{classic, random};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_routes_share_one_reduction() {
        let g = classic::petersen();
        let p = PVec::l21();
        let reduced = reduce_to_path_tsp(&g, &p).unwrap();
        let exact = exact_route(&reduced).unwrap();
        let (bb, status) =
            branch_bound_route_anytime(&reduced, u64::MAX, &Deadline::none(), None, None);
        let approx = approx15_route(&reduced, MatchingBackend::Auto);
        let heur = heuristic_route(&reduced, &HeuristicConfig::default());
        assert_eq!(exact.span, 9);
        assert_eq!((bb.span, status), (9, BbStatus::Proved));
        for sol in [&exact, &bb, &approx, &heur] {
            assert!(sol.labeling.validate(&g, &p).is_ok());
            assert!(sol.span >= 9);
        }
    }

    #[test]
    fn exact_matches_independent_oracle() {
        let mut rng = StdRng::seed_from_u64(10);
        let ps = [
            PVec::l21(),
            PVec::ones(2),
            PVec::new(vec![3, 2]).unwrap(),
            PVec::new(vec![2, 2]).unwrap(),
        ];
        // Wheels are a polynomial class in the paper's survey; W6 rides
        // along with the random corpus.
        let mut corpus = vec![classic::wheel(6)];
        corpus.extend((0..30).map(|_| random::gnp(&mut rng, 7, 0.5)));
        let mut checked = 0;
        for g in &corpus {
            for p in &ps {
                // Disconnected or diameter > 2: outside Theorem 2.
                let Ok(reduced) = reduce_to_path_tsp(g, p) else {
                    continue;
                };
                let sol = exact_route(&reduced).unwrap();
                let (_, want) = exact_labeling_bruteforce(g, p);
                assert_eq!(sol.span, want);
                assert!(sol.labeling.validate(g, p).is_ok());
                checked += 1;
            }
        }
        assert!(checked > 10, "too few eligible samples: {checked}");
    }

    #[test]
    fn exact_route_is_guarded() {
        let g = classic::complete(30);
        let reduced = reduce_to_path_tsp(&g, &PVec::l21()).unwrap();
        assert!(matches!(
            exact_route(&reduced),
            Err(GuardError::TooLargeForExact { n: 30, .. })
        ));
    }

    #[test]
    fn approx_within_ratio_and_valid() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let g = random::gnp_with_diameter_at_most(&mut rng, 12, 0.5, 2);
            let p = PVec::l21();
            let reduced = reduce_to_path_tsp(&g, &p).unwrap();
            let exact = exact_route(&reduced).unwrap();
            let approx = approx15_route(&reduced, MatchingBackend::Auto);
            assert!(approx.labeling.validate(&g, &p).is_ok());
            assert!(approx.span >= exact.span);
            assert!(
                2 * approx.span <= 3 * exact.span,
                "ratio breach: {} vs {}",
                approx.span,
                exact.span
            );
        }
    }

    #[test]
    fn heuristic_valid_and_close() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = random::gnp_with_diameter_at_most(&mut rng, 14, 0.5, 2);
        let p = PVec::l21();
        let reduced = reduce_to_path_tsp(&g, &p).unwrap();
        let exact = exact_route(&reduced).unwrap();
        let heur = heuristic_route(&reduced, &HeuristicConfig::default());
        assert!(heur.labeling.validate(&g, &p).is_ok());
        assert!(heur.span >= exact.span);
        assert!(heur.span <= exact.span + exact.span / 4 + 2);
    }

    #[test]
    fn greedy_upper_bounds_exact() {
        let g = classic::petersen();
        let p = PVec::l21();
        let greedy = greedy_route(&g, &p, &Deadline::none());
        assert!(greedy.labeling.validate(&g, &p).is_ok());
        assert_eq!(greedy.span, greedy.labeling.span());
        assert_eq!(greedy.order, greedy.labeling.sorted_order());
        let exact = exact_route(&reduce_to_path_tsp(&g, &p).unwrap()).unwrap();
        assert!(greedy.span >= exact.span);
    }

    #[test]
    fn branch_bound_route_matches_held_karp() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..6 {
            let g = random::gnp_with_diameter_at_most(&mut rng, 12, 0.5, 2);
            let p = PVec::l21();
            let reduced = reduce_to_path_tsp(&g, &p).unwrap();
            let hk = exact_route(&reduced).unwrap();
            let (bb, status) =
                branch_bound_route_anytime(&reduced, u64::MAX, &Deadline::none(), None, None);
            assert_eq!(status, BbStatus::Proved, "unbounded budget");
            assert_eq!(bb.span, hk.span);
            assert!(bb.labeling.validate(&g, &p).is_ok());
        }
    }

    #[test]
    fn branch_bound_reaches_past_held_karp_guard() {
        // n = 30 > EXACT_MAX_N. On complete multipartite instances the MST
        // completion bound is tight and the NN incumbent is optimal, so the
        // search collapses immediately despite the size.
        let g = classic::complete_multipartite(&[10, 8, 7, 5]);
        let p = PVec::l21();
        let reduced = reduce_to_path_tsp(&g, &p).unwrap();
        assert!(exact_route(&reduced).is_err());
        let (bb, status) =
            branch_bound_route_anytime(&reduced, 10_000_000, &Deadline::none(), None, None);
        assert_eq!(status, BbStatus::Proved, "benign instance within budget");
        assert!(bb.labeling.validate(&g, &p).is_ok());
        // Corollary 2 closed form: (n−1)·q + (p−q)·(t−1) = 29 + 3.
        assert_eq!(bb.span, 32);
    }

    #[test]
    fn branch_bound_route_reports_budget() {
        let g = classic::petersen();
        let p = PVec::l21();
        let reduced = reduce_to_path_tsp(&g, &p).unwrap();
        // A node budget too small to prove optimality: the search reports
        // the exhausted budget and still hands back a complete, valid
        // labeling.
        let (sol, status) = branch_bound_route_anytime(&reduced, 3, &Deadline::none(), None, None);
        assert_eq!(status, BbStatus::BudgetExhausted);
        assert!(sol.labeling.validate(&g, &p).is_ok());
        assert!(sol.span >= 9);
    }

    #[test]
    fn anytime_branch_bound_surrenders_a_valid_incumbent() {
        let g = classic::petersen();
        let p = PVec::l21();
        let reduced = reduce_to_path_tsp(&g, &p).unwrap();
        // An expired deadline stops the search at once, and the route still
        // hands back a complete, valid labeling (an exhausted node budget
        // does the same: see `branch_bound_route_reports_budget`).
        let token = dclab_par::CancelToken::new();
        token.cancel();
        let dl = Deadline::none().with_token(token);
        let (sol, status) = branch_bound_route_anytime(&reduced, u64::MAX, &dl, None, None);
        assert_eq!(status, BbStatus::Cancelled);
        assert!(sol.labeling.validate(&g, &p).is_ok());
    }
}
