//! **Theorem 4 / Corollary 3**: `L(1,…,1)`-labeling via coloring of `G^k`,
//! and the resulting `p_max`-approximation for general `L(p)`.
//!
//! `L(1^k)`-labeling of `G` is proper coloring of the power graph `G^k`
//! with span `χ(G^k) − 1`. For bounded modular-width inputs,
//! `nd(G^k) ≤ nd(G²) ≤ mw(G)` (Prop. 2), so the nd-parameterized coloring
//! solver of [`crate::coloring::nd_fpt`] runs in FPT time — and scaling any
//! `L(1^k)`-labeling by `p_max` gives an `L(p)`-labeling within a factor
//! `p_max` of optimal (Corollary 3).

use crate::coloring::{chromatic_number_exact, chromatic_number_nd, dsatur_coloring};
use crate::labeling::Labeling;
use crate::pvec::PVec;
use crate::routes::Solution;
use dclab_graph::ops::power;
use dclab_graph::Graph;

/// Which coloring engine to use on `G^k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1Engine {
    /// DSATUR (heuristic upper bound).
    Dsatur,
    /// Exact branch and bound.
    Exact,
    /// Exact via the neighborhood-diversity FPT covering program.
    NdFpt,
}

/// Solve `L(1^k)`-labeling: returns the labeling (labels are colors) and
/// its span. Exact engines return `λ_{1^k}(G) = χ(G^k) − 1`.
pub fn solve_l1(g: &Graph, k: usize, engine: L1Engine) -> (Labeling, u64) {
    assert!(k >= 1);
    if g.n() == 0 {
        return (Labeling::new(vec![]), 0);
    }
    let gk = power(g, k as u32);
    let colors: Vec<u32> = match engine {
        L1Engine::Dsatur => dsatur_coloring(&gk),
        L1Engine::Exact => {
            let chi = chromatic_number_exact(&gk);
            color_with_chi(&gk, chi)
        }
        L1Engine::NdFpt => {
            let chi = chromatic_number_nd(&gk);
            color_with_chi(&gk, chi)
        }
    };
    let labels: Vec<u64> = colors.iter().map(|&c| c as u64).collect();
    let labeling = Labeling::new(labels);
    let span = labeling.span();
    (labeling, span)
}

/// Produce an explicit proper coloring with exactly `chi` colors (DSATUR if
/// it already achieves `chi`, otherwise exact backtracking).
fn color_with_chi(gk: &Graph, chi: usize) -> Vec<u32> {
    let dsatur = dsatur_coloring(gk);
    if crate::coloring::color_count(&dsatur) == chi {
        return dsatur;
    }
    // Retry exact search bound by chi; chromatic_number_exact proved it
    // feasible, so this must succeed.
    exact_coloring_with(gk, chi).expect("chi colors must suffice")
}

fn exact_coloring_with(g: &Graph, k: usize) -> Option<Vec<u32>> {
    let n = g.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut colors = vec![u32::MAX; n];
    fn rec(
        g: &Graph,
        order: &[usize],
        idx: usize,
        k: u32,
        colors: &mut Vec<u32>,
        max_used: u32,
    ) -> bool {
        if idx == order.len() {
            return true;
        }
        let v = order[idx];
        let mut forbidden = 0u64;
        for &u in g.neighbors(v) {
            let c = colors[u as usize];
            if c != u32::MAX && c < 64 {
                forbidden |= 1 << c;
            }
        }
        let limit = (max_used + 1).min(k);
        for c in 0..limit {
            if forbidden & (1 << c) != 0 {
                continue;
            }
            colors[v] = c;
            if rec(g, order, idx + 1, k, colors, max_used.max(c + 1)) {
                return true;
            }
            colors[v] = u32::MAX;
        }
        false
    }
    if rec(g, &order, 0, k as u32, &mut colors, 0) {
        Some(colors)
    } else {
        None
    }
}

/// **Corollary 3**: `p_max`-approximate `L(p)`-labeling by scaling an
/// optimal `L(1^k)`-labeling by `p_max`. Valid on any graph.
pub fn solve_pmax_approx(g: &Graph, p: &PVec, engine: L1Engine) -> Solution {
    let _span = dclab_trace::current().span("l1");
    let (l1, _) = solve_l1(g, p.k(), engine);
    let pmax = p.pmax();
    let labels: Vec<u64> = l1.labels().iter().map(|&c| c * pmax).collect();
    Solution::from_labeling(Labeling::new(labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::exact::exact_labeling_bruteforce;
    use dclab_graph::generators::{classic, random};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn l1_on_path_is_coloring_of_power() {
        // L(1,1) on P5: χ(P5²) = 3 → span 2.
        let (l, span) = solve_l1(&classic::path(5), 2, L1Engine::Exact);
        assert_eq!(span, 2);
        assert!(l.validate(&classic::path(5), &PVec::ones(2)).is_ok());
    }

    #[test]
    fn engines_ordered_by_quality() {
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..6 {
            let g = random::gnp(&mut rng, 12, 0.3);
            let (_, exact) = solve_l1(&g, 2, L1Engine::Exact);
            let (_, nd) = solve_l1(&g, 2, L1Engine::NdFpt);
            let (_, dsatur) = solve_l1(&g, 2, L1Engine::Dsatur);
            assert_eq!(exact, nd);
            assert!(dsatur >= exact);
        }
    }

    #[test]
    fn l1_matches_generic_exact_labeler() {
        let mut rng = StdRng::seed_from_u64(52);
        for k in 1..=3usize {
            let g = random::gnp(&mut rng, 7, 0.35);
            let p = PVec::ones(k);
            let (_, via_coloring) = solve_l1(&g, k, L1Engine::Exact);
            let (_, generic) = exact_labeling_bruteforce(&g, &p);
            assert_eq!(via_coloring, generic, "k={k}");
        }
    }

    #[test]
    fn pmax_approx_is_valid_and_within_factor() {
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..6 {
            let g = random::gnp(&mut rng, 8, 0.4);
            let p = PVec::l21();
            let approx = solve_pmax_approx(&g, &p, L1Engine::Exact);
            assert!(approx.labeling.validate(&g, &p).is_ok());
            let (_, opt) = exact_labeling_bruteforce(&g, &p);
            assert!(approx.span >= opt);
            assert!(
                approx.span <= p.pmax() * opt.max(1),
                "factor breach: {} vs {}",
                approx.span,
                opt
            );
        }
    }

    #[test]
    fn labels_are_multiples_of_pmax() {
        let g = classic::petersen();
        let p = PVec::l21();
        let approx = solve_pmax_approx(&g, &p, L1Engine::Dsatur);
        assert!(approx.labeling.labels().iter().all(|l| l % 2 == 0));
    }
}
