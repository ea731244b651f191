//! **Corollary 2**: `L(p,q)`-labeling of diameter-2 graphs via Partition
//! into Paths.
//!
//! On a connected graph of diameter ≤ 2 the reduced TSP weights are
//! two-valued (`p` on edges, `q` on non-edges), so with `s` = minimum path
//! partition:
//!
//! * `p ≤ q`:  `λ = (n−1)·p + (q−p)·(s(G) − 1)`
//! * `p > q`:  `λ = (n−1)·q + (p−q)·(s(Ḡ) − 1)`
//!
//! (Fig. 2 of the paper: the maximal runs of weight-`p` edges along the
//! sorted order are exactly paths of `G`.)

use crate::partition_paths::{cograph::cograph_path_partition, exact_path_partition};
use dclab_graph::diameter::diameter;
use dclab_graph::ops::complement;
use dclab_graph::Graph;

/// How the path-partition number was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipSolver {
    /// Exact subset DP (`n ≤ 20`).
    SubsetDp,
    /// Polynomial cotree DP (exact, cographs only).
    Cotree,
}

/// Errors for the diameter-2 route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Diam2Error {
    /// The graph is disconnected or has diameter > 2.
    NotDiameter2,
    /// `PipSolver::SubsetDp` requested with `n > 20`.
    TooLarge,
    /// `PipSolver::Cotree` requested on a non-cograph.
    NotCograph,
}

/// Result of the Corollary 2 computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diam2Solution {
    /// The optimal span `λ_{p,q}(G)`.
    pub span: u64,
    /// The path-partition number `s` used in the formula (of `G` or `Ḡ`).
    pub partition_size: usize,
    /// Whether the partition was computed on the complement (`p > q` case).
    pub on_complement: bool,
}

/// Solve diameter-2 `L(p,q)`-labeling through PIP.
pub fn solve_diam2_lpq(
    g: &Graph,
    p: u64,
    q: u64,
    solver: PipSolver,
) -> Result<Diam2Solution, Diam2Error> {
    Ok(solve_diam2_impl(g, diameter(g), p, q, solver, false)?.0)
}

/// [`solve_diam2_lpq`] for a caller that knows `diam(G)` (`None` when
/// disconnected), returning a PIP witness alongside the solution: a valid
/// path partition of the target graph (`G` or `Ḡ`), in the order the
/// Fig. 2 labeling construction wants it. The witness is optimal for
/// `SubsetDp` (`paths.len() == partition_size`) and a greedy upper bound
/// for `Cotree` (the cotree DP proves the count; the paths may be more).
/// Everything — the target complement included — is computed once.
pub fn solve_diam2_lpq_with_witness(
    g: &Graph,
    diam: Option<u32>,
    p: u64,
    q: u64,
    solver: PipSolver,
) -> Result<(Diam2Solution, PathPartition), Diam2Error> {
    let (sol, paths) = solve_diam2_impl(g, diam, p, q, solver, true)?;
    Ok((sol, paths.expect("witness requested")))
}

/// A partition of the PIP target's vertices into vertex-disjoint paths.
pub type PathPartition = Vec<Vec<usize>>;

fn solve_diam2_impl(
    g: &Graph,
    diam: Option<u32>,
    p: u64,
    q: u64,
    solver: PipSolver,
    want_witness: bool,
) -> Result<(Diam2Solution, Option<PathPartition>), Diam2Error> {
    let n = g.n() as u64;
    if n == 0 {
        return Ok((
            Diam2Solution {
                span: 0,
                partition_size: 0,
                on_complement: false,
            },
            want_witness.then(Vec::new),
        ));
    }
    match diam {
        Some(d) if d <= 2 => {}
        _ => return Err(Diam2Error::NotDiameter2),
    }
    let (target, on_complement) = if p <= q {
        (g.clone(), false)
    } else {
        (complement(g), true)
    };
    let (s, paths) = match solver {
        PipSolver::SubsetDp => {
            if target.n() > 20 {
                return Err(Diam2Error::TooLarge);
            }
            if want_witness {
                let paths = crate::partition_paths::exact_path_partition_witness(&target);
                (paths.len() as u64, Some(paths))
            } else {
                (exact_path_partition(&target) as u64, None)
            }
        }
        PipSolver::Cotree => {
            let s = cograph_path_partition(&target).ok_or(Diam2Error::NotCograph)? as u64;
            let paths =
                want_witness.then(|| crate::partition_paths::greedy_path_partition(&target));
            (s, paths)
        }
    };
    let span = if p <= q {
        (n - 1) * p + (q - p) * (s - 1)
    } else {
        (n - 1) * q + (p - q) * (s - 1)
    };
    Ok((
        Diam2Solution {
            span,
            partition_size: s as usize,
            on_complement,
        },
        paths,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::reduce_to_path_tsp;
    use crate::routes::exact_route;
    use dclab_graph::generators::{classic, random};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_both_cases() {
        let g = classic::complete(5);
        // p ≤ q: s(K5) = 1 → λ = 4p.
        let a = solve_diam2_lpq(&g, 1, 2, PipSolver::SubsetDp).unwrap();
        assert_eq!(a.span, 4);
        // p > q: complement empty, s = 5 → λ = 4q + (p-q)·4 = 4p.
        let b = solve_diam2_lpq(&g, 2, 1, PipSolver::SubsetDp).unwrap();
        assert_eq!(b.span, 8);
        assert!(b.on_complement);
    }

    #[test]
    fn agrees_with_tsp_route_on_random_diam2() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..15 {
            let g = random::gnp_with_diameter_at_most(&mut rng, 10, 0.5, 2);
            for (p, q) in [(2u64, 1u64), (1, 2), (1, 1), (3, 2), (2, 3), (4, 3)] {
                let pv = crate::pvec::PVec::lpq(p, q).unwrap();
                if !pv.is_smooth() {
                    continue;
                }
                let tsp = exact_route(&reduce_to_path_tsp(&g, &pv).unwrap()).unwrap();
                let pip = solve_diam2_lpq(&g, p, q, PipSolver::SubsetDp).unwrap();
                assert_eq!(pip.span, tsp.span, "trial={trial} p={p} q={q}");
            }
        }
    }

    #[test]
    fn cotree_route_agrees_on_connected_cographs() {
        let mut rng = StdRng::seed_from_u64(32);
        for trial in 0..15 {
            let g = random::random_connected_cograph(&mut rng, 12, 0.5);
            if diameter(&g) != Some(2) && diameter(&g) != Some(1) {
                continue;
            }
            for (p, q) in [(2u64, 1u64), (1, 2)] {
                let a = solve_diam2_lpq(&g, p, q, PipSolver::SubsetDp).unwrap();
                let b = solve_diam2_lpq(&g, p, q, PipSolver::Cotree).unwrap();
                assert_eq!(a, b, "trial={trial} p={p} q={q}");
            }
        }
    }

    #[test]
    fn rejects_large_diameter() {
        let g = classic::path(6);
        assert_eq!(
            solve_diam2_lpq(&g, 2, 1, PipSolver::SubsetDp),
            Err(Diam2Error::NotDiameter2)
        );
    }

    #[test]
    fn rejects_non_cograph_for_cotree() {
        // C5 has diameter 2 but is not a cograph.
        let g = classic::cycle(5);
        assert_eq!(
            solve_diam2_lpq(&g, 2, 1, PipSolver::Cotree),
            Err(Diam2Error::NotCograph)
        );
    }

    #[test]
    fn witness_variant_matches_and_partitions_target() {
        use crate::partition_paths::is_valid_path_partition;
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..8 {
            let g = random::gnp_with_diameter_at_most(&mut rng, 12, 0.5, 2);
            for (p, q) in [(1u64, 2u64), (2, 1)] {
                let plain = solve_diam2_lpq(&g, p, q, PipSolver::SubsetDp).unwrap();
                let (sol, paths) =
                    solve_diam2_lpq_with_witness(&g, diameter(&g), p, q, PipSolver::SubsetDp)
                        .unwrap();
                assert_eq!(sol, plain);
                assert_eq!(paths.len(), sol.partition_size);
                let target = if sol.on_complement {
                    complement(&g)
                } else {
                    g.clone()
                };
                assert!(is_valid_path_partition(&target, &paths));
            }
        }
    }

    #[test]
    fn star_l21_known_value() {
        // λ_{2,1}(K_{1,m}) = m + 1; star(6) has m = 5 leaves.
        let g = classic::star(6);
        let sol = solve_diam2_lpq(&g, 2, 1, PipSolver::SubsetDp).unwrap();
        assert_eq!(sol.span, 6);
    }
}
