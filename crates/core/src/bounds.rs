//! Lower bounds on `λ_p(G)` — certificates for heuristic solutions at
//! sizes where exact search is impossible.

use crate::pvec::PVec;
use dclab_graph::diameter::diameter;
use dclab_graph::Graph;
use dclab_par::Deadline;
use dclab_tsp::mst::prim_mst;
use std::fmt;

/// How a span lower bound was certified, as a strength ladder:
/// `Degree < OneTree < HkAscent < ProvedOptimal`.
///
/// The ordering is *evidentiary*, not numeric — a degree bound can exceed
/// a tree bound on a star — so a [`SpanBound`] pairs the best **value**
/// with the strongest **kind** that attains it (ties go to the stronger
/// kind: a Held–Karp certificate that matches the degree bound is still a
/// Held–Karp certificate).
///
/// Codes are append-only and shared with the binary report codec: new
/// kinds get new codes, old codes never change meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundKind {
    /// Closed-neighborhood / chain / universal-vertex counting
    /// ([`degree_bound`], [`chain_bound`], [`span_lower_bound_cheap`]) —
    /// cheap, available even without a reduction.
    Degree = 0,
    /// Un-ascended tree relaxation of the reduced Path-TSP instance
    /// (its MST, [`mst_bound`]).
    OneTree = 1,
    /// Held–Karp subgradient ascent on the reduced instance
    /// ([`held_karp_bound`]) — the strongest certificate short of a proof.
    HkAscent = 2,
    /// The solve proved optimality: the bound *is* the optimum.
    ProvedOptimal = 3,
}

impl BoundKind {
    /// Every kind, weakest to strongest — the registry metric exporters
    /// iterate so a new rung extends their label sets automatically.
    pub const ALL: [BoundKind; 4] = [
        BoundKind::Degree,
        BoundKind::OneTree,
        BoundKind::HkAscent,
        BoundKind::ProvedOptimal,
    ];

    /// Stable wire code (append-only; used by the v5 report codec).
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`BoundKind::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Degree),
            1 => Some(Self::OneTree),
            2 => Some(Self::HkAscent),
            3 => Some(Self::ProvedOptimal),
            _ => None,
        }
    }

    /// Kebab-case name used in JSON reports and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Self::Degree => "degree",
            Self::OneTree => "one-tree",
            Self::HkAscent => "hk-ascent",
            Self::ProvedOptimal => "proved-optimal",
        }
    }
}

impl fmt::Display for BoundKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A span lower bound together with the certificate that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanBound {
    /// The certified bound value.
    pub value: u64,
    /// Strongest certificate kind attaining `value` (see [`BoundKind`]).
    pub kind: BoundKind,
    /// Held–Karp subgradient iterations run while computing this bound
    /// (0 when the ascent was skipped).
    pub ascent_iters: u64,
}

impl SpanBound {
    /// A degree-kind bound (the floor every report can afford).
    pub fn degree(value: u64) -> Self {
        Self {
            value,
            kind: BoundKind::Degree,
            ascent_iters: 0,
        }
    }

    /// A proved-optimal bound: the solve certified `value` as the optimum.
    pub fn proved(value: u64) -> Self {
        Self {
            value,
            kind: BoundKind::ProvedOptimal,
            ascent_iters: 0,
        }
    }

    /// Fold in another certificate: a larger value always wins; an equal
    /// value upgrades the kind if stronger.
    pub fn raise(&mut self, value: u64, kind: BoundKind) {
        if value > self.value || (value == self.value && kind > self.kind) {
            self.value = value;
            self.kind = kind;
        }
    }
}

/// Best available lower bound from one reduction: the
/// [`span_bound_with_reduction`] ladder (chain/degree → MST → 50 Held–Karp
/// ascent iterations), or the [`degree_bound`] alone when the reduction is
/// refused (`G` disconnected or `diam(G) > k`), where no other rung
/// applies. Smoothness is not needed: every rung is sound without it.
pub fn span_lower_bound(g: &Graph, p: &PVec) -> u64 {
    match crate::reduction::reduce_unchecked(g, p) {
        Ok(reduced) => span_bound_with_reduction(g, p, &reduced, 50, &Deadline::none()).value,
        Err(_) => degree_bound(g, p),
    }
}

/// [`span_lower_bound`] computed against an already-built reduction, so
/// callers that hold a [`crate::reduction::ReducedInstance`] (the engine's
/// portfolio dispatcher) do not pay for a second APSP; the reduced weight
/// matrix is exactly the one [`mst_bound`] / [`held_karp_bound`] would
/// rebuild (`reduced` must be `g`'s reduction under `p`). Climbs the
/// [`BoundKind`] ladder (chain/degree → MST → Held–Karp ascent) and
/// reports which rung certified the result plus how many ascent iterations
/// ran. The ascent polls `deadline` per iteration but always runs its
/// first iteration once entered, so an armed caller is guaranteed at least
/// an MST-strength Held–Karp certificate. With [`Deadline::none`] the
/// computation performs zero clock reads.
pub fn span_bound_with_reduction(
    g: &Graph,
    p: &PVec,
    reduced: &crate::reduction::ReducedInstance,
    hk_iters: usize,
    deadline: &Deadline,
) -> SpanBound {
    let mut bound = SpanBound::degree(0);
    if g.n() >= 1 {
        // Chain bound; the reduction's existence certifies diam(G) ≤ k.
        bound.raise((g.n() as u64 - 1) * p.pmin(), BoundKind::Degree);
    }
    bound.raise(degree_bound(g, p), BoundKind::Degree);
    if hk_iters > 0 {
        let out = dclab_tsp::lowerbound::path_lower_bound_anytime(&reduced.tsp, hk_iters, deadline);
        if out.iters > 0 {
            bound.raise(out.bound, BoundKind::HkAscent);
        }
        bound.ascent_iters = out.iters;
    }
    // The ascent's first iteration (π = 0) prices the MST itself, so its
    // bound is at least ⌈MST − 1e-6⌉ = MST and outranks the one-tree rung
    // on a tie: a separate Prim pass can change nothing. That holds while
    // f64 sums every tree exactly, i.e. while the heaviest tree,
    // (n − 1)·p_max, stays below 2⁵³. Past that, or when the ascent ran no
    // iteration, take the rung.
    let exact_in_f64 = (g.n() as u64)
        .saturating_sub(1)
        .checked_mul(p.pmax())
        .is_some_and(|tree_max| tree_max < 1 << 53);
    if bound.ascent_iters == 0 || !exact_in_f64 {
        bound.raise(prim_mst(&reduced.tsp).1, BoundKind::OneTree);
    }
    bound
}

/// Reduction-free bound for the oracle (hub-label) route: the degree
/// bound, strengthened by the chain bound when the caller already knows
/// `diam(G)`, and by Corollary 2 priced from the universal vertices when
/// `G` has one (`universal_vertex_bound`) — no distance matrix, no TSP
/// instance, `O(n)` time and memory. All three rungs are of kind
/// [`BoundKind::Degree`]. The value depends only on `(g, p, diam)`, never
/// on the distance backend, so dense and hub pipelines certify identical
/// numbers.
pub fn span_lower_bound_cheap(g: &Graph, p: &PVec, diam: Option<u32>) -> u64 {
    let mut best = degree_bound(g, p);
    if let Some(d) = diam {
        if d as usize <= p.k() && g.n() >= 1 {
            best = best.max((g.n() as u64 - 1) * p.pmin());
        }
    }
    best.max(universal_vertex_bound(g, p).unwrap_or(0))
}

/// Corollary 2's bound, priced from the universal vertices alone. With
/// `U ≥ 1` universal vertices and `n ≥ 2`, `diam(G) ≤ 2`, so each of the
/// `n − 1` gaps of the sorted labeling is at least `p₁` (an edge of `G`)
/// or `p₂` (an edge of `Ḡ`; `p₂ = 0` when `k = 1`). Every maximal run of
/// `Ḡ`-gaps is a path of `Ḡ`, and each universal vertex is isolated in
/// `Ḡ`, so the order splits into at least `U + [n > U]` runs, joined by at
/// least `U + [n > U] − 1` gaps that are edges of `G`:
///
/// `λ ≥ (n−1)·min(p₁,p₂) + (p₁−p₂)⁺·(U + [n > U] − 1)`.
///
/// Sound for any `p`, smooth or not. `None` without a universal vertex or
/// below two vertices.
pub(crate) fn universal_vertex_bound(g: &Graph, p: &PVec) -> Option<u64> {
    let n = g.n();
    let universal = g.universal_count();
    if n < 2 || universal == 0 {
        return None;
    }
    let (p1, p2) = (p.at_distance(1), p.at_distance(2));
    let runs = (universal + usize::from(n > universal)) as u64;
    Some((n as u64 - 1) * p1.min(p2) + p1.saturating_sub(p2) * (runs - 1))
}

/// Held–Karp path-form ascent bound on the reduced Path-TSP instance — the
/// strongest certificate available at sizes beyond exact search. Requires
/// `diam(G) ≤ k`; valid (as a lower bound) even without smoothness.
pub fn held_karp_bound(g: &Graph, p: &PVec, iters: usize) -> Option<u64> {
    let reduced = crate::reduction::reduce_unchecked(g, p).ok()?;
    Some(dclab_tsp::lowerbound::path_lower_bound(&reduced.tsp, iters))
}

/// Chain bound: if `diam(G) ≤ k`, every pair of vertices is constrained,
/// so sorting the labels gives `n − 1` consecutive gaps of at least
/// `p_min` each: `λ_p ≥ (n−1)·p_min`.
pub fn chain_bound(g: &Graph, p: &PVec) -> Option<u64> {
    let d = diameter(g)?;
    if d as usize <= p.k() && g.n() >= 1 {
        Some((g.n() as u64 - 1) * p.pmin())
    } else {
        None
    }
}

/// Degree bound for `k ≥ 2`: a max-degree vertex `v` and its `Δ` neighbors
/// are pairwise within distance 2, so their `Δ + 1` labels are pairwise
/// `min(p₁, p₂)` apart and `v` itself is `p₁` from the farthest-label
/// neighbor... conservatively: `λ ≥ Δ·min(p₁,p₂)` and
/// `λ ≥ p₁ + (Δ−1)·min(p₁,p₂)` when `Δ ≥ 1`.
pub fn degree_bound(g: &Graph, p: &PVec) -> u64 {
    let delta = g.max_degree() as u64;
    if delta == 0 {
        return 0;
    }
    let p1 = p.at_distance(1);
    let p2 = if p.k() >= 2 { p.at_distance(2) } else { 0 };
    let q = p1.min(p2);
    // Closed neighborhood of a max-degree vertex: Δ+1 mutually constrained
    // labels (pairwise gap ≥ q among neighbors, ≥ p1 to the center).
    (delta * q).max(p1 + delta.saturating_sub(1) * q)
}

/// MST bound via Theorem 2: the reduced Path-TSP optimum is at least the
/// MST weight of `H` (a Hamiltonian path is a spanning tree). Requires
/// `diam(G) ≤ k`; also valid without smoothness (the TSP value lower-bounds
/// the span either way).
pub fn mst_bound(g: &Graph, p: &PVec) -> Option<u64> {
    if g.n() == 0 {
        return Some(0);
    }
    let reduced = crate::reduction::reduce_unchecked(g, p).ok()?;
    Some(prim_mst(&reduced.tsp).1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::exact::exact_labeling_bruteforce;
    use crate::diam2::{solve_diam2_lpq, PipSolver};
    use crate::reduction::reduce_to_path_tsp;
    use crate::routes::exact_route;
    use dclab_graph::generators::{classic, random};
    use dclab_graph::ops::{add_universal_vertex, join};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn bounds_never_exceed_optimum() {
        let mut rng = StdRng::seed_from_u64(71);
        for trial in 0..20 {
            let g = random::gnp(&mut rng, 8, 0.5);
            for p in [PVec::l21(), PVec::lpq(3, 2).unwrap(), PVec::ones(2)] {
                let (_, opt) = exact_labeling_bruteforce(&g, &p);
                let lb = span_lower_bound(&g, &p);
                assert!(lb <= opt, "trial={trial} {p}: bound {lb} > opt {opt}");
            }
        }
    }

    #[test]
    fn chain_bound_tight_on_complete_graphs_with_ones() {
        let g = classic::complete(7);
        let p = PVec::ones(1);
        assert_eq!(chain_bound(&g, &p), Some(6));
        let sol = exact_route(&reduce_to_path_tsp(&g, &p).unwrap()).unwrap();
        assert_eq!(sol.span, 6);
    }

    #[test]
    fn degree_bound_on_star() {
        // Star K_{1,6}: Δ = 6, L(2,1): λ ≥ 2 + 5·1 = 7 = exact value.
        let g = classic::star(7);
        let p = PVec::l21();
        assert_eq!(degree_bound(&g, &p), 7);
        let sol = exact_route(&reduce_to_path_tsp(&g, &p).unwrap()).unwrap();
        assert_eq!(sol.span, 7);
    }

    #[test]
    fn chain_bound_requires_small_diameter() {
        let g = classic::path(6);
        assert_eq!(chain_bound(&g, &PVec::l21()), None);
        assert_eq!(mst_bound(&g, &PVec::l21()), None);
    }

    #[test]
    fn mst_bound_dominates_chain_on_dense_weights() {
        // Complete graph: all weights p1 = 2 > p_min would need diam 2;
        // here MST = (n-1)·2 vs chain = (n-1)·1.
        let g = classic::complete(6);
        let p = PVec::l21();
        assert_eq!(mst_bound(&g, &p), Some(10));
        assert_eq!(chain_bound(&g, &p), Some(5));
        assert_eq!(span_lower_bound(&g, &p), 10);
        assert_eq!(
            exact_route(&reduce_to_path_tsp(&g, &p).unwrap())
                .unwrap()
                .span,
            10
        );
    }

    #[test]
    fn held_karp_bound_is_sound() {
        // The path-form Held–Karp ascent starts at the MST bound (its
        // π = 0 evaluation) and only climbs, so it dominates mst_bound;
        // the degree bound is formally incomparable (it can win on
        // star-like neighborhoods). What must always hold is soundness,
        // and the combined span_lower_bound must dominate each rung.
        let mut rng = StdRng::seed_from_u64(72);
        for _ in 0..10 {
            let g = random::gnp_with_diameter_at_most(&mut rng, 9, 0.5, 2);
            let p = PVec::l21();
            let (_, opt) = exact_labeling_bruteforce(&g, &p);
            let hk = held_karp_bound(&g, &p, 100).unwrap();
            assert!(hk <= opt, "HK bound {hk} exceeds optimum {opt}");
            assert!(hk >= mst_bound(&g, &p).unwrap());
            let combined = span_lower_bound(&g, &p);
            assert!(combined <= opt);
            assert!(combined >= hk);
            assert!(combined >= chain_bound(&g, &p).unwrap());
        }
    }

    #[test]
    fn kinded_bound_attributes_the_strongest_certificate() {
        let mut rng = StdRng::seed_from_u64(75);
        let g = random::gnp_with_diameter_at_most(&mut rng, 9, 0.5, 2);
        let p = PVec::l21();
        let reduced = reduce_to_path_tsp(&g, &p).unwrap();
        let b = span_bound_with_reduction(&g, &p, &reduced, 50, &Deadline::none());
        // The ascent dominates the MST rung by construction, and ties on
        // the top value go to the stronger kind, so whenever the ascent
        // runs the kind is at least HkAscent (Degree can only win the
        // value, not erase that the ascent certified what it certified —
        // here the ascent matches the combined bound on these instances).
        assert_eq!(b.value, span_lower_bound(&g, &p));
        assert!(b.ascent_iters >= 1);
        assert!(b.kind >= BoundKind::OneTree);
        // Skipping the ascent (hk_iters = 0) degrades kind and iters.
        let cheap = span_bound_with_reduction(&g, &p, &reduced, 0, &Deadline::none());
        assert_eq!(cheap.ascent_iters, 0);
        assert!(cheap.kind <= BoundKind::OneTree);
        assert!(cheap.value <= b.value);
    }

    #[test]
    fn bound_kind_codes_round_trip_and_order() {
        for kind in [
            BoundKind::Degree,
            BoundKind::OneTree,
            BoundKind::HkAscent,
            BoundKind::ProvedOptimal,
        ] {
            assert_eq!(BoundKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(BoundKind::from_code(4), None);
        assert!(BoundKind::Degree < BoundKind::OneTree);
        assert!(BoundKind::OneTree < BoundKind::HkAscent);
        assert!(BoundKind::HkAscent < BoundKind::ProvedOptimal);
        assert_eq!(BoundKind::HkAscent.name(), "hk-ascent");
        // Ties upgrade the kind; larger values win regardless of kind.
        let mut b = SpanBound::degree(7);
        b.raise(7, BoundKind::HkAscent);
        assert_eq!(b.kind, BoundKind::HkAscent);
        b.raise(9, BoundKind::Degree);
        assert_eq!((b.value, b.kind), (9, BoundKind::Degree));
        b.raise(8, BoundKind::ProvedOptimal);
        assert_eq!((b.value, b.kind), (9, BoundKind::Degree));
    }

    #[test]
    fn ascent_first_ladder_matches_the_prim_first_ladder() {
        use crate::reduction::{reduce_unchecked, ReducedInstance};
        use dclab_graph::DistanceMatrix;
        use dclab_tsp::TspInstance;

        // The ladder as it ran before the ascent went first: the one-tree
        // rung from its own Prim pass, then the ascent.
        fn prim_first(
            g: &Graph,
            p: &PVec,
            reduced: &ReducedInstance,
            hk_iters: usize,
            deadline: &Deadline,
        ) -> SpanBound {
            let mut bound = SpanBound::degree(0);
            if g.n() >= 1 {
                bound.raise((g.n() as u64 - 1) * p.pmin(), BoundKind::Degree);
            }
            bound.raise(degree_bound(g, p), BoundKind::Degree);
            bound.raise(prim_mst(&reduced.tsp).1, BoundKind::OneTree);
            if hk_iters > 0 {
                let out = dclab_tsp::lowerbound::path_lower_bound_anytime(
                    &reduced.tsp,
                    hk_iters,
                    deadline,
                );
                if out.iters > 0 {
                    bound.raise(out.bound, BoundKind::HkAscent);
                }
                bound.ascent_iters = out.iters;
            }
            bound
        }

        let token = dclab_par::CancelToken::new();
        token.cancel();
        let deadlines = [Deadline::none(), Deadline::none().with_token(token)];
        let pvecs: Vec<PVec> = [vec![2, 1], vec![3, 2], vec![4, 3, 2], vec![1, 1]]
            .into_iter()
            .map(|e| PVec::new(e).unwrap())
            .collect();
        let mut rng = StdRng::seed_from_u64(78);
        let mut cases: Vec<(Graph, PVec)> = Vec::new();
        for n in 0..=3 {
            cases.push((classic::complete(n), PVec::l21()));
            cases.push((classic::path(n), PVec::new(vec![3, 2]).unwrap()));
        }
        for trial in 0..40 {
            let n = rng.random_range(4..30usize);
            let p = &pvecs[trial % pvecs.len()];
            let density = [0.5, 0.65, 0.8][trial % 3];
            let g = random::gnp_with_diameter_at_most(&mut rng, n, density, p.k() as u32);
            cases.push((g, p.clone()));
        }
        // Past 2⁵³/(n − 1) the f64 tree sums can round below the MST (on
        // K_6..K_11 at p = 2⁵¹ + 1 they do), so the Prim rung is taken again.
        for n in [6, 9, 11] {
            cases.push((
                classic::complete(n),
                PVec::new(vec![(1 << 51) + 1]).unwrap(),
            ));
        }
        let huge = PVec::new(vec![(1 << 52) + 1, (1 << 52) - 1]).unwrap();
        for n in [3usize, 9, 17] {
            let g = random::gnp_with_diameter_at_most(&mut rng, n, 0.5, 2);
            cases.push((g, huge.clone()));
        }
        let mut compared = 0;
        for (g, p) in &cases {
            let reduced = match reduce_unchecked(g, p) {
                Ok(r) => r,
                // The empty graph has no diameter; its reduction is empty.
                Err(_) if g.n() == 0 => ReducedInstance {
                    tsp: TspInstance::from_matrix(0, Vec::new()),
                    dist: DistanceMatrix::compute(g),
                },
                Err(e) => panic!("{g:?} {p}: {e:?}"),
            };
            for hk_iters in [0, 1, 50] {
                for deadline in &deadlines {
                    assert_eq!(
                        span_bound_with_reduction(g, p, &reduced, hk_iters, deadline),
                        prim_first(g, p, &reduced, hk_iters, deadline),
                        "n={} {p} hk_iters={hk_iters}",
                        g.n()
                    );
                    compared += 1;
                }
            }
        }
        assert_eq!(compared, cases.len() * 6);
    }

    #[test]
    fn reduction_reusing_bound_matches_fresh_bound() {
        let mut rng = StdRng::seed_from_u64(73);
        for _ in 0..8 {
            let g = random::gnp_with_diameter_at_most(&mut rng, 9, 0.5, 2);
            let p = PVec::l21();
            let reduced = reduce_to_path_tsp(&g, &p).unwrap();
            let with = span_bound_with_reduction(&g, &p, &reduced, 50, &Deadline::none()).value;
            let fresh = span_lower_bound(&g, &p);
            assert_eq!(with, fresh);
            let (_, opt) = exact_labeling_bruteforce(&g, &p);
            assert!(with <= opt);
        }
    }

    #[test]
    fn cheap_bound_matches_degree_and_chain_composition() {
        let mut rng = StdRng::seed_from_u64(74);
        for i in 0..12 {
            let g = random::gnp(&mut rng, 10, 0.4);
            // Every other graph gets a universal vertex, so the third rung
            // is exercised rather than left to the draw.
            let g = if i % 2 == 0 {
                g
            } else {
                add_universal_vertex(&g)
            };
            let p = PVec::l21();
            let diam = diameter(&g);
            let structural = degree_bound(&g, &p).max(universal_vertex_bound(&g, &p).unwrap_or(0));
            let want = structural.max(chain_bound(&g, &p).unwrap_or(0));
            assert_eq!(span_lower_bound_cheap(&g, &p, diam), want);
            // Without the diameter hint the chain rung drops out.
            assert_eq!(span_lower_bound_cheap(&g, &p, None), structural);
        }
    }

    #[test]
    fn universal_vertex_bound_is_sound() {
        // Smooth and non-smooth p, p₁ < p₂, and k = 1.
        let pvecs: Vec<PVec> = [
            vec![2, 1],
            vec![3, 2],
            vec![1, 1],
            vec![1, 2],
            vec![2],
            vec![4, 3, 2],
            vec![5, 2],
        ]
        .into_iter()
        .map(|e| PVec::new(e).unwrap())
        .collect();
        let mut rng = StdRng::seed_from_u64(76);
        for trial in 0..500 {
            // 1–2 planted universal vertices, shuffled among the rest.
            let n = rng.random_range(2..9usize);
            let planted = rng.random_range(1..3usize);
            let density = [0.1, 0.3, 0.5, 0.8][trial % 4];
            let rest = random::gnp(&mut rng, n - planted, density);
            let g = join(&classic::complete(planted), &rest)
                .relabeled(&random::random_permutation(&mut rng, n));
            let u = g.universal_count();
            assert!(
                u >= planted,
                "trial {trial}: planted {planted}, counted {u}"
            );
            for (i, p) in pvecs.iter().enumerate() {
                let lb = universal_vertex_bound(&g, p).expect("a universal vertex is planted");
                // Brute force at n = 8 costs ~75 ms a call in a debug
                // build, so an 8-vertex graph meets it with one p, taken
                // in rotation; smaller graphs meet it with every p.
                if n < 8 || i == trial % pvecs.len() {
                    let (_, opt) = exact_labeling_bruteforce(&g, p);
                    assert!(
                        lb <= opt,
                        "trial {trial} {p} U={u} {g:?}: bound {lb} > optimum {opt}"
                    );
                    let cheap = span_lower_bound_cheap(&g, p, diameter(&g));
                    assert!(
                        cheap <= opt,
                        "trial {trial} {p}: cheap {cheap} > optimum {opt}"
                    );
                }
                let (p1, p2) = (p.at_distance(1), p.at_distance(2));
                if p1 >= p2 {
                    let pip = solve_diam2_lpq(&g, p1, p2, PipSolver::SubsetDp)
                        .unwrap()
                        .span;
                    assert!(
                        lb <= pip,
                        "trial {trial} {p}: bound {lb} > Corollary 2 {pip}"
                    );
                }
            }
        }
        // No universal vertex, or too few vertices: no rung.
        assert_eq!(
            universal_vertex_bound(&classic::path(4), &PVec::l21()),
            None
        );
        assert_eq!(universal_vertex_bound(&Graph::new(1), &PVec::l21()), None);
        // K_n: U = n, so n − 1 edge gaps of p₁ each.
        assert_eq!(
            universal_vertex_bound(&classic::complete(5), &PVec::l21()),
            Some(8)
        );
        // Star K_{1,6}: (n−1)·p₂ + (p₁−p₂)·1 = 7, the optimum.
        assert_eq!(
            universal_vertex_bound(&classic::star(7), &PVec::l21()),
            Some(7)
        );
    }

    #[test]
    fn bounds_on_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(chain_bound(&g, &PVec::l21()), None);
        assert_eq!(degree_bound(&g, &PVec::l21()), 2);
    }
}
