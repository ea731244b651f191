//! Property-based test suites (proptest) over the core invariants of the
//! paper and the substrates.

use dclab::core::reduction::{reduce_to_path_tsp, reduce_unchecked, span_for_permutation};
use dclab::core::routes;
use dclab::par::Deadline;
use dclab::prelude::*;
use dclab::tsp::driver::HeuristicConfig;
use dclab::tsp::matching::MatchingBackend;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random connected graph from a seed (proptest shrinks over the seed and
/// size, which is good enough for graph-shaped inputs).
fn connected_graph(seed: u64, n: usize, density: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    dclab::graph::generators::random::connected_gnp(&mut rng, n, density.max(0.45))
}

fn smooth_pvec(raw: (u64, u64, u64)) -> PVec {
    // Force p_max ≤ 2·p_min by clamping entries into [base, 2·base].
    let base = 1 + raw.0 % 4;
    let e2 = base + raw.1 % (base + 1);
    let e3 = base + raw.2 % (base + 1);
    PVec::new(vec![e2.min(2 * base), e3.min(2 * base), base]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reduced instance is metric whenever p is smooth (Theorem 2's
    /// triangle-inequality argument).
    #[test]
    fn reduced_instance_is_metric(seed in any::<u64>(), raw in any::<(u64, u64, u64)>()) {
        let g = connected_graph(seed, 8, 0.5);
        let p = smooth_pvec(raw);
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let r = reduce_to_path_tsp(&g, &p).unwrap();
        prop_assert!(r.tsp.is_metric());
        if let Some((min, max)) = r.tsp.weight_range() {
            prop_assert!(min >= p.pmin() && max <= 2 * p.pmin());
        }
    }

    /// Claim 1: for ANY permutation π, the minimal span of a labeling
    /// sorted by π equals the weight of the Hamiltonian path π in H.
    /// The left side is computed with the full max-over-predecessors
    /// formula, independent of Claim 1's telescoping argument.
    #[test]
    fn claim1_per_permutation(seed in any::<u64>(), perm_seed in any::<u64>()) {
        let g = connected_graph(seed, 8, 0.5);
        let p = PVec::l21();
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let r = reduce_to_path_tsp(&g, &p).unwrap();
        let mut rng = StdRng::seed_from_u64(perm_seed);
        let perm: Vec<u32> = dclab::graph::generators::random::random_permutation(&mut rng, 8)
            .into_iter().map(|v| v as u32).collect();
        // Independent computation of λ_p(G, π).
        let dist = dclab::graph::DistanceMatrix::compute(&g);
        let mut labels = [0u64; 8];
        let mut span = 0u64;
        for (i, &vi) in perm.iter().enumerate() {
            let mut l = 0u64;
            for &vj in &perm[..i] {
                let d = dist.get(vj as usize, vi as usize);
                l = l.max(labels[vj as usize] + p.at_distance(d));
            }
            labels[vi as usize] = l;
            span = span.max(l);
        }
        prop_assert_eq!(span, span_for_permutation(&r, &perm));
    }

    /// Without smoothness, the Path-TSP optimum is still a lower bound on
    /// the true span.
    #[test]
    fn tsp_lower_bounds_span_without_smoothness(seed in any::<u64>(), big in 3u64..9) {
        let g = connected_graph(seed, 7, 0.55);
        let p = PVec::lpq(big, 1).unwrap(); // non-smooth for big ≥ 3
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let r = reduce_unchecked(&g, &p).unwrap();
        let (_, tsp_opt) = dclab::tsp::exact::held_karp_path(&r.tsp);
        let (_, true_opt) = dclab::core::baseline::exact::exact_labeling_bruteforce(&g, &p);
        prop_assert!(tsp_opt <= true_opt);
    }

    /// Span is monotone under pointwise-increasing p.
    #[test]
    fn span_monotone_in_p(seed in any::<u64>()) {
        let g = connected_graph(seed, 8, 0.5);
        prop_assume!(dclab::graph::diameter::diameter(&g) == Some(2));
        let small = PVec::lpq(2, 1).unwrap();
        let large = PVec::lpq(2, 2).unwrap();
        let a = routes::exact_route(&reduce_to_path_tsp(&g, &small).unwrap()).unwrap().span;
        let b = routes::exact_route(&reduce_to_path_tsp(&g, &large).unwrap()).unwrap().span;
        prop_assert!(a <= b);
    }

    /// Exact solver output always validates and is never beaten by any
    /// solver on the same instance.
    #[test]
    fn exact_is_floor(seed in any::<u64>()) {
        let g = connected_graph(seed, 9, 0.5);
        let p = PVec::l21();
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let reduced = reduce_to_path_tsp(&g, &p).unwrap();
        let exact = routes::exact_route(&reduced).unwrap();
        prop_assert!(exact.labeling.validate(&g, &p).is_ok());
        let heur = routes::heuristic_route(&reduced, &HeuristicConfig::default());
        let approx = routes::approx15_route(&reduced, MatchingBackend::Auto);
        prop_assert!(heur.span >= exact.span);
        prop_assert!(approx.span >= exact.span);
        prop_assert!(2 * approx.span <= 3 * exact.span);
    }

    /// Complement is an involution and partitions the edge set.
    #[test]
    fn complement_involution(seed in any::<u64>(), n in 2usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dclab::graph::generators::random::gnp(&mut rng, n, 0.5);
        let c = dclab::graph::ops::complement(&g);
        prop_assert_eq!(g.m() + c.m(), n * (n - 1) / 2);
        prop_assert_eq!(dclab::graph::ops::complement(&c), g);
    }

    /// nd(G^k) never exceeds nd(G) (Fiala et al., cited in Theorem 4's
    /// proof), for connected G.
    #[test]
    fn nd_of_power_does_not_grow(seed in any::<u64>(), k in 2u32..4) {
        let g = connected_graph(seed, 9, 0.5);
        let gk = dclab::graph::ops::power(&g, k);
        prop_assert!(
            dclab::graph::params::nd::nd(&gk) <= dclab::graph::params::nd::nd(&g)
        );
    }

    /// APSP matrices are symmetric with zero diagonal and obey the triangle
    /// inequality.
    #[test]
    fn apsp_valid(seed in any::<u64>(), n in 2usize..14) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dclab::graph::generators::random::gnp(&mut rng, n, 0.4);
        let d = dclab::graph::DistanceMatrix::compute(&g);
        prop_assert!(d.validate().is_ok());
    }

    /// Labelings produced by every solver stay valid after normalization.
    #[test]
    fn normalization_preserves_validity(seed in any::<u64>()) {
        let g = connected_graph(seed, 8, 0.5);
        let p = PVec::l21();
        prop_assume!(dclab::graph::diameter::diameter(&g).unwrap() as usize <= p.k());
        let sol = routes::greedy_route(&g, &p, &Deadline::none());
        let norm = sol.labeling.normalized();
        prop_assert!(norm.validate(&g, &p).is_ok());
        prop_assert!(norm.span() <= sol.labeling.span());
    }

    /// Prop. 2 corollary on the nd side: nd(G²) ≤ nd(G) ≤ n, and the
    /// nd partition is a modular partition.
    #[test]
    fn nd_partition_is_modular(seed in any::<u64>(), n in 3usize..11) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dclab::graph::generators::random::gnp(&mut rng, n, 0.5);
        let ndp = dclab::graph::params::nd::neighborhood_diversity(&g);
        prop_assert!(dclab::graph::params::modules::is_modular_partition(&g, &ndp.classes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TSP local search invariants: tours stay permutations and weights
    /// only decrease, across 2-opt, Or-opt, and double-bridge kicks.
    #[test]
    fn localsearch_invariants(seed in any::<u64>(), n in 8usize..40) {
        use dclab::tsp::localsearch::{local_opt, LocalSearchConfig, TourState};
        use dclab::tsp::tour::{cycle_weight, is_permutation};
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = dclab::tsp::TspInstance::from_fn(n, |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a.wrapping_mul(2654435761).wrapping_add(b.wrapping_mul(40503)) ^ seed) % 500 + 1
        });
        let start = dclab::tsp::construct::nearest_neighbor(&inst, 0);
        let before = cycle_weight(&inst, &start);
        let mut state = TourState::new(start);
        let nl = inst.candidate_lists(8);
        let gain = local_opt(&inst, &mut state, &nl, &LocalSearchConfig::default());
        prop_assert!(is_permutation(n, &state.order));
        prop_assert_eq!(cycle_weight(&inst, &state.order) + gain, before);
        let kicked = dclab::tsp::lk::double_bridge(&state.order, &mut rng);
        prop_assert!(is_permutation(n, &kicked));
    }

    /// Matching backends agree on optimality for small even sets.
    #[test]
    fn matching_backends_agree(seed in any::<u64>(), half in 1usize..7) {
        use dclab::tsp::matching::*;
        let k = 2 * half;
        let w = move |a: usize, b: usize| {
            let (a, b) = (a.min(b) as u64, a.max(b) as u64);
            (a.wrapping_mul(7919).wrapping_add(b.wrapping_mul(104729)) ^ seed) % 300 + 1
        };
        let dp = exact_dp::min_weight_perfect_matching_dp(k, &w);
        let bl = blossom::min_weight_perfect_matching_blossom(k, &w);
        prop_assert!(is_perfect_matching(k, &dp));
        prop_assert!(is_perfect_matching(k, &bl));
        prop_assert_eq!(matching_weight(&dp, &w), matching_weight(&bl, &w));
    }
}
