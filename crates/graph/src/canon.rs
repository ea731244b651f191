//! Canonical instance forms for caching: degree-refinement (1-WL) colors,
//! an isomorphism-invariant FNV-1a hash, and a canonical relabeling.
//!
//! The serve layer keys its report cache on [`CanonicalForm`]: two requests
//! whose graphs are isomorphic relabelings of each other should land on the
//! same cache entry. The contract is split in two so correctness never
//! depends on solving graph isomorphism:
//!
//! * [`CanonicalForm::hash`] is computed **only** from refinement-invariant
//!   data (vertex/edge counts, the stable color histogram, and the edge
//!   color-pair multiset), so it is *guaranteed* equal for isomorphic
//!   graphs. Non-isomorphic graphs may collide (1-WL is not a complete
//!   invariant); callers must confirm a hit by comparing canonical edges.
//! * [`CanonicalForm::edges`] is the edge list after a canonical relabeling
//!   built by refinement plus individualization. It is invariant under
//!   relabeling when every class the relabeling individualizes is an
//!   automorphism orbit, which twin classes (below) always are. Otherwise
//!   two isomorphic labelings can canonize differently (a random cograph
//!   does about 2 times in 1000, cubic graphs almost always); the cache
//!   then merely misses — it never serves a wrong entry.
//!
//! [`CanonicalForm::perm`] maps original vertex ids to canonical ids, which
//! lets a cache translate a stored labeling back into the requester's
//! vertex numbering.
//!
//! **Twin classes.** The relabeling walks the stable colour classes in
//! colour order. A *twin class* is one whose members all share one open
//! neighbourhood, or all share one closed neighbourhood. It takes
//! consecutive canonical ids in vertex-id order in one step, with no
//! refinement. The step relies on the colouring being stable: every vertex
//! outside a twin class then sees all of it or none of it, so
//! individualizing its members one at a time would split off exactly those
//! members and only renumber the colours — the twin step gives those same
//! ids, byte for byte. Recognizing a twin class compares each member's
//! sorted neighbour list with the smallest-id member's, so it costs at
//! most the degree sum over the class. Any other non-singleton class costs
//! one individualization and a full re-refinement. The core–periphery
//! graphs `dclab gen smalldiam` emits without `--extra` have only twin
//! classes, so past the first refinement they canonicalize in
//! O(n log n + m).

use crate::graph::Graph;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over `u64` words (each word is fed as 8
/// little-endian bytes, so the stream is unambiguous).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &byte in bytes {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A graph's canonical form: invariant hash, canonical relabeling, and the
/// relabeled edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalForm {
    /// Isomorphism-invariant 64-bit hash (equal for isomorphic graphs).
    pub hash: u64,
    /// `perm[old] = canonical` relabeling.
    pub perm: Vec<u32>,
    /// Edge list under `perm`, each pair `(u, v)` with `u < v`, sorted.
    pub edges: Vec<(u32, u32)>,
    /// Vertex count (canonical ids are `0..n`).
    pub n: usize,
}

impl CanonicalForm {
    /// Compute the canonical form of `g`.
    pub fn of(g: &Graph) -> CanonicalForm {
        let colors = refine_to_stable(g, None);
        let hash = invariant_hash(g, &colors);
        let perm = canonical_perm(g, colors);
        let mut edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (perm[u], perm[v]);
                (a.min(b), a.max(b))
            })
            .collect();
        edges.sort_unstable();
        CanonicalForm {
            hash,
            perm,
            edges,
            n: g.n(),
        }
    }

    /// `true` iff `other` canonizes to the same graph (same `n` and same
    /// canonical edge list) — the exact check behind a cache hit.
    pub fn same_canonical_graph(&self, other: &CanonicalForm) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

/// One round of color refinement: recolor every vertex by
/// `(old color, sorted multiset of neighbor colors)`, with new color ids
/// assigned in lexicographic signature order (an invariant ordering, since
/// signatures are built from invariant ids). Returns the refined colors and
/// the number of distinct colors.
fn refine_round(g: &Graph, colors: &[u32]) -> (Vec<u32>, usize) {
    let n = g.n();
    let mut sigs: Vec<(Vec<u32>, usize)> = Vec::with_capacity(n);
    for v in 0..n {
        let mut sig = Vec::with_capacity(1 + g.degree(v));
        sig.push(colors[v]);
        let mut nbr: Vec<u32> = g.neighbors(v).iter().map(|&u| colors[u as usize]).collect();
        nbr.sort_unstable();
        sig.extend(nbr);
        sigs.push((sig, v));
    }
    sigs.sort();
    let mut new_colors = vec![0u32; n];
    let mut next = 0u32;
    for i in 0..n {
        if i > 0 && sigs[i].0 != sigs[i - 1].0 {
            next += 1;
        }
        new_colors[sigs[i].1] = next;
    }
    (new_colors, next as usize + 1)
}

/// Iterate refinement to the stable partition. `start` seeds the initial
/// coloring (defaults to all-equal; individualization passes a coloring
/// with one vertex split off).
fn refine_to_stable(g: &Graph, start: Option<Vec<u32>>) -> Vec<u32> {
    let n = g.n();
    let mut colors = start.unwrap_or_else(|| vec![0u32; n]);
    let mut distinct = colors
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    loop {
        let (next, next_distinct) = refine_round(g, &colors);
        if next_distinct == distinct {
            // A refinement round never merges classes, so an unchanged
            // class count means the partition is stable.
            return next;
        }
        colors = next;
        distinct = next_distinct;
        if distinct == n {
            return colors;
        }
    }
}

/// Hash only refinement-invariant data: `n`, `m`, the sorted stable color
/// histogram, and the sorted multiset of edge color pairs.
fn invariant_hash(g: &Graph, colors: &[u32]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(g.n() as u64);
    h.write_u64(g.m() as u64);
    let distinct = colors.iter().copied().max().map_or(0, |c| c as usize + 1);
    let mut histogram = vec![0u64; distinct];
    for &c in colors {
        histogram[c as usize] += 1;
    }
    // Color ids are already invariant (assigned in signature order), so the
    // histogram can be hashed in id order.
    for (c, count) in histogram.iter().enumerate() {
        h.write_u64(c as u64);
        h.write_u64(*count);
    }
    let mut edge_pairs: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| {
            let (a, b) = (colors[u], colors[v]);
            (a.min(b), a.max(b))
        })
        .collect();
    edge_pairs.sort_unstable();
    for (a, b) in edge_pairs {
        h.write_u64(((a as u64) << 32) | b as u64);
    }
    h.finish()
}

/// Canonical relabeling: walk the stable classes in colour order and hand
/// out canonical ids in turn. A twin class (a singleton is a trivial one)
/// takes the next ids in vertex-id order. Any other non-singleton class has
/// its smallest-id member individualized: that member gets a fresh colour
/// just below its class, the colouring is re-refined, and the walk goes on
/// behind it over the refined classes. For classes that are automorphism
/// orbits any representative yields the same canonical graph; the member
/// with the smallest original id keeps the procedure deterministic.
///
/// The twin step gives the ids that individualizing the class one member
/// at a time would (see the module docs). The walk also relies on this: a
/// refinement round orders vertices by old colour first and never splits a
/// twin class, so the classes the walk has passed keep their places through
/// every later refinement.
fn canonical_perm(g: &Graph, mut colors: Vec<u32>) -> Vec<u32> {
    // Vertices sorted by colour, ties by id (the sort is stable); once the
    // walk is done, position `i` holds the vertex with canonical id `i`.
    let by_colour = |colors: &[u32]| {
        let mut order: Vec<u32> = (0..g.n() as u32).collect();
        order.sort_by_key(|&v| colors[v as usize]);
        order
    };
    let mut order = by_colour(&colors);
    let mut i = 0;
    while i < order.len() {
        let c = colors[order[i] as usize];
        let len = order[i..]
            .iter()
            .take_while(|&&v| colors[v as usize] == c)
            .count();
        let class = &order[i..i + len];
        if is_twin_class(g, class) {
            i += len;
            continue;
        }
        let mut seeded: Vec<u32> = colors.iter().map(|&x| 2 * x + 1).collect();
        seeded[class[0] as usize] = 2 * c;
        colors = refine_to_stable(g, Some(seeded));
        order = by_colour(&colors);
        // The individualized member is now the singleton at position `i`.
        i += 1;
    }
    let mut perm = vec![0u32; order.len()];
    for (canonical, &v) in order.iter().enumerate() {
        perm[v as usize] = canonical as u32;
    }
    perm
}

/// `true` iff all members of `class` (sorted by id) share the first
/// member's open neighbourhood, or all share its closed neighbourhood.
/// Allocation-free; stops at the first mismatch, so it costs at most the
/// degree sum over the class.
fn is_twin_class(g: &Graph, class: &[u32]) -> bool {
    let &[u, second, ..] = class else {
        return true; // a singleton
    };
    let (nu, rest) = (g.neighbors(u as usize), &class[1..]);
    if nu.binary_search(&second).is_err() {
        // Open twins: N(w) = N(u), so the class is an independent set.
        rest.iter().all(|&w| g.neighbors(w as usize) == nu)
    } else {
        // Closed twins: u ~ w and N(u) ∖ {w} = N(w) ∖ {u}.
        rest.iter().all(|&w| {
            nu.binary_search(&w).is_ok()
                && nu
                    .iter()
                    .filter(|&&x| x != w)
                    .eq(g.neighbors(w as usize).iter().filter(|&&x| x != u))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic, random};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The canonical relabeling before the twin step, verbatim: it
    /// individualizes twin classes one member at a time, re-refining from
    /// scratch after each. The reference for the differential property.
    fn canonical_perm_reference(g: &Graph, mut colors: Vec<u32>) -> Vec<u32> {
        let n = g.n();
        loop {
            let distinct = colors.iter().copied().max().map_or(0, |c| c as usize + 1);
            if distinct == n {
                break;
            }
            // Find the smallest color with ≥ 2 members and its first member.
            let mut class_size = vec![0u32; distinct];
            for &c in &colors {
                class_size[c as usize] += 1;
            }
            let target = class_size
                .iter()
                .position(|&s| s >= 2)
                .expect("non-discrete partition has a non-singleton class")
                as u32;
            let chosen = (0..n)
                .find(|&v| colors[v] == target)
                .expect("class member exists");
            // Split `chosen` off: give it a fresh color below its old class so
            // the seeded coloring stays a refinement of the stable one, then
            // re-refine (ids are re-normalized by the next round anyway).
            let mut seeded: Vec<u32> = colors.iter().map(|&c| 2 * c + 1).collect();
            seeded[chosen] = 2 * target;
            colors = refine_to_stable(g, Some(seeded));
        }
        colors
    }

    /// [`CanonicalForm::of`] as it was before the twin step.
    fn reference_form(g: &Graph) -> CanonicalForm {
        let colors = refine_to_stable(g, None);
        let hash = invariant_hash(g, &colors);
        let perm = canonical_perm_reference(g, colors);
        let mut edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (perm[u], perm[v]);
                (a.min(b), a.max(b))
            })
            .collect();
        edges.sort_unstable();
        CanonicalForm {
            hash,
            perm,
            edges,
            n: g.n(),
        }
    }

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
            1 => random::random_cograph(&mut rng, n, 0.5),
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1200))]

        /// The twin step is byte-identical to individualizing one member at
        /// a time: hash, perm, edges and n, on twin-rich graphs in their
        /// generated numbering and under a random relabeling.
        #[test]
        fn twin_step_matches_the_reference(family in 0u8..6, seed in any::<u64>(), n in 1usize..40) {
            let g = twin_rich(family, seed, n);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7A1E);
            let h = g.relabeled(&random::random_permutation(&mut rng, g.n()));
            prop_assert_eq!(CanonicalForm::of(&g), reference_form(&g));
            prop_assert_eq!(CanonicalForm::of(&h), reference_form(&h));
        }
    }

    #[test]
    fn hash_invariant_under_relabeling() {
        let g = classic::petersen();
        let perm = vec![9, 3, 7, 0, 5, 1, 8, 2, 6, 4];
        let h = g.relabeled(&perm);
        let (cg, ch) = (CanonicalForm::of(&g), CanonicalForm::of(&h));
        assert_eq!(cg.hash, ch.hash);
        assert!(cg.same_canonical_graph(&ch));
    }

    #[test]
    fn different_graphs_usually_differ() {
        let hash = |g: &Graph| CanonicalForm::of(g).hash;
        let path = hash(&classic::path(6));
        let cycle = hash(&classic::cycle(6));
        let star = hash(&classic::star(6));
        assert_ne!(path, cycle);
        assert_ne!(path, star);
        assert_ne!(cycle, star);
    }

    #[test]
    fn perm_is_a_permutation_and_preserves_edges() {
        let g = classic::grid(3, 4);
        let c = CanonicalForm::of(&g);
        let mut seen = vec![false; g.n()];
        for &p in &c.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert_eq!(c.edges.len(), g.m());
        // Mapping the canonical edges back through the inverse permutation
        // recovers the original graph.
        let mut inv = vec![0usize; g.n()];
        for (old, &new) in c.perm.iter().enumerate() {
            inv[new as usize] = old;
        }
        let back: Vec<(usize, usize)> = c
            .edges
            .iter()
            .map(|&(u, v)| (inv[u as usize], inv[v as usize]))
            .collect();
        let rebuilt = Graph::from_edges(g.n(), &back);
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn symmetric_graphs_canonize_consistently() {
        // Complete graphs, cycles, and bipartite doubles have huge
        // automorphism groups; any individualization choice must land on
        // the same canonical edge list.
        for (g, perm) in [
            (classic::complete(7), vec![6, 0, 5, 1, 4, 2, 3]),
            (classic::cycle(8), vec![3, 4, 5, 6, 7, 0, 1, 2]),
            (classic::complete_bipartite(3, 4), vec![4, 2, 6, 0, 3, 5, 1]),
        ] {
            let h = g.relabeled(&perm);
            let (cg, ch) = (CanonicalForm::of(&g), CanonicalForm::of(&h));
            assert_eq!(cg.hash, ch.hash);
            assert!(cg.same_canonical_graph(&ch), "{g:?}");
        }
    }

    #[test]
    fn empty_and_tiny() {
        let empty = Graph::new(0);
        let one = Graph::new(1);
        let c0 = CanonicalForm::of(&empty);
        let c1 = CanonicalForm::of(&one);
        assert_ne!(c0.hash, c1.hash);
        assert!(c0.edges.is_empty() && c1.edges.is_empty());
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
