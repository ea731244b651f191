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
//!
//! **Flat counting passes.** One canonicalization allocates its buffers
//! once; no pass allocates per vertex or sorts all m edges.
//!
//! * *Refinement.* Every vertex owns a slot of `deg(v)` words in one flat
//!   buffer that every round and every individualization reuse. A round
//!   walks the vertices in colour order and appends each one's colour to
//!   its neighbours' slots, so each slot comes out sorted with no
//!   per-vertex sort; it is stored as `(colour, count)` runs. The members
//!   of each old class are then ordered by comparing runs, which orders
//!   them as their expanded neighbour-colour lists would be ordered. A
//!   class whose members all carry equal runs (every class, in the round
//!   that finds the colouring stable) keeps its order unsorted. So one
//!   round costs O(n + m) plus a sort of each class that splits, and a
//!   comparison costs O(runs), not O(degree): on a twin-only graph it is
//!   O(1).
//! * *Hash.* Refinement stops at an equitable colouring: every member of
//!   class a has the same number c(a, b) of neighbours in class b. The
//!   sorted list of edge colour pairs therefore holds (a, b), for a < b,
//!   exactly |a|·c(a, b) times, and (a, a) exactly |a|·c(a, a)/2 times.
//!   The hash feeds FNV that word stream from the runs of one member per
//!   class instead of collecting and sorting the m pairs. The FNV pass
//!   over the m words remains; [`Fnv64::write_u64`] folds each run of
//!   zero bytes into one multiply, so a colour-pair word costs two or
//!   three multiplies instead of eight.
//! * *Canonical edges.* For each canonical id in turn, the neighbours of
//!   its vertex are mapped through `perm` and those above it are kept; that
//!   short run is sorted, and the runs in id order are the sorted list.
//!
//! **Byte identity.** `hash`, `perm`, `edges` and `n` are byte for byte
//! what the earlier per-vertex-vector passes return; those passes are kept
//! in `canon/reference.rs` as the reference of the differential tests, and
//! `tests/canon_digests.rs` pins the forms of a fixed graph set. The bytes
//! are an archive format: a `StoreKey` stores the canonical edges, and the
//! report cache and the cluster ring key on the hash, so changing any of
//! them orphans every archived record.

use std::cmp::Ordering;

use crate::graph::Graph;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// `FNV_PRIME_POW[k]` is the prime to the `k`-th power.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Incremental FNV-1a hasher over `u64` words (each word is fed as 8
/// little-endian bytes, so the stream is unambiguous).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Feed `v` as 8 little-endian bytes. XOR with a zero byte changes
    /// nothing, so a run of zero bytes costs one multiply by a power of the
    /// prime: a word of small numbers, such as a colour pair, takes two or
    /// three multiplies instead of eight, with the byte loop's result.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let (mut h, mut pending) = (self.0, 0);
        for byte in v.to_le_bytes() {
            if byte != 0 {
                h = h.wrapping_mul(FNV_PRIME_POW[pending]) ^ byte as u64;
                pending = 0;
            }
            pending += 1;
        }
        self.0 = h.wrapping_mul(FNV_PRIME_POW[pending]);
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
        let mut refiner = Refiner::new(g);
        refiner.refine();
        // A discrete stable colouring is already the canonical relabeling
        // (the walk keeps its singletons in colour order), so its sorted
        // edge colour pairs are the canonical edges: hash those below.
        let stable_hash = (!refiner.is_discrete()).then(|| refiner.stable_hash());
        let order = refiner.canonical_order();
        let mut perm = vec![0u32; order.len()];
        for (id, &v) in order.iter().enumerate() {
            perm[v as usize] = id as u32;
        }
        let mut edges = Vec::with_capacity(g.m());
        for (id, &v) in order.iter().enumerate() {
            let (id, from) = (id as u32, edges.len());
            edges.extend(
                g.neighbors(v as usize)
                    .iter()
                    .map(|&w| perm[w as usize])
                    .filter(|&p| p > id)
                    .map(|p| (id, p)),
            );
            edges[from..].sort_unstable();
        }
        let hash = stable_hash.unwrap_or_else(|| {
            let pairs = edges.iter().map(|&(a, b)| (a as u64) << 32 | b as u64);
            invariant_hash(g, std::iter::repeat_n(1, g.n()), pairs)
        });
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

/// A colouring under refinement and the flat buffers its rounds reuse.
///
/// Colours are always dense, `0..classes`, and numbered in class order: a
/// round assigns new colours in `(old colour, neighbour colours)` order,
/// the invariant ordering that makes colour ids comparable across
/// relabelings.
struct Refiner<'g> {
    g: &'g Graph,
    /// Colour of each vertex.
    colors: Vec<u32>,
    /// The vertices grouped by colour, classes in colour order.
    order: Vec<u32>,
    /// `order[start[c]..start[c + 1]]` holds class `c`; one entry more
    /// than there are classes.
    start: Vec<usize>,
    /// `(first, end)` of each vertex's slot in `runs`, laid out by every
    /// fill (see [`Refiner::fill`]).
    slots: Vec<(usize, usize)>,
    /// `colour << 32 | count` runs of each slot's sorted neighbour colours.
    /// Its capacity is the 2m words a discrete colouring needs; its length
    /// grows with the class count.
    runs: Vec<u64>,
    /// The class starts the current round builds.
    next_start: Vec<usize>,
}

impl<'g> Refiner<'g> {
    /// The all-equal colouring of `g`.
    fn new(g: &'g Graph) -> Refiner<'g> {
        let n = g.n();
        Refiner {
            g,
            colors: vec![0; n],
            order: (0..n as u32).collect(),
            start: if n == 0 { vec![0] } else { vec![0, n] },
            slots: vec![(0, 0); n],
            runs: Vec::with_capacity(2 * g.m()),
            next_start: Vec::new(),
        }
    }

    /// Rewrite every slot from the current colours: walk the vertices in
    /// colour order and append each one's colour to its neighbours' slots,
    /// extending the slot's last run when the colour repeats.
    ///
    /// A slot holds at most one run per class, so it gets `min(deg(v),
    /// classes)` words: while there are few classes the slots stay small
    /// and stay in cache. With one class every slot is one run as long as
    /// the degree, written directly.
    fn fill(&mut self) {
        let Refiner {
            g,
            colors,
            order,
            start,
            slots,
            runs,
            ..
        } = self;
        let classes = start.len() - 1;
        let mut at = 0;
        for (v, slot) in slots.iter_mut().enumerate() {
            *slot = (at, at);
            at += g.degree(v).min(classes);
        }
        if runs.len() < at {
            runs.resize(at, 0);
        }
        if classes == 1 {
            for (v, (first, end)) in slots.iter_mut().enumerate() {
                if g.degree(v) > 0 {
                    runs[*first] = g.degree(v) as u64;
                    *end += 1;
                }
            }
            return;
        }
        for &u in order.iter() {
            let c = colors[u as usize] as u64;
            for &w in g.neighbors(u as usize) {
                let (first, end) = &mut slots[w as usize];
                if *end > *first && runs[*end - 1] >> 32 == c {
                    runs[*end - 1] += 1;
                } else {
                    runs[*end] = c << 32 | 1;
                    *end += 1;
                }
            }
        }
    }

    /// One refinement round: recolour every vertex by `(old colour, sorted
    /// neighbour colours)`, new colours in that order. Returns the number
    /// of classes after it.
    fn round(&mut self) -> usize {
        self.fill();
        let Refiner {
            colors,
            order,
            start,
            slots,
            runs,
            next_start,
            ..
        } = self;
        let runs_of = |v: u32| {
            let (first, end) = slots[v as usize];
            &runs[first..end]
        };
        next_start.clear();
        for c in 0..start.len() - 1 {
            let (s, e) = (start[c], start[c + 1]);
            let class = &mut order[s..e];
            let head = runs_of(class[0]);
            let uniform = class[1..].iter().all(|&v| runs_of(v) == head);
            if !uniform {
                class.sort_unstable_by(|&a, &b| cmp_runs(runs_of(a), runs_of(b)));
            }
            for (i, &v) in class.iter().enumerate() {
                if i == 0 || !uniform && runs_of(v) != runs_of(class[i - 1]) {
                    next_start.push(s + i);
                }
                colors[v as usize] = (next_start.len() - 1) as u32;
            }
        }
        next_start.push(order.len());
        std::mem::swap(start, next_start);
        self.start.len() - 1
    }

    /// Run rounds until one splits no class or every class is a
    /// singleton.
    fn refine(&mut self) {
        let n = self.g.n();
        let mut classes = self.start.len() - 1;
        loop {
            let next = self.round();
            if next == classes || next == n {
                return;
            }
            classes = next;
        }
    }

    /// Whether every class is a singleton.
    fn is_discrete(&self) -> bool {
        self.start.len() - 1 == self.colors.len()
    }

    /// [`invariant_hash`] of a stable colouring, its edge colour pairs read
    /// off the runs of one member per class (see the module docs). The
    /// round that found the colouring stable split nothing, so every colour
    /// is what it was when that round filled the slots.
    fn stable_hash(&self) -> u64 {
        let sizes = self.start.windows(2).map(|class| class[1] - class[0]);
        let pairs = sizes.clone().enumerate().flat_map(|(a, size)| {
            let (first, end) = self.slots[self.order[self.start[a]] as usize];
            let (a, size) = (a as u64, size as u64);
            self.runs[first..end].iter().flat_map(move |&run| {
                let (b, count) = (run >> 32, run & 0xFFFF_FFFF);
                let pairs = match b.cmp(&a) {
                    Ordering::Less => 0,
                    Ordering::Equal => size * count / 2,
                    Ordering::Greater => size * count,
                };
                std::iter::repeat_n(a << 32 | b, pairs as usize)
            })
        });
        invariant_hash(self.g, sizes, pairs)
    }

    /// The vertices sorted by colour, ties by id (a counting sort).
    fn by_colour(&self) -> Vec<u32> {
        let mut next = self.start.clone();
        let mut sorted = vec![0u32; self.colors.len()];
        for (v, &c) in self.colors.iter().enumerate() {
            sorted[next[c as usize]] = v as u32;
            next[c as usize] += 1;
        }
        sorted
    }

    /// Split `x` off its class: `x` keeps the class's colour, the other
    /// members and every later class move one colour up. `by_colour` is
    /// the current [`Refiner::by_colour`], in which `x` leads its class.
    fn individualize(&mut self, x: u32, by_colour: &[u32]) {
        let c = self.colors[x as usize];
        for (v, colour) in self.colors.iter_mut().enumerate() {
            if *colour > c || *colour == c && v != x as usize {
                *colour += 1;
            }
        }
        self.order.copy_from_slice(by_colour);
        let at = self.start[c as usize] + 1;
        self.start.insert(c as usize + 1, at);
    }

    /// Canonical relabeling: walk the stable classes in colour order and
    /// hand out canonical ids in turn. A twin class (a singleton is a
    /// trivial one) takes the next ids in vertex-id order. Any other
    /// non-singleton class has its smallest-id member individualized: that
    /// member gets a fresh colour just below its class, the colouring is
    /// re-refined, and the walk goes on behind it over the refined
    /// classes. For classes that are automorphism orbits any
    /// representative yields the same canonical graph; the member with the
    /// smallest original id keeps the procedure deterministic.
    ///
    /// The twin step gives the ids that individualizing the class one
    /// member at a time would (see the module docs). The walk also relies
    /// on this: a refinement round orders vertices by old colour first and
    /// never splits a twin class, so the classes the walk has passed keep
    /// their places through every later refinement.
    ///
    /// Returns the vertices in canonical order.
    fn canonical_order(mut self) -> Vec<u32> {
        let mut order = self.by_colour();
        let mut i = 0;
        while i < order.len() {
            let c = self.colors[order[i] as usize] as usize;
            debug_assert_eq!(self.start[c], i, "the walk stands at a class start");
            let class = &order[i..self.start[c + 1]];
            if is_twin_class(self.g, class) {
                i += class.len();
                continue;
            }
            self.individualize(class[0], &order);
            self.refine();
            order = self.by_colour();
            // The individualized member is now the singleton at position `i`.
            i += 1;
        }
        order
    }
}

/// FNV-1a over refinement-invariant data only: `n`, `m`, each class's
/// colour and size in colour order, then the sorted multiset of edge
/// colour pairs `(a, b)`, `a ≤ b`, as `a << 32 | b` words.
fn invariant_hash(
    g: &Graph,
    sizes: impl Iterator<Item = usize>,
    pairs: impl Iterator<Item = u64>,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(g.n() as u64);
    h.write_u64(g.m() as u64);
    for (c, size) in sizes.enumerate() {
        h.write_u64(c as u64);
        h.write_u64(size as u64);
    }
    for word in pairs {
        h.write_u64(word);
    }
    h.finish()
}

/// Compare two run-length encoded sorted colour lists as the expanded
/// lists compare (lexicographically, a proper prefix first).
fn cmp_runs(a: &[u64], b: &[u64]) -> Ordering {
    let Some(i) = a.iter().zip(b).position(|(x, y)| x != y) else {
        return a.len().cmp(&b.len());
    };
    let (x, y) = (a[i], b[i]);
    if x >> 32 != y >> 32 {
        return x.cmp(&y);
    }
    // One colour, two counts. Where the shorter run ends, that list
    // continues with a larger colour (it sorts after) or ends (it is a
    // prefix, so it sorts first).
    let (shorter, ord) = if x < y {
        (a, Ordering::Greater)
    } else {
        (b, Ordering::Less)
    };
    if shorter.len() > i + 1 {
        ord
    } else {
        ord.reverse()
    }
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
        // Closed twins: u ~ w and N(u) ∖ {w} = N(w) ∖ {u}. With u < w the
        // two sorted lists agree below u's place j in N(w), between it and
        // w's place i in N(u) (shifted by one), and above i.
        rest.iter().all(|&w| {
            let nw = g.neighbors(w as usize);
            match (nu.binary_search(&w), nw.binary_search(&u)) {
                (Ok(i), Ok(j)) if j <= i && nu.len() == nw.len() => {
                    nu[..j] == nw[..j] && nu[j..i] == nw[j + 1..=i] && nu[i + 1..] == nw[i + 1..]
                }
                _ => false,
            }
        })
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{classic, random};
    use crate::ops::disjoint_union;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    /// A graph on about `n ≥ 1` vertices from family `family % 6`, each
    /// with classes that are not twin classes, so its canonical relabeling
    /// individualizes (often several times, and across components).
    fn individualizing(family: u8, seed: u64, n: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        match family % 6 {
            0 => classic::cycle(n.max(3)),
            1 => classic::grid(1 + n / 6, 1 + n % 6),
            2 => random::watts_strogatz(&mut rng, n.max(5), 4, 0.1),
            3 => disjoint_union(&classic::cycle(3 + n / 3), &classic::cycle(3 + n / 2)),
            4 => random::gnm(&mut rng, n, n.min(n * (n - 1) / 2)),
            _ => random::core_periphery(&mut rng, n, 1 + (seed % 4) as usize, 0.05),
        }
    }

    /// `g` and a seeded random relabeling of it.
    fn with_relabeling(g: Graph, seed: u64) -> [Graph; 2] {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A1E);
        let h = g.relabeled(&random::random_permutation(&mut rng, g.n()));
        [g, h]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1200))]

        /// The twin step is byte-identical to individualizing one member at
        /// a time under the old refinement: hash, perm, edges and n, on
        /// twin-rich graphs in their generated numbering and under a random
        /// relabeling.
        #[test]
        fn twin_step_matches_the_reference(family in 0u8..6, seed in any::<u64>(), n in 1usize..40) {
            for g in with_relabeling(twin_rich(family, seed, n), seed) {
                prop_assert_eq!(CanonicalForm::of(&g), reference::one_at_a_time_form(&g));
            }
        }

        /// The flat counting passes are byte-identical to the per-vertex
        /// passes they replace, on twin-rich and individualizing graphs in
        /// their generated numbering and under a random relabeling.
        #[test]
        fn flat_passes_match_the_reference(family in 0u8..12, seed in any::<u64>(), n in 1usize..48) {
            let g = if family < 6 {
                twin_rich(family, seed, n)
            } else {
                individualizing(family, seed, n)
            };
            for g in with_relabeling(g, seed) {
                prop_assert_eq!(CanonicalForm::of(&g), reference::form(&g));
            }
        }
    }

    #[test]
    fn runs_compare_as_their_expanded_lists() {
        let expand = |runs: &[u64]| -> Vec<u64> {
            runs.iter()
                .flat_map(|&r| std::iter::repeat_n(r >> 32, (r & 0xFFFF_FFFF) as usize))
                .collect()
        };
        let run = |c: u64, k: u64| c << 32 | k;
        let lists: Vec<Vec<u64>> = vec![
            vec![],
            vec![run(0, 1)],
            vec![run(0, 2)],
            vec![run(0, 2), run(1, 1)],
            vec![run(0, 1), run(1, 3)],
            vec![run(0, 3)],
            vec![run(1, 1)],
            vec![run(1, 1), run(2, 1)],
            vec![run(1, 2)],
            vec![run(2, 5)],
        ];
        for a in &lists {
            for b in &lists {
                assert_eq!(
                    cmp_runs(a, b),
                    expand(a).cmp(&expand(b)),
                    "{a:x?} vs {b:x?}"
                );
            }
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
    fn fnv_words_hash_as_their_bytes() {
        let mut rng = StdRng::seed_from_u64(0xF17);
        let mut words: Vec<u64> = vec![0, 1, 0xFF, 1 << 63, u64::MAX, 7 << 32 | 9];
        for _ in 0..2000 {
            // Random words with each byte zeroed half the time.
            let mask = (0..8)
                .filter(|_| rng.random_bool(0.5))
                .fold(0u64, |m, i| m | 0xFF << (8 * i));
            words.push(rng.random_range(0..u64::MAX) & mask);
        }
        let (mut by_word, mut by_byte) = (Fnv64::new(), Fnv64::new());
        for &w in &words {
            by_word.write_u64(w);
            by_byte.write_bytes(&w.to_le_bytes());
            assert_eq!(by_word.finish(), by_byte.finish(), "{w:#x}");
        }
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
