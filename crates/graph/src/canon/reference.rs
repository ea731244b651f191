//! The canonicalization passes as they were before the flat counting
//! passes, kept verbatim as the reference for the differential tests in
//! `canon::tests`: per-vertex signature vectors sorted globally in every
//! refinement round, the hash over all m sorted colour pairs, and the
//! canonical edges mapped and sorted as one list. [`form`] is the old
//! [`CanonicalForm::of`]; [`one_at_a_time_form`] is the relabeling from
//! before the twin step, which individualizes twin classes one member at a
//! time.

use super::{is_twin_class, CanonicalForm, Fnv64};
use crate::graph::Graph;

/// [`CanonicalForm::of`] before the flat counting passes.
pub fn form(g: &Graph) -> CanonicalForm {
    let colors = refine_to_stable(g, None);
    let hash = invariant_hash(g, &colors);
    let perm = canonical_perm(g, colors);
    with_sorted_edges(g, hash, perm)
}

/// [`CanonicalForm::of`] before the twin step.
pub fn one_at_a_time_form(g: &Graph) -> CanonicalForm {
    let colors = refine_to_stable(g, None);
    let hash = invariant_hash(g, &colors);
    let perm = canonical_perm_one_at_a_time(g, colors);
    with_sorted_edges(g, hash, perm)
}

fn with_sorted_edges(g: &Graph, hash: u64, perm: Vec<u32>) -> CanonicalForm {
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

/// Canonical relabeling: walk the stable colour classes in colour order and
/// hand out canonical ids in turn. A twin class (a singleton is a trivial
/// one) takes the next ids in vertex-id order. Any other non-singleton
/// class has its smallest-id member individualized: that member gets a
/// fresh colour just below its class, the colouring is re-refined, and the
/// walk goes on behind it over the refined classes.
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

/// The canonical relabeling before the twin step: it individualizes twin
/// classes one member at a time, re-refining from scratch after each.
fn canonical_perm_one_at_a_time(g: &Graph, mut colors: Vec<u32>) -> Vec<u32> {
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
            .expect("non-discrete partition has a non-singleton class") as u32;
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
