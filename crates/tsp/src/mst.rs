//! Minimum spanning trees on dense instances: one Prim kernel (`prim`)
//! under every tree in the crate, and a dense AVX2 step that the
//! Held–Karp ascent runs in its place where the CPU has AVX2.
//!
//! The kernel keeps the vertices outside the tree in ascending id order,
//! with each one's key (cheapest known edge into the tree) and parent
//! stored beside it. One pass over that list relaxes every key from the
//! vertex just added and selects the next vertex at the same time, so a
//! spanning tree over `m` vertices costs `m − 1` passes over a list that
//! shrinks by one each time: `m²/2` steps, each a read of the added
//! vertex's `u64` weight row, a priced weight, and two comparisons. Both
//! comparisons are strict `<`, so a relaxation keeps the earlier parent on
//! a tie and the selection keeps the lowest id on a tie. The selected
//! vertex leaves the list by a shift of the entries after it, which keeps
//! the order.
//!
//! Three callers price the weights their own way and see the same tree:
//! [`prim_mst`] (raw weights, for Christofides), the Held–Karp path-form
//! ascent in [`crate::lowerbound`] (`w + π_u + π_v` in `f64`, once per
//! subgradient iteration) and branch and bound's completion bound over the
//! unvisited cities. A `PrimScratch` holds the buffers, so callers that
//! run the kernel repeatedly allocate once.
//!
//! **The dense step** (`dense`, x86-64 only) serves the ascent, which
//! spends 50 Prim passes on every certificate. It keeps keys and parents
//! in arrays indexed by city id, marks a city in the tree with a NaN key,
//! and relaxes all `n` cities per step, four to an AVX2 register, without
//! branches; it then takes the lowest id whose key equals the minimum. Its
//! strict comparisons, tie rule, pricing order `(w as f64 + π_u) + π_v`
//! and join-order total are the kernel's, so the two build the same tree
//! and every value, gradient and certificate is the same bit for bit on
//! every CPU. `PrimStep::detect` picks it once per ascent when
//! `is_x86_feature_detected!("avx2")` holds; elsewhere the ascent runs the
//! kernel. [`prim_mst`] and the completion bound stay on the kernel: no
//! workload runs them hot.

use crate::{TspInstance, Weight};

#[cfg(target_arch = "x86_64")]
mod dense;
#[cfg(target_arch = "x86_64")]
pub(crate) use dense::{prim_dense, Avx2, DenseScratch};

/// The Prim step under the Held–Karp ascent, chosen once per ascent from
/// the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PrimStep {
    /// The compacted kernel [`prim`], on every CPU.
    Compacted,
    /// The dense step [`prim_dense`], on x86-64 CPUs with AVX2.
    #[cfg(target_arch = "x86_64")]
    DenseAvx2(Avx2),
}

impl PrimStep {
    /// The dense AVX2 step when the CPU has AVX2, else the compacted
    /// kernel.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = Avx2::detect() {
            return PrimStep::DenseAvx2(avx2);
        }
        PrimStep::Compacted
    }
}

/// A key type the kernel can order: an infinity that no priced weight
/// reaches, below which every real key sorts.
pub(crate) trait PrimKey: Copy + PartialOrd {
    /// The key of a vertex with no known edge into the tree.
    const INFINITY: Self;
}

impl PrimKey for Weight {
    const INFINITY: Self = Weight::MAX;
}

impl PrimKey for f64 {
    const INFINITY: Self = f64::INFINITY;
}

/// An out-of-tree vertex with its key and the tree vertex that key
/// reaches.
#[derive(Clone, Copy)]
struct Slot<K> {
    key: K,
    v: u32,
    parent: u32,
}

/// Reusable buffers for [`prim`]: the out-of-tree vertices in ascending id
/// order, each with its key and parent.
pub(crate) struct PrimScratch<K> {
    slots: Vec<Slot<K>>,
}

impl<K> Default for PrimScratch<K> {
    fn default() -> Self {
        Self { slots: Vec::new() }
    }
}

/// Prim's algorithm from `root` over `root` plus `members`, which must be
/// ascending ids other than `root`.
///
/// `price(u, v, w)` gives the key of edge `{u, v}` of raw weight
/// `w = inst.weight(u, v)`, with `u` the vertex just added to the tree.
/// `visit(parent, v, key)` is called once per vertex other than `root`,
/// in the order the vertices join the tree, with the tree edge
/// `{parent, v}` and its key. Ties resolve as described in the module
/// docs.
pub(crate) fn prim<K: PrimKey>(
    inst: &TspInstance,
    root: usize,
    members: impl IntoIterator<Item = usize>,
    scratch: &mut PrimScratch<K>,
    price: impl Fn(usize, usize, Weight) -> K,
    mut visit: impl FnMut(usize, usize, K),
) {
    let slots = &mut scratch.slots;
    slots.clear();
    slots.extend(members.into_iter().map(|v| Slot {
        key: K::INFINITY,
        v: v as u32,
        parent: root as u32,
    }));
    debug_assert!(slots.windows(2).all(|w| w[0].v < w[1].v));
    debug_assert!(slots.iter().all(|s| s.v as usize != root));
    let mut last = root;
    while !slots.is_empty() {
        let row = inst.row(last);
        let mut best = K::INFINITY;
        let mut pick = usize::MAX;
        for (i, slot) in slots.iter_mut().enumerate() {
            let v = slot.v as usize;
            let cand = price(last, v, row[v]);
            if cand < slot.key {
                slot.key = cand;
                slot.parent = last as u32;
            }
            if slot.key < best {
                best = slot.key;
                pick = i;
            }
        }
        let joined = slots.remove(pick);
        visit(joined.parent as usize, joined.v as usize, joined.key);
        last = joined.v as usize;
    }
}

/// Edges `(u, v)` of a minimum spanning tree of the complete graph described
/// by `inst`, in the order Prim adds them from city 0, plus the total
/// weight. `n-1` edges for `n ≥ 1`.
pub fn prim_mst(inst: &TspInstance) -> (Vec<(u32, u32)>, Weight) {
    let n = inst.n();
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    let mut total = 0;
    if n > 0 {
        let mut scratch = PrimScratch::default();
        prim(
            inst,
            0,
            1..n,
            &mut scratch,
            |_, _, w| w,
            |parent, v, w| {
                edges.push((parent as u32, v as u32));
                total += w;
            },
        );
    }
    (edges, total)
}

/// Degree of each vertex in an edge multiset.
pub fn degrees(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut deg = vec![0u32; n];
    for &(u, v) in edges {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    deg
}

/// Vertices of odd degree in an edge multiset (always an even count).
pub fn odd_degree_vertices(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    degrees(n, edges)
        .iter()
        .enumerate()
        .filter(|(_, &d)| d % 2 == 1)
        .map(|(v, _)| v as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(coords: &[i64]) -> TspInstance {
        TspInstance::from_fn(coords.len(), |u, v| coords[u].abs_diff(coords[v]))
    }

    #[test]
    fn mst_of_line_is_the_line() {
        let t = line(&[0, 1, 3, 6, 10]);
        let (edges, w) = prim_mst(&t);
        assert_eq!(edges.len(), 4);
        assert_eq!(w, 10);
    }

    #[test]
    fn mst_connects_everything() {
        let t = TspInstance::from_fn(9, |u, v| {
            let (a, b) = (u.min(v) as u64, u.max(v) as u64);
            (a * 31 + b * 17) % 23 + 1
        });
        let (edges, _) = prim_mst(&t);
        assert_eq!(edges.len(), 8);
        // Union-find style connectivity check.
        let mut comp: Vec<usize> = (0..9).collect();
        fn find(c: &mut Vec<usize>, x: usize) -> usize {
            if c[x] != x {
                let r = find(c, c[x]);
                c[x] = r;
            }
            c[x]
        }
        for &(u, v) in &edges {
            let (ru, rv) = (find(&mut comp, u as usize), find(&mut comp, v as usize));
            comp[ru] = rv;
        }
        let root = find(&mut comp, 0);
        assert!((0..9).all(|v| find(&mut comp, v) == root));
    }

    #[test]
    fn odd_vertices_even_count() {
        let edges = vec![(0, 1), (1, 2), (2, 3), (1, 3)];
        let odd = odd_degree_vertices(5, &edges);
        assert_eq!(odd.len() % 2, 0);
        assert_eq!(odd, vec![0, 1]); // deg: 1,3,2,2,0
    }

    #[test]
    fn the_ascent_runs_the_avx2_step_whenever_the_cpu_has_avx2() {
        let step = PrimStep::detect();
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            assert!(matches!(step, PrimStep::DenseAvx2(_)), "{step:?}");
            return;
        }
        assert_eq!(step, PrimStep::Compacted);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(prim_mst(&TspInstance::from_matrix(1, vec![0])).0.len(), 0);
        assert_eq!(prim_mst(&TspInstance::from_matrix(0, vec![])).1, 0);
    }

    #[test]
    fn mst_weight_lower_bounds_path_optimum() {
        // A Hamiltonian path is a spanning tree, so MST ≤ optimal path.
        let t = line(&[0, 4, 9, 11, 20]);
        let (_, mst_w) = prim_mst(&t);
        let (_, path_w) = crate::exact::brute_force_path(&t);
        assert!(mst_w <= path_w);
    }
}
