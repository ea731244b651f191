//! # dclab-oracle — hub-label (2-hop) exact distance oracle.
//!
//! The Theorem 2 pipeline materializes a dense `n × n` [`DistanceMatrix`],
//! so *memory* — not time — caps solvable instance size: at `n = 50 000`
//! the matrix alone is 10 GiB. This crate answers exact distance queries
//! from a **pruned landmark labeling** (PLL, Akiba–Iwata–Yoshida style):
//! every vertex stores a small sorted list of `(hub, dist)` pairs such that
//! for any pair `(u, v)` some hub on a shortest `u–v` path appears in both
//! lists, making
//!
//! ```text
//! dist(u, v) = min over common hubs h of  d(u, h) + d(h, v)
//! ```
//!
//! exact. On small-diameter graphs (the paper's regime) labels stay tiny —
//! a few dozen entries per vertex — so the oracle holds ~`(C+1)·n` entries
//! where the dense matrix holds `n²`.
//!
//! Construction processes vertices as hubs in **degree-descending order**:
//! the first 64 hubs are seeded in one call to the bit-parallel
//! [`bfs64_distances_csr`] kernel (exact rows, label insertion still
//! pruned), the tail runs pruned BFS per hub — a vertex whose current
//! labels already answer `d(hub, v) ≤ d` is neither labeled nor expanded,
//! which is what keeps both the labels and the build subquadratic on
//! hub-dominated graphs. Each prune test is the standard PLL one: before a
//! root's pass, its label is scattered into an array indexed by hub rank
//! (a far sentinel elsewhere, cleared after the root), so testing `v` is
//! one early-exit pass over `v`'s label rather than a merge of two. Within
//! one hop the test is `O(1)`, `dist[rank(v)] ≤ d`: a covering term
//! `d(root, h) + d(h, v) ≤ 1` needs a zero summand, `v`'s label does not
//! hold the root's rank before the root's pass labels `v`, and a processed
//! vertex's only distance-0 entry is its own `(rank(v), 0)`.
//!
//! Everything is single-threaded and deterministic: the same graph always
//! produces byte-identical labels, so solves that consume oracle distances
//! stay bit-reproducible across thread counts. The labels are the same
//! bytes a merge-pruned build produces; a differential test holds the
//! build to that reference, and `tests/label_digests.rs` pins the labels
//! of graphs at benchmark shape.
//!
//! Labels live only in memory: every consumer builds them for the graph
//! at hand, and nothing reads them back from disk. [`HubLabels::to_bytes`]
//! serves digests and byte-identity checks only.
//!
//! Unreachable pairs answer [`INF`] — the same sentinel the dense
//! [`DistanceMatrix`] path uses — and `query(u, u) == 0`, both pinned by
//! the differential property suite in `tests/`.
//!
//! [`DistanceMatrix`]: dclab_graph::DistanceMatrix

use dclab_graph::traversal::bfs64_distances_csr;
use dclab_graph::{Csr, Graph, INF};

/// Distances are stored as `u16`: small-diameter graphs never get close,
/// and halving the per-entry footprint is the point of the oracle. A graph
/// with an eccentricity past this bound is refused at build time.
pub const MAX_DISTANCE: u32 = u16::MAX as u32 - 1;

/// Bit-parallel seeding width: the first `SEED_BATCH` hubs get their exact
/// BFS rows from a single [`bfs64_distances_csr`] call.
const SEED_BATCH: usize = 64;

/// Why a labeling could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleError {
    /// Some finite distance exceeds the `u16` storage bound — the graph's
    /// diameter is far outside the small-diameter regime this oracle (and
    /// the Theorem 2 reduction) targets.
    DistanceOverflow { distance: u32 },
    /// Total label entries overflow the `u32` CSR offsets.
    TooManyEntries,
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::DistanceOverflow { distance } => {
                write!(f, "distance {distance} exceeds the u16 label bound")
            }
            OracleError::TooManyEntries => write!(f, "label entries overflow u32 offsets"),
        }
    }
}

impl std::error::Error for OracleError {}

/// Exact 2-hop distance labels in flat CSR storage: vertex `v`'s label is
/// `hubs[offsets[v]..offsets[v+1]]` (hub *ranks*, strictly ascending)
/// paired with `dists` at the same indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubLabels {
    n: usize,
    offsets: Vec<u32>,
    hubs: Vec<u32>,
    dists: Vec<u16>,
}

/// Exact distance between two label slices: minimum `d1 + d2` over common
/// hub ranks (sorted merge), [`INF`] when the lists share no hub.
#[inline]
fn query_slices(ha: &[u32], da: &[u16], hb: &[u32], db: &[u16]) -> u32 {
    let mut best = INF;
    let (mut i, mut j) = (0usize, 0usize);
    while i < ha.len() && j < hb.len() {
        match ha[i].cmp(&hb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = da[i] as u32 + db[j] as u32;
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            }
        }
    }
    best
}

/// Far sentinel for the ranks a scattered root label does not hold: adding
/// any `u16` distance to it cannot wrap, and every sum stays above
/// [`MAX_DISTANCE`], so an absent hub never covers a vertex.
const FAR: u32 = u32::MAX - u16::MAX as u32;

/// The current root's label scattered by hub rank: `dist[h]` is the
/// root's distance to the hub of rank `h` when the root's label holds `h`,
/// [`FAR`] elsewhere. Scattered before each root and cleared after it, it
/// turns each prune test into one early-exit pass over the visited
/// vertex's label instead of a sorted merge of two labels.
struct RootLabel {
    dist: Vec<u32>,
}

impl RootLabel {
    fn scatter(&mut self, label: &[(u32, u16)]) {
        for &(h, d) in label {
            self.dist[h as usize] = d as u32;
        }
    }

    fn clear(&mut self, label: &[(u32, u16)]) {
        for &(h, _) in label {
            self.dist[h as usize] = FAR;
        }
    }

    /// Whether the labels built so far already answer `d(root, v) ≤ d` for
    /// the vertex `v` of hub rank `rank` and label `label`: some common hub
    /// `h` has `d(root, h) + d(h, v) ≤ d`.
    ///
    /// Within one hop no pass is needed. A covering term `≤ 1` has a zero
    /// summand. It is not `d(root, h)`: `v` is tested before the root's
    /// pass labels it, so its label does not hold the root's rank. So the
    /// hub is `v` itself, whose only distance-0 entry is its own
    /// `(rank(v), 0)`, and the term is `dist[rank(v)]`.
    #[inline]
    fn covers(&self, rank: u32, label: &[(u32, u16)], d: u32) -> bool {
        if d <= 1 {
            return self.dist[rank as usize] <= d;
        }
        label
            .iter()
            .any(|&(h, dh)| self.dist[h as usize] + dh as u32 <= d)
    }
}

impl HubLabels {
    /// Build the labeling for `g`. Deterministic and single-threaded;
    /// `O(Σ label sizes · small)` time, far below `n²` on small-diameter
    /// graphs. Fails only if some finite distance exceeds [`MAX_DISTANCE`]
    /// or total entries overflow `u32`.
    pub fn build(g: &Graph) -> Result<HubLabels, OracleError> {
        Self::build_csr(&Csr::from_graph(g))
    }

    /// [`HubLabels::build`] from a prebuilt CSR view.
    pub fn build_csr(csr: &Csr) -> Result<HubLabels, OracleError> {
        let n = csr.n();
        // Hubs in degree-descending order (id-ascending tie break): high-
        // degree vertices sit on many shortest paths, so ranking them first
        // is what lets the pruned tail stop after one hop almost always.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| (usize::MAX - csr.degree(v as usize), v));

        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }

        // Growing per-vertex labels, flattened to CSR at the end. Ranks
        // arrive in ascending order, so each list stays sorted.
        let mut labels: Vec<Vec<(u32, u16)>> = vec![Vec::new(); n];
        let mut root = RootLabel { dist: vec![FAR; n] };

        // Phase 1: bit-parallel seeding. One bfs64 call yields exact rows
        // for the first 64 hubs; insertion is still pruned against the
        // labels accumulated so far (extra exact entries relative to a
        // fully pruned BFS never break correctness, they only cost bytes —
        // and the in-batch prune test removes almost all of them).
        let batch = SEED_BATCH.min(n);
        if batch > 0 {
            let sources: Vec<usize> = order[..batch].iter().map(|&v| v as usize).collect();
            let mut rows = vec![0u32; batch * n];
            bfs64_distances_csr(csr, &sources, &mut rows);
            for (i, &hub) in sources.iter().enumerate() {
                root.scatter(&labels[hub]);
                let row = &rows[i * n..(i + 1) * n];
                for (v, &d) in row.iter().enumerate() {
                    if d == INF {
                        continue;
                    }
                    if d > MAX_DISTANCE {
                        return Err(OracleError::DistanceOverflow { distance: d });
                    }
                    if root.covers(rank[v], &labels[v], d) {
                        continue;
                    }
                    labels[v].push((i as u32, d as u16));
                }
                root.clear(&labels[hub]);
            }
        }

        // Phase 2: pruned BFS per remaining hub, level-synchronous. A
        // vertex already answered by existing labels is neither labeled
        // nor expanded, so on hub-covered graphs each BFS dies within a
        // couple of hops.
        let mut dist: Vec<u32> = vec![INF; n];
        let mut frontier: Vec<u32> = Vec::new();
        let mut next: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        for (r, &hub) in order.iter().enumerate().skip(batch) {
            let hub = hub as usize;
            root.scatter(&labels[hub]);
            dist[hub] = 0;
            frontier.clear();
            frontier.push(hub as u32);
            touched.clear();
            touched.push(hub as u32);
            let mut d = 0u32;
            while !frontier.is_empty() {
                if d > MAX_DISTANCE {
                    return Err(OracleError::DistanceOverflow { distance: d });
                }
                next.clear();
                for &v in &frontier {
                    let v = v as usize;
                    if root.covers(rank[v], &labels[v], d) {
                        continue; // prune: no label, no expansion
                    }
                    labels[v].push((r as u32, d as u16));
                    for &w in csr.neighbors(v) {
                        if dist[w as usize] == INF {
                            dist[w as usize] = d + 1;
                            next.push(w);
                            touched.push(w);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                d += 1;
            }
            for &v in &touched {
                dist[v as usize] = INF;
            }
            root.clear(&labels[hub]);
        }

        // Flatten to CSR storage.
        let total: usize = labels.iter().map(Vec::len).sum();
        if total > u32::MAX as usize {
            return Err(OracleError::TooManyEntries);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut hubs = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        offsets.push(0u32);
        for label in &labels {
            for &(h, d) in label {
                hubs.push(h);
                dists.push(d);
            }
            offsets.push(hubs.len() as u32);
        }
        Ok(HubLabels {
            n,
            offsets,
            hubs,
            dists,
        })
    }

    /// Exact distance between `u` and `v`; [`INF`] when unreachable, `0`
    /// when `u == v`.
    #[inline]
    pub fn query(&self, u: usize, v: usize) -> u32 {
        if u == v {
            return 0;
        }
        let (au, bu) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
        let (av, bv) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
        query_slices(
            &self.hubs[au..bu],
            &self.dists[au..bu],
            &self.hubs[av..bv],
            &self.dists[av..bv],
        )
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total `(hub, dist)` entries across all vertices.
    pub fn label_entries(&self) -> usize {
        self.hubs.len()
    }

    /// Length of vertex `v`'s label.
    pub fn label_len(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Largest per-vertex label.
    pub fn max_label_len(&self) -> usize {
        (0..self.n).map(|v| self.label_len(v)).max().unwrap_or(0)
    }

    /// Bytes held by the label arrays (offsets + hubs + dists) — the
    /// headline metric the e16 bench compares against [`dense_matrix_bytes`].
    pub fn footprint_bytes(&self) -> u64 {
        self.offsets.len() as u64 * 4 + self.hubs.len() as u64 * 4 + self.dists.len() as u64 * 2
    }

    /// The labels as bytes, for digests and byte-identity checks (nothing
    /// reads them back): `"DCLO" | version u8 | n u64 | entries u64 |
    /// offsets u32×(n+1) | hubs u32×entries | dists u16×entries`, all
    /// little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(21 + self.offsets.len() * 4 + self.hubs.len() * 6);
        buf.extend_from_slice(b"DCLO");
        buf.push(1);
        buf.extend_from_slice(&(self.n as u64).to_le_bytes());
        buf.extend_from_slice(&(self.hubs.len() as u64).to_le_bytes());
        for &o in &self.offsets {
            buf.extend_from_slice(&o.to_le_bytes());
        }
        for &h in &self.hubs {
            buf.extend_from_slice(&h.to_le_bytes());
        }
        for &d in &self.dists {
            buf.extend_from_slice(&d.to_le_bytes());
        }
        buf
    }
}

/// Bytes the dense `u32` distance matrix would occupy for `n` vertices —
/// the denominator of the footprint headline metric.
pub fn dense_matrix_bytes(n: usize) -> u64 {
    (n as u64) * (n as u64) * 4
}

/// Bytes the full dense reduction pipeline holds at peak for `n` vertices:
/// the `u32` distance matrix plus the `u64` TSP weight matrix. This is the
/// estimate `Strategy::Auto` compares against its budget when deciding
/// between the dense path and hub labels.
pub fn dense_pipeline_bytes(n: usize) -> u64 {
    (n as u64) * (n as u64) * 12
}

#[cfg(test)]
mod build_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_graph::generators::classic;
    use dclab_graph::DistanceMatrix;

    fn assert_matches_dense(g: &Graph) {
        let labels = HubLabels::build(g).expect("builds");
        let dense = DistanceMatrix::compute_sequential(g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(
                    labels.query(u, v),
                    dense.get(u, v),
                    "pair ({u},{v}) on n={}",
                    g.n()
                );
            }
        }
    }

    #[test]
    fn classic_families_match_dense() {
        assert_matches_dense(&classic::path(17));
        assert_matches_dense(&classic::cycle(12));
        assert_matches_dense(&classic::complete(9));
        assert_matches_dense(&classic::star(20));
        assert_matches_dense(&classic::petersen());
    }

    #[test]
    fn disconnected_pairs_answer_inf() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let labels = HubLabels::build(&g).unwrap();
        assert_eq!(labels.query(0, 1), 1);
        assert_eq!(labels.query(0, 2), INF);
        assert_eq!(labels.query(4, 0), INF);
        assert_eq!(labels.query(4, 4), 0);
        assert_matches_dense(&g);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = HubLabels::build(&Graph::new(0)).unwrap();
        assert_eq!(empty.n(), 0);
        assert_eq!(empty.label_entries(), 0);
        let single = HubLabels::build(&Graph::new(1)).unwrap();
        assert_eq!(single.query(0, 0), 0);
        assert_matches_dense(&Graph::new(3));
    }

    #[test]
    fn batch_boundary_sizes_match_dense() {
        // Straddle the 64-source seeding batch: the tail path must agree
        // with the batch path.
        for n in [63usize, 64, 65, 90] {
            assert_matches_dense(&classic::cycle(n));
        }
    }

    #[test]
    fn star_labels_stay_tiny() {
        // A star is fully covered by one hub: every label holds the center
        // plus the vertex itself (≤ 2 entries).
        let labels = HubLabels::build(&classic::star(500)).unwrap();
        assert!(labels.max_label_len() <= 2, "{}", labels.max_label_len());
        assert!(labels.footprint_bytes() < dense_matrix_bytes(501) / 20);
    }

    #[test]
    fn footprint_accounts_all_arrays() {
        let labels = HubLabels::build(&classic::complete(6)).unwrap();
        let expected =
            (labels.offsets.len() * 4 + labels.hubs.len() * 4 + labels.dists.len() * 2) as u64;
        assert_eq!(labels.footprint_bytes(), expected);
        assert_eq!(
            labels.label_entries(),
            (0..6).map(|v| labels.label_len(v)).sum::<usize>()
        );
    }
}
