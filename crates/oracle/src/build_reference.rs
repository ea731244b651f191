//! The merge-pruned label build that [`HubLabels::build_csr`] replaced,
//! kept verbatim as the reference, and the differential test that holds
//! the scattered-root build to it: the same labels byte for byte, or the
//! same error, on every graph of a seeded corpus.

use super::*;
use dclab_graph::generators::{classic, random};
use dclab_graph::ops::disjoint_union;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Growing per-vertex labels used during construction (flattened to CSR at
/// the end). Ranks arrive in ascending order, so each list stays sorted.
struct Builder {
    labels: Vec<Vec<(u32, u16)>>,
}

impl Builder {
    fn query(&self, u: usize, v: usize) -> u32 {
        let a = &self.labels[u];
        let b = &self.labels[v];
        let mut best = INF;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = a[i].1 as u32 + b[j].1 as u32;
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
}

/// Merge-pruned `HubLabels::build_csr`: every prune decision is a sorted
/// merge of the hub's and the vertex's labels.
fn build_csr_reference(csr: &Csr) -> Result<HubLabels, OracleError> {
    let n = csr.n();
    // Hubs in degree-descending order (id-ascending tie break): high-
    // degree vertices sit on many shortest paths, so ranking them first
    // is what lets the pruned tail stop after one hop almost always.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (usize::MAX - csr.degree(v as usize), v));

    let mut b = Builder {
        labels: vec![Vec::new(); n],
    };

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
            let row = &rows[i * n..(i + 1) * n];
            for (v, &d) in row.iter().enumerate() {
                if d == INF {
                    continue;
                }
                if d > MAX_DISTANCE {
                    return Err(OracleError::DistanceOverflow { distance: d });
                }
                if b.query(hub, v) <= d {
                    continue;
                }
                b.labels[v].push((i as u32, d as u16));
            }
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
                if b.query(hub, v) <= d {
                    continue; // prune: no label, no expansion
                }
                b.labels[v].push((r as u32, d as u16));
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
    }

    // Flatten to CSR storage.
    let total: usize = b.labels.iter().map(Vec::len).sum();
    if total > u32::MAX as usize {
        return Err(OracleError::TooManyEntries);
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut hubs = Vec::with_capacity(total);
    let mut dists = Vec::with_capacity(total);
    offsets.push(0u32);
    for label in &b.labels {
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

/// Vertex count of a differential case: uniform in `0..=150`, so the
/// corpus straddles the 64-hub seeding batch (below it every hub is
/// seeded; above it the pruned-BFS tail runs).
fn case_n(rng: &mut StdRng) -> usize {
    rng.random_range(0..151)
}

/// One corpus graph of the family `kind`, on about `n` vertices.
fn corpus_graph(rng: &mut StdRng, kind: usize, n: usize) -> Graph {
    match kind {
        0 => {
            // G(n,p) from sparse (many components, long paths) to dense.
            let p = [0.01, 0.03, 0.06, 0.1, 0.2, 0.4, 0.7, 0.95][rng.random_range(0..8)];
            random::gnp(rng, n, p)
        }
        1 => random::random_tree(rng, n),
        2 => classic::path(n),
        3 if n >= 3 => classic::cycle(n),
        3 => classic::path(n),
        4 => classic::star(n),
        5 => {
            let rows = rng.random_range(1..13);
            classic::grid(rows, (n / rows).max(1))
        }
        6 => {
            let p_join = [0.2, 0.5, 0.8][rng.random_range(0..3)];
            random::random_cograph(rng, n, p_join)
        }
        7 | 8 if n == 0 => Graph::new(0),
        7 => {
            let core = rng.random_range(1..n.min(70) + 1);
            random::core_periphery(rng, n, core, 0.0)
        }
        8 => {
            let core = rng.random_range(1..n.min(70) + 1);
            let p_extra = [0.005, 0.02, 0.1, 0.3][rng.random_range(0..4)];
            random::core_periphery(rng, n, core, p_extra)
        }
        _ => {
            // Two components from the families above.
            let left = rng.random_range(0..n + 1);
            let (ka, kb) = (rng.random_range(0..9), rng.random_range(0..9));
            let a = corpus_graph(rng, ka, left);
            let b = corpus_graph(rng, kb, n - left);
            disjoint_union(&a, &b)
        }
    }
}

#[test]
fn scattered_root_build_matches_the_merge_pruned_build() {
    const CASES: u64 = 1_200;
    let mut tails = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1AB_E15 ^ case.wrapping_mul(0x9E37_79B9));
        let kind = (case % 10) as usize;
        let n = case_n(&mut rng);
        let mut g = corpus_graph(&mut rng, kind, n);
        // Half the cases under a random relabeling, so degree ties and
        // id order fall differently against the hub order.
        if rng.random_bool(0.5) {
            let perm = random::random_permutation(&mut rng, g.n());
            g = g.relabeled(&perm);
        }
        let csr = Csr::from_graph(&g);
        let got = HubLabels::build_csr(&csr).map(|l| l.to_bytes());
        let want = build_csr_reference(&csr).map(|l| l.to_bytes());
        assert!(
            got == want,
            "case {case}: kind {kind}, n = {}, m = {}: labels differ from the merge-pruned build",
            g.n(),
            g.m()
        );
        tails += usize::from(g.n() > SEED_BATCH);
    }
    // Both phases must be exercised, not just the seeding batch.
    assert!(
        tails > CASES as usize / 3,
        "only {tails} cases reach the tail"
    );
}
