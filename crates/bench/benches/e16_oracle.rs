//! E16 bench — the distance-oracle memory wall, measured and gated.
//!
//! The Theorem 2 pipeline materialises an `n × n` distance matrix, which
//! walls exact solves off around a few thousand vertices
//! (`dense_pipeline_bytes(50_000)` ≈ 28 GiB). The hub-label oracle route
//! replaces the matrix with 2-hop labels and point queries, and this
//! bench pins the three numbers that make that trade worth it on the
//! `smalldiam` core–periphery family (the small-diameter regime the
//! paper's reduction targets):
//!
//! * **compactness** — serialized label bytes per vertex
//!   (`oracle_bytes_per_vertex`, gated at a loose 70% by bench-gate) and
//!   the headline acceptance check that the hub footprint stays ≤ 5% of
//!   the dense `n × n` matrix it replaces;
//! * **query latency** — mean ns per point query over a pre-drawn pair
//!   schedule (`oracle_query_ns`, gated at 70%: raw wall time);
//! * **agreement** — a dense-backed and a hub-backed engine solve of the
//!   same instance must return identical labelings, spans, bounds, and
//!   query counts (at n = 2 000);
//! * **certificate** — the hub solve must be proved optimal: the core's
//!   universal vertices give Corollary 2's bound, which meets the span
//!   (`lower_bound` is recorded beside `span`).
//!
//! Both modes measure the gated cell at n = 2 000, where the dense matrix
//! still fits, and write each of its numbers as `<metric>_n2000` (the two
//! gated ones also bare). Full mode adds the cell at n = 50 000 — a size
//! where the dense pipeline would need > 8 GiB and only the oracle path is
//! on the table — and checks the `Auto` policy resolves to hub labels
//! there. Writes `BENCH_oracle.json` at the workspace root.

use std::time::Instant;

use dclab_bench::ledger::{self, median, Ledger};
use dclab_core::distance::DistanceSource;
use dclab_core::pvec::PVec;
use dclab_engine::{solve, OraclePolicy, SolveReport, SolveRequest, Strategy};
use dclab_graph::generators::random;
use dclab_graph::{DistanceMatrix, Graph};
use dclab_oracle::{dense_matrix_bytes, dense_pipeline_bytes, HubLabels};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CORE: usize = 64;
const SEED: u64 = 0xE16;
/// The gated cell's size, measured in both modes.
const GATED_N: usize = 2_000;

fn oracle_request(g: &Graph, policy: OraclePolicy) -> SolveRequest {
    SolveRequest {
        graph: g.clone(),
        pvec: PVec::l21(),
        strategy: Strategy::OraclePath,
        budget: Default::default(),
        oracle: policy,
    }
}

/// One measured size: the bench instance, its labels, the pre-drawn query
/// schedule and the hub-backed engine solve.
struct Cell {
    g: Graph,
    labels: HubLabels,
    pairs: Vec<(u32, u32)>,
    hub: SolveReport,
}

/// Build, time and check the hub labels and the hub-backed solve of the
/// n-vertex bench instance; records `<metric>_n<n>`.
fn cell(n: usize, queries: usize, ledger: &mut Ledger, failures: &mut Vec<String>) -> Cell {
    let mut rng = StdRng::seed_from_u64(SEED);
    let g = random::core_periphery(&mut rng, n, CORE, 0.0);
    let m = g.m();

    // --- label build + compactness --------------------------------------
    // Three timed builds: `build_ms` is their median, and the build is
    // deterministic, so the three label sets must be byte-identical.
    let mut build_ms = Vec::new();
    let mut first: Option<(HubLabels, Vec<u8>)> = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let labels = HubLabels::build(&g).expect("connected instance builds");
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match &first {
            None => {
                let bytes = labels.to_bytes();
                first = Some((labels, bytes));
            }
            Some((_, bytes)) if labels.to_bytes() != *bytes => {
                failures.push(format!(
                    "n={n}: three builds of the same graph gave different labels"
                ));
            }
            Some(_) => {}
        }
    }
    let (labels, _) = first.expect("three builds ran");
    let build_ms = median(&mut build_ms);
    let footprint = labels.footprint_bytes();
    let bytes_per_vertex = footprint as f64 / n as f64;
    let footprint_pct = footprint as f64 * 100.0 / dense_matrix_bytes(n) as f64;

    // --- point-query latency --------------------------------------------
    // Pre-drawn pair schedule so the RNG never sits inside the timed loop.
    let pairs: Vec<(u32, u32)> = (0..queries)
        .map(|_| (rng.random_range(0..n) as u32, rng.random_range(0..n) as u32))
        .collect();
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for &(u, v) in &pairs {
        checksum = checksum.wrapping_add(labels.query(u as usize, v as usize) as u64);
    }
    let query_ns = t0.elapsed().as_nanos() as f64 / queries as f64;

    // --- exactness spot-check -------------------------------------------
    // Diameter-2 family: d(u, u) = 0, d(u, v) ∈ {1, 2} otherwise. The
    // differential proptest suite covers arbitrary graphs; here we pin
    // the bench instance itself.
    for &(u, v) in pairs.iter().take(64) {
        let (u, v) = (u as usize, v as usize);
        let expect = if u == v {
            0
        } else if g.has_edge(u, v) {
            1
        } else {
            2
        };
        if labels.query(u, v) != expect {
            failures.push(format!(
                "n={n}: query({u}, {v}) = {} ≠ {expect}",
                labels.query(u, v)
            ));
            break;
        }
    }

    // --- engine solve over the oracle path ------------------------------
    let t0 = Instant::now();
    let hub_report = solve(&oracle_request(&g, OraclePolicy::Hub)).expect("hub solve succeeds");
    let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
    let span = hub_report.solution.span;
    let lower_bound = hub_report.lower_bound;
    // The 64 core vertices are universal, so Corollary 2's cheap rung
    // prices the span exactly: (n−1)·p₂ + (p₁−p₂)·64.
    if !hub_report.optimal {
        failures.push(format!(
            "n={n}: hub solve not proved optimal: span {span}, lower bound {lower_bound}"
        ));
    }
    let ostats = hub_report
        .stats
        .oracle
        .as_ref()
        .expect("oracle-path solve reports oracle stats");
    if ostats.backend != "hub" {
        failures.push(format!(
            "n={n}: hub solve reported backend '{}'",
            ostats.backend
        ));
    }

    // --- headline acceptance: the footprint trade -----------------------
    if footprint * 20 > dense_matrix_bytes(n) {
        failures.push(format!(
            "n={n}: hub footprint {footprint} B exceeds 5% of the dense matrix ({} B)",
            dense_matrix_bytes(n)
        ));
    }

    println!(
        "bench e16_oracle/smalldiam n={n} m={m}: build {build_ms:.0} ms (median of 3), \
         {bytes_per_vertex:.0} B/vertex ({footprint_pct:.2}% of dense), \
         query {query_ns:.0} ns, solve {solve_ms:.0} ms span={span} \
         lower_bound={lower_bound} (checksum {checksum})"
    );
    for (metric, value) in [
        ("m", m as f64),
        ("build_ms", build_ms),
        ("label_entries", labels.label_entries() as f64),
        ("max_label_size", labels.max_label_len() as f64),
        ("footprint_bytes", footprint as f64),
        ("footprint_pct_of_dense", footprint_pct),
        ("oracle_bytes_per_vertex", bytes_per_vertex),
        ("oracle_query_ns", query_ns),
        ("solve_ms", solve_ms),
        ("span", span as f64),
        ("lower_bound", lower_bound as f64),
        ("solve_queries", ostats.queries as f64),
    ] {
        ledger.metric(&format!("{metric}_n{n}"), value);
    }
    if n == GATED_N {
        ledger.metric("oracle_bytes_per_vertex", bytes_per_vertex);
        ledger.metric("oracle_query_ns", query_ns);
    }
    Cell {
        g,
        labels,
        pairs,
        hub: hub_report,
    }
}

fn main() {
    let mut ledger = Ledger::new("e16_oracle", "BENCH_oracle.json", 3);
    let mut failures: Vec<String> = Vec::new();

    // The gated cell keeps the dense twin (16 MB matrix at n = 2000) as a
    // differential oracle.
    let small = cell(GATED_N, 200_000, &mut ledger, &mut failures);
    let dense_report =
        solve(&oracle_request(&small.g, OraclePolicy::Dense)).expect("dense solve succeeds");
    if dense_report.solution.labeling != small.hub.solution.labeling
        || dense_report.solution.span != small.hub.solution.span
    {
        failures.push("dense- and hub-backed solutions differ".into());
    }
    if dense_report.lower_bound != small.hub.lower_bound {
        failures.push("dense- and hub-backed lower bounds differ".into());
    }
    let dq = dense_report.stats.oracle.as_ref().map(|o| o.queries);
    let hq = small.hub.stats.oracle.as_ref().map(|o| o.queries);
    if dq != hq {
        failures.push(format!(
            "query counts diverge across backends: dense {dq:?}, hub {hq:?}"
        ));
    }
    // The bench's pair schedule against the matrix, point by point.
    let dense = DistanceSource::dense(DistanceMatrix::compute(&small.g));
    for &(u, v) in small.pairs.iter().take(1024) {
        let (u, v) = (u as usize, v as usize);
        if small.labels.query(u, v) != dense.query(u, v) {
            failures.push(format!("hub and dense disagree at ({u}, {v})"));
            break;
        }
    }

    if !ledger::quick() {
        // Past the memory wall `Auto` must resolve to hub labels.
        let n = 50_000;
        let large = cell(n, 2_000_000, &mut ledger, &mut failures);
        let auto_report =
            solve(&oracle_request(&large.g, OraclePolicy::Auto)).expect("auto solve succeeds");
        let auto_backend = auto_report.stats.oracle.as_ref().map(|o| o.backend.clone());
        if auto_backend.as_deref() != Some("hub") {
            failures.push(format!(
                "Auto policy at n={n} picked {auto_backend:?}, expected hub"
            ));
        }
        if auto_report.solution.span != large.hub.solution.span {
            failures.push("Auto- and Hub-policy spans differ".into());
        }
        if dense_pipeline_bytes(n) <= 8 << 30 {
            failures.push(format!(
                "full-mode n={n} no longer demonstrates the memory wall \
                 (dense pipeline {} GiB ≤ 8 GiB)",
                dense_pipeline_bytes(n) >> 30
            ));
        }
    }
    ledger.finish(&failures);
}
