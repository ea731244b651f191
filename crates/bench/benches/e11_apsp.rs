//! E11 bench — the APSP baseline: scalar one-BFS-per-source vs. the
//! bit-parallel blocked kernel (single-threaded) vs. the blocked kernel
//! fanned across threads, on the paper's small-diameter G(n,p) corpus and
//! a sparse preferential-attachment corpus, n ∈ {256, 1024, 4096}.
//!
//! Each cell is the median of `SAMPLES` timed runs in µs
//! (`apsp_us_<corpus>_<kernel>_n<n>`), written to `BENCH_apsp.json` at the
//! workspace root. The gated `apsp_speedup_smalldiam_1024` is the ratio
//! of the scalar and single-threaded bit-parallel medians on the
//! small-diameter corpus at n = 1024. Quick mode skips the n = 4096 sweep.

use dclab_bench::ledger::{self, median_us, Ledger};
use dclab_graph::generators::random;
use dclab_graph::{DistanceMatrix, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const SAMPLES: usize = 5;

/// Dense-enough G(n,p) that the diameter lands at 2–3 — the Theorem 2
/// regime where the distance matrix is the whole cost of the reduction.
fn small_diameter_gnp(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = 1.5 * (2.0 * (n as f64).ln() / n as f64).sqrt();
    random::gnp(&mut rng, n, p.clamp(0.0, 0.6))
}

/// Sparse small-world corpus: preferential attachment, diameter ~4–5.
fn ba_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    random::barabasi_albert(&mut rng, n, 8)
}

fn main() {
    let sizes: &[usize] = if ledger::quick() {
        &[256, 1024]
    } else {
        &[256, 1024, 4096]
    };
    let mut ledger = Ledger::new("e11_apsp", "BENCH_apsp.json", SAMPLES);
    type Corpus = fn(usize, u64) -> Graph;
    let corpora: [(&str, Corpus); 2] = [("smalldiam", small_diameter_gnp), ("ba", ba_graph)];
    for (corpus, make) in corpora {
        for &n in sizes {
            let g = make(n, 0xA95F + n as u64);
            let scalar = median_us(SAMPLES, || {
                DistanceMatrix::compute_sequential(black_box(&g))
            });
            dclab_par::set_thread_override(Some(1));
            let bit64 = median_us(SAMPLES, || DistanceMatrix::compute(black_box(&g)));
            dclab_par::set_thread_override(None);
            let threaded = median_us(SAMPLES, || DistanceMatrix::compute(black_box(&g)));
            println!(
                "bench e11_apsp/{corpus}/{n}: scalar {scalar:.0} µs, bit64 {bit64:.0} µs, \
                 bit64-threaded {threaded:.0} µs (medians of {SAMPLES})"
            );
            ledger.metric(&format!("apsp_us_{corpus}_scalar_n{n}"), scalar);
            ledger.metric(&format!("apsp_us_{corpus}_bit64_n{n}"), bit64);
            ledger.metric(&format!("apsp_us_{corpus}_bit64_threaded_n{n}"), threaded);
            if corpus == "smalldiam" && n == 1024 {
                ledger.metric("apsp_speedup_smalldiam_1024", scalar / bit64);
            }
        }
    }
    ledger.finish(&[]);
}
