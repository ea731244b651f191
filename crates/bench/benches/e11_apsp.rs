//! E11 bench — the APSP baseline: scalar one-BFS-per-source vs. the
//! bit-parallel blocked kernel (single-threaded) vs. the blocked kernel
//! fanned across threads, on the paper's small-diameter G(n,p) corpus and
//! a sparse preferential-attachment corpus, n ∈ {256, 1024, 4096}.
//!
//! Each cell is the median of `SAMPLES` timed runs in µs
//! (`apsp_us_<corpus>_<kernel>_n<n>`), written to `BENCH_apsp.json` at the
//! workspace root. The gated `apsp_speedup_smalldiam_1024` is measured in
//! `PAIRED_REPS` pairs on the small-diameter corpus at n = 1024: each rep
//! times the scalar and the single-threaded bit-parallel kernel back to
//! back, alternating which runs first, and the gate reads the median of
//! the per-rep ratios, so host drift between two separate loops cancels.
//! That cell's two kernel columns are the medians of the same reps. Quick
//! mode skips the n = 4096 sweep.

use dclab_bench::ledger::{self, median, median_us, Ledger};
use dclab_graph::generators::random;
use dclab_graph::{DistanceMatrix, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 5;
/// Scalar/bit-parallel pairs behind the gated speedup.
const PAIRED_REPS: usize = 9;

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

/// Wall time in µs of one call of `f`.
fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64() * 1e6
}

/// `PAIRED_REPS` back-to-back runs of the scalar and the single-threaded
/// bit-parallel kernel, alternating which goes first: the median time of
/// each and the median of the per-rep scalar/bit-parallel ratios.
fn paired(g: &Graph) -> (f64, f64, f64) {
    let (mut scalar, mut bit64, mut ratio) = (vec![], vec![], vec![]);
    dclab_par::set_thread_override(Some(1));
    let run_scalar = || time_us(|| DistanceMatrix::compute_sequential(black_box(g)));
    let run_bit64 = || time_us(|| DistanceMatrix::compute(black_box(g)));
    for rep in 0..PAIRED_REPS {
        let (s, b) = if rep % 2 == 0 {
            let s = run_scalar();
            (s, run_bit64())
        } else {
            let b = run_bit64();
            (run_scalar(), b)
        };
        scalar.push(s);
        bit64.push(b);
        ratio.push(s / b);
    }
    dclab_par::set_thread_override(None);
    (median(&mut scalar), median(&mut bit64), median(&mut ratio))
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
            let (scalar, bit64) = if corpus == "smalldiam" && n == 1024 {
                let (scalar, bit64, speedup) = paired(&g);
                println!("bench e11_apsp/{corpus}/{n}: speedup {speedup:.2} (median of {PAIRED_REPS} paired ratios)");
                ledger.metric("apsp_speedup_smalldiam_1024", speedup);
                (scalar, bit64)
            } else {
                let scalar = median_us(SAMPLES, || {
                    DistanceMatrix::compute_sequential(black_box(&g))
                });
                dclab_par::set_thread_override(Some(1));
                let bit64 = median_us(SAMPLES, || DistanceMatrix::compute(black_box(&g)));
                dclab_par::set_thread_override(None);
                (scalar, bit64)
            };
            let threaded = median_us(SAMPLES, || DistanceMatrix::compute(black_box(&g)));
            println!(
                "bench e11_apsp/{corpus}/{n}: scalar {scalar:.0} µs, bit64 {bit64:.0} µs, \
                 bit64-threaded {threaded:.0} µs (medians)"
            );
            ledger.metric(&format!("apsp_us_{corpus}_scalar_n{n}"), scalar);
            ledger.metric(&format!("apsp_us_{corpus}_bit64_n{n}"), bit64);
            ledger.metric(&format!("apsp_us_{corpus}_bit64_threaded_n{n}"), threaded);
        }
    }
    ledger.finish(&[]);
}
