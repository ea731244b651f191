//! E17 bench — the cost of `CanonicalForm::of`, the serve tier's cache-key
//! layer. A cache hit pays for canonicalization and nothing of the paper's
//! reduction, so this is the layer a relabeled repeat of an instance waits
//! on.
//!
//! Each cell canonicalizes seeded random relabelings of one base graph and
//! records the median time in µs (`canon_us_<corpus>_n<n>`):
//!
//! * `cp` — `core_periphery(n, 64, 0)`, the twin-only family of the
//!   serve-relabel workload and of `dclab gen smalldiam`: n ∈ {512, 2048,
//!   8192}, plus 50 000 in full mode. `canon_us_n8192` repeats its
//!   n = 8192 cell; bench-gate holds it to the committed baseline.
//! * `gnp` — G(n, p) with diameter ≤ 2 at p = √(2.8 ln n / n), just above
//!   the diameter-2 threshold: n ∈ {512, 2048}, plus 8192 in full mode
//!   (m ≈ 1.9 M).
//! * `gy` — the Griggs–Yeh hardness corpus (the complement of G(n − 1, ½)
//!   plus a universal vertex): n ∈ {512, 2048}. At n = 8192 it would have
//!   16.8 M edges, several hundred MB with its canonical form.
//!
//! The bench fails if a relabeling of a twin-only base canonizes to other
//! edges than the base, or if any relabeling changes the hash. It writes
//! `BENCH_canon.json` at the workspace root. Quick mode takes 3 samples
//! per cell and drops the full-mode sizes.

use std::time::Instant;

use dclab_bench::hardness_diam2;
use dclab_bench::ledger::{self, median, Ledger};
use dclab_graph::generators::random;
use dclab_graph::{CanonicalForm, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CORE: usize = 64;
const SEED: u64 = 0xE17;

/// One corpus: its sizes in quick mode, the sizes full mode adds, whether
/// its graphs have only twin classes, and its seeded generator.
struct Corpus {
    name: &'static str,
    sizes: &'static [usize],
    full_sizes: &'static [usize],
    twin_only: bool,
    build: fn(usize, &mut StdRng) -> Graph,
}

const CORPORA: &[Corpus] = &[
    Corpus {
        name: "cp",
        sizes: &[512, 2048, 8192],
        full_sizes: &[50_000],
        twin_only: true,
        build: |n, rng| random::core_periphery(rng, n, CORE, 0.0),
    },
    Corpus {
        name: "gnp",
        sizes: &[512, 2048],
        full_sizes: &[8192],
        twin_only: false,
        build: |n, rng| {
            let p = (2.8 * (n as f64).ln() / n as f64).sqrt();
            random::gnp_with_diameter_at_most(rng, n, p, 2)
        },
    },
    Corpus {
        name: "gy",
        sizes: &[512, 2048],
        full_sizes: &[],
        twin_only: false,
        build: |n, rng| hardness_diam2(n, rng.next_u64()),
    },
];

fn main() {
    let quick = ledger::quick();
    let samples = if quick { 3 } else { 9 };
    let mut ledger = Ledger::new("e17_canon", "BENCH_canon.json", samples);
    let mut failures: Vec<String> = Vec::new();
    let mut headline = None;
    for corpus in CORPORA {
        let extra = if quick { &[][..] } else { corpus.full_sizes };
        for &n in corpus.sizes.iter().chain(extra) {
            let mut rng = StdRng::seed_from_u64(SEED ^ n as u64);
            let base = (corpus.build)(n, &mut rng);
            let want = CanonicalForm::of(&base);
            let mut times = Vec::with_capacity(samples);
            let mut moved = 0;
            for _ in 0..samples {
                let perm = random::random_permutation(&mut rng, n);
                let h = base.relabeled(&perm);
                let t0 = Instant::now();
                let got = CanonicalForm::of(&h);
                times.push(t0.elapsed().as_secs_f64() * 1e6);
                if got.hash != want.hash {
                    failures.push(format!(
                        "{} n={n}: a relabeling moved the hash",
                        corpus.name
                    ));
                }
                moved += usize::from(!got.same_canonical_graph(&want));
            }
            if corpus.twin_only && moved > 0 {
                failures.push(format!(
                    "{} n={n}: {moved} of {samples} relabelings of a twin-only graph \
                     canonized to other edges",
                    corpus.name
                ));
            }
            let us = median(&mut times);
            println!(
                "bench e17_canon/{}/{n}: m={} median {us:.0} µs over {samples} relabelings \
                 ({moved} canonized differently)",
                corpus.name,
                base.m()
            );
            ledger.metric(&format!("canon_us_{}_n{n}", corpus.name), us);
            if corpus.name == "cp" && n == 8192 {
                headline = Some(us);
            }
        }
    }
    ledger.metric(
        "canon_us_n8192",
        headline.expect("the cp corpus runs at n = 8192"),
    );
    ledger.finish(&failures);
}
