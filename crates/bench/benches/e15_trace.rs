//! E15 bench — the tracing tax, measured and gated.
//!
//! The `dclab-trace` contract is that instrumentation is free when nobody
//! is looking: a solve with no installed trace must cost the same as the
//! verbatim untraced twin (`chained_lk_untraced`, the pre-instrumentation
//! code path kept as a differential oracle), and a *live* trace may only
//! pay for its clock reads and span pushes, never perturb the search.
//!
//! On the e14 hardness corpus (n = 512 Griggs–Yeh diameter-2 instances
//! reduced to Path TSP, dummy-extended) this bench runs the identical
//! chained-LK schedule three ways per rep — untraced twin, instrumented
//! path with tracing disabled, instrumented path under an installed
//! `Trace::enabled()` — and asserts:
//!
//! * **bit-identity**: all three produce identical tours and weights for
//!   every instance (tracing must never change RNG consumption or search
//!   order);
//! * **disabled overhead ≤ 2%** of the untraced twin (median of per-rep
//!   paired ratios, so machine drift and scheduler outliers both cancel):
//!   `Trace::disabled()` performs zero clock reads, so the only residue
//!   is a thread-local read and a branch per span site;
//! * **enabled overhead < 5%**: a live trace's clock reads and span pushes
//!   stay in the noise at solve granularity.
//!
//! Writes `BENCH_trace.json` at the workspace root; bench-gate holds
//! `trace_disabled_rounds_per_s` to the committed baseline (loose 70% —
//! raw throughput) while the overhead ratios are gated *here*, machine-
//! relatively, on every run. Both modes run the same schedule.

use std::time::Instant;

use dclab_bench::ledger::{median, Ledger};
use dclab_bench::{hardness_diam2, l21};
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_tsp::lk::{chained_lk_untraced, chained_lk_with_candidates, ChainedLkConfig};
use dclab_tsp::localsearch::CandidateLists;
use dclab_tsp::TspInstance;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 512;

type Runs = Vec<(Vec<u32>, u64)>;

fn main() {
    // A full corpus pass is only a few milliseconds, so single-rep wall
    // clocks are noise-dominated; the gates use minima over many
    // interleaved reps, which converge on the true cost.
    let (instances, kicks, reps) = (5usize, 30usize, 40usize);

    let corpus: Vec<TspInstance> = (0..instances)
        .map(|i| {
            let g = hardness_diam2(N, 0xE15 + i as u64);
            reduce_to_path_tsp(&g, &l21())
                .expect("hardness corpus always reduces")
                .tsp
                .with_dummy_city()
        })
        .collect();
    let cfg = ChainedLkConfig {
        kicks,
        ..ChainedLkConfig::default()
    };
    let cands: Vec<CandidateLists> = corpus
        .iter()
        .map(|ext| CandidateLists::build(ext, cfg.local.neighbor_k))
        .collect();
    let rounds = instances as u64 * (kicks as u64 + 1);

    // One full pass over the corpus with fresh per-instance seeds;
    // identical RNG streams across variants.
    let run_untraced = |out: &mut Runs| {
        out.clear();
        for (i, ext) in corpus.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xE15 + i as u64);
            out.push(chained_lk_untraced(ext, 0, &cfg, &cands[i], &mut rng));
        }
    };
    let run_instrumented = |out: &mut Runs| {
        out.clear();
        for (i, ext) in corpus.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xE15 + i as u64);
            out.push(chained_lk_with_candidates(
                ext, 0, &cfg, &cands[i], &mut rng,
            ));
        }
    };

    let mut untraced_best_s = f64::INFINITY;
    let mut disabled_best_s = f64::INFINITY;
    let mut enabled_best_s = f64::INFINITY;
    // Per-rep paired ratios: the three variants run back-to-back inside
    // one rep, so each ratio compares measurements taken milliseconds
    // apart and slow drift (thermal, frequency scaling, noisy neighbors)
    // cancels; the median over reps then discards per-rep scheduler
    // outliers in either direction. The global minima only feed the
    // rounds/s headlines.
    let mut disabled_ratios: Vec<f64> = Vec::with_capacity(reps);
    let mut enabled_ratios: Vec<f64> = Vec::with_capacity(reps);
    let mut untraced_runs: Runs = Vec::new();
    let mut disabled_runs: Runs = Vec::new();
    let mut enabled_runs: Runs = Vec::new();
    let mut spans_recorded = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        run_untraced(&mut untraced_runs);
        let untraced_s = t0.elapsed().as_secs_f64();
        untraced_best_s = untraced_best_s.min(untraced_s);

        let t0 = Instant::now();
        run_instrumented(&mut disabled_runs);
        let disabled_s = t0.elapsed().as_secs_f64();
        disabled_best_s = disabled_best_s.min(disabled_s);
        disabled_ratios.push(disabled_s / untraced_s);

        let trace = dclab_trace::Trace::enabled();
        let t0 = Instant::now();
        {
            let _install = trace.install();
            run_instrumented(&mut enabled_runs);
        }
        let enabled_s = t0.elapsed().as_secs_f64();
        enabled_best_s = enabled_best_s.min(enabled_s);
        enabled_ratios.push(enabled_s / untraced_s);
        spans_recorded = trace
            .finish("e15".into(), "lk".into())
            .expect("trace was enabled")
            .spans
            .len();
    }

    let mut failures: Vec<String> = Vec::new();

    // --- bit-identity: tracing never perturbs the search ----------------
    if disabled_runs != untraced_runs {
        failures.push("disabled-trace tours differ from the untraced twin".into());
    }
    if enabled_runs != untraced_runs {
        failures.push("live-trace tours differ from the untraced twin".into());
    }
    if spans_recorded < instances {
        failures.push(format!(
            "live trace recorded {spans_recorded} spans for {instances} instances"
        ));
    }

    // --- overhead gates (machine-relative, enforced every run) ----------
    let disabled_overhead = median(&mut disabled_ratios) - 1.0;
    let enabled_overhead = median(&mut enabled_ratios) - 1.0;
    let untraced_rounds_per_s = rounds as f64 / untraced_best_s;
    let disabled_rounds_per_s = rounds as f64 / disabled_best_s;
    let enabled_rounds_per_s = rounds as f64 / enabled_best_s;
    println!(
        "bench e15_trace/chained_lk n={N}: untraced {untraced_rounds_per_s:.1} rounds/s, \
         disabled {disabled_rounds_per_s:.1} ({:+.2}%), \
         enabled {enabled_rounds_per_s:.1} ({:+.2}%, {spans_recorded} spans)",
        disabled_overhead * 100.0,
        enabled_overhead * 100.0
    );
    if disabled_overhead > 0.02 {
        failures.push(format!(
            "disabled-trace overhead {:.2}% above the 2% bar",
            disabled_overhead * 100.0
        ));
    }
    if enabled_overhead >= 0.05 {
        failures.push(format!(
            "live-trace overhead {:.2}% at or above the 5% bar",
            enabled_overhead * 100.0
        ));
    }

    let mut ledger = Ledger::new("e15_trace", "BENCH_trace.json", reps);
    ledger.metric("untraced_rounds_per_s", untraced_rounds_per_s);
    ledger.metric("trace_disabled_rounds_per_s", disabled_rounds_per_s);
    ledger.metric("enabled_rounds_per_s", enabled_rounds_per_s);
    ledger.metric("disabled_overhead", disabled_overhead);
    ledger.metric("enabled_overhead", enabled_overhead);
    ledger.metric("spans_recorded", spans_recorded as f64);
    ledger.finish(&failures);
}
