//! `dclab bench-gate` — the CI perf-regression gate.
//!
//! Compares freshly produced `BENCH_*.json` bench output (typically the
//! quick-mode run from the `bench-smoke` CI job) against the committed
//! full-mode baselines and fails when a named headline metric regressed
//! beyond its tolerance. Both sides are bench envelopes
//! ([`dclab_bench::ledger`]), and each gate reads `metrics.<name>`. The
//! gated metrics are deliberately few and load-bearing:
//!
//! | metric                        | file                   | dir    | tol |
//! |-------------------------------|------------------------|--------|-----|
//! | `apsp_speedup_smalldiam_1024` | BENCH_apsp.json        | higher | 30% |
//! | `store_appends_per_sec`       | BENCH_store.json       | higher | 70% |
//! | `store_warm_hit_rate`         | BENCH_store.json       | higher |  5% |
//! | `anytime_race_win_rate`       | BENCH_anytime.json     | higher | 30% |
//! | `anytime_race_median_span`    | BENCH_anytime.json     | lower  | 30% |
//! | `anytime_gap_at_50ms`         | BENCH_anytime.json     | lower  | 70% |
//! | `race_proved_n512`            | BENCH_anytime.json     | higher | 30% |
//! | `localsearch_speedup_n512`    | BENCH_localsearch.json | higher | 70% |
//! | `serve_p99_us`                | BENCH_serve.json       | lower  | 70% |
//! | `serve_conns_sustained`       | BENCH_serve.json       | higher | 30% |
//! | `trace_disabled_rounds_per_s` | BENCH_trace.json       | higher | 70% |
//! | `oracle_bytes_per_vertex`     | BENCH_oracle.json      | lower  | 70% |
//! | `oracle_query_ns`             | BENCH_oracle.json      | lower  | 70% |
//! | `canon_us_n8192`              | BENCH_canon.json       | lower  | 70% |
//!
//! Every bench computes its gated metrics on the same inputs in quick and
//! full mode, so the quick-mode CI output is directly comparable to the
//! committed baseline; at e13's five cells the 30% win-rate tolerance
//! forgives one lost cell and fails on two.
//!
//! Ratios and rates (APSP speedup, hit rate, win rate, span) are
//! machine-relative, so the default 30% tolerance is meaningful across
//! runners; raw throughput and wall time (appends/s, rounds/s, latencies)
//! vary wildly between hardware generations, so their gates are a loose
//! 70% — a catastrophic-drop detector, not a micro-benchmark. The
//! local-search speedup is also a ratio, but how far the chunked
//! branch-free scan beats the scalar oracle depends on the runner's vector
//! units and cache, so it gets the same loose 70% gate: a full-mode
//! baseline near 5× fails CI only if the run drops below ~1.5× — i.e. the
//! vectorized path stopped being a speedup at all.
//!
//! A baseline that is quick-mode output or of an unknown schema is an
//! error. A metric missing from the *baseline* is skipped with a note
//! (first run after a new bench lands); a metric missing from the
//! *current* output fails the gate (the bench silently stopped reporting
//! it).

use std::path::Path;

use dclab_bench::ledger::Envelope;
use dclab_engine::json::Obj;

pub const GATE_HELP: &str = "\
usage: dclab bench-gate --baseline <dir> [--current <dir>]

  --baseline <dir>    directory holding the committed BENCH_*.json baselines
  --current <dir>     directory holding the fresh bench output (default .)

Exits non-zero if any headline metric regressed beyond its tolerance, or
if a baseline is not a full-mode bench envelope.
";

/// One gated headline metric, read as `metrics.<name>` from `file`.
struct Gate {
    name: &'static str,
    file: &'static str,
    better: Better,
    /// Allowed fractional regression (0.30 = fail past 30%).
    tolerance: f64,
}

#[derive(PartialEq)]
enum Better {
    Higher,
    Lower,
}
use Better::{Higher, Lower};

const fn gate(name: &'static str, file: &'static str, better: Better, tolerance: f64) -> Gate {
    Gate {
        name,
        file,
        better,
        tolerance,
    }
}

const GATES: &[Gate] = &[
    gate(
        "apsp_speedup_smalldiam_1024",
        "BENCH_apsp.json",
        Higher,
        0.30,
    ),
    gate("store_appends_per_sec", "BENCH_store.json", Higher, 0.70),
    gate("store_warm_hit_rate", "BENCH_store.json", Higher, 0.05),
    gate("anytime_race_win_rate", "BENCH_anytime.json", Higher, 0.30),
    gate(
        "anytime_race_median_span",
        "BENCH_anytime.json",
        Lower,
        0.30,
    ),
    // Worst certified optimality gap over the gated deadline's cells.
    // Greedy spans and Held–Karp bounds are deterministic, so the gap
    // only moves when an instance flips between proved (gap 0) and
    // timed-out — the loose 70% gate fails only when a timed-out harvest
    // lands meaningfully above the committed certificate.
    gate("anytime_gap_at_50ms", "BENCH_anytime.json", Lower, 0.70),
    // Instances the race *proved* optimal at the gated deadline, as a
    // trend gate; e13 itself fails below 2.
    gate("race_proved_n512", "BENCH_anytime.json", Higher, 0.30),
    gate(
        "localsearch_speedup_n512",
        "BENCH_localsearch.json",
        Higher,
        0.70,
    ),
    // The slowest request of the cold mixed serve pass: raw wall time.
    gate("serve_p99_us", "BENCH_serve.json", Lower, 0.70),
    // Concurrent keep-alive connections the reactor sustained in the
    // capacity probe. Nearly deterministic (bounded by the probe cap and
    // the connection budget, not wall time), so a tight 30% gate: it
    // fails if the reactor regresses toward worker-pinned capacity.
    gate("serve_conns_sustained", "BENCH_serve.json", Higher, 0.30),
    // Solve throughput with tracing *disabled*: guards the zero-cost
    // contract of `Trace::disabled()` against accidental always-on
    // instrumentation.
    gate(
        "trace_disabled_rounds_per_s",
        "BENCH_trace.json",
        Higher,
        0.70,
    ),
    // Hub-label compactness: label bytes per vertex at n = 2000. Label
    // sizes drift with ordering heuristics more than hardware; the gate
    // catches a labeling that stopped being sparse.
    gate("oracle_bytes_per_vertex", "BENCH_oracle.json", Lower, 0.70),
    // Mean hub-label query latency: the merge-join inner loop.
    gate("oracle_query_ns", "BENCH_oracle.json", Lower, 0.70),
    // Median `CanonicalForm::of` time on a relabeled
    // core_periphery(8192, 64, 0), the cache-key cost of a relabeled repeat.
    gate("canon_us_n8192", "BENCH_canon.json", Lower, 0.70),
];

/// Outcome of checking one metric.
enum Check {
    Ok { baseline: f64, current: f64 },
    Regressed { baseline: f64, current: f64 },
    SkippedNoBaseline,
    MissingCurrent(String),
}

fn check_gate(gate: &Gate, baseline_dir: &str, current_dir: &str) -> Result<Check, String> {
    let baseline_path = Path::new(baseline_dir).join(gate.file);
    let Some(baseline) = Envelope::read(&baseline_path)? else {
        return Ok(Check::SkippedNoBaseline);
    };
    if baseline.quick {
        return Err(format!(
            "{}: a baseline must be full-mode output, not quick",
            baseline_path.display()
        ));
    }
    let Some(baseline) = baseline.metric(gate.name) else {
        return Ok(Check::SkippedNoBaseline);
    };
    let Some(current) = Envelope::read(&Path::new(current_dir).join(gate.file))? else {
        return Ok(Check::MissingCurrent(format!(
            "{current_dir}/{} not found",
            gate.file
        )));
    };
    let Some(current) = current.metric(gate.name) else {
        return Ok(Check::MissingCurrent(format!(
            "metric absent from {current_dir}/{}",
            gate.file
        )));
    };
    let regressed = if gate.better == Higher {
        current < baseline * (1.0 - gate.tolerance)
    } else {
        current > baseline * (1.0 + gate.tolerance)
    };
    Ok(if regressed {
        Check::Regressed { baseline, current }
    } else {
        Check::Ok { baseline, current }
    })
}

/// `dclab bench-gate --baseline <dir> [--current <dir>]`.
pub fn bench_gate_cmd(args: &[String]) -> Result<(), String> {
    let mut baseline_dir: Option<String> = None;
    let mut current_dir = ".".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline_dir = Some(flag_value("--baseline")?),
            "--current" => current_dir = flag_value("--current")?,
            other => return Err(format!("unknown bench-gate flag '{other}'\n{GATE_HELP}")),
        }
    }
    let baseline_dir =
        baseline_dir.ok_or_else(|| format!("--baseline is required\n{GATE_HELP}"))?;

    let mut failures = Vec::new();
    let mut lines = Vec::new();
    for gate in GATES {
        let direction = if gate.better == Higher { "≥" } else { "≤" };
        let tolerance = gate.tolerance * 100.0;
        match check_gate(gate, &baseline_dir, &current_dir)? {
            Check::Ok { baseline, current } => {
                lines.push(
                    Obj::new()
                        .str("metric", gate.name)
                        .str("status", "ok")
                        .f64("baseline", baseline)
                        .f64("current", current)
                        .finish(),
                );
                println!(
                    "bench-gate ok       {:<32} {current:>14.3} (baseline {baseline:.3}, want {direction} within {:.0}%)",
                    gate.name,
                    tolerance
                );
            }
            Check::Regressed { baseline, current } => {
                lines.push(
                    Obj::new()
                        .str("metric", gate.name)
                        .str("status", "regressed")
                        .f64("baseline", baseline)
                        .f64("current", current)
                        .finish(),
                );
                println!(
                    "bench-gate REGRESSED {:<31} {current:>14.3} (baseline {baseline:.3}, tolerance {:.0}%)",
                    gate.name,
                    tolerance
                );
                failures.push(gate.name);
            }
            Check::SkippedNoBaseline => {
                lines.push(
                    Obj::new()
                        .str("metric", gate.name)
                        .str("status", "skipped")
                        .finish(),
                );
                println!(
                    "bench-gate skipped  {:<32} (no committed baseline yet)",
                    gate.name
                );
            }
            Check::MissingCurrent(why) => {
                lines.push(
                    Obj::new()
                        .str("metric", gate.name)
                        .str("status", "missing")
                        .str("detail", &why)
                        .finish(),
                );
                println!("bench-gate MISSING  {:<32} ({why})", gate.name);
                failures.push(gate.name);
            }
        }
    }
    println!(
        "{}",
        Obj::new()
            .str("gate", "bench-gate")
            .usize("metrics", GATES.len())
            .usize("failures", failures.len())
            .raw("checks", &dclab_engine::json::array(lines))
            .finish()
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "bench gate failed: {} metric(s) regressed or missing: {}",
            failures.len(),
            failures.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, file: &str, text: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(file), text).unwrap();
    }

    /// A test-unique directory, removed when the test ends (a failed
    /// assertion included).
    struct TempDir(std::path::PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn temp_dir(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dclab-gate-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// A bench envelope holding one metric.
    fn envelope(quick: bool, metric: &str, value: f64) -> String {
        format!(
            "{{\"bench\":\"t\",\"schema\":1,\"commit\":\"x\",\"host\":{{\"cpus\":2}},\
             \"quick\":{quick},\"samples\":5,\"metrics\":{{\"{metric}\":{value}}}}}"
        )
    }

    fn gate(base: &Path, cur: &Path) -> Result<(), String> {
        bench_gate_cmd(&[
            "--baseline".to_string(),
            base.to_str().unwrap().to_string(),
            "--current".to_string(),
            cur.to_str().unwrap().to_string(),
        ])
    }

    const APSP: &str = "apsp_speedup_smalldiam_1024";

    #[test]
    fn gate_passes_when_metrics_hold() {
        let base = temp_dir("pass-base");
        let cur = temp_dir("pass-cur");
        write(&base, "BENCH_apsp.json", &envelope(false, APSP, 16.0));
        // 20% slower speedup: inside the 30% tolerance.
        write(&cur, "BENCH_apsp.json", &envelope(true, APSP, 12.8));
        // Store/anytime files absent from the baseline → skipped, not failed.
        gate(&base, &cur).expect("gate passes");
    }

    #[test]
    fn gate_fails_on_headline_regression() {
        let base = temp_dir("fail-base");
        let cur = temp_dir("fail-cur");
        write(&base, "BENCH_apsp.json", &envelope(false, APSP, 16.0));
        // Speedup collapsed 16× → 8×: a 50% regression, past the gate.
        write(&cur, "BENCH_apsp.json", &envelope(true, APSP, 8.0));
        let err = gate(&base, &cur).expect_err("gate must fail");
        assert!(err.contains(APSP), "{err}");
    }

    #[test]
    fn gate_fails_when_current_output_is_missing() {
        let base = temp_dir("missing-base");
        let cur = temp_dir("missing-cur");
        write(&base, "BENCH_apsp.json", &envelope(false, APSP, 16.0));
        // Baseline exists but the bench produced nothing → fail loudly.
        let err = gate(&base, &cur).expect_err("gate must fail");
        assert!(err.contains("regressed or missing"), "{err}");
    }

    #[test]
    fn lower_is_better_metrics_gate_in_the_other_direction() {
        let base = temp_dir("lower-base");
        let cur = temp_dir("lower-cur");
        let span = "anytime_race_median_span";
        write(&base, "BENCH_anytime.json", &envelope(false, span, 100.0));
        write(&cur, "BENCH_anytime.json", &envelope(true, span, 140.0)); // 40% worse
        let err = gate(&base, &cur).expect_err("span regression fails");
        assert!(err.contains(span), "{err}");
        // An *improvement* (smaller span) passes.
        write(&cur, "BENCH_anytime.json", &envelope(true, span, 80.0));
        gate(&base, &cur).expect("improvement passes");
    }

    #[test]
    fn canon_time_is_read_from_the_bench_envelope() {
        let base = temp_dir("canon-base");
        let cur = temp_dir("canon-cur");
        let canon = "canon_us_n8192";
        write(&base, "BENCH_canon.json", &envelope(false, canon, 10000.0));
        write(&cur, "BENCH_canon.json", &envelope(true, canon, 16000.0)); // inside 70%
        gate(&base, &cur).expect("within tolerance passes");
        write(&cur, "BENCH_canon.json", &envelope(true, canon, 18000.0)); // 80% slower
        let err = gate(&base, &cur).expect_err("canon regression fails");
        assert!(err.contains(canon), "{err}");
    }

    #[test]
    fn quick_mode_baseline_is_an_error() {
        let base = temp_dir("quick-base");
        let cur = temp_dir("quick-cur");
        write(&base, "BENCH_apsp.json", &envelope(true, APSP, 16.0));
        write(&cur, "BENCH_apsp.json", &envelope(true, APSP, 16.0));
        let err = gate(&base, &cur).expect_err("a quick baseline is refused");
        assert!(err.contains("full-mode"), "{err}");
    }

    #[test]
    fn unknown_schema_or_shape_is_an_error() {
        let base = temp_dir("schema-base");
        let cur = temp_dir("schema-cur");
        write(&cur, "BENCH_apsp.json", &envelope(true, APSP, 16.0));
        let schema2 = envelope(false, APSP, 16.0).replace("\"schema\":1", "\"schema\":2");
        write(&base, "BENCH_apsp.json", &schema2);
        let err = gate(&base, &cur).expect_err("schema 2 is refused");
        assert!(err.contains("unknown schema 2"), "{err}");
        // The pre-envelope shapes: a criterion result list, a flat object.
        write(
            &base,
            "BENCH_apsp.json",
            r#"{"bench":"e11_apsp","results":[]}"#,
        );
        assert!(gate(&base, &cur).is_err());
        write(&base, "BENCH_apsp.json", &envelope(false, APSP, 16.0));
        let nested = envelope(true, APSP, 16.0).replace("16}", "{\"p50\":16}}");
        write(&cur, "BENCH_apsp.json", &nested);
        let err = gate(&base, &cur).expect_err("a nested metric is refused");
        assert!(err.contains("not a number"), "{err}");
    }

    /// The committed baselines: every `BENCH_*.json` at the workspace root
    /// is a full-mode envelope, and each gate's metric is in its file.
    #[test]
    fn committed_baselines_are_full_mode_envelopes_with_every_gated_metric() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let env = Envelope::read(&path).unwrap().unwrap();
            assert!(!env.quick, "{name} is quick-mode output");
            assert!(env.cpus > 0 && env.samples > 0, "{name}: {env:?}");
            assert!(
                env.bench.ends_with(&name[6..name.len() - 5]),
                "{name}: {env:?}"
            );
            files += 1;
        }
        assert_eq!(files, 9, "nine committed BENCH_*.json files");
        for gate in GATES {
            let env = Envelope::read(&root.join(gate.file)).unwrap().unwrap();
            assert!(
                env.metric(gate.name).is_some(),
                "{} lacks {}",
                gate.file,
                gate.name
            );
        }
    }
}
