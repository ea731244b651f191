//! `dclab bench-gate` — the CI perf-regression gate.
//!
//! Compares freshly produced `BENCH_*.json` bench output (typically the
//! quick-mode run from the `bench-smoke` CI job) against the committed
//! baselines and fails when a named headline metric regressed beyond its
//! tolerance. The gated metrics are deliberately few and load-bearing:
//!
//! | metric                        | file               | dir    | tol |
//! |-------------------------------|--------------------|--------|-----|
//! | `apsp_speedup_smalldiam_1024` | BENCH_apsp.json    | higher | 30% |
//! | `store_appends_per_sec`       | BENCH_store.json   | higher | 70% |
//! | `store_warm_hit_rate`         | BENCH_store.json   | higher |  5% |
//! | `anytime_race_win_rate`       | BENCH_anytime.json | higher | 30% |
//! | `anytime_race_median_span`    | BENCH_anytime.json | lower  | 30% |
//! | `anytime_gap_at_50ms`         | BENCH_anytime.json | lower  | 70% |
//! | `race_proved_n512`            | BENCH_anytime.json | higher | 30% |
//! | `localsearch_speedup_n512`    | BENCH_localsearch.json | higher | 70% |
//! | `serve_p99_us`                | BENCH_serve.json   | lower  | 70% |
//! | `serve_conns_sustained`       | BENCH_serve.json   | higher | 30% |
//! | `trace_disabled_rounds_per_s` | BENCH_trace.json   | higher | 70% |
//! | `oracle_bytes_per_vertex`     | BENCH_oracle.json  | lower  | 70% |
//! | `oracle_query_ns`             | BENCH_oracle.json  | lower  | 70% |
//! | `canon_us_n8192`              | BENCH_canon.json   | lower  | 70% |
//!
//! The anytime metrics are computed by `e13_anytime` over the *gated*
//! deadline's cells only (same instance count in quick and full mode), so
//! the quick-mode CI output is directly comparable to the committed
//! full-mode baseline; at five cells the 30% win-rate tolerance forgives
//! one lost cell and fails on two.
//!
//! Ratios and rates (APSP speedup, hit rate, win rate, span) are
//! machine-relative, so the default 30% tolerance is meaningful across
//! runners; raw throughput (`appends_per_sec`) varies wildly between
//! hardware generations, so its gate is a loose 70% — a catastrophic-drop
//! detector, not a micro-benchmark. The local-search speedup is also a
//! ratio, but how far the chunked branch-free scan beats the scalar
//! oracle depends on the runner's vector units and cache, so it gets the
//! same loose 70% gate: a full-mode baseline near 5× fails CI only if the
//! quick-mode run drops below ~1.5× — i.e. the vectorized path stopped
//! being a speedup at all.
//!
//! A metric missing from the *baseline* is skipped with a note (first run
//! after a new bench lands); a metric missing from the *current* output
//! fails the gate (the bench silently stopped reporting it).

use dclab_engine::json::{parse, Obj, Value};

pub const GATE_HELP: &str = "\
usage: dclab bench-gate --baseline <dir> [--current <dir>] [--tolerance F]

  --baseline <dir>    directory holding the committed BENCH_*.json baselines
  --current <dir>     directory holding the fresh bench output (default .)
  --tolerance F       override the default per-metric tolerance (0 < F < 1)

Exits non-zero if any headline metric regressed beyond its tolerance.
";

/// One gated headline metric.
struct MetricSpec {
    name: &'static str,
    file: &'static str,
    higher_is_better: bool,
    /// Allowed fractional regression (0.30 = fail past 30%).
    tolerance: f64,
    extract: fn(&Value) -> Option<f64>,
}

/// Mean ns/iter of one criterion-style result id.
fn mean_ns(doc: &Value, id: &str) -> Option<f64> {
    doc.get("results")?
        .as_arr()?
        .iter()
        .find(|r| r.get("id").and_then(Value::as_str) == Some(id))?
        .get("mean_ns")?
        .as_f64()
}

fn apsp_speedup(doc: &Value) -> Option<f64> {
    let scalar = mean_ns(doc, "e11_apsp_smalldiam/scalar/1024")?;
    let bit64 = mean_ns(doc, "e11_apsp_smalldiam/bit64/1024")?;
    (bit64 > 0.0).then(|| scalar / bit64)
}

const METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "apsp_speedup_smalldiam_1024",
        file: "BENCH_apsp.json",
        higher_is_better: true,
        tolerance: 0.30,
        extract: apsp_speedup,
    },
    MetricSpec {
        name: "store_appends_per_sec",
        file: "BENCH_store.json",
        higher_is_better: true,
        tolerance: 0.70,
        extract: |doc| doc.get("appends_per_sec").and_then(Value::as_f64),
    },
    MetricSpec {
        name: "store_warm_hit_rate",
        file: "BENCH_store.json",
        higher_is_better: true,
        tolerance: 0.05,
        extract: |doc| doc.get("warm_hit_rate").and_then(Value::as_f64),
    },
    MetricSpec {
        name: "anytime_race_win_rate",
        file: "BENCH_anytime.json",
        higher_is_better: true,
        tolerance: 0.30,
        extract: |doc| doc.get("race_win_rate").and_then(Value::as_f64),
    },
    MetricSpec {
        name: "anytime_race_median_span",
        file: "BENCH_anytime.json",
        higher_is_better: false,
        tolerance: 0.30,
        extract: |doc| doc.get("race_median_span").and_then(Value::as_f64),
    },
    // Worst certified optimality gap over the gated deadline's cells.
    // Greedy spans and Held–Karp bounds are deterministic, so the gap
    // only moves when an instance flips between proved (gap 0) and
    // timed-out — the loose 70% gate fails only when a timed-out harvest
    // lands meaningfully above the committed certificate.
    MetricSpec {
        name: "anytime_gap_at_50ms",
        file: "BENCH_anytime.json",
        higher_is_better: false,
        tolerance: 0.70,
        extract: |doc| doc.get("anytime_gap_at_50ms").and_then(Value::as_f64),
    },
    // Instances the race *proved* optimal at the gated deadline. The
    // 30% gate on a baseline of 2 fails below 2 — the same floor the
    // e13 acceptance assertion enforces, restated as a trend gate.
    MetricSpec {
        name: "race_proved_n512",
        file: "BENCH_anytime.json",
        higher_is_better: true,
        tolerance: 0.30,
        extract: |doc| doc.get("race_proved_n512").and_then(Value::as_f64),
    },
    MetricSpec {
        name: "localsearch_speedup_n512",
        file: "BENCH_localsearch.json",
        higher_is_better: true,
        tolerance: 0.70,
        extract: |doc| doc.get("speedup").and_then(Value::as_f64),
    },
    // Tail latency of the mixed serve corpus: raw wall time, so runner-
    // dependent like the throughput gates — 70% is a catastrophic-drop
    // detector (a tail that triples fails, scheduler jitter does not).
    MetricSpec {
        name: "serve_p99_us",
        file: "BENCH_serve.json",
        higher_is_better: false,
        tolerance: 0.70,
        extract: |doc| doc.get("serve_p99_us").and_then(Value::as_f64),
    },
    // Concurrent keep-alive connections the reactor sustained in the
    // capacity probe. Nearly deterministic (bounded by the probe cap and
    // the connection budget, not wall time), so a tight 30% gate: it
    // fails if the reactor regresses toward worker-pinned capacity.
    MetricSpec {
        name: "serve_conns_sustained",
        file: "BENCH_serve.json",
        higher_is_better: true,
        tolerance: 0.30,
        extract: |doc| doc.get("serve_conns_sustained").and_then(Value::as_f64),
    },
    // Solve throughput with tracing *disabled*: guards the zero-cost
    // contract of `Trace::disabled()` against accidental always-on
    // instrumentation (raw throughput → loose 70% gate).
    MetricSpec {
        name: "trace_disabled_rounds_per_s",
        file: "BENCH_trace.json",
        higher_is_better: true,
        tolerance: 0.70,
        extract: |doc| doc.get("disabled_rounds_per_s").and_then(Value::as_f64),
    },
    // Hub-label compactness: serialized label bytes per vertex on the
    // bench family. Label sizes drift with ordering heuristics more than
    // hardware, but quick mode builds a smaller instance than the
    // committed full-mode baseline, so the loose 70% gate only catches a
    // labeling that stopped being sparse.
    MetricSpec {
        name: "oracle_bytes_per_vertex",
        file: "BENCH_oracle.json",
        higher_is_better: false,
        tolerance: 0.70,
        extract: |doc| doc.get("oracle_bytes_per_vertex").and_then(Value::as_f64),
    },
    // Mean hub-label distance query latency: raw wall time → 70% gate,
    // a catastrophic-drop detector for the merge-join inner loop.
    MetricSpec {
        name: "oracle_query_ns",
        file: "BENCH_oracle.json",
        higher_is_better: false,
        tolerance: 0.70,
        extract: |doc| doc.get("oracle_query_ns").and_then(Value::as_f64),
    },
    // Median `CanonicalForm::of` time on a relabeled
    // core_periphery(8192, 64, 0), the cache-key cost of a relabeled
    // repeat: raw wall time → 70% gate. e17 writes the shared bench
    // envelope, so the value sits under `metrics`.
    MetricSpec {
        name: "canon_us_n8192",
        file: "BENCH_canon.json",
        higher_is_better: false,
        tolerance: 0.70,
        extract: |doc| doc.path("metrics.canon_us_n8192").and_then(Value::as_f64),
    },
];

/// Outcome of checking one metric.
enum Check {
    Ok { baseline: f64, current: f64 },
    Regressed { baseline: f64, current: f64 },
    SkippedNoBaseline,
    MissingCurrent(String),
}

fn load(dir: &str, file: &str) -> Option<Result<Value, String>> {
    let path = std::path::Path::new(dir).join(file);
    let text = std::fs::read_to_string(&path).ok()?;
    Some(parse(&text).map_err(|e| format!("{}: {e}", path.display())))
}

fn check_metric(
    spec: &MetricSpec,
    baseline_dir: &str,
    current_dir: &str,
    tolerance_override: Option<f64>,
) -> Result<Check, String> {
    let baseline = match load(baseline_dir, spec.file) {
        None => return Ok(Check::SkippedNoBaseline),
        Some(doc) => match (spec.extract)(&doc?) {
            None => return Ok(Check::SkippedNoBaseline),
            Some(v) => v,
        },
    };
    let current = match load(current_dir, spec.file) {
        None => {
            return Ok(Check::MissingCurrent(format!(
                "{current_dir}/{} not found",
                spec.file
            )))
        }
        Some(doc) => match (spec.extract)(&doc?) {
            None => {
                return Ok(Check::MissingCurrent(format!(
                    "metric absent from {current_dir}/{}",
                    spec.file
                )))
            }
            Some(v) => v,
        },
    };
    let tolerance = tolerance_override.unwrap_or(spec.tolerance);
    let regressed = if spec.higher_is_better {
        current < baseline * (1.0 - tolerance)
    } else {
        current > baseline * (1.0 + tolerance)
    };
    Ok(if regressed {
        Check::Regressed { baseline, current }
    } else {
        Check::Ok { baseline, current }
    })
}

/// `dclab bench-gate --baseline <dir> [--current <dir>] [--tolerance F]`.
pub fn bench_gate_cmd(args: &[String]) -> Result<(), String> {
    let mut baseline_dir: Option<String> = None;
    let mut current_dir = ".".to_string();
    let mut tolerance_override: Option<f64> = None;
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
            "--tolerance" => {
                let v: f64 = flag_value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if !(0.0..1.0).contains(&v) {
                    return Err("--tolerance must be in [0, 1)".into());
                }
                tolerance_override = Some(v);
            }
            other => return Err(format!("unknown bench-gate flag '{other}'\n{GATE_HELP}")),
        }
    }
    let baseline_dir =
        baseline_dir.ok_or_else(|| format!("--baseline is required\n{GATE_HELP}"))?;

    let mut failures = Vec::new();
    let mut lines = Vec::new();
    for spec in METRICS {
        let direction = if spec.higher_is_better { "≥" } else { "≤" };
        match check_metric(spec, &baseline_dir, &current_dir, tolerance_override)? {
            Check::Ok { baseline, current } => {
                lines.push(
                    Obj::new()
                        .str("metric", spec.name)
                        .str("status", "ok")
                        .f64("baseline", baseline)
                        .f64("current", current)
                        .finish(),
                );
                println!(
                    "bench-gate ok       {:<32} {current:>14.3} (baseline {baseline:.3}, want {direction} within {:.0}%)",
                    spec.name,
                    tolerance_override.unwrap_or(spec.tolerance) * 100.0
                );
            }
            Check::Regressed { baseline, current } => {
                lines.push(
                    Obj::new()
                        .str("metric", spec.name)
                        .str("status", "regressed")
                        .f64("baseline", baseline)
                        .f64("current", current)
                        .finish(),
                );
                println!(
                    "bench-gate REGRESSED {:<31} {current:>14.3} (baseline {baseline:.3}, tolerance {:.0}%)",
                    spec.name,
                    tolerance_override.unwrap_or(spec.tolerance) * 100.0
                );
                failures.push(spec.name);
            }
            Check::SkippedNoBaseline => {
                lines.push(
                    Obj::new()
                        .str("metric", spec.name)
                        .str("status", "skipped")
                        .finish(),
                );
                println!(
                    "bench-gate skipped  {:<32} (no committed baseline yet)",
                    spec.name
                );
            }
            Check::MissingCurrent(why) => {
                lines.push(
                    Obj::new()
                        .str("metric", spec.name)
                        .str("status", "missing")
                        .str("detail", &why)
                        .finish(),
                );
                println!("bench-gate MISSING  {:<32} ({why})", spec.name);
                failures.push(spec.name);
            }
        }
    }
    println!(
        "{}",
        Obj::new()
            .str("gate", "bench-gate")
            .usize("metrics", METRICS.len())
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

    fn write(dir: &std::path::Path, file: &str, text: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(file), text).unwrap();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dclab-gate-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn apsp_json(scalar: f64, bit64: f64) -> String {
        format!(
            "{{\"bench\":\"e11_apsp\",\"results\":[\
             {{\"id\":\"e11_apsp_smalldiam/scalar/1024\",\"mean_ns\":{scalar},\"iterations\":5}},\
             {{\"id\":\"e11_apsp_smalldiam/bit64/1024\",\"mean_ns\":{bit64},\"iterations\":10}}]}}"
        )
    }

    #[test]
    fn gate_passes_when_metrics_hold() {
        let base = temp_dir("pass-base");
        let cur = temp_dir("pass-cur");
        write(&base, "BENCH_apsp.json", &apsp_json(16000.0, 1000.0));
        // 20% slower speedup: inside the 30% tolerance.
        write(&cur, "BENCH_apsp.json", &apsp_json(12800.0, 1000.0));
        let args = vec![
            "--baseline".to_string(),
            base.to_str().unwrap().to_string(),
            "--current".to_string(),
            cur.to_str().unwrap().to_string(),
        ];
        // Store/anytime files absent from the baseline → skipped, not failed.
        bench_gate_cmd(&args).expect("gate passes");
    }

    #[test]
    fn gate_fails_on_headline_regression() {
        let base = temp_dir("fail-base");
        let cur = temp_dir("fail-cur");
        write(&base, "BENCH_apsp.json", &apsp_json(16000.0, 1000.0));
        // Speedup collapsed 16× → 8×: a 50% regression, past the gate.
        write(&cur, "BENCH_apsp.json", &apsp_json(8000.0, 1000.0));
        let args = vec![
            "--baseline".to_string(),
            base.to_str().unwrap().to_string(),
            "--current".to_string(),
            cur.to_str().unwrap().to_string(),
        ];
        let err = bench_gate_cmd(&args).expect_err("gate must fail");
        assert!(err.contains("apsp_speedup_smalldiam_1024"), "{err}");
    }

    #[test]
    fn gate_fails_when_current_output_is_missing() {
        let base = temp_dir("missing-base");
        let cur = temp_dir("missing-cur");
        write(&base, "BENCH_apsp.json", &apsp_json(16000.0, 1000.0));
        // Baseline exists but the bench produced nothing → fail loudly.
        let args = vec![
            "--baseline".to_string(),
            base.to_str().unwrap().to_string(),
            "--current".to_string(),
            cur.to_str().unwrap().to_string(),
        ];
        let err = bench_gate_cmd(&args).expect_err("gate must fail");
        assert!(err.contains("regressed or missing"), "{err}");
    }

    #[test]
    fn lower_is_better_metrics_gate_in_the_other_direction() {
        let base = temp_dir("lower-base");
        let cur = temp_dir("lower-cur");
        let anytime = |span: f64| {
            format!(
                "{{\"bench\":\"e13_anytime\",\"race_win_rate\":0.9,\"race_median_span\":{span}}}"
            )
        };
        write(&base, "BENCH_anytime.json", &anytime(100.0));
        write(&cur, "BENCH_anytime.json", &anytime(140.0)); // 40% worse span
        let args = vec![
            "--baseline".to_string(),
            base.to_str().unwrap().to_string(),
            "--current".to_string(),
            cur.to_str().unwrap().to_string(),
        ];
        let err = bench_gate_cmd(&args).expect_err("span regression fails");
        assert!(err.contains("anytime_race_median_span"), "{err}");
        // An *improvement* (smaller span) passes.
        write(&cur, "BENCH_anytime.json", &anytime(80.0));
        bench_gate_cmd(&args).expect("improvement passes");
    }

    #[test]
    fn canon_time_is_read_from_the_bench_envelope() {
        let base = temp_dir("canon-base");
        let cur = temp_dir("canon-cur");
        let canon = |us: f64| {
            format!(
                "{{\"bench\":\"e17_canon\",\"schema\":1,\"commit\":\"x\",\"host\":{{\"cpus\":2}},\
                 \"quick\":true,\"samples\":3,\"metrics\":{{\"canon_us_n8192\":{us}}}}}"
            )
        };
        write(&base, "BENCH_canon.json", &canon(10000.0));
        write(&cur, "BENCH_canon.json", &canon(16000.0)); // inside 70%
        let args = vec![
            "--baseline".to_string(),
            base.to_str().unwrap().to_string(),
            "--current".to_string(),
            cur.to_str().unwrap().to_string(),
        ];
        bench_gate_cmd(&args).expect("within tolerance passes");
        write(&cur, "BENCH_canon.json", &canon(18000.0)); // 80% slower
        let err = bench_gate_cmd(&args).expect_err("canon regression fails");
        assert!(err.contains("canon_us_n8192"), "{err}");
    }
}
