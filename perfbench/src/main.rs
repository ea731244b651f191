//! perfbench — the dclab benchmark, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <serve-relabel|serve-cold|oracle-large> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workloads <a,b,..> --runs <n> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run prints every metric as `<workload>/<metric> value unit`, the
//! workload invariants, a `run-record` line, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). It exits 1 on a wrong answer or a broken invariant and
//! 2 when it cannot run at all. See `perfbench/README.md`.

mod check;
mod child;
mod client;
mod corpus;
mod replay;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use workload::{Inputs, Run, Workload};

/// The result line's end-to-end metrics, as declared in BENCHMARK.json.
const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("span_total", "label"),
    ("bound_total", "label"),
];

/// The traced run's per-layer metrics, as declared in BENCHMARK.json. A
/// layer a workload never reaches reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("http.ms_per_op", "ms"),
    ("io.ms_per_op", "ms"),
    ("io.bytes_per_op", "B"),
    ("canon.ms_per_op", "ms"),
    ("cache.ms_per_op", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("engine.ms_per_op", "ms"),
    ("engine.dispatch_ms_per_op", "ms"),
    ("features.ms_per_op", "ms"),
    ("reduce.ms_per_op", "ms"),
    ("lk.ms_per_op", "ms"),
    ("christofides.ms_per_op", "ms"),
    ("christofides.win_ratio", "ratio"),
    ("bound.ms_per_op", "ms"),
    ("bound.ascent_iters_per_op", "iters"),
    ("validate.ms_per_op", "ms"),
    ("oracle.build_ms_per_op", "ms"),
    ("oracle.label_entries_per_vertex", "entries"),
    ("oracle_route.ms_per_op", "ms"),
    ("oracle.queries_per_op", "queries"),
    ("report.json_ms_per_op", "ms"),
    ("report.json_bytes_per_op", "B"),
    ("store.append_ms_per_op", "ms"),
    ("store.appends", "count"),
    ("serve.unattributed_ms", "ms"),
    ("process.cpu_ms_per_op", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("replay.mismatches", "count"),
    ("phase.solve_ms_per_op", "ms"),
    ("phase.reduce_ms_per_op", "ms"),
    ("phase.apsp_ms_per_op", "ms"),
    ("phase.candidates_ms_per_op", "ms"),
    ("phase.lk_ms_per_op", "ms"),
    ("phase.approx15_ms_per_op", "ms"),
    ("phase.lower_bound_ms_per_op", "ms"),
    ("phase.validate_ms_per_op", "ms"),
];

/// Per-layer metric ← span name whose self time per op it reports.
const SPAN_METRICS: [(&str, &str); 15] = [
    ("http.ms_per_op", "http"),
    ("io.ms_per_op", "io"),
    ("canon.ms_per_op", "canon"),
    ("cache.ms_per_op", "cache"),
    ("engine.ms_per_op", "engine"),
    ("features.ms_per_op", "features"),
    ("reduce.ms_per_op", "reduce"),
    ("lk.ms_per_op", "lk"),
    ("christofides.ms_per_op", "christofides"),
    ("bound.ms_per_op", "bound"),
    ("validate.ms_per_op", "validate"),
    ("oracle.build_ms_per_op", "oracle"),
    ("oracle_route.ms_per_op", "oracle_route"),
    ("report.json_ms_per_op", "report"),
    ("store.append_ms_per_op", "store"),
];

/// Spans of the serving path, whose sum the untraced median leaves as
/// `serve.unattributed_ms`.
const SERVER_SPANS: [&str; 7] = ["http", "io", "canon", "cache", "engine", "store", "report"];

/// Server-reported phase (`stats.phases` on `serve-cold` answers) → the
/// per-layer metric holding its per-op mean.
const PHASES: [(&str, &str); 8] = [
    ("solve", "phase.solve_ms_per_op"),
    ("reduce", "phase.reduce_ms_per_op"),
    ("apsp", "phase.apsp_ms_per_op"),
    ("candidates", "phase.candidates_ms_per_op"),
    ("lk", "phase.lk_ms_per_op"),
    ("approx15", "phase.approx15_ms_per_op"),
    ("lower_bound", "phase.lower_bound_ms_per_op"),
    ("validate", "phase.validate_ms_per_op"),
];

/// Run length when `--seconds` is not given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|_| format!("bad --{name} {v}")))
        .transpose()
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let flags = parse_flags(args)?;
    let known = ["workload", "seed", "seconds", "trace"];
    if let Some(unknown) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{unknown}"));
    }
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name} (expected one of {})",
            names.join(", ")
        )
    })?;
    let trace: u8 = flag(&flags, "trace")?.unwrap_or(0);
    if trace > 1 {
        return Err("--trace takes 0 or 1".into());
    }
    Ok(Args {
        workload,
        seed: flag(&flags, "seed")?.unwrap_or(1),
        seconds: flag(&flags, "seconds")?.unwrap_or(DEFAULT_SECONDS).max(1),
        trace: trace == 1,
    })
}

/// `<target dir>/perfbench-run`: beside the build, inside the checkout.
fn run_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("binary has no target directory")?;
    Ok(target.join("perfbench-run"))
}

/// What was measured: the git commit when the checkout is a repository,
/// and always an FNV-1a digest of the sources the build reads.
fn source_identity() -> String {
    let git = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let mut files = Vec::new();
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(path);
            }
        }
    }
    for root in ["crates", "perfbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"].map(PathBuf::from));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    match git {
        Some(commit) => format!("{commit} (source fnv1a {h:016x})"),
        None => format!("source fnv1a {h:016x}"),
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// The end-to-end metrics of a checked run, printed lines included.
fn end_to_end(w: Workload, run: &Run) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let name = w.name();
    let mut lines = Vec::new();
    let mut m = BTreeMap::new();
    let lat = stats::sorted(&run.latencies_ms);
    let n = lat.len();
    let answers = run.answers.len() as f64;
    m.insert("throughput_ops_s", answers / run.window_s);
    lines.push(format!(
        "{name}/throughput_ops_s {} 1/s ({} correct answers in {:.3} s)",
        fmt_value(m["throughput_ops_s"]),
        run.answers.len(),
        run.window_s
    ));
    let p50 = if n > 0 { stats::median(&lat) } else { f64::NAN };
    m.insert("latency_p50_ms", p50);
    lines.push(format!(
        "{name}/latency_p50_ms {} ms (median of {n} samples)",
        fmt_value(p50)
    ));
    if w.is_serve() {
        match stats::tail_percentile(n) {
            Some(q) => lines.push(format!(
                "{name}/latency_tail_ms {} ms (p{q} of {n} samples, {} beyond)",
                fmt_value(stats::percentile(&lat, q)),
                stats::samples_beyond(n, q)
            )),
            None => lines.push(format!("{name}/latency_tail_ms n/a ms (only {n} samples)")),
        }
    }
    let setups = stats::sorted(&run.setup_times);
    let setup_s = stats::median(&setups);
    m.insert("setup_s", setup_s);
    lines.push(format!(
        "{name}/setup_s {} s (median of {} {}, {} .. {})",
        fmt_value(setup_s),
        setups.len(),
        if w.is_serve() {
            "server set-ups"
        } else {
            "parses of the corpus"
        },
        fmt_value(setups[0]),
        fmt_value(setups[setups.len() - 1]),
    ));
    m.insert("peak_rss_mb", run.peak_rss_mb);
    lines.push(format!(
        "{name}/peak_rss_mb {} MB",
        fmt_value(run.peak_rss_mb)
    ));
    lines.push(format!(
        "{name}/failed_share {} share ({} of {})",
        fmt_value(run.failed as f64 / run.ops as f64),
        run.failed,
        run.ops
    ));
    let span_total: u64 = run.answers.iter().map(|(_, a)| a.span).sum();
    let bound_total: u64 = run.answers.iter().map(|(_, a)| a.lower_bound).sum();
    let gap_mean = run.answers.iter().map(|(_, a)| a.gap()).sum::<f64>() / answers;
    m.insert("span_total", span_total as f64);
    m.insert("bound_total", bound_total as f64);
    lines.push(format!("{name}/span_total {span_total} label"));
    lines.push(format!("{name}/bound_total {bound_total} label"));
    lines.push(format!("{name}/gap_mean {} ratio", fmt_value(gap_mean)));
    (m, lines)
}

/// Per-layer metrics from the run's counts and the traced replay.
fn per_layer(
    w: Workload,
    inputs: &Inputs,
    run: &Run,
    p50_ms: f64,
    traced: &replay::Replay,
    mismatches: usize,
) -> BTreeMap<&'static str, f64> {
    let ops = run.ops as f64;
    let replayed = traced.ops as f64;
    let self_ms = traced.rec.self_ms();
    let per_op = |span: &str| self_ms.get(span).copied().unwrap_or(0.0) / replayed;
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(k, _)| (*k, 0.0)).collect();
    for (metric, span) in SPAN_METRICS {
        m.insert(metric, per_op(span));
    }
    let parts: f64 = replay::engine_parts(w).iter().map(|s| per_op(s)).sum();
    if per_op("engine") > 0.0 {
        m.insert("engine.dispatch_ms_per_op", per_op("engine") - parts);
    }
    for (k, v) in &run.counts {
        m.insert(k, *v);
    }
    let bodies = inputs.body_bytes();
    m.insert(
        "io.bytes_per_op",
        bodies.iter().sum::<usize>() as f64 / bodies.len() as f64,
    );
    m.insert(
        "report.json_bytes_per_op",
        run.reply_bytes.iter().sum::<usize>() as f64 / run.reply_bytes.len().max(1) as f64,
    );
    if w.is_serve() {
        let attributed: f64 = SERVER_SPANS.iter().map(|s| per_op(s)).sum();
        m.insert("serve.unattributed_ms", p50_ms - attributed);
    }
    m.insert("process.cpu_ms_per_op", run.cpu_s * 1e3 / ops);
    m.insert(
        "trace.overhead_ratio",
        traced.wall_on.as_secs_f64() / traced.wall_off.as_secs_f64(),
    );
    m.insert("replay.mismatches", mismatches as f64);
    if w == Workload::ServeCold {
        // Served cold solves carry the server's own phase totals; cache
        // hits would only echo their cold solve's, so relabel skips this.
        for (phase, metric) in PHASES {
            let total_us: u64 = run
                .answers
                .iter()
                .flat_map(|(_, a)| &a.phases)
                .filter(|(name, _)| name == phase)
                .map(|(_, us)| us)
                .sum();
            m.insert(
                metric,
                total_us as f64 / 1e3 / run.answers.len().max(1) as f64,
            );
        }
    }
    m
}

fn result_line(
    correct: bool,
    run: &Run,
    metrics: &BTreeMap<&'static str, f64>,
    table: &[(&str, &str)],
) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.ops,
        run.failed,
        body.join(",")
    )
}

/// A run's working directory, removed however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_once(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let w = args.workload;
    let name = w.name();
    let work = WorkDir(run_dir()?.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("creating {}: {e}", work.0.display()))?;
    let ops = w.ops(args.seconds);
    let inputs = Inputs::generate(w, args.seed, ops);
    let ticks_before = child::host_ticks();
    let run = workload::run(w, &inputs, &work.0)?;
    let steal_share = match (ticks_before, child::host_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let (e2e, lines) = end_to_end(w, &run);
    for line in &lines {
        println!("{line}");
    }
    for inv in &run.invariants {
        println!(
            "{name} invariant: {} = {} ({})",
            inv.what,
            inv.count,
            if inv.holds { "holds" } else { "BROKEN" }
        );
    }
    for wrong in run.wrong.iter().take(10) {
        println!("{name} wrong answer: {wrong}");
    }

    let mut layer = None;
    if args.trace {
        let replay_ops = w.replay_ops().min(ops);
        let traced = replay::replay(w, &inputs, replay_ops, &work.0)?;
        let mut mismatches = 0;
        for (i, r) in traced.results.iter().enumerate() {
            let Some((_, a)) = run.answers.iter().find(|(j, _)| *j == i) else {
                continue;
            };
            let queries_differ = w == Workload::OracleLarge && r.queries != a.oracle_queries;
            if r.span != a.span || r.lower_bound != a.lower_bound || queries_differ {
                mismatches += 1;
                println!(
                    "{name} replay mismatch op {i}: span {} vs {}, bound {} vs {}, queries {} vs {}",
                    r.span, a.span, r.lower_bound, a.lower_bound, r.queries, a.oracle_queries
                );
            }
        }
        let spans_path = run_dir()?.join(format!("spans-{name}-seed{}.jsonl", args.seed));
        traced
            .rec
            .write_jsonl(&spans_path)
            .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
        let m = per_layer(w, &inputs, &run, e2e["latency_p50_ms"], &traced, mismatches);
        println!(
            "{name} traced replay: {} ops, spans in {}",
            traced.ops,
            spans_path.display()
        );
        for (metric, unit) in PER_LAYER {
            let exact = match metric {
                "christofides.win_ratio" => format!(
                    " ({} of {} answers)",
                    (m[metric] * run.ops as f64).round(),
                    run.ops
                ),
                "bound.ascent_iters_per_op" | "oracle.queries_per_op" => {
                    format!(
                        " ({} over {} answers)",
                        (m[metric] * run.ops as f64).round(),
                        run.ops
                    )
                }
                _ => String::new(),
            };
            println!("{name}/{metric} {} {unit}{exact}", fmt_value(m[metric]));
        }
        layer = Some(m);
    }

    let lat_n = run.latencies_ms.len();
    let tail = stats::tail_percentile(lat_n).filter(|_| w.is_serve());
    let tail_json = match tail {
        Some(q) => format!(
            ",\"latency_tail_ms\":{{\"percentile\":{q},\"samples\":{lat_n},\"beyond\":{}}}",
            stats::samples_beyond(lat_n, q)
        ),
        None => String::new(),
    };
    println!(
        "run-record {{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"commit\":\"{}\",\"nproc\":{},\"ops\":{ops},\"window_s\":{:.6},\"run_wall_s\":{:.6},\"host_steal_share\":{},\"latency_p50_ms\":{{\"percentile\":50,\"samples\":{lat_n}}}{tail_json}}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        source_identity(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        run.window_s,
        started.elapsed().as_secs_f64(),
        if steal_share.is_finite() { format!("{steal_share:.4}") } else { "null".into() },
    );
    let correct = run.correct();
    let line = match &layer {
        Some(m) => result_line(correct, &run, m, &PER_LAYER),
        None => result_line(correct, &run, &e2e, &END_TO_END),
    };
    println!("{line}");
    Ok(correct)
}

/// Steadiness mode: run workloads in fresh processes, alternating their
/// order each round and moving to the next seed each round, then print
/// every metric's median, quartiles, min, max and quartile spread.
fn steady(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let workloads: Vec<Workload> = flags
        .get("workloads")
        .map_or("serve-relabel,serve-cold,oracle-large", String::as_str)
        .split(',')
        .map(|n| Workload::from_name(n).ok_or_else(|| format!("unknown workload {n}")))
        .collect::<Result<_, _>>()?;
    let runs: u64 = flag(&flags, "runs")?.unwrap_or(10);
    let seed: u64 = flag(&flags, "seed")?.unwrap_or(1);
    let seconds: u64 = flag(&flags, "seconds")?.unwrap_or(DEFAULT_SECONDS);
    let trace: u8 = flag(&flags, "trace")?.unwrap_or(0);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for r in 0..runs {
        let mut order = workloads.clone();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let out = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &(seed + r).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let parsed = dclab_engine::json::parse(last)
                .map_err(|e| format!("{} seed {}: no result line ({e})", w.name(), seed + r))?;
            let ok = out.status.success();
            eprintln!(
                "steady: {} seed {} exit {} {}",
                w.name(),
                seed + r,
                out.status,
                last
            );
            if !ok {
                return Err(format!("{} seed {} failed", w.name(), seed + r));
            }
            if let Some(dclab_engine::json::Value::Obj(metrics)) = parsed.get("metrics") {
                for (metric, v) in metrics {
                    if let Some(x) = v.get("value").and_then(|x| x.as_f64()) {
                        values
                            .entry((w.name(), metric.clone()))
                            .or_default()
                            .push(x);
                    }
                }
            }
        }
    }
    println!("workload metric runs median q1 q3 min max spread");
    for ((w, metric), v) in &values {
        let [q1, med, q3] = stats::quartiles(v);
        let sorted = stats::sorted(v);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            f64::NAN
        };
        println!(
            "{w} {metric} {} {med:.6} {q1:.6} {q3:.6} {:.6} {:.6} {spread:.4}",
            v.len(),
            sorted[0],
            sorted[sorted.len() - 1]
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    // The solver sizes its thread pools from the host, as the serving
    // process does.
    std::env::remove_var("DCLAB_THREADS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve-child") => child::serve_child(&args[1..]).map(|()| true),
        Some("lib-child") => child::lib_child(&args[1..]).map(|()| true),
        Some("steady") => steady(&args[1..]).map(|()| true),
        _ => parse_run_args(&args).and_then(|a| run_once(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_engine::json::{self, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// BENCHMARK.json declares exactly the workloads and metrics a run prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid JSON");
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
            })
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        let spans = SPAN_METRICS.iter().map(|(metric, _)| metric);
        for metric in spans.chain(PHASES.iter().map(|(_, metric)| metric)) {
            assert!(PER_LAYER.iter().any(|(m, _)| m == metric), "{metric}");
        }
    }
}
