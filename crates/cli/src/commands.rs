//! `dclab solve` / `dclab batch` / `dclab serve`: the engine-backed
//! instance commands and the long-running solve service.

use dclab_core::pvec::PVec;
use dclab_engine::json::Obj;
use dclab_engine::{solve, solve_batch, Budget, OraclePolicy, SolveReport, SolveRequest, Strategy};
use dclab_graph::io;
use dclab_graph::Graph;
use dclab_serve::persist;
use dclab_serve::CacheKey;
use dclab_store::Store;

/// Flags shared by `solve` and `batch`.
struct Opts {
    pvec: PVec,
    strategy: Strategy,
    budget: Budget,
    oracle: OraclePolicy,
    format: Option<io::Format>,
    /// Persistent solution archive: look up before solving, append after.
    store: Option<String>,
    /// Write the solve's span trace (JSON) to this file (`solve` only).
    trace_out: Option<String>,
}

/// The `--help` text for the instance commands (including the worker
/// thread-count precedence contract).
pub const HELP: &str = "\
dclab — distance-constrained labeling via TSP

USAGE:
  dclab solve <file> [FLAGS]     solve one instance, print a JSON SolveReport
  dclab batch <dir>  [FLAGS]     solve every instance file in <dir> in parallel
  dclab serve [SERVE FLAGS]      run the HTTP solve service
  dclab loadgen [LOADGEN FLAGS]  concurrent soak against running server(s)
  dclab gen <family> [FLAGS]     generate instance corpora (run `dclab gen`
                                 with no family for families and flags)
  dclab store <sub> <archive>    stats | compact | export | import on a
                                 persistent solution archive
  dclab oracle build <file>      build a hub-label distance oracle (pruned
                                 landmark labeling) offline, print its stats
  dclab bench-gate [FLAGS]       CI perf gate: compare fresh BENCH_*.json
                                 against committed baselines (see its --help)
  dclab e1..e8 | all [--quick]   the paper's experiment tables

SOLVE/BATCH FLAGS:
  --p <p1,p2,...>       constraint vector (default 2,1). Guard errors (exit
                        1) refuse 2·n·p_max ≥ 2^53, and refuse --strategy
                        exact once (n − 1) times the largest reduced weight
                        reaches 2^32 − 1 (auto skips Held–Karp there)
  --strategy <name>     exact | branch-bound | approx15 | heuristic | greedy |
                        diam2-pip | l1-coloring | oracle-path | auto | race
                        (default auto). race runs 2-4 portfolio members
                        concurrently with a shared incumbent bound; the first
                        optimality proof cancels the rest. oracle-path is the
                        matrix-free large-n route over a distance oracle
  --oracle <policy>     auto | dense | hub: distance backend for oracle-routed
                        solves (default auto: hub labels exactly when the
                        dense pipeline would cross the 1 GiB memory wall)
  --format <fmt>        edgelist | dimacs (default: guess from extension)
  --node-budget <N>     branch-and-bound node budget
  --restarts <N>        chained-LK restarts (default 4, at most 256)
  --deadline-ms <N>     wall-clock budget: every route becomes anytime and
                        returns its best incumbent when the clock fires
                        (report carries \"timed_out\":true). Without it,
                        solves are purely logical and bit-reproducible.
  --store <archive>     persistent solution archive: canonical lookups skip
                        the solve, fresh solves are appended — the same file
                        `dclab serve --store-path` warm-boots from
  --trace <file>        (solve only) run under a live span trace and write
                        the span tree as JSON; the report also carries
                        per-phase totals in stats.phases. Convert with
                        `dclab trace export --chrome <file>`
  --threads <N>         compute threads of the whole process, shared by the
                        serve workers and every fan-out (a fan-out borrows
                        only threads no one is using). Precedence:
                        --threads beats the DCLAB_THREADS environment
                        variable, which beats available_parallelism.

SERVE FLAGS:
  --addr <host:port>    bind address (default 127.0.0.1:8080; port 0 = ephemeral)
  --workers <N>         worker threads (default: like --threads precedence)
  --cache-mb <N>        report-cache budget in MiB (default 64)
  --queue-cap <N>       bounded queue of solve jobs waiting for a worker
                        (default 4 x workers); a solve that finds it full is
                        shed with 503 + Retry-After
  --store-path <file>   persistent solution archive: warm-boot the cache on
                        start, write-behind fresh solves, seal on shutdown
  --max-deadline-ms <N> server-side cap on client deadline-ms requests
                        (default 60000); requests without a deadline are
                        untouched
  --slow-solve-ms <N>   solves at or over this wall time get a structured
                        slow-solve log line (stderr + GET /debug/slowlog;
                        default 250)
  --max-conns <N>       reactor connection budget (default 1024); connections
                        beyond it are shed with 503 + Retry-After at accept,
                        before a worker is consumed
  --conn-idle-ms <N>    idle deadline per connection (default 5000); idle
                        keep-alive connections past it are reaped
                        (dclab_conns_reaped_total)
  --max-body-bytes <N>  request-body cap (default 8388608 = 8 MiB); larger
                        declared bodies get 413 with a JSON error
  --cluster <a,b,...>   replica list incl. this server's --addr; canonical
                        instance identities are consistent-hashed to an owner
                        replica, non-owners proxy one hop (x-dclab-routed)
  --self-test           start on an ephemeral port, replay the loadgen corpus
                        (~2 s), assert cache hits + clean shutdown, then exit
  --duration-ms <N>     self-test duration (default 2000)

LOADGEN FLAGS:
  --addrs <a,b,...>     target server address(es); clients round-robin
  --connections <N>     concurrent keep-alive connections (default 8)
  --duration-ms <N>     soak duration (default 5000)
  --seed <N>            corpus seed (default 42)
  --instances <N>       corpus size (default 12)
  prints one JSON line: latency percentiles (p50/p90/p99/p999 us), cache
  hit rate, x-dclab-routed tallies, sheds, hard_5xx
";

fn parse_opts(args: &[String]) -> Result<(Vec<String>, Opts), String> {
    let mut positional = Vec::new();
    let mut opts = Opts {
        pvec: PVec::l21(),
        strategy: Strategy::Auto,
        budget: Budget::default(),
        oracle: OraclePolicy::Auto,
        format: None,
        store: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--p" => opts.pvec = flag_value("--p")?.parse()?,
            "--strategy" => opts.strategy = flag_value("--strategy")?.parse()?,
            "--node-budget" => {
                let v = flag_value("--node-budget")?;
                opts.budget.node_budget =
                    Some(v.parse().map_err(|e| format!("bad --node-budget: {e}"))?);
            }
            "--restarts" => {
                let v = flag_value("--restarts")?;
                opts.budget.restarts = Some(v.parse().map_err(|e| format!("bad --restarts: {e}"))?);
            }
            "--deadline-ms" => {
                let v = flag_value("--deadline-ms")?;
                opts.budget.deadline_ms =
                    Some(v.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?);
            }
            "--threads" => {
                let v = flag_value("--threads")?;
                let n: usize = v.parse().map_err(|e| format!("bad --threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                // Beats DCLAB_THREADS, which beats available_parallelism
                // (see `dclab_par::default_threads`).
                dclab_par::set_thread_override(Some(n));
            }
            "--format" => opts.format = Some(flag_value("--format")?.parse()?),
            "--oracle" => opts.oracle = flag_value("--oracle")?.parse()?,
            "--store" => opts.store = Some(flag_value("--store")?),
            "--trace" => opts.trace_out = Some(flag_value("--trace")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, opts))
}

fn load_graph(path: &str, format: Option<io::Format>) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let format = format.unwrap_or_else(|| io::Format::from_path(path));
    io::parse(&text, format).map_err(|e| format!("{path}: {e}"))
}

/// Open the archive named by `--store`, if any.
fn open_store(opts: &Opts) -> Result<Option<Store>, String> {
    match &opts.store {
        Some(path) => Ok(Some(
            Store::open(path).map_err(|e| format!("{path}: {e}"))?.0,
        )),
        None => Ok(None),
    }
}

/// Archive-aware solve of one loaded instance: lookup first (a hit skips
/// the engine entirely), append after a fresh solve. Returns the report
/// plus the store disposition for the output line.
fn solve_with_store(
    store: Option<&Store>,
    graph: Graph,
    opts: &Opts,
) -> Result<(SolveReport, Option<&'static str>), String> {
    let key = store.map(|_| {
        CacheKey::for_request(&graph, &opts.pvec, opts.strategy, opts.budget, opts.oracle)
    });
    if let (Some(store), Some(key)) = (store, &key) {
        if let Some(report) = persist::store_lookup(store, key) {
            return Ok((report, Some("hit")));
        }
    }
    let req = SolveRequest {
        graph,
        pvec: opts.pvec.clone(),
        strategy: opts.strategy,
        budget: opts.budget,
        oracle: opts.oracle,
    };
    let report = solve(&req).map_err(|e| e.to_string())?;
    if let (Some(store), Some(key)) = (store, &key) {
        // Timed-out harvests stay out of the archive (mirrors the serve
        // layer): persisting one would freeze a machine/load-dependent
        // quality level behind every future lookup and warm boot.
        if report.stats.timed_out {
            return Ok((report, Some("skipped-timeout")));
        }
        // A full disk must not discard the solve we just paid for: warn
        // and keep the result flowing to stdout.
        if let Err(e) = persist::store_append(store, key, &report) {
            eprintln!("warning: store append failed: {e}");
        }
    }
    Ok((report, store.map(|_| "miss")))
}

/// Seal the archive at command exit; failure is a warning, never a lost
/// result.
fn finish_store(store: &Option<Store>) {
    if let Some(store) = store {
        if let Err(e) = store.close_clean() {
            eprintln!("warning: store flush failed: {e}");
        }
    }
}

fn report_line(file: &str, report: &SolveReport, store_status: Option<&str>) -> String {
    let obj = Obj::new().str("file", file);
    let obj = match store_status {
        Some(status) => obj.str("store", status),
        None => obj,
    };
    obj.raw("report", &report.to_json()).finish()
}

/// `dclab solve <file> [--p 2,1] [--strategy auto] [--store archive] ...` —
/// one instance, one JSON `SolveReport` line on stdout.
pub fn solve_cmd(args: &[String]) -> Result<(), String> {
    let (files, opts) = parse_opts(args)?;
    if files.len() != 1 {
        return Err("usage: dclab solve <file> [--p 2,1] [--strategy auto] \
                    [--format edgelist|dimacs] [--node-budget N] [--restarts N] \
                    [--store archive]"
            .into());
    }
    let store = open_store(&opts)?;
    let graph = load_graph(&files[0], opts.format)?;
    let (report, store_status) = match &opts.trace_out {
        None => solve_with_store(store.as_ref(), graph, &opts)?,
        Some(path) => {
            // Traced run: install a live trace for the solve, then write
            // the finished span tree next to the report. Archive hits
            // still trace (the trace just shows no solve phases).
            let trace = dclab_trace::Trace::enabled();
            let result = {
                let _install = trace.install();
                solve_with_store(store.as_ref(), graph, &opts)
            };
            let (report, store_status) = result?;
            let finished = trace
                .finish(files[0].clone(), report.strategy_used.name().to_string())
                .expect("trace was enabled");
            std::fs::write(path, finished.to_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote trace ({} spans, {}us) to {path}",
                finished.spans.len(),
                finished.total_us
            );
            (report, store_status)
        }
    };
    finish_store(&store);
    println!("{}", report_line(&files[0], &report, store_status));
    Ok(())
}

/// Instance files a batch directory contributes, in sorted order.
fn instance_files(dir: &str) -> Result<Vec<String>, String> {
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if !path.is_file() {
                return None;
            }
            let name = path.to_str()?;
            let lower = name.to_ascii_lowercase();
            [".txt", ".edges", ".edgelist", ".col", ".dimacs"]
                .iter()
                .any(|ext| lower.ends_with(ext))
                .then(|| name.to_string())
        })
        .collect();
    files.sort();
    Ok(files)
}

/// `dclab batch <dir> [--p 2,1] [--strategy auto] [--store archive] ...` —
/// every recognised instance file in the directory, solved in parallel
/// (`DCLAB_THREADS`), one JSON line per instance in sorted-filename order.
/// With `--store`, archived instances skip the solve entirely and fresh
/// solves are appended, so repeated batch runs are pure lookups.
pub fn batch_cmd(args: &[String]) -> Result<(), String> {
    let (dirs, opts) = parse_opts(args)?;
    if dirs.len() != 1 {
        return Err("usage: dclab batch <dir> [--p 2,1] [--strategy auto] \
                    [--node-budget N] [--restarts N] [--store archive]"
            .into());
    }
    let files = instance_files(&dirs[0])?;
    if files.is_empty() {
        return Err(format!(
            "{}: no instance files (*.txt, *.edges, *.edgelist, *.col, *.dimacs)",
            dirs[0]
        ));
    }
    let store = open_store(&opts)?;
    // Load sequentially (I/O), answer archived instances immediately, and
    // solve only the rest in parallel (engine fan-out). The request slice
    // is paired with a file index per entry so load failures and store
    // hits don't shift the mapping.
    let mut requests: Vec<SolveRequest> = Vec::with_capacity(files.len());
    let mut request_file: Vec<usize> = Vec::with_capacity(files.len());
    let mut request_key: Vec<Option<CacheKey>> = Vec::with_capacity(files.len());
    let mut lines: Vec<(usize, String)> = Vec::with_capacity(files.len());
    for (i, f) in files.iter().enumerate() {
        match load_graph(f, opts.format) {
            Ok(graph) => {
                let key = store.as_ref().map(|_| {
                    CacheKey::for_request(
                        &graph,
                        &opts.pvec,
                        opts.strategy,
                        opts.budget,
                        opts.oracle,
                    )
                });
                if let (Some(store), Some(key)) = (&store, &key) {
                    if let Some(report) = persist::store_lookup(store, key) {
                        lines.push((i, report_line(&files[i], &report, Some("hit"))));
                        continue;
                    }
                }
                requests.push(SolveRequest {
                    graph,
                    pvec: opts.pvec.clone(),
                    strategy: opts.strategy,
                    budget: opts.budget,
                    oracle: opts.oracle,
                });
                request_file.push(i);
                request_key.push(key);
            }
            Err(e) => lines.push((
                i,
                Obj::new().str("file", &files[i]).str("error", &e).finish(),
            )),
        }
    }
    let reports = solve_batch(&requests);
    for ((&i, key), result) in request_file.iter().zip(&request_key).zip(reports) {
        let line = match result {
            Ok(report) => {
                let mut status = store.as_ref().map(|_| "miss");
                if let (Some(store), Some(key)) = (&store, key) {
                    if report.stats.timed_out {
                        // Same guard as the serve layer: deadline-degraded
                        // harvests are answers, not archive records.
                        status = Some("skipped-timeout");
                    } else if let Err(e) = persist::store_append(store, key, &report) {
                        // An append failure must not abort the batch: every
                        // solved report still prints; the archive just
                        // misses this record.
                        eprintln!("warning: store append failed for {}: {e}", files[i]);
                    }
                }
                report_line(&files[i], &report, status)
            }
            Err(e) => Obj::new()
                .str("file", &files[i])
                .str("error", &e.to_string())
                .finish(),
        };
        lines.push((i, line));
    }
    finish_store(&store);
    lines.sort_by_key(|&(i, _)| i);
    for (_, line) in lines {
        println!("{line}");
    }
    Ok(())
}

/// `dclab serve [--addr A] [--workers N] [--cache-mb M] [--queue-cap Q]
/// [--self-test [--duration-ms D]]` — run the HTTP solve service (see
/// `dclab_serve`), or its CI smoke mode.
pub fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = dclab_serve::ServeConfig::default();
    let mut self_test = false;
    let mut duration_ms: u64 = 2000;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = flag_value("--addr")?,
            "--workers" => {
                let v = flag_value("--workers")?;
                cfg.workers = v.parse().map_err(|e| format!("bad --workers: {e}"))?;
                if cfg.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--cache-mb" => {
                let v = flag_value("--cache-mb")?;
                cfg.cache_mb = v.parse().map_err(|e| format!("bad --cache-mb: {e}"))?;
            }
            "--queue-cap" => {
                let v = flag_value("--queue-cap")?;
                cfg.queue_cap = v.parse().map_err(|e| format!("bad --queue-cap: {e}"))?;
            }
            "--store-path" => cfg.store_path = Some(flag_value("--store-path")?),
            "--max-deadline-ms" => {
                let v = flag_value("--max-deadline-ms")?;
                cfg.max_deadline_ms = v
                    .parse()
                    .map_err(|e| format!("bad --max-deadline-ms: {e}"))?;
                if cfg.max_deadline_ms == 0 {
                    return Err("--max-deadline-ms must be at least 1".into());
                }
            }
            "--slow-solve-ms" => {
                let v = flag_value("--slow-solve-ms")?;
                cfg.slow_solve_ms = v.parse().map_err(|e| format!("bad --slow-solve-ms: {e}"))?;
            }
            "--threads" => {
                let v = flag_value("--threads")?;
                let n: usize = v.parse().map_err(|e| format!("bad --threads: {e}"))?;
                dclab_par::set_thread_override(Some(n.max(1)));
                cfg.workers = n.max(1);
            }
            "--max-conns" => {
                let v = flag_value("--max-conns")?;
                cfg.max_conns = v.parse().map_err(|e| format!("bad --max-conns: {e}"))?;
                if cfg.max_conns == 0 {
                    return Err("--max-conns must be at least 1".into());
                }
            }
            "--conn-idle-ms" => {
                let v = flag_value("--conn-idle-ms")?;
                cfg.conn_idle_ms = v.parse().map_err(|e| format!("bad --conn-idle-ms: {e}"))?;
                if cfg.conn_idle_ms == 0 {
                    return Err("--conn-idle-ms must be at least 1".into());
                }
            }
            "--max-body-bytes" => {
                let v = flag_value("--max-body-bytes")?;
                cfg.max_body_bytes = v
                    .parse()
                    .map_err(|e| format!("bad --max-body-bytes: {e}"))?;
                if cfg.max_body_bytes == 0 {
                    return Err("--max-body-bytes must be at least 1".into());
                }
            }
            "--cluster" => {
                cfg.cluster = flag_value("--cluster")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if cfg.cluster.len() < 2 {
                    return Err(
                        "--cluster needs at least two comma-separated replica addresses".into(),
                    );
                }
            }
            "--self-test" => self_test = true,
            "--duration-ms" => {
                let v = flag_value("--duration-ms")?;
                duration_ms = v.parse().map_err(|e| format!("bad --duration-ms: {e}"))?;
            }
            other => return Err(format!("unknown serve flag '{other}'")),
        }
    }

    if self_test {
        let summary = dclab_serve::self_test(std::time::Duration::from_millis(duration_ms))?;
        println!("{summary}");
        return Ok(());
    }

    let handle = dclab_serve::start(cfg.clone()).map_err(|e| format!("start {}: {e}", cfg.addr))?;
    // One machine-readable line so scripts can find the (possibly
    // ephemeral) port; humans get a hint about the admin endpoint.
    let warm_boot = handle
        .ctx()
        .metrics
        .store_warm_boot
        .load(std::sync::atomic::Ordering::Relaxed);
    let line = Obj::new()
        .str("serving", &handle.addr().to_string())
        .usize("workers", cfg.workers.max(1))
        .usize("cache_mb", cfg.cache_mb);
    let line = match &cfg.store_path {
        Some(path) => line.str("store", path).u64("warm_boot", warm_boot),
        None => line,
    };
    let line = if cfg.cluster.is_empty() {
        line
    } else {
        line.str("cluster", &cfg.cluster.join(","))
    };
    println!("{}", line.finish());
    eprintln!("dclab serve: POST /shutdown for graceful shutdown");
    handle.join();
    Ok(())
}

/// `dclab loadgen --addrs a,b [--connections N] [--duration-ms D]
/// [--seed S] [--instances N]` — concurrent soak against already-running
/// server(s); prints one JSON stats line (see `dclab_serve::soak`).
pub fn loadgen_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = dclab_serve::SoakConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addrs" => {
                cfg.addrs = flag_value("--addrs")?
                    .split(',')
                    .map(|s| s.trim())
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse()
                            .map_err(|e| format!("bad address '{s}' in --addrs: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--connections" => {
                let v = flag_value("--connections")?;
                cfg.connections = v.parse().map_err(|e| format!("bad --connections: {e}"))?;
                if cfg.connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--duration-ms" => {
                let v = flag_value("--duration-ms")?;
                let ms: u64 = v.parse().map_err(|e| format!("bad --duration-ms: {e}"))?;
                cfg.duration = std::time::Duration::from_millis(ms);
            }
            "--seed" => {
                let v = flag_value("--seed")?;
                cfg.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--instances" => {
                let v = flag_value("--instances")?;
                cfg.instances = v.parse().map_err(|e| format!("bad --instances: {e}"))?;
            }
            other => return Err(format!("unknown loadgen flag '{other}'")),
        }
    }
    if cfg.addrs.is_empty() {
        return Err("loadgen needs --addrs <host:port[,host:port...]>".into());
    }
    let stats = dclab_serve::soak(&cfg)?;
    println!("{}", stats.to_json());
    if stats.transport_errors > 0 {
        return Err(format!("{} transport errors", stats.transport_errors));
    }
    Ok(())
}
