//! The solve service: configuration, request routing, and handlers.
//!
//! Architecture: one **epoll reactor thread** (`reactor`) owns every
//! connection as a readiness-driven state machine; only `POST /solve` and
//! `POST /batch` are dispatched to the fixed [`dclab_par::WorkerPool`]
//! (bounded queue → back-pressure; overflow is shed `503` +
//! `Retry-After` *before* a worker is consumed). Every other endpoint is
//! answered inline on the reactor thread, so `/metrics` and `/debug/*`
//! stay responsive while all workers are saturated. The reactor is
//! Linux-only; elsewhere [`start`] returns `ErrorKind::Unsupported`
//! before binding.
//!
//! Cluster mode (`--cluster a:p1,b:p2,...`, [`crate::cluster`]) makes each
//! replica consistent-hash `/solve` requests by canonical instance
//! identity and proxy to the owner; responses carry `x-dclab-routed`.
//!
//! | Endpoint         | Semantics                                            |
//! |------------------|------------------------------------------------------|
//! | `POST /solve`    | body = instance (edge list or DIMACS), query `p`, `strategy`, `format`, `node-budget`, `restarts`, `deadline-ms`, `oracle` (`auto\|dense\|hub` distance backend) → `SolveReport` JSON; `X-Dclab-Cache: hit\|miss\|coalesced`. A deadline returns 200 with the best incumbent (`"timed_out":true`), never a 5xx; requested deadlines are clamped to the server cap |
//! | `POST /batch`    | body = instances separated by `%%` lines, same query params → JSON array |
//! | `GET /healthz`   | liveness                                             |
//! | `GET /metrics`   | Prometheus text (default; `text/plain; version=0.0.4`) or `?format=json`: counters, cache stats, per-strategy counts, latency + per-phase histograms |
//! | `GET /debug/traces` | flight-recorder index: recent + slowest solve-trace summaries |
//! | `GET /debug/traces/<request-id>` | full span tree of one retained solve trace (404 once evicted) |
//! | `GET /debug/slowlog` | recent slow-solve log lines (solves over `--slow-solve-ms`) |
//! | `POST /shutdown` | graceful shutdown (drain queue, join workers)        |
//!
//! Every response carries an `X-Request-Id` header: the client's value
//! echoed back when it sent one (so distributed traces line up), a
//! generated id otherwise. `/solve` requests run under a live
//! [`dclab_trace::Trace`] keyed by that id from the body parse on
//! (`parse`, `canon`, then `request` around the cache and the solve);
//! finished traces land in the flight recorder and feed the
//! `dclab_phase_seconds` histograms.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dclab_store::Store;
use dclab_trace::FlightRecorder;

use crate::cache::ReportCache;
use crate::cluster::Cluster;
use crate::metrics::Metrics;

// Request handling runs on the reactor, so it is built on Linux only.
#[cfg(target_os = "linux")]
use {
    crate::cache::{CacheKey, CacheStatus},
    crate::cluster,
    crate::http::Request,
    crate::metrics::StoreGauges,
    crate::persist,
    dclab_engine::json::{array, Obj},
    dclab_engine::{solve, Budget, EngineError, OraclePolicy, SolveReport, SolveRequest, Strategy},
    dclab_graph::io as graph_io,
    dclab_graph::Graph,
    dclab_trace::export::json_escape,
    std::net::TcpListener,
    std::sync::atomic::{AtomicU64, AtomicUsize},
    std::time::Instant,
};

/// Server configuration (the CLI's `dclab serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads running solves (`/solve` and `/batch`); every other
    /// endpoint is answered on the reactor thread.
    pub workers: usize,
    /// Report-cache budget in MiB.
    pub cache_mb: usize,
    /// Capacity of the bounded solve-job queue in front of the workers
    /// (0 → `4 × workers`); a solve that finds it full is shed with `503`
    /// + `Retry-After`.
    pub queue_cap: usize,
    /// Persistent solution archive (`dclab-store`). `Some(path)` warm-boots
    /// the cache from the archive at start and write-behinds fresh solves;
    /// `None` keeps the PR 2 behavior (cache dies with the process).
    pub store_path: Option<String>,
    /// Server-side cap on client-requested deadlines (`deadline-ms` query
    /// parameter): requests asking for more are clamped to this. Requests
    /// that ask for *no* deadline are untouched — they keep the pure
    /// logical-budget semantics (and the pre-anytime cache/archive keys).
    pub max_deadline_ms: u64,
    /// Solves taking at least this long get a one-line structured record
    /// in the slow-solve log (stderr + `GET /debug/slowlog`).
    pub slow_solve_ms: u64,
    /// Request body cap (`--max-body-bytes`); bodies over it get `413`
    /// with a JSON error, rejected from the `Content-Length` declaration
    /// alone (no body bytes are buffered first).
    pub max_body_bytes: usize,
    /// Connection budget (`--max-conns`): open connections past this are
    /// answered `503` + `Retry-After` at accept. Decoupled from — and far
    /// above — the worker count.
    pub max_conns: usize,
    /// Per-connection idle deadline in ms (`--conn-idle-ms`): stalled
    /// connections (slow-loris) are reaped and counted in
    /// `dclab_conns_reaped_total`.
    pub conn_idle_ms: u64,
    /// Cluster replica list (`--cluster a:p1,b:p2,...`), empty for
    /// single-node. Must contain this server's own `addr`; every replica
    /// must be started with the identical list.
    pub cluster: Vec<String>,
}

/// Default server-side deadline cap (one minute).
pub const DEFAULT_MAX_DEADLINE_MS: u64 = 60_000;

/// Default slow-solve log threshold.
pub const DEFAULT_SLOW_SOLVE_MS: u64 = 250;

/// Completed solve traces the flight recorder retains by recency.
#[cfg(target_os = "linux")]
const FLIGHT_LAST_N: usize = 128;

/// Slowest solve traces retained separately from the recency ring.
#[cfg(target_os = "linux")]
const FLIGHT_SLOWEST_K: usize = 16;

/// Slow-solve log lines kept for `GET /debug/slowlog`.
#[cfg(target_os = "linux")]
const SLOWLOG_CAP: usize = 128;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".into(),
            workers: dclab_par::default_threads(),
            cache_mb: 64,
            queue_cap: 0,
            store_path: None,
            max_deadline_ms: DEFAULT_MAX_DEADLINE_MS,
            slow_solve_ms: DEFAULT_SLOW_SOLVE_MS,
            max_body_bytes: crate::http::MAX_BODY_BYTES,
            max_conns: crate::reactor_defaults::MAX_CONNS,
            conn_idle_ms: crate::reactor_defaults::CONN_IDLE_MS,
            cluster: Vec::new(),
        }
    }
}

/// Bounded ring of slow-solve log lines. Lines also go to stderr as they
/// happen; the ring backs `GET /debug/slowlog` so tests and operators can
/// read recent entries without scraping the process's stderr.
pub struct SlowLog {
    lines: Mutex<Vec<String>>,
    cap: usize,
}

impl SlowLog {
    #[cfg(target_os = "linux")]
    fn new(cap: usize) -> SlowLog {
        SlowLog {
            lines: Mutex::new(Vec::new()),
            cap: cap.max(1),
        }
    }

    /// Print the line to stderr and retain it (evicting the oldest past
    /// the cap).
    pub fn push(&self, line: String) {
        eprintln!("{line}");
        let mut lines = self.lines.lock().expect("slowlog poisoned");
        if lines.len() == self.cap {
            lines.remove(0);
        }
        lines.push(line);
    }

    /// Retained lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("slowlog poisoned").clone()
    }
}

/// Shared server state.
pub struct ServeCtx {
    pub cache: ReportCache,
    pub metrics: Metrics,
    /// The persistent solution archive, when serving with `--store-path`.
    pub store: Option<Arc<Store>>,
    /// Completed solve traces: last-N ring + slowest-K, behind
    /// `GET /debug/traces`.
    pub flight: FlightRecorder,
    /// Recent slow-solve records, behind `GET /debug/slowlog`.
    pub slowlog: SlowLog,
    /// Consistent-hash routing state when serving as a cluster replica.
    pub cluster: Option<Cluster>,
    /// Outbound proxies currently blocking a worker (cluster mode).
    #[cfg(target_os = "linux")]
    proxy_in_flight: AtomicUsize,
    /// Cap on concurrent outbound proxies: `workers - 1`, so at least one
    /// worker is always free to serve *incoming* forwarded requests.
    /// Without this, two replicas whose entire pools are blocked proxying
    /// to each other deadlock until the proxy timeout; past the cap a
    /// request degrades to a local fallback solve instead of waiting.
    #[cfg(target_os = "linux")]
    proxy_limit: usize,
    /// Request body cap (bytes); enforced at parse time, from the
    /// declared `Content-Length`, before body bytes are buffered.
    pub max_body_bytes: usize,
    /// Cap applied to client-requested `deadline-ms` values.
    #[cfg(target_os = "linux")]
    pub(crate) max_deadline_ms: u64,
    /// Threshold for the slow-solve log, in ms.
    #[cfg(target_os = "linux")]
    pub(crate) slow_solve_ms: u64,
    shutdown: AtomicBool,
}

impl ServeCtx {
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    #[cfg(target_os = "linux")]
    fn store_gauges(&self) -> Option<StoreGauges> {
        self.store.as_ref().map(|s| {
            let stats = s.stats();
            StoreGauges {
                entries: stats.live,
                bytes: stats.bytes,
                generation: stats.generation,
            }
        })
    }
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] (or hit `POST /shutdown`) then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServeCtx>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn ctx(&self) -> &Arc<ServeCtx> {
        &self.ctx
    }

    /// Request graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
    }

    /// Wait for the accept loop and all workers to finish.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind and start serving: the reactor thread owns the listener, every
/// connection and the worker pool. When the config names a store path,
/// the archive is opened (recovering any torn tail) and its records
/// warm-boot the report cache before the first request is accepted.
#[cfg(target_os = "linux")]
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let store = match &cfg.store_path {
        Some(path) => Some(Arc::new(Store::open(path)?.0)),
        None => None,
    };
    let cluster = if cfg.cluster.is_empty() {
        None
    } else {
        // Identify this node by its --addr string, falling back to the
        // resolved bind address.
        let built = Cluster::new(cfg.cluster.clone(), &cfg.addr)
            .or_else(|| Cluster::new(cfg.cluster.clone(), &addr.to_string()));
        Some(built.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "--cluster list {:?} does not contain this node's --addr {}",
                    cfg.cluster, cfg.addr
                ),
            )
        })?)
    };
    let ctx = Arc::new(ServeCtx {
        cache: ReportCache::new(cfg.cache_mb.max(1) * 1024 * 1024),
        metrics: Metrics::default(),
        store,
        flight: FlightRecorder::new(FLIGHT_LAST_N, FLIGHT_SLOWEST_K),
        slowlog: SlowLog::new(SLOWLOG_CAP),
        cluster,
        proxy_in_flight: AtomicUsize::new(0),
        proxy_limit: cfg.workers.max(1).saturating_sub(1),
        max_body_bytes: cfg.max_body_bytes.max(1),
        max_deadline_ms: cfg.max_deadline_ms.max(1),
        slow_solve_ms: cfg.slow_solve_ms,
        shutdown: AtomicBool::new(false),
    });
    if let Some(cluster) = &ctx.cluster {
        ctx.metrics.cluster_enabled.store(1, Ordering::Relaxed);
        ctx.metrics
            .cluster_replicas
            .store(cluster.replicas().len() as u64, Ordering::Relaxed);
    }
    if let Some(store) = &ctx.store {
        let loaded = persist::warm_boot(&ctx.cache, store);
        ctx.metrics.store_warm_boot.store(loaded, Ordering::Relaxed);
    }
    let workers = cfg.workers.max(1);
    let queue_cap = if cfg.queue_cap == 0 {
        workers * 4
    } else {
        cfg.queue_cap
    };
    let accept_ctx = Arc::clone(&ctx);
    let reactor_cfg = crate::reactor::ReactorConfig {
        workers,
        queue_cap,
        max_conns: cfg.max_conns.max(1),
        conn_idle_ms: cfg.conn_idle_ms.max(1),
    };
    let accept_thread = std::thread::Builder::new()
        .name("dclab-accept".into())
        .spawn(move || crate::reactor::run(listener, accept_ctx, reactor_cfg))?;
    Ok(ServerHandle {
        addr,
        ctx,
        accept_thread: Some(accept_thread),
    })
}

/// The reactor is built on epoll, so there is no serve core off Linux:
/// fail with `Unsupported` before binding.
#[cfg(not(target_os = "linux"))]
pub fn start(_cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "dclab serve needs Linux: its reactor is built on epoll",
    ))
}

#[cfg(target_os = "linux")]
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh server-generated request id (process-unique).
#[cfg(target_os = "linux")]
pub(crate) fn generate_request_id() -> String {
    format!(
        "req-{:x}-{:06x}",
        std::process::id(),
        NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
    )
}

/// The id for one request: the client's `X-Request-Id` echoed back when it
/// sent a sane one (printable ASCII, bounded length), a generated id
/// otherwise. Client ids flow into logs, trace lookups, and response
/// headers, so hostile bytes are rejected rather than escaped everywhere.
#[cfg(target_os = "linux")]
pub(crate) fn request_id(req: &Request) -> String {
    match req.header("x-request-id") {
        Some(v) if !v.is_empty() && v.len() <= 64 && v.bytes().all(|b| b.is_ascii_graphic()) => {
            v.to_string()
        }
        _ => generate_request_id(),
    }
}

#[cfg(target_os = "linux")]
pub(crate) fn error_json(message: &str, kind: &str) -> String {
    Obj::new().str("error", message).str("kind", kind).finish()
}

#[cfg(target_os = "linux")]
pub(crate) type Response = (u16, Vec<(&'static str, String)>, String);

/// Does this request need a solve worker? Only `/solve` and `/batch` do
/// CPU-bound work; everything else — health, metrics, debug surfaces,
/// shutdown, 404/405 — is answered inline on the reactor thread so
/// observability stays live while the pool is saturated.
#[cfg(target_os = "linux")]
pub(crate) fn needs_worker(req: &Request) -> bool {
    #[cfg(test)]
    if req.path == tests::HOLD_PATH {
        return true;
    }
    matches!(
        (req.method.as_str(), req.path.as_str()),
        ("POST", "/solve") | ("POST", "/batch")
    )
}

// `requests_total` is bumped by `record_status` in every answer path
// (routed, parse failure, overload shed), so totals always reconcile.
#[cfg(target_os = "linux")]
pub(crate) fn route(ctx: &ServeCtx, req: &Request, rid: &str) -> Response {
    #[cfg(test)]
    if req.path == tests::HOLD_PATH {
        // Hold this worker until the test releases the gate.
        if let Some(rx) = tests::HOLD.lock().expect("hold gate").as_ref() {
            let _ = rx.recv();
        }
        return (200, vec![], String::new());
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            ctx.metrics.health_requests.fetch_add(1, Ordering::Relaxed);
            (200, vec![], Obj::new().str("status", "ok").finish())
        }
        ("GET", "/metrics") => {
            ctx.metrics.metrics_requests.fetch_add(1, Ordering::Relaxed);
            match req.query_param("format") {
                None | Some("prometheus") => (
                    // Prometheus text exposition is the scrape default —
                    // with its own content-type, not the JSON one.
                    200,
                    vec![("content-type", "text/plain; version=0.0.4".to_string())],
                    ctx.metrics
                        .to_prometheus(ctx.cache.counters(), ctx.store_gauges()),
                ),
                Some("json") => (
                    200,
                    vec![],
                    ctx.metrics
                        .to_json(ctx.cache.counters(), ctx.store_gauges()),
                ),
                Some(other) => (
                    400,
                    vec![],
                    error_json(&format!("unknown metrics format '{other}'"), "bad-request"),
                ),
            }
        }
        ("GET", "/debug/traces") => {
            let recent: Vec<String> = ctx
                .flight
                .recent()
                .iter()
                .map(|t| t.summary_json())
                .collect();
            let slowest: Vec<String> = ctx
                .flight
                .slowest()
                .iter()
                .map(|t| t.summary_json())
                .collect();
            (
                200,
                vec![],
                Obj::new()
                    .raw("recent", &array(recent))
                    .raw("slowest", &array(slowest))
                    .finish(),
            )
        }
        ("GET", "/debug/slowlog") => {
            let lines = ctx.slowlog.lines();
            (
                200,
                vec![],
                Obj::new()
                    .u64("slow_solve_ms", ctx.slow_solve_ms)
                    .raw(
                        "lines",
                        &array(lines.iter().map(|l| format!("\"{}\"", json_escape(l)))),
                    )
                    .finish(),
            )
        }
        ("GET", p) if p.starts_with("/debug/traces/") => {
            match ctx.flight.get(&p["/debug/traces/".len()..]) {
                Some(trace) => (200, vec![], trace.to_json()),
                None => (
                    404,
                    vec![],
                    error_json(
                        "no retained trace for that request id (the flight recorder \
                         keeps a bounded window of recent and slowest solves)",
                        "not-found",
                    ),
                ),
            }
        }
        ("POST", "/solve") => {
            ctx.metrics.solve_requests.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            let resp = solve_endpoint(ctx, req, rid);
            ctx.metrics.solve_latency.record(started.elapsed());
            resp
        }
        ("POST", "/batch") => {
            ctx.metrics.batch_requests.fetch_add(1, Ordering::Relaxed);
            batch_endpoint(ctx, req)
        }
        ("POST", "/shutdown") => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            (
                200,
                vec![],
                Obj::new().str("status", "shutting-down").finish(),
            )
        }
        (
            _,
            "/healthz" | "/metrics" | "/solve" | "/batch" | "/shutdown" | "/debug/traces"
            | "/debug/slowlog",
        ) => (
            405,
            vec![],
            error_json("method not allowed for this path", "method"),
        ),
        (_, p) if p.starts_with("/debug/traces/") => (
            405,
            vec![],
            error_json("method not allowed for this path", "method"),
        ),
        _ => (404, vec![], error_json("no such endpoint", "not-found")),
    }
}

/// Query parameters shared by `/solve` and `/batch`.
#[cfg(target_os = "linux")]
struct SolveParams {
    pvec: dclab_core::pvec::PVec,
    strategy: Strategy,
    budget: Budget,
    oracle: OraclePolicy,
    format: Option<graph_io::Format>,
}

#[cfg(target_os = "linux")]
fn parse_params(req: &Request, max_deadline_ms: u64) -> Result<SolveParams, String> {
    let pvec = match req.query_param("p") {
        Some(raw) => raw.parse()?,
        None => dclab_core::pvec::PVec::l21(),
    };
    let strategy = match req.query_param("strategy") {
        Some(raw) => raw.parse::<Strategy>()?,
        None => Strategy::Auto,
    };
    let mut budget = Budget::default();
    if let Some(raw) = req.query_param("node-budget") {
        budget.node_budget = Some(raw.parse().map_err(|e| format!("bad node-budget: {e}"))?);
    }
    if let Some(raw) = req.query_param("restarts") {
        budget.restarts = Some(raw.parse().map_err(|e| format!("bad restarts: {e}"))?);
    }
    if let Some(raw) = req.query_param("deadline-ms") {
        let requested: u64 = raw.parse().map_err(|e| format!("bad deadline-ms: {e}"))?;
        // Clamp to the server-side cap; the response is still 200 with the
        // best incumbent found inside the (possibly shorter) window.
        budget.deadline_ms = Some(requested.min(max_deadline_ms));
    }
    let oracle = match req.query_param("oracle") {
        Some(raw) => raw.parse::<OraclePolicy>()?,
        None => OraclePolicy::Auto,
    };
    let format = match req.query_param("format") {
        None | Some("auto") => None,
        Some(raw) => Some(raw.parse()?),
    };
    Ok(SolveParams {
        pvec,
        strategy,
        budget,
        oracle,
        format,
    })
}

/// Sniff DIMACS vs. edge list when the client did not say: DIMACS bodies
/// open with a `c` comment or the `p` problem line.
#[cfg(target_os = "linux")]
fn sniff_format(text: &str) -> graph_io::Format {
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        return if t.starts_with('c') || t.starts_with("p ") || t.starts_with("e ") {
            graph_io::Format::Dimacs
        } else {
            graph_io::Format::EdgeList
        };
    }
    graph_io::Format::EdgeList
}

#[cfg(target_os = "linux")]
fn parse_instance(body: &str, format: Option<graph_io::Format>) -> Result<Graph, String> {
    let format = format.unwrap_or_else(|| sniff_format(body));
    graph_io::parse(body, format).map_err(|e| e.to_string())
}

/// `(status, kind)` for an engine failure; guard refusals are the
/// unprocessable-instance contract (HTTP 422).
#[cfg(target_os = "linux")]
fn engine_error_meta(e: &EngineError) -> (u16, &'static str) {
    match e {
        EngineError::Guard(_) => (422, "guard"),
        EngineError::Reduction(_) => (422, "reduction"),
        EngineError::Unsupported { .. } => (422, "unsupported"),
        EngineError::Internal(_) => (500, "internal"),
    }
}

/// Cache-through solve of one instance under a pre-computed key (the
/// caller needs the key anyway for cluster routing). Returns the report
/// and cache status, or an error response triple.
#[cfg(target_os = "linux")]
fn cached_solve(
    ctx: &ServeCtx,
    key: &CacheKey,
    graph: Graph,
    params: &SolveParams,
) -> Result<(SolveReport, CacheStatus), (u16, &'static str, String)> {
    let (result, status) = ctx.cache.get_or_solve(key, || {
        // LRU miss: consult the persistent archive before paying for a
        // solve (covers evicted entries and corpora imported offline).
        if let Some(store) = &ctx.store {
            if let Some(report) = persist::store_lookup(store, key) {
                ctx.metrics.store_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(report);
            }
            ctx.metrics.store_misses.fetch_add(1, Ordering::Relaxed);
        }
        let req = SolveRequest {
            graph,
            pvec: params.pvec.clone(),
            strategy: params.strategy,
            budget: params.budget,
            oracle: params.oracle,
        };
        let report = solve(&req)?;
        ctx.metrics.record_strategy(report.strategy_used);
        if let Some(o) = &report.stats.oracle {
            ctx.metrics.record_oracle(o, report.stats.features.n);
        }
        if report.stats.timed_out {
            ctx.metrics.solve_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        ctx.metrics
            .record_bound(report.stats.bound.kind, report.gap());
        if params.strategy == Strategy::Race {
            ctx.metrics.record_race_winner(report.strategy_used);
        }
        // Write-behind: the record reaches the OS before the response;
        // fsync happens at the shutdown drain. Timed-out harvests stay out
        // of the archive — persisting one would warm-boot that
        // load-dependent quality level forever.
        if let Some(store) = &ctx.store {
            if !report.stats.timed_out
                && matches!(persist::store_append(store, key, &report), Ok(true))
            {
                ctx.metrics.store_appends.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(report)
    });
    result.map(|report| (report, status)).map_err(|e| {
        let (code, kind) = engine_error_meta(&e);
        (code, kind, e.to_string())
    })
}

#[cfg(target_os = "linux")]
fn solve_endpoint(ctx: &ServeCtx, req: &Request, rid: &str) -> Response {
    let params = match parse_params(req, ctx.max_deadline_ms) {
        Ok(p) => p,
        Err(e) => return (400, vec![], error_json(&e, "bad-request")),
    };
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return (400, vec![], error_json("body is not UTF-8", "bad-request")),
    };
    // Every accepted solve runs under a live trace keyed by the request id,
    // opened before the body is parsed: the `parse` and `canon` spans come
    // first, then cache hits record the request span and fresh solves the
    // full phase tree (the engine snapshots the solve's per-phase totals
    // into `stats.phases`).
    let trace = dclab_trace::Trace::enabled();
    let _install = trace.install();
    let parsed = {
        let _span = trace.span("parse");
        parse_instance(body, params.format)
    };
    let graph = match parsed {
        Ok(g) => g,
        Err(e) => return (400, vec![], error_json(&e, "parse")),
    };
    // Cluster routing: the cache key's hash is the canonical instance
    // identity (isomorphism-invariant), so all relabelings of one
    // instance route to the same owner replica.
    let key = {
        let _span = trace.span("canon");
        CacheKey::for_request(
            &graph,
            &params.pvec,
            params.strategy,
            params.budget,
            params.oracle,
        )
    };
    let mut routed: Option<&'static str> = None;
    if let Some(cl) = &ctx.cluster {
        if req.header(cluster::FORWARDED_HEADER).is_some() {
            // One hop max: a forwarded request always solves here.
            ctx.metrics.cluster_received.fetch_add(1, Ordering::Relaxed);
            routed = Some("local");
        } else if let Some(owner) = cl.owner_if_remote(key.hash) {
            // A proxy blocks this worker until the owner answers, and the
            // owner needs a worker of its own to answer — so concurrent
            // outbound proxies are capped at workers-1. Past the cap (or
            // with a single worker) we solve locally instead of risking
            // two replicas deadlocked proxying to each other.
            let permit = ctx
                .proxy_in_flight
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < ctx.proxy_limit).then_some(n + 1)
                })
                .is_ok();
            let proxied = if permit {
                let r = cluster::proxy(owner, req, rid, cl.self_addr());
                ctx.proxy_in_flight.fetch_sub(1, Ordering::AcqRel);
                Some(r)
            } else {
                None
            };
            match proxied {
                Some(Ok(up)) => {
                    ctx.metrics
                        .cluster_forwarded
                        .fetch_add(1, Ordering::Relaxed);
                    let mut extra = vec![("x-dclab-routed", "forwarded".to_string())];
                    if let Some(cs) = up.header("x-dclab-cache") {
                        extra.push(("x-dclab-cache", cs.to_string()));
                    }
                    return (up.status, extra, up.body);
                }
                Some(Err(_)) | None => {
                    // Owner unreachable, or no proxy permit free: degrade
                    // to an independent solve rather than a 5xx — the
                    // mesh heals when capacity returns.
                    ctx.metrics.cluster_fallback.fetch_add(1, Ordering::Relaxed);
                    routed = Some("fallback");
                }
            }
        } else {
            ctx.metrics.cluster_local.fetch_add(1, Ordering::Relaxed);
            routed = Some("local");
        }
    }
    let outcome = {
        let mut span = trace.span("request");
        let outcome = cached_solve(ctx, &key, graph, &params);
        if let Ok((report, status)) = &outcome {
            span.set_detail(format!(
                "strategy={} cache={} span={}",
                report.strategy_used.name(),
                status.name(),
                report.solution.span
            ));
        }
        outcome
    };
    let (label, timed_out) = match &outcome {
        Ok((report, _)) => (
            report.strategy_used.name().to_string(),
            report.stats.timed_out,
        ),
        Err((_, kind, _)) => (format!("error-{kind}"), false),
    };
    let finished = trace
        .finish(rid.to_string(), label.clone())
        .expect("trace was enabled");
    let recorded = ctx.flight.record(finished);
    let totals = recorded.phase_totals();
    for phase in &totals {
        ctx.metrics.record_phase(&phase.name, phase.total_us);
    }
    if recorded.total_us >= ctx.slow_solve_ms.saturating_mul(1000) {
        ctx.metrics.slow_solves.fetch_add(1, Ordering::Relaxed);
        let phases = totals
            .iter()
            .map(|p| format!("{}:{}us", p.name, p.total_us))
            .collect::<Vec<_>>()
            .join(",");
        ctx.slowlog.push(format!(
            "slow-solve request_id={rid} strategy={label} total_us={} timed_out={timed_out} \
             phases={phases}",
            recorded.total_us
        ));
    }
    match outcome {
        Ok((report, status)) => {
            let mut extra = vec![("x-dclab-cache", status.name().to_string())];
            if let Some(route) = routed {
                extra.push(("x-dclab-routed", route.to_string()));
            }
            (200, extra, report.to_json())
        }
        Err((code, kind, message)) => (code, vec![], error_json(&message, kind)),
    }
}

/// Batch body separator: a line containing only `%%`.
#[cfg(target_os = "linux")]
const BATCH_SEPARATOR: &str = "%%";

#[cfg(target_os = "linux")]
fn batch_endpoint(ctx: &ServeCtx, req: &Request) -> Response {
    let params = match parse_params(req, ctx.max_deadline_ms) {
        Ok(p) => p,
        Err(e) => return (400, vec![], error_json(&e, "bad-request")),
    };
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return (400, vec![], error_json("body is not UTF-8", "bad-request")),
    };
    let instances: Vec<&str> = split_batch(body);
    if instances.is_empty() {
        return (400, vec![], error_json("empty batch", "bad-request"));
    }
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut items = Vec::with_capacity(instances.len());
    for text in &instances {
        let item = match parse_instance(text, params.format) {
            Ok(graph) => {
                let key = CacheKey::for_request(
                    &graph,
                    &params.pvec,
                    params.strategy,
                    params.budget,
                    params.oracle,
                );
                match cached_solve(ctx, &key, graph, &params) {
                    Ok((report, status)) => {
                        match status {
                            CacheStatus::Miss => misses += 1,
                            _ => hits += 1,
                        }
                        Obj::new()
                            .str("cache", status.name())
                            .raw("report", &report.to_json())
                            .finish()
                    }
                    Err((_, kind, message)) => {
                        Obj::new().str("error", &message).str("kind", kind).finish()
                    }
                }
            }
            Err(e) => Obj::new().str("error", &e).str("kind", "parse").finish(),
        };
        items.push(item);
    }
    (
        200,
        vec![
            ("x-dclab-cache-hits", hits.to_string()),
            ("x-dclab-cache-misses", misses.to_string()),
        ],
        array(items),
    )
}

/// Split a batch body into instance chunks on `%%` lines, dropping blank
/// chunks.
#[cfg(target_os = "linux")]
fn split_batch(body: &str) -> Vec<&str> {
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut pos = 0usize;
    for line in body.split_inclusive('\n') {
        if line.trim() == BATCH_SEPARATOR {
            chunks.push(&body[start..pos]);
            start = pos + line.len();
        }
        pos += line.len();
    }
    chunks.push(&body[start..]);
    chunks
        .into_iter()
        .filter(|c| !c.trim().is_empty())
        .collect()
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::sync::mpsc::Receiver;

    /// A worker route for this crate's tests: a request to it holds its
    /// worker until the sender of the channel behind [`HOLD`] is dropped.
    pub(super) const HOLD_PATH: &str = "/test/hold";
    pub(super) static HOLD: Mutex<Option<Receiver<()>>> = Mutex::new(None);

    #[test]
    fn batch_splitting() {
        let body = "0 1\n1 2\n%%\n0 1\n%%\n\n%%\nn 3\n0 2\n";
        let chunks = split_batch(body);
        assert_eq!(chunks.len(), 3);
        assert!(chunks[0].contains("1 2"));
        assert_eq!(chunks[1].trim(), "0 1");
        assert!(chunks[2].contains("n 3"));
    }

    #[test]
    fn format_sniffing() {
        assert_eq!(
            sniff_format("c hi\np edge 2 1\ne 1 2\n"),
            graph_io::Format::Dimacs
        );
        assert_eq!(
            sniff_format("p edge 2 1\ne 1 2\n"),
            graph_io::Format::Dimacs
        );
        assert_eq!(sniff_format("\n\n0 1\n"), graph_io::Format::EdgeList);
        assert_eq!(sniff_format("n 4\n0 1\n"), graph_io::Format::EdgeList);
        assert_eq!(sniff_format(""), graph_io::Format::EdgeList);
    }

    #[test]
    fn request_ids_echo_sane_client_values_only() {
        let req = |headers: Vec<(&str, &str)>| Request {
            method: "POST".into(),
            path: "/solve".into(),
            target: "/solve".into(),
            query: vec![],
            headers: headers
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: vec![],
            version_minor: 1,
        };
        assert_eq!(
            request_id(&req(vec![("x-request-id", "client-abc-123")])),
            "client-abc-123"
        );
        // Hostile or absent ids get a generated one.
        let generated = request_id(&req(vec![]));
        assert!(generated.starts_with("req-"), "{generated}");
        assert!(request_id(&req(vec![("x-request-id", "has space")])).starts_with("req-"));
        assert!(request_id(&req(vec![("x-request-id", "")])).starts_with("req-"));
        let long = "x".repeat(65);
        assert!(request_id(&req(vec![("x-request-id", &long)])).starts_with("req-"));
        // Generated ids are unique.
        assert_ne!(generate_request_id(), generate_request_id());
    }

    /// Admin endpoints stay responsive while every worker is busy and the
    /// queue is full — they run on the reactor thread, never the pool.
    /// The hold route keeps the pool saturated until the test releases it.
    #[test]
    fn metrics_and_debug_respond_while_workers_are_saturated() {
        use crate::loadgen::Client;
        use std::time::Duration;

        let (release, gate) = std::sync::mpsc::channel();
        *HOLD.lock().unwrap() = Some(gate);
        let handle = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_mb: 8,
            queue_cap: 1,
            ..Default::default()
        })
        .expect("bind ephemeral port");
        let addr = handle.addr();

        // Two held requests: one occupies the single worker, the other
        // fills the queue. The second is sent only once the worker has
        // taken the first off the queue; sent together, the second could
        // find the one-slot queue still full and be shed.
        let hold = || {
            std::thread::spawn(move || Client::new(addr).request("POST", HOLD_PATH, "").unwrap())
        };
        let gauges = [
            &handle.ctx().metrics.pool_in_flight,
            &handle.ctx().metrics.pool_queue_depth,
        ];
        let load = || gauges.map(|g| g.load(Ordering::Relaxed));
        let wait_for = |want: [u64; 2], what: &str| {
            let started = Instant::now();
            while load() != want && started.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(load(), want, "{what}");
        };
        let mut holders = vec![hold()];
        wait_for([1, 0], "the first hold runs");
        holders.push(hold());
        wait_for([1, 1], "one hold runs, the other is queued");

        // Worker busy + queue full: admin endpoints must still answer fast.
        let mut client = Client::new(addr);
        for target in ["/healthz", "/metrics", "/debug/slowlog", "/debug/traces"] {
            let started = Instant::now();
            let resp = client.request("GET", target, "").unwrap();
            assert_eq!(resp.status, 200, "{target}: {}", resp.body);
            assert!(
                started.elapsed() < Duration::from_millis(500),
                "{target} took {:?} under saturation",
                started.elapsed()
            );
        }

        // A solve is shed with 503 + Retry-After — and the shed happens
        // without blocking and keeps the connection usable.
        let body = graph_io::write_edge_list(&dclab_graph::generators::classic::petersen());
        let shed = client
            .request("POST", "/solve?p=2,1&strategy=race&deadline-ms=1500", &body)
            .unwrap();
        assert_eq!(shed.status, 503, "{}", shed.body);
        assert_eq!(shed.header("retry-after"), Some("1"));
        assert!(shed.body.contains("\"kind\":\"overload\""), "{}", shed.body);
        let after = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(after.status, 200, "connection survives a shed");

        drop(release);
        for j in holders {
            let resp = j.join().unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        let _ = client.request("POST", "/shutdown", "");
        drop(client);
        handle.join();
    }

    #[test]
    fn slowlog_ring_evicts_oldest() {
        let log = SlowLog::new(3);
        for i in 0..5 {
            log.push(format!("line-{i}"));
        }
        assert_eq!(log.lines(), vec!["line-2", "line-3", "line-4"]);
    }
}
