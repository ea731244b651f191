//! Service metrics: lock-free counters and a log-scale latency histogram,
//! rendered as Prometheus text exposition (the `GET /metrics` default,
//! `text/plain; version=0.0.4`) or deterministic JSON
//! (`GET /metrics?format=json`).
//!
//! Every family gets a `# HELP` line and label values pass through
//! [`escape_label`] (backslash, double-quote, newline), so the output obeys
//! the text-format grammar even if a label value ever carries hostile bytes
//! — asserted by a parser test that walks the full exposition line by line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dclab_core::bounds::BoundKind;
use dclab_engine::json::Obj;
use dclab_engine::{OracleStats, Strategy};

use crate::cache::CacheCounters;

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^{i+1})` microseconds, the last bucket is open-ended (≥ ~35 min).
pub const LATENCY_BUCKETS: usize = 32;

/// One histogram per registered trace phase (`dclab_trace::PHASES`), so the
/// `dclab_phase_seconds` metric set stays bounded no matter what span names
/// show up in traces.
pub const PHASE_COUNT: usize = dclab_trace::PHASES.len();

/// One counter slot per concrete strategy, sized from the engine's own
/// registry so a new route extends the metric families automatically.
pub const STRATEGY_COUNT: usize = Strategy::CONCRETE.len();

/// One counter slot per lower-bound certificate kind, sized from the
/// core's own ladder registry ([`BoundKind::ALL`]).
pub const BOUND_KIND_COUNT: usize = BoundKind::ALL.len();

/// Upper bounds (`le`, inclusive) of the optimality-gap histogram; the
/// implicit last bucket is `+Inf`. Gap 0 — a proved-optimal solve — lands
/// under `le="0"`, so that first cumulative count is exactly the number of
/// proofs.
pub const GAP_BUCKETS: [f64; 7] = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1];

/// Histogram over relative optimality gaps (`(span − lb) / lb`), with the
/// fixed [`GAP_BUCKETS`] boundaries — gaps live in `[0, ~1]`, so the
/// power-of-two µs buckets of [`LatencyHistogram`] do not fit. The sum is
/// accumulated in millionths so the atomics stay integral and the rendered
/// `_sum` deterministic.
#[derive(Default)]
pub struct GapHistogram {
    buckets: [AtomicU64; GAP_BUCKETS.len() + 1],
    count: AtomicU64,
    sum_millionths: AtomicU64,
}

impl GapHistogram {
    pub fn record(&self, gap: f64) {
        let gap = gap.max(0.0);
        let bucket = GAP_BUCKETS
            .iter()
            .position(|&le| gap <= le)
            .unwrap_or(GAP_BUCKETS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_millionths
            .fetch_add((gap * 1e6).round() as u64, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Prometheus histogram family with the fixed gap boundaries.
    pub fn to_prometheus(&self, name: &str, help: &str) -> String {
        let mut out = format!("# HELP {name} {help}\n# TYPE {name} histogram\n");
        let mut cumulative = 0u64;
        for (i, le) in GAP_BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        let count = self.count();
        let sum = self.sum_millionths.load(Ordering::Relaxed) as f64 / 1e6;
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!("{name}_count {count}\n"));
        out
    }

    pub fn to_json(&self) -> String {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count();
        let mean = self
            .sum_millionths
            .load(Ordering::Relaxed)
            .checked_div(count)
            .unwrap_or(0) as f64
            / 1e6;
        Obj::new()
            .u64("count", count)
            .f64("mean", mean)
            .u64_array("bucket_counts", counts.iter().copied())
            .finish()
    }
}

/// Escape a Prometheus label *value* per the text exposition format:
/// backslash, double-quote, and line-feed must be written as `\\`, `\"`,
/// and `\n`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Histogram over microsecond latencies with power-of-two buckets.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    pub fn record(&self, latency: Duration) {
        self.record_us(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Record a raw microsecond sample (what per-phase trace attribution
    /// feeds in). Samples past the last bucket boundary clamp into the
    /// open-ended bucket rather than indexing out of bounds.
    pub fn record_us(&self, us: u64) {
        let bucket = (64 - us.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Approximate quantile from the histogram: the upper bound (in µs) of
    /// the bucket containing the `q`-quantile sample.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        u64::MAX
    }

    /// Prometheus histogram family (`# HELP` + `# TYPE` header, then
    /// `*_bucket{le=…}` cumulative counts in seconds, `*_sum`, `*_count`)
    /// for a metric named `name`.
    pub fn to_prometheus(&self, name: &str, help: &str) -> String {
        let mut out = format!("# HELP {name} {help}\n# TYPE {name} histogram\n");
        out.push_str(&self.prometheus_samples(name, ""));
        out
    }

    /// The sample lines of one histogram series without the family header,
    /// so several labeled series (e.g. `phase="apsp"`) can share one
    /// `# TYPE` declaration. `labels` is either empty or `key="value",` —
    /// trailing comma included — and composes with `le`.
    pub fn prometheus_samples(&self, name: &str, labels: &str) -> String {
        let mut out = String::new();
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let count = bucket.load(Ordering::Relaxed);
            cumulative += count;
            // The last bucket is open-ended: its samples belong to +Inf
            // only — a finite `le` would claim slow solves finished early.
            if count == 0 || i + 1 == LATENCY_BUCKETS {
                continue;
            }
            let le_seconds = (1u64 << (i + 1)) as f64 / 1e6;
            out.push_str(&format!(
                "{name}_bucket{{{labels}le=\"{le_seconds}\"}} {cumulative}\n"
            ));
        }
        let count = self.count();
        let sum = self.sum_us.load(Ordering::Relaxed) as f64 / 1e6;
        out.push_str(&format!("{name}_bucket{{{labels}le=\"+Inf\"}} {count}\n"));
        let bare = labels.trim_end_matches(',');
        if bare.is_empty() {
            out.push_str(&format!("{name}_sum {sum}\n"));
            out.push_str(&format!("{name}_count {count}\n"));
        } else {
            out.push_str(&format!("{name}_sum{{{bare}}} {sum}\n"));
            out.push_str(&format!("{name}_count{{{bare}}} {count}\n"));
        }
        out
    }

    pub fn to_json(&self) -> String {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Trim trailing empty buckets for readability; keep at least one.
        let last = counts.iter().rposition(|&c| c > 0).map_or(1, |i| i + 1);
        let count = self.count();
        let mean = self
            .sum_us
            .load(Ordering::Relaxed)
            .checked_div(count)
            .unwrap_or(0);
        Obj::new()
            .u64("count", count)
            .u64("mean_us", mean)
            .u64("p50_us", self.quantile_us(0.50))
            .u64("p90_us", self.quantile_us(0.90))
            .u64("p99_us", self.quantile_us(0.99))
            .u64_array("bucket_counts_pow2_us", counts[..last].iter().copied())
            .finish()
    }
}

/// Point-in-time archive gauges, read from the store at render time
/// (`None` when the server runs without `--store-path`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreGauges {
    /// Live archived records.
    pub entries: u64,
    /// Bytes of live log data.
    pub bytes: u64,
    /// Compaction generation stamp.
    pub generation: u64,
}

/// All counters the service exposes.
#[derive(Default)]
pub struct Metrics {
    pub requests_total: AtomicU64,
    pub solve_requests: AtomicU64,
    pub batch_requests: AtomicU64,
    pub health_requests: AtomicU64,
    pub metrics_requests: AtomicU64,
    pub responses_2xx: AtomicU64,
    pub responses_4xx: AtomicU64,
    pub responses_5xx: AtomicU64,
    pub rejected_overload: AtomicU64,
    /// Solves completed, by concrete strategy (index into
    /// [`Strategy::CONCRETE`]).
    pub per_strategy: [AtomicU64; STRATEGY_COUNT],
    /// Fresh solves whose deadline fired before optimality was proved
    /// (the response is still 200 with the best incumbent).
    pub solve_timeouts: AtomicU64,
    /// Race-strategy solves won, by the winning concrete member (index
    /// into [`Strategy::CONCRETE`]).
    pub race_wins: [AtomicU64; STRATEGY_COUNT],
    /// Fresh solves by the certificate kind backing their lower bound
    /// (index into [`BoundKind::ALL`]).
    pub bound_kinds: [AtomicU64; BOUND_KIND_COUNT],
    /// Relative optimality gaps of fresh solves whose lower bound was
    /// positive (proved-optimal solves record gap 0).
    pub optimality_gap: GapHistogram,
    /// Hub-label distance oracles built (dense-backed oracle solves do
    /// not build labels and are not counted here).
    pub oracle_labels_built: AtomicU64,
    /// Total `(hub, dist)` label entries across hub builds (numerator of
    /// the exported average label size).
    pub oracle_label_entries: AtomicU64,
    /// Total vertices across hub builds (denominator of the average).
    pub oracle_label_vertices: AtomicU64,
    /// Resident bytes of the most recent hub-label build (gauge).
    pub oracle_footprint_bytes: AtomicU64,
    /// Point distance queries served by oracle-routed solves.
    pub oracle_queries: AtomicU64,
    /// `oracle=auto` solves that resolved to the dense matrix (the
    /// instance fit under the engine's footprint threshold).
    pub oracle_dense_fallback: AtomicU64,
    /// End-to-end `/solve` handling latency (includes cache hits).
    pub solve_latency: LatencyHistogram,
    /// Per-phase time attribution from request traces, one histogram per
    /// `dclab_trace::PHASES` entry (`dclab_phase_seconds{phase=…}`).
    pub phase_latency: [LatencyHistogram; PHASE_COUNT],
    /// Solves slow enough to hit the slow-solve log (`--slow-solve-ms`).
    pub slow_solves: AtomicU64,
    /// Archive reads that found a record (LRU miss → store hit).
    pub store_hits: AtomicU64,
    /// Archive reads that fell through to a fresh solve.
    pub store_misses: AtomicU64,
    /// Records write-behind-appended after fresh solves.
    pub store_appends: AtomicU64,
    /// Entries loaded from the archive into the LRU at start.
    pub store_warm_boot: AtomicU64,
    /// Store fsyncs (shutdown drain, explicit flushes).
    pub store_flushes: AtomicU64,
    /// Connections accepted by the reactor.
    pub conns_accepted: AtomicU64,
    /// Currently open connections (gauge; reactor-maintained).
    pub conns_open: AtomicU64,
    /// Connections reaped by the per-connection idle deadline
    /// (`--conn-idle-ms`): slow-loris defense.
    pub conns_reaped: AtomicU64,
    /// Connections shed with 503 at the connection budget (`--max-conns`),
    /// before any request bytes were read. Distinct from
    /// `rejected_overload`, which counts queue-full sheds.
    pub rejected_conn_budget: AtomicU64,
    /// Worker-pool pressure gauges, refreshed by the reactor tick (the
    /// scrape path must never touch the pool itself — it runs on the
    /// reactor thread and has the fresh values at hand).
    pub pool_queue_depth: AtomicU64,
    pub pool_in_flight: AtomicU64,
    pub pool_workers: AtomicU64,
    /// 1 when serving as a member of a `--cluster` replica set.
    pub cluster_enabled: AtomicU64,
    /// Replica-set size (including this node).
    pub cluster_replicas: AtomicU64,
    /// Solve requests answered locally because this node owns the key.
    pub cluster_local: AtomicU64,
    /// Solve requests proxied to the owning replica.
    pub cluster_forwarded: AtomicU64,
    /// Forwarded solve requests *received* from a peer replica.
    pub cluster_received: AtomicU64,
    /// Proxy attempts that failed and fell back to a local solve.
    pub cluster_fallback: AtomicU64,
}

impl Metrics {
    pub fn record_strategy(&self, used: Strategy) {
        if let Some(i) = Strategy::CONCRETE.iter().position(|&s| s == used) {
            self.per_strategy[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record the concrete member that won a `strategy=race` solve.
    pub fn record_race_winner(&self, winner: Strategy) {
        if let Some(i) = Strategy::CONCRETE.iter().position(|&s| s == winner) {
            self.race_wins[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a fresh solve's lower-bound certificate kind and, when the
    /// bound is positive (gap defined), its relative optimality gap.
    pub fn record_bound(&self, kind: BoundKind, gap: Option<f64>) {
        if let Some(i) = BoundKind::ALL.iter().position(|&k| k == kind) {
            self.bound_kinds[i].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(gap) = gap {
            self.optimality_gap.record(gap);
        }
    }

    /// Record a fresh oracle-routed solve's [`OracleStats`]. `n` is the
    /// instance's vertex count (the denominator of the exported average
    /// label size). Dense-backed solves contribute queries and the
    /// fallback counter but no label shape.
    pub fn record_oracle(&self, o: &OracleStats, n: usize) {
        self.oracle_queries.fetch_add(o.queries, Ordering::Relaxed);
        if o.dense_fallback {
            self.oracle_dense_fallback.fetch_add(1, Ordering::Relaxed);
        }
        if o.backend == "hub" {
            self.oracle_labels_built
                .fetch_add(o.builds as u64, Ordering::Relaxed);
            self.oracle_label_entries
                .fetch_add(o.label_entries, Ordering::Relaxed);
            self.oracle_label_vertices
                .fetch_add(n as u64, Ordering::Relaxed);
            self.oracle_footprint_bytes
                .store(o.footprint_bytes, Ordering::Relaxed);
        }
    }

    /// Mean `(hub, dist)` entries per vertex across every hub build so
    /// far (0 before the first build). Integer floor keeps the JSON
    /// rendering deterministic.
    fn oracle_avg_label_size(&self) -> u64 {
        let entries = self.oracle_label_entries.load(Ordering::Relaxed);
        let vertices = self.oracle_label_vertices.load(Ordering::Relaxed);
        entries.checked_div(vertices).unwrap_or(0)
    }

    /// Record one phase's total µs from a finished request trace. Phase
    /// names outside the `dclab_trace::PHASES` registry are dropped so the
    /// metric set stays bounded.
    pub fn record_phase(&self, name: &str, total_us: u64) {
        if let Some(i) = dclab_trace::phase_index(name) {
            self.phase_latency[i].record_us(total_us);
        }
    }

    /// Record one finished request. This is the single place
    /// `requests_total` is incremented — every path that answers a client
    /// (routed, parse failure, overload shed) calls it exactly once, so
    /// `requests_total == responses_2xx + responses_4xx + responses_5xx`
    /// always reconciles.
    pub fn record_status(&self, status: u16) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// The `/metrics` body in Prometheus text exposition format 0.0.4
    /// (served with `content-type: text/plain; version=0.0.4`).
    /// `store` is `None` when the server runs without a persistent archive
    /// (the store counters still render, pinned at zero, so dashboards
    /// need not special-case the flag).
    pub fn to_prometheus(&self, cache: CacheCounters, store: Option<StoreGauges>) -> String {
        let counter = |name: &str, help: &str, value: u64| {
            format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n")
        };
        let gauge = |name: &str, help: &str, value: u64| {
            format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n")
        };
        let family = |name: &str, help: &str, kind: &str| {
            format!("# HELP {name} {help}\n# TYPE {name} {kind}\n")
        };
        let mut out = String::new();
        out.push_str(&counter(
            "dclab_requests_total",
            "Requests answered, over all endpoints and error paths.",
            self.requests_total.load(Ordering::Relaxed),
        ));
        out.push_str(&family(
            "dclab_endpoint_requests_total",
            "Requests routed, by endpoint.",
            "counter",
        ));
        for (name, v) in [
            ("solve", &self.solve_requests),
            ("batch", &self.batch_requests),
            ("health", &self.health_requests),
            ("metrics", &self.metrics_requests),
        ] {
            out.push_str(&format!(
                "dclab_endpoint_requests_total{{endpoint=\"{}\"}} {}\n",
                escape_label(name),
                v.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&family(
            "dclab_responses_total",
            "Responses sent, by status class.",
            "counter",
        ));
        for (class, v) in [
            ("2xx", &self.responses_2xx),
            ("4xx", &self.responses_4xx),
            ("5xx", &self.responses_5xx),
        ] {
            out.push_str(&format!(
                "dclab_responses_total{{class=\"{}\"}} {}\n",
                escape_label(class),
                v.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&counter(
            "dclab_rejected_overload_total",
            "Requests shed with 503 because the worker queue was full.",
            self.rejected_overload.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "dclab_rejected_conn_budget_total",
            "Connections shed with 503 at the connection budget (--max-conns).",
            self.rejected_conn_budget.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "dclab_conns_accepted_total",
            "Connections accepted.",
            self.conns_accepted.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_conns_open",
            "Currently open connections.",
            self.conns_open.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "dclab_conns_reaped_total",
            "Connections reaped by the idle deadline (--conn-idle-ms).",
            self.conns_reaped.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_pool_queue_depth",
            "Jobs waiting in the worker-pool queue.",
            self.pool_queue_depth.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_pool_in_flight",
            "Jobs currently executing on pool workers.",
            self.pool_in_flight.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_pool_workers",
            "Worker threads in the solve pool.",
            self.pool_workers.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_cluster_enabled",
            "1 when serving as a member of a --cluster replica set.",
            self.cluster_enabled.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_cluster_replicas",
            "Replica-set size (including this node).",
            self.cluster_replicas.load(Ordering::Relaxed),
        ));
        out.push_str(&family(
            "dclab_cluster_requests_total",
            "Cluster-routed solve requests, by route taken.",
            "counter",
        ));
        for (route, v) in [
            ("local", &self.cluster_local),
            ("forwarded", &self.cluster_forwarded),
            ("received", &self.cluster_received),
            ("fallback", &self.cluster_fallback),
        ] {
            out.push_str(&format!(
                "dclab_cluster_requests_total{{route=\"{}\"}} {}\n",
                escape_label(route),
                v.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&counter(
            "dclab_cache_hits_total",
            "Report-cache hits.",
            cache.hits,
        ));
        out.push_str(&counter(
            "dclab_cache_misses_total",
            "Report-cache misses (fresh solves).",
            cache.misses,
        ));
        out.push_str(&counter(
            "dclab_cache_coalesced_total",
            "Requests that joined an identical in-flight solve.",
            cache.coalesced,
        ));
        out.push_str(&counter(
            "dclab_cache_evictions_total",
            "Cache entries evicted under the memory budget.",
            cache.evictions,
        ));
        out.push_str(&gauge(
            "dclab_cache_entries",
            "Live report-cache entries.",
            cache.entries,
        ));
        out.push_str(&gauge(
            "dclab_cache_bytes",
            "Approximate report-cache bytes.",
            cache.bytes,
        ));
        out.push_str(&gauge(
            "dclab_store_enabled",
            "1 when a persistent solution archive is attached.",
            store.is_some() as u64,
        ));
        out.push_str(&counter(
            "dclab_store_hits_total",
            "LRU misses answered from the persistent archive.",
            self.store_hits.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "dclab_store_misses_total",
            "Archive lookups that fell through to a fresh solve.",
            self.store_misses.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "dclab_store_appends_total",
            "Fresh solves write-behind-appended to the archive.",
            self.store_appends.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "dclab_store_flushes_total",
            "Archive fsyncs (shutdown drain, explicit flushes).",
            self.store_flushes.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_store_warm_boot_entries",
            "Entries loaded from the archive into the cache at start.",
            self.store_warm_boot.load(Ordering::Relaxed),
        ));
        let gauges = store.unwrap_or_default();
        out.push_str(&gauge(
            "dclab_store_entries",
            "Live records in the persistent archive.",
            gauges.entries,
        ));
        out.push_str(&gauge(
            "dclab_store_bytes",
            "Bytes of live archive log data.",
            gauges.bytes,
        ));
        out.push_str(&gauge(
            "dclab_store_generation",
            "Archive compaction generation stamp.",
            gauges.generation,
        ));
        out.push_str(&family(
            "dclab_solves_total",
            "Fresh solves completed, by concrete strategy.",
            "counter",
        ));
        for (s, count) in Strategy::CONCRETE.iter().zip(self.per_strategy.iter()) {
            out.push_str(&format!(
                "dclab_solves_total{{strategy=\"{}\"}} {}\n",
                escape_label(s.name()),
                count.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&counter(
            "dclab_solve_timeouts_total",
            "Fresh solves whose deadline fired before an optimality proof.",
            self.solve_timeouts.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "dclab_slow_solves_total",
            "Solves slow enough to be written to the slow-solve log.",
            self.slow_solves.load(Ordering::Relaxed),
        ));
        out.push_str(&family(
            "dclab_race_wins_total",
            "Race-strategy solves won, by winning member.",
            "counter",
        ));
        for (s, count) in Strategy::CONCRETE.iter().zip(self.race_wins.iter()) {
            out.push_str(&format!(
                "dclab_race_wins_total{{strategy=\"{}\"}} {}\n",
                escape_label(s.name()),
                count.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&family(
            "dclab_bound_kind_total",
            "Fresh solves, by lower-bound certificate kind.",
            "counter",
        ));
        for (k, count) in BoundKind::ALL.iter().zip(self.bound_kinds.iter()) {
            out.push_str(&format!(
                "dclab_bound_kind_total{{kind=\"{}\"}} {}\n",
                escape_label(k.name()),
                count.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&self.optimality_gap.to_prometheus(
            "dclab_optimality_gap",
            "Relative optimality gap (span - lower_bound) / lower_bound of fresh solves.",
        ));
        out.push_str(&counter(
            "dclab_oracle_labels_built_total",
            "Hub-label distance oracles built for fresh solves.",
            self.oracle_labels_built.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_oracle_avg_label_size",
            "Mean (hub, dist) label entries per vertex across hub builds.",
            self.oracle_avg_label_size(),
        ));
        out.push_str(&counter(
            "dclab_oracle_query_total",
            "Point distance queries served by oracle-routed solves.",
            self.oracle_queries.load(Ordering::Relaxed),
        ));
        out.push_str(&gauge(
            "dclab_oracle_footprint_bytes",
            "Resident bytes of the most recent hub-label build.",
            self.oracle_footprint_bytes.load(Ordering::Relaxed),
        ));
        out.push_str(&counter(
            "dclab_oracle_dense_fallback_total",
            "oracle=auto solves that resolved to the dense matrix.",
            self.oracle_dense_fallback.load(Ordering::Relaxed),
        ));
        out.push_str(&self.solve_latency.to_prometheus(
            "dclab_solve_latency_seconds",
            "End-to-end /solve handling latency (cache hits included).",
        ));
        out.push_str(&family(
            "dclab_phase_seconds",
            "Per-phase solve time attribution from request traces.",
            "histogram",
        ));
        for (i, name) in dclab_trace::PHASES.iter().enumerate() {
            let h = &self.phase_latency[i];
            if h.count() == 0 {
                continue;
            }
            let labels = format!("phase=\"{}\",", escape_label(name));
            out.push_str(&h.prometheus_samples("dclab_phase_seconds", &labels));
        }
        out
    }

    /// The `/metrics?format=json` body.
    pub fn to_json(&self, cache: CacheCounters, store: Option<StoreGauges>) -> String {
        let strategies = Strategy::CONCRETE
            .iter()
            .zip(self.per_strategy.iter())
            .fold(Obj::new(), |obj, (s, count)| {
                obj.u64(s.name(), count.load(Ordering::Relaxed))
            })
            .finish();
        let race_wins = Strategy::CONCRETE
            .iter()
            .zip(self.race_wins.iter())
            .fold(Obj::new(), |obj, (s, count)| {
                obj.u64(s.name(), count.load(Ordering::Relaxed))
            })
            .finish();
        let bound_kinds = BoundKind::ALL
            .iter()
            .zip(self.bound_kinds.iter())
            .fold(Obj::new(), |obj, (k, count)| {
                obj.u64(k.name(), count.load(Ordering::Relaxed))
            })
            .finish();
        let phases = dclab_trace::PHASES
            .iter()
            .enumerate()
            .filter(|(i, _)| self.phase_latency[*i].count() > 0)
            .fold(Obj::new(), |obj, (i, name)| {
                obj.raw(name, &self.phase_latency[i].to_json())
            })
            .finish();
        let cache_json = Obj::new()
            .u64("hits", cache.hits)
            .u64("misses", cache.misses)
            .u64("coalesced", cache.coalesced)
            .u64("evictions", cache.evictions)
            .u64("entries", cache.entries)
            .u64("bytes", cache.bytes)
            .finish();
        let serve_json = Obj::new()
            .u64(
                "conns_accepted",
                self.conns_accepted.load(Ordering::Relaxed),
            )
            .u64("conns_open", self.conns_open.load(Ordering::Relaxed))
            .u64("conns_reaped", self.conns_reaped.load(Ordering::Relaxed))
            .u64(
                "rejected_conn_budget",
                self.rejected_conn_budget.load(Ordering::Relaxed),
            )
            .u64(
                "pool_queue_depth",
                self.pool_queue_depth.load(Ordering::Relaxed),
            )
            .u64(
                "pool_in_flight",
                self.pool_in_flight.load(Ordering::Relaxed),
            )
            .u64("pool_workers", self.pool_workers.load(Ordering::Relaxed))
            .finish();
        let cluster_json = Obj::new()
            .bool("enabled", self.cluster_enabled.load(Ordering::Relaxed) == 1)
            .u64("replicas", self.cluster_replicas.load(Ordering::Relaxed))
            .u64("local", self.cluster_local.load(Ordering::Relaxed))
            .u64("forwarded", self.cluster_forwarded.load(Ordering::Relaxed))
            .u64("received", self.cluster_received.load(Ordering::Relaxed))
            .u64("fallback", self.cluster_fallback.load(Ordering::Relaxed))
            .finish();
        let oracle_json = Obj::new()
            .u64(
                "labels_built",
                self.oracle_labels_built.load(Ordering::Relaxed),
            )
            .u64("avg_label_size", self.oracle_avg_label_size())
            .u64("query_total", self.oracle_queries.load(Ordering::Relaxed))
            .u64(
                "footprint_bytes",
                self.oracle_footprint_bytes.load(Ordering::Relaxed),
            )
            .u64(
                "dense_fallback",
                self.oracle_dense_fallback.load(Ordering::Relaxed),
            )
            .finish();
        let gauges = store.unwrap_or_default();
        let store_json = Obj::new()
            .bool("enabled", store.is_some())
            .u64("hits", self.store_hits.load(Ordering::Relaxed))
            .u64("misses", self.store_misses.load(Ordering::Relaxed))
            .u64("appends", self.store_appends.load(Ordering::Relaxed))
            .u64("flushes", self.store_flushes.load(Ordering::Relaxed))
            .u64("warm_boot", self.store_warm_boot.load(Ordering::Relaxed))
            .u64("entries", gauges.entries)
            .u64("bytes", gauges.bytes)
            .u64("generation", gauges.generation)
            .finish();
        Obj::new()
            .u64(
                "requests_total",
                self.requests_total.load(Ordering::Relaxed),
            )
            .u64(
                "solve_requests",
                self.solve_requests.load(Ordering::Relaxed),
            )
            .u64(
                "batch_requests",
                self.batch_requests.load(Ordering::Relaxed),
            )
            .u64(
                "health_requests",
                self.health_requests.load(Ordering::Relaxed),
            )
            .u64(
                "metrics_requests",
                self.metrics_requests.load(Ordering::Relaxed),
            )
            .u64("responses_2xx", self.responses_2xx.load(Ordering::Relaxed))
            .u64("responses_4xx", self.responses_4xx.load(Ordering::Relaxed))
            .u64("responses_5xx", self.responses_5xx.load(Ordering::Relaxed))
            .u64(
                "rejected_overload",
                self.rejected_overload.load(Ordering::Relaxed),
            )
            .u64(
                "solve_timeouts",
                self.solve_timeouts.load(Ordering::Relaxed),
            )
            .u64("slow_solves", self.slow_solves.load(Ordering::Relaxed))
            .raw("serve", &serve_json)
            .raw("cluster", &cluster_json)
            .raw("cache", &cache_json)
            .raw("store", &store_json)
            .raw("strategies", &strategies)
            .raw("race_wins", &race_wins)
            .raw("bound_kinds", &bound_kinds)
            .raw("optimality_gap", &self.optimality_gap.to_json())
            .raw("oracle", &oracle_json)
            .raw("solve_latency", &self.solve_latency.to_json())
            .raw("phases", &phases)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for us in [1u64, 3, 3, 3, 100, 100, 5000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 7);
        // p50 falls in the [2,4) bucket → upper bound 4.
        assert_eq!(h.quantile_us(0.50), 4);
        assert!(h.quantile_us(0.99) >= 4096);
        let json = h.to_json();
        assert!(json.contains("\"count\":7"));
        assert!(json.contains("\"p50_us\":4"));
    }

    #[test]
    fn quantile_at_exact_bucket_boundaries() {
        // A sample exactly on a power-of-two boundary belongs to the bucket
        // it *opens*: 2^i lands in [2^i, 2^{i+1}), so the reported quantile
        // upper bound is 2^{i+1}.
        for i in 0..8u32 {
            let h = LatencyHistogram::default();
            h.record_us(1u64 << i);
            assert_eq!(h.quantile_us(0.5), 1u64 << (i + 1), "boundary 2^{i}");
            assert_eq!(h.quantile_us(1.0), 1u64 << (i + 1));
        }
        // Zero clamps up into the first bucket rather than underflowing.
        let h = LatencyHistogram::default();
        h.record_us(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(1.0), 2);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.0), 0);
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.quantile_us(1.0), 0);
        assert!(h.to_json().contains("\"count\":0"));
        // Exposition still renders a complete (all-zero) histogram family.
        let text = h.to_prometheus("x_seconds", "help");
        assert!(text.contains("x_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("x_seconds_count 0\n"));
    }

    #[test]
    fn huge_samples_clamp_into_the_open_ended_bucket() {
        let h = LatencyHistogram::default();
        // Everything at or past 2^{LATENCY_BUCKETS-1} µs shares the last
        // bucket — including u64::MAX, which must not index out of bounds.
        h.record_us(1u64 << (LATENCY_BUCKETS - 1));
        h.record_us(u64::MAX);
        h.record(Duration::from_secs(u64::MAX / 1_000_000));
        assert_eq!(h.count(), 3);
        // The open-ended bucket has no finite upper bound to report.
        assert!(h.quantile_us(0.5) >= 1u64 << LATENCY_BUCKETS);
        // Prometheus: the last bucket renders only under +Inf, never a
        // finite le.
        let text = h.to_prometheus("x_seconds", "help");
        assert!(text.contains("x_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert_eq!(text.matches("_bucket{le=").count(), 1, "{text}");
    }

    #[test]
    fn prometheus_and_json_agree() {
        let h = LatencyHistogram::default();
        let samples = [1u64, 5, 5, 130, 4000, 4000, 4001, 70_000];
        for us in samples {
            h.record_us(us);
        }
        let text = h.to_prometheus("x_seconds", "help");
        let json = h.to_json();
        // Totals agree.
        assert!(text.contains(&format!("x_seconds_count {}\n", h.count())));
        assert!(json.contains(&format!("\"count\":{}", h.count())));
        let sum: u64 = samples.iter().sum();
        assert!(text.contains(&format!("x_seconds_sum {}\n", sum as f64 / 1e6)));
        assert!(json.contains(&format!("\"mean_us\":{}", sum / samples.len() as u64)));
        // The +Inf cumulative count equals the total in both renderings.
        assert!(text.contains(&format!("x_seconds_bucket{{le=\"+Inf\"}} {}\n", h.count())));
        // Per-bucket counts: the JSON buckets sum to the Prometheus count.
        let bucket_part = json
            .split("\"bucket_counts_pow2_us\":[")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .unwrap();
        let bucket_sum: u64 = bucket_part
            .split(',')
            .map(|t| t.parse::<u64>().unwrap())
            .sum();
        assert_eq!(bucket_sum, h.count());
        // Quantiles in the JSON match quantile_us directly.
        assert!(json.contains(&format!("\"p99_us\":{}", h.quantile_us(0.99))));
    }

    #[test]
    fn label_values_escape_prometheus_metacharacters() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        assert_eq!(escape_label("\\\"\n"), "\\\\\\\"\\n");
    }

    #[test]
    fn phase_histograms_render_per_phase() {
        let m = Metrics::default();
        m.record_phase("apsp", 100);
        m.record_phase("lk", 900);
        m.record_phase("lk", 1_100);
        m.record_phase("not-a-registered-phase", 5);
        let text = m.to_prometheus(CacheCounters::default(), None);
        assert_eq!(text.matches("# TYPE dclab_phase_seconds").count(), 1);
        assert!(text.contains("dclab_phase_seconds_bucket{phase=\"apsp\",le=\"0.000128\"} 1\n"));
        assert!(text.contains("dclab_phase_seconds_count{phase=\"lk\"} 2\n"));
        assert!(!text.contains("not-a-registered-phase"));
        let json = m.to_json(CacheCounters::default(), None);
        assert!(json.contains("\"phases\":{\"apsp\":{\"count\":1"));
        assert!(json.contains("\"lk\":{\"count\":2"));
    }

    #[test]
    fn metrics_json_shape() {
        let m = Metrics::default();
        m.record_strategy(Strategy::Exact);
        m.record_strategy(Strategy::Exact);
        m.record_status(200);
        m.record_status(422);
        m.record_status(200);
        let json = m.to_json(CacheCounters::default(), None);
        assert!(json.contains("\"requests_total\":3"));
        assert!(json.contains("\"responses_2xx\":2"));
        assert!(json.contains("\"exact\":2"));
        assert!(json.contains("\"responses_4xx\":1"));
        assert!(json.contains("\"cache\":{\"hits\":0"));
        assert!(json.contains("\"store\":{\"enabled\":false"));
        assert!(json.contains("\"phases\":{}"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = Metrics::default();
        m.record_strategy(Strategy::Exact);
        m.record_status(200);
        m.record_status(422);
        m.solve_latency.record(Duration::from_micros(100));
        let text = m.to_prometheus(CacheCounters::default(), None);
        assert!(text.contains("# TYPE dclab_requests_total counter\ndclab_requests_total 2\n"));
        assert!(text.contains("# HELP dclab_requests_total "));
        assert!(text.contains("dclab_responses_total{class=\"2xx\"} 1\n"));
        assert!(text.contains("dclab_responses_total{class=\"4xx\"} 1\n"));
        assert!(text.contains("dclab_solves_total{strategy=\"exact\"} 1\n"));
        assert!(text.contains("dclab_cache_hits_total 0\n"));
        // Histogram: 100 µs lands in the [64,128) µs bucket → le 128/1e6.
        assert!(text.contains("# TYPE dclab_solve_latency_seconds histogram"));
        assert!(text.contains("dclab_solve_latency_seconds_bucket{le=\"0.000128\"} 1\n"));
        assert!(text.contains("dclab_solve_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("dclab_solve_latency_seconds_count 1\n"));
        // One TYPE line per metric family, even with several samples.
        assert_eq!(text.matches("# TYPE dclab_solves_total").count(), 1);
        assert_eq!(text.matches("# TYPE dclab_responses_total").count(), 1);
        // Store counters render even when the archive is disabled.
        assert!(text.contains("dclab_store_enabled 0\n"));
        assert!(text.contains("dclab_store_hits_total 0\n"));
    }

    #[test]
    fn timeout_and_race_counters_render() {
        let m = Metrics::default();
        m.solve_timeouts.fetch_add(2, Ordering::Relaxed);
        m.record_race_winner(Strategy::Heuristic);
        m.record_race_winner(Strategy::Heuristic);
        m.record_race_winner(Strategy::BranchBound);
        m.record_race_winner(Strategy::Race); // not concrete: ignored
        let text = m.to_prometheus(CacheCounters::default(), None);
        assert!(text.contains("dclab_solve_timeouts_total 2\n"));
        assert!(text.contains("dclab_race_wins_total{strategy=\"heuristic\"} 2\n"));
        assert!(text.contains("dclab_race_wins_total{strategy=\"branch-bound\"} 1\n"));
        assert!(text.contains("dclab_race_wins_total{strategy=\"greedy\"} 0\n"));
        assert_eq!(text.matches("# TYPE dclab_race_wins_total").count(), 1);
        let json = m.to_json(CacheCounters::default(), None);
        assert!(json.contains("\"solve_timeouts\":2"));
        assert!(json.contains("\"race_wins\":{"));
        assert!(json.contains("\"heuristic\":2"));
    }

    #[test]
    fn bound_kind_and_gap_metrics_render() {
        let m = Metrics::default();
        // A fresh server renders the full all-zero families.
        let text = m.to_prometheus(CacheCounters::default(), None);
        assert!(text.contains("dclab_bound_kind_total{kind=\"degree\"} 0\n"));
        assert!(text.contains("dclab_optimality_gap_count 0\n"));
        // A proof (gap 0), a near-optimal timeout, and a bound-less solve.
        m.record_bound(BoundKind::ProvedOptimal, Some(0.0));
        m.record_bound(BoundKind::HkAscent, Some(0.0075));
        m.record_bound(BoundKind::Degree, None);
        let text = m.to_prometheus(CacheCounters::default(), None);
        assert!(text.contains("dclab_bound_kind_total{kind=\"proved-optimal\"} 1\n"));
        assert!(text.contains("dclab_bound_kind_total{kind=\"hk-ascent\"} 1\n"));
        assert!(text.contains("dclab_bound_kind_total{kind=\"degree\"} 1\n"));
        assert!(text.contains("dclab_bound_kind_total{kind=\"one-tree\"} 0\n"));
        assert_eq!(text.matches("# TYPE dclab_bound_kind_total").count(), 1);
        // Gap histogram: the proof sits alone under le="0"; the 0.0075 gap
        // first appears cumulatively at le="0.01"; the undefined gap never
        // records.
        assert!(text.contains("dclab_optimality_gap_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("dclab_optimality_gap_bucket{le=\"0.005\"} 1\n"));
        assert!(text.contains("dclab_optimality_gap_bucket{le=\"0.01\"} 2\n"));
        assert!(text.contains("dclab_optimality_gap_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("dclab_optimality_gap_sum 0.0075\n"));
        assert!(text.contains("dclab_optimality_gap_count 2\n"));
        assert_prometheus_grammar(&text);
        let json = m.to_json(CacheCounters::default(), None);
        assert!(json.contains("\"bound_kinds\":{\"degree\":1,\"one-tree\":0,"));
        assert!(json.contains("\"optimality_gap\":{\"count\":2,\"mean\":0.003750"));
    }

    #[test]
    fn oracle_metrics_render_and_average_is_cumulative() {
        let m = Metrics::default();
        // A fresh server renders the full (all-zero) oracle family set.
        let text = m.to_prometheus(CacheCounters::default(), None);
        assert!(text.contains("dclab_oracle_labels_built_total 0\n"));
        assert!(text.contains("dclab_oracle_avg_label_size 0\n"));
        // One hub solve: 50 vertices, 400 entries, then a dense fallback.
        m.record_oracle(
            &OracleStats {
                backend: "hub".into(),
                builds: 1,
                label_entries: 400,
                footprint_bytes: 4800,
                queries: 120,
                dense_fallback: false,
            },
            50,
        );
        m.record_oracle(
            &OracleStats {
                backend: "dense".into(),
                builds: 1,
                label_entries: 0,
                footprint_bytes: 400,
                queries: 30,
                dense_fallback: true,
            },
            10,
        );
        let text = m.to_prometheus(CacheCounters::default(), None);
        assert!(text.contains("dclab_oracle_labels_built_total 1\n"));
        assert!(text.contains("dclab_oracle_avg_label_size 8\n"));
        assert!(text.contains("dclab_oracle_query_total 150\n"));
        // The dense solve's matrix bytes never pollute the hub gauge.
        assert!(text.contains("dclab_oracle_footprint_bytes 4800\n"));
        assert!(text.contains("dclab_oracle_dense_fallback_total 1\n"));
        assert_prometheus_grammar(&text);
        // A second hub build folds into the cumulative average.
        m.record_oracle(
            &OracleStats {
                backend: "hub".into(),
                builds: 1,
                label_entries: 200,
                footprint_bytes: 2400,
                queries: 60,
                dense_fallback: false,
            },
            50,
        );
        let json = m.to_json(CacheCounters::default(), None);
        assert!(json.contains(
            "\"oracle\":{\"labels_built\":2,\"avg_label_size\":6,\"query_total\":210,\
             \"footprint_bytes\":2400,\"dense_fallback\":1}"
        ));
    }

    #[test]
    fn connection_pool_and_cluster_metrics_render() {
        let m = Metrics::default();
        m.conns_accepted.fetch_add(9, Ordering::Relaxed);
        m.conns_open.store(4, Ordering::Relaxed);
        m.conns_reaped.fetch_add(2, Ordering::Relaxed);
        m.rejected_conn_budget.fetch_add(1, Ordering::Relaxed);
        m.pool_queue_depth.store(3, Ordering::Relaxed);
        m.pool_in_flight.store(2, Ordering::Relaxed);
        m.pool_workers.store(8, Ordering::Relaxed);
        m.cluster_enabled.store(1, Ordering::Relaxed);
        m.cluster_replicas.store(2, Ordering::Relaxed);
        m.cluster_local.fetch_add(5, Ordering::Relaxed);
        m.cluster_forwarded.fetch_add(3, Ordering::Relaxed);
        let text = m.to_prometheus(CacheCounters::default(), None);
        assert!(text.contains("dclab_conns_accepted_total 9\n"));
        assert!(text.contains("dclab_conns_open 4\n"));
        assert!(text.contains("dclab_conns_reaped_total 2\n"));
        assert!(text.contains("dclab_rejected_conn_budget_total 1\n"));
        assert!(text.contains("dclab_pool_queue_depth 3\n"));
        assert!(text.contains("dclab_pool_in_flight 2\n"));
        assert!(text.contains("dclab_pool_workers 8\n"));
        assert!(text.contains("dclab_cluster_enabled 1\n"));
        assert!(text.contains("dclab_cluster_requests_total{route=\"local\"} 5\n"));
        assert!(text.contains("dclab_cluster_requests_total{route=\"forwarded\"} 3\n"));
        assert!(text.contains("dclab_cluster_requests_total{route=\"fallback\"} 0\n"));
        assert_eq!(
            text.matches("# TYPE dclab_cluster_requests_total").count(),
            1
        );
        let json = m.to_json(CacheCounters::default(), None);
        assert!(
            json.contains("\"serve\":{\"conns_accepted\":9,\"conns_open\":4,\"conns_reaped\":2")
        );
        assert!(json.contains("\"cluster\":{\"enabled\":true,\"replicas\":2,\"local\":5"));
        assert_prometheus_grammar(&text);
    }

    #[test]
    fn store_gauges_render_when_enabled() {
        let m = Metrics::default();
        m.store_hits.fetch_add(3, Ordering::Relaxed);
        m.store_warm_boot.store(7, Ordering::Relaxed);
        let gauges = StoreGauges {
            entries: 7,
            bytes: 1234,
            generation: 2,
        };
        let text = m.to_prometheus(CacheCounters::default(), Some(gauges));
        assert!(text.contains("dclab_store_enabled 1\n"));
        assert!(text.contains("dclab_store_hits_total 3\n"));
        assert!(text.contains("dclab_store_entries 7\n"));
        assert!(text.contains("dclab_store_bytes 1234\n"));
        assert!(text.contains("dclab_store_generation 2\n"));
        let json = m.to_json(CacheCounters::default(), Some(gauges));
        assert!(json.contains("\"store\":{\"enabled\":true,\"hits\":3"));
        assert!(json.contains("\"warm_boot\":7"));
        assert!(json.contains("\"generation\":2"));
    }

    /// Minimal validator for the Prometheus text exposition format: every
    /// line is a `# HELP`/`# TYPE` comment or a `name[{labels}] value`
    /// sample whose family was declared, label values use only the legal
    /// escapes, and values parse as floats.
    fn assert_prometheus_grammar(text: &str) {
        use std::collections::HashSet;
        fn is_name(s: &str) -> bool {
            !s.is_empty()
                && !s.starts_with(|c: char| c.is_ascii_digit())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        fn check_labels(s: &str) {
            let mut rest = s;
            while !rest.is_empty() {
                let eq = rest.find("=\"").expect("label has ='\"'");
                assert!(is_name(&rest[..eq]), "bad label name in {s}");
                rest = &rest[eq + 2..];
                let mut end = None;
                let mut chars = rest.char_indices();
                while let Some((i, c)) = chars.next() {
                    match c {
                        '\\' => {
                            let next = chars.next().map(|(_, c)| c);
                            assert!(
                                matches!(next, Some('\\' | '"' | 'n')),
                                "illegal escape in label value: {s}"
                            );
                        }
                        '"' => {
                            end = Some(i);
                            break;
                        }
                        '\n' => panic!("raw newline in label value: {s}"),
                        _ => {}
                    }
                }
                rest = &rest[end.expect("unterminated label value") + 1..];
                match rest.strip_prefix(',') {
                    Some(r) => rest = r,
                    None => assert!(rest.is_empty(), "junk after label value: {s}"),
                }
            }
        }
        let mut declared: HashSet<&str> = HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(is_name(name), "bad HELP target: {line}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap();
                let kind = it.next().unwrap_or("");
                assert!(is_name(name), "bad TYPE target: {line}");
                assert!(
                    ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                    "bad TYPE kind: {line}"
                );
                declared.insert(name);
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment form: {line}");
            let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
            assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
            let name = match series.split_once('{') {
                Some((n, labels)) => {
                    let labels = labels.strip_suffix('}').expect("unterminated label set");
                    check_labels(labels);
                    n
                }
                None => series,
            };
            assert!(is_name(name), "bad metric name: {line}");
            let family_declared = declared.contains(name)
                || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                    name.strip_suffix(suffix)
                        .is_some_and(|b| declared.contains(b))
                });
            assert!(family_declared, "sample without TYPE declaration: {line}");
        }
    }

    #[test]
    fn full_exposition_obeys_text_format_grammar() {
        let m = Metrics::default();
        m.record_status(200);
        m.record_status(503);
        m.record_strategy(Strategy::Heuristic);
        m.record_race_winner(Strategy::Exact);
        m.solve_latency.record(Duration::from_micros(250));
        m.record_phase("solve", 240);
        m.record_phase("apsp", 90);
        m.record_phase("lk", 120);
        let gauges = StoreGauges {
            entries: 3,
            bytes: 99,
            generation: 1,
        };
        assert_prometheus_grammar(&m.to_prometheus(CacheCounters::default(), Some(gauges)));
        // And the empty server renders a valid exposition too.
        assert_prometheus_grammar(
            &Metrics::default().to_prometheus(CacheCounters::default(), None),
        );
    }
}
