//! # dclab-serve — the production solve service.
//!
//! PR 1 built the engine's single front door ([`dclab_engine::solve`]);
//! this crate keeps it open: a long-running, dependency-free HTTP/1.1
//! service over `std::net` that converts repeated solves of the same
//! small-diameter instance into O(1) cache lookups.
//!
//! The load-bearing idea is the **canonical-instance cache**
//! ([`cache::ReportCache`]): requests are keyed by the graph's
//! degree-refinement canonical form (`dclab_graph::canon`) combined with
//! the p-vector, strategy, and budget, so isomorphic relabelings of the
//! same edge list share one entry. Reports are stored in canonical vertex
//! space and translated back through each requester's own permutation —
//! a cached labeling is always valid for the exact graph the client sent.
//! Hash collisions are confirmed against the canonical edge list, so 1-WL
//! incompleteness can only cost a miss, never a wrong answer. Concurrent
//! identical requests are single-flighted: one solve runs, everyone
//! shares the result.
//!
//! Layers:
//!
//! * [`http`] — minimal HTTP/1.1 parsing/writing (bounded, keep-alive).
//! * [`cache`] — sharded LRU keyed by canonical instance identity, with
//!   single-flight deduplication.
//! * [`metrics`] — lock-free counters + log-scale latency histogram.
//! * [`server`] — routing, graceful shutdown, per-request solve tracing
//!   (every response carries `X-Request-Id`; finished traces land in a
//!   [`dclab_trace::FlightRecorder`] behind `GET /debug/traces`, feed the
//!   `dclab_phase_seconds` histograms, and slow solves get a structured
//!   log line behind `GET /debug/slowlog`).
//! * `reactor` — the one serve core: a std-only epoll reactor driving
//!   per-connection state machines, with CPU-bound solves dispatched to a
//!   bounded [`dclab_par::WorkerPool`] and completions returned over an
//!   eventfd. Connection budget is decoupled from (and far above) the
//!   worker count; overload sheds `503 + Retry-After` before a worker is
//!   consumed. It is Linux-only: elsewhere [`start`] returns
//!   `ErrorKind::Unsupported` before binding.
//! * `cluster` — consistent-hash routing of canonical instance identities
//!   across replicas (`--cluster`), with non-owners proxying one hop.
//! * [`persist`] — glue to the persistent solution archive
//!   (`dclab-store`): warm-boot the cache on start, read-through on LRU
//!   miss, write-behind fresh solves, seal the log at the shutdown drain.
//! * [`loadgen`] — replay harness (mixed + exact corpora, per-pass stats,
//!   multi-replica soak histograms, the CI `--self-test`).

pub mod cache;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod persist;
pub mod server;

pub mod cluster;
#[cfg(target_os = "linux")]
pub(crate) mod reactor;

/// Defaults shared by [`ServeConfig`] and the reactor, exposed so the CLI
/// can print them in `--help` without duplicating the numbers.
pub mod reactor_defaults {
    /// Default connection budget (`--max-conns`). Far above the worker
    /// count by design: idle keep-alive connections cost only a file
    /// descriptor and a small buffer, not a thread.
    pub const MAX_CONNS: usize = 1024;
    /// Default idle deadline in milliseconds (`--conn-idle-ms`) before a
    /// connection that is neither dispatched nor writing is reaped.
    pub const CONN_IDLE_MS: u64 = 5_000;
}

pub use cache::{CacheKey, CacheStatus, ReportCache};
pub use loadgen::{self_test, soak, Client, CorpusItem, PassStats, SoakConfig, SoakStats};
pub use metrics::{Metrics, StoreGauges};
pub use server::{start, ServeConfig, ServerHandle, SlowLog};
