//! Structured span tracing for the `dclab` solve pipeline.
//!
//! The solve stack is a phase chain — reduce → APSP → candidate build →
//! LK/BB — and this crate records it as a tree of timed spans. The design
//! constraint, inherited from [`Deadline::none`]-style budgets, is that the
//! *disabled* mode must cost nothing that could perturb a solve: a
//! [`Trace::disabled`] handle performs **zero clock reads** and allocates
//! nothing, so untraced solves stay bit-identical to an uninstrumented
//! build and within measurement noise of its throughput (gated by the
//! `e15_trace` bench).
//!
//! [`Deadline::none`]: https://docs.rs/ (see `dclab_par::Deadline`)
//!
//! # Model
//!
//! * A [`Trace`] is a cheap handle (an `Option<Arc<..>>`) over a per-solve
//!   span arena. [`Trace::enabled`] preallocates the arena; guards push
//!   completed spans under a mutex (contention is one push per phase, not
//!   per inner-loop iteration).
//! * [`Trace::span`] returns an RAII [`SpanGuard`]; dropping it stamps the
//!   duration and records the span. Parent links are maintained through a
//!   thread-local "current parent" that guards push/pop, so nesting is
//!   automatic within a thread.
//! * The handle propagates across `dclab_par` fan-outs: workers capture a
//!   [`FanoutCtx`] (trace + parent span id) and install it for the scope of
//!   their items, so race members and APSP blocks attach to the right
//!   parent even on pool threads.
//! * Finished traces ([`SolveTrace`]) go to a process-wide
//!   [`FlightRecorder`]: a lock-sharded ring of the
//!   last N solves plus the slowest K retained separately, the backing
//!   store of serve's `GET /debug/traces` surface.
//! * [`SolveTrace::to_json`] renders the span tree; `to_chrome_json`
//!   emits Chrome `trace_event` JSON loadable in `chrome://tracing` or
//!   Perfetto.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod export;
pub mod flight;

pub use flight::FlightRecorder;

/// Canonical phase names recorded by the pipeline, in pipeline order.
///
/// Serve keys its `dclab_phase_seconds` histograms off this registry so the
/// metric set stays bounded; spans with other names still appear in traces
/// and `stats.phases`, they just don't get a histogram.
pub const PHASES: &[&str] = &[
    "parse",
    "canon",
    "request",
    "solve",
    "reduce",
    "apsp",
    "candidates",
    "lk",
    "bb",
    "exact",
    "approx15",
    "greedy",
    "l1",
    "lower_bound",
    "race",
    "member",
    "validate",
    "oracle_build",
    "oracle_query",
];

/// Index of `name` in the [`PHASES`] registry, if registered.
pub fn phase_index(name: &str) -> Option<usize> {
    PHASES.iter().position(|p| *p == name)
}

/// One completed span: a named phase with a start offset (µs since the
/// trace epoch), a duration, a parent link, and the recording thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span id, unique within the trace (1-based; 0 means "no parent").
    pub id: u32,
    /// Parent span id, or 0 for a root span.
    pub parent: u32,
    /// Phase name (static so hot paths never allocate for the common case).
    pub name: &'static str,
    /// Free-form annotation, e.g. `kicks=30 rounds=31` ("" when unset).
    pub detail: String,
    /// Start offset in µs since the trace was created.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Small dense id of the recording thread (for Chrome track layout).
    pub tid: u32,
}

/// Aggregate of all spans sharing a name: `(name, calls, total_us)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTotal {
    pub name: String,
    pub calls: u64,
    pub total_us: u64,
}

struct TraceInner {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Preallocated span capacity per solve — deep traces stay allocation-free.
const ARENA_SPANS: usize = 64;

/// A handle to a per-solve span recorder. Cheap to clone; `disabled()` is
/// an inert handle whose every operation is a branch on `None`.
#[derive(Clone)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// An inert trace: no arena, no clock reads, every call a no-op.
    #[inline]
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// A live trace with a preallocated span arena. This is the only
    /// constructor that reads the clock (to stamp the epoch).
    pub fn enabled() -> Self {
        Trace {
            inner: Some(Arc::new(TraceInner {
                epoch: Instant::now(),
                next_id: AtomicU32::new(1),
                spans: Mutex::new(Vec::with_capacity(ARENA_SPANS)),
            })),
        }
    }

    /// Whether spans are being recorded. Hot loops hoist this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span. Disabled traces return an inert guard without touching
    /// the clock; enabled traces stamp the start offset and link the span
    /// under the thread's current parent.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard {
                trace: None,
                id: 0,
                parent: 0,
                name,
                detail: String::new(),
                start: None,
            },
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                let parent = CURRENT_PARENT.with(|p| p.replace(id));
                SpanGuard {
                    trace: Some(Arc::clone(inner)),
                    id,
                    parent,
                    name,
                    detail: String::new(),
                    start: Some(Instant::now()),
                }
            }
        }
    }

    /// Record an instantaneous event (zero-duration span) at the current
    /// nesting level. `detail` is only invoked when the trace is live, so
    /// callers can format lazily.
    #[inline]
    pub fn instant<F: FnOnce() -> String>(&self, name: &'static str, detail: F) {
        if let Some(inner) = &self.inner {
            let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
            let parent = CURRENT_PARENT.with(|p| p.get());
            let start_us = inner.epoch.elapsed().as_micros() as u64;
            let span = Span {
                id,
                parent,
                name,
                detail: detail(),
                start_us,
                dur_us: 0,
                tid: thread_tid(),
            };
            inner.spans.lock().expect("trace arena poisoned").push(span);
        }
    }

    /// Aggregate completed spans by name, in first-recorded order.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        self.phase_totals_since(0)
    }

    /// [`Trace::phase_totals`] over the spans opened at or after span
    /// `first` (ids are handed out in opening order).
    ///
    /// This is what the engine snapshots into `SolveReport.stats.phases`
    /// right before returning: per-phase µs attribution for the solve,
    /// without the spans a caller recorded before it (serve's `parse` and
    /// `canon`).
    pub fn phase_totals_since(&self, first: u32) -> Vec<PhaseTotal> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let spans = inner.spans.lock().expect("trace arena poisoned");
                aggregate(spans.iter().filter(|s| s.id >= first))
            }
        }
    }

    /// Close out the trace into a [`SolveTrace`]. Returns `None` for a
    /// disabled trace. The span arena is drained; spans are sorted by
    /// start offset (then id) so the tree reads top-down.
    pub fn finish(&self, id: String, label: String) -> Option<SolveTrace> {
        let inner = self.inner.as_ref()?;
        let total_us = inner.epoch.elapsed().as_micros() as u64;
        let mut spans = {
            let mut guard = inner.spans.lock().expect("trace arena poisoned");
            std::mem::take(&mut *guard)
        };
        spans.sort_by_key(|s| (s.start_us, s.id));
        Some(SolveTrace {
            id,
            label,
            total_us,
            seq: 0,
            spans,
        })
    }

    /// Install this trace as the thread's current trace for the guard's
    /// lifetime (restores the previous trace on drop).
    pub fn install(&self) -> InstallGuard {
        let prev = CURRENT.with(|c| c.replace(self.clone()));
        let prev_parent = CURRENT_PARENT.with(|p| p.replace(0));
        InstallGuard { prev, prev_parent }
    }
}

/// Aggregate a span slice by name, preserving first-seen order.
pub fn aggregate_phases(spans: &[Span]) -> Vec<PhaseTotal> {
    aggregate(spans.iter())
}

fn aggregate<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<PhaseTotal> {
    let mut out: Vec<PhaseTotal> = Vec::new();
    for s in spans {
        match out.iter_mut().find(|t| t.name == s.name) {
            Some(t) => {
                t.calls += 1;
                t.total_us += s.dur_us;
            }
            None => out.push(PhaseTotal {
                name: s.name.to_string(),
                calls: 1,
                total_us: s.dur_us,
            }),
        }
    }
    out
}

/// A finished, immutable solve trace: what the flight recorder retains and
/// the debug endpoints render.
#[derive(Clone, Debug)]
pub struct SolveTrace {
    /// Request id (serve) or caller-chosen id (CLI).
    pub id: String,
    /// Human label, typically the strategy that served the solve.
    pub label: String,
    /// Wall-clock µs from trace creation to finish.
    pub total_us: u64,
    /// Recency sequence number, stamped by the flight recorder.
    pub seq: u64,
    /// Completed spans, sorted by (start_us, id).
    pub spans: Vec<Span>,
}

impl SolveTrace {
    /// Per-phase aggregates over all spans.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        aggregate_phases(&self.spans)
    }
}

thread_local! {
    static CURRENT: Cell<Trace> = Cell::new(Trace::disabled());
    static CURRENT_PARENT: Cell<u32> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_TID: Cell<u32> = const { Cell::new(0) };
}

/// Small dense id for the calling thread (assigned on first use).
fn thread_tid() -> u32 {
    THREAD_TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// The thread's current trace (a cheap clone; disabled when none installed).
#[inline]
pub fn current() -> Trace {
    CURRENT.with(|c| {
        let t = c.replace(Trace::disabled());
        let out = t.clone();
        c.set(t);
        out
    })
}

/// Restores the previously installed trace on drop.
pub struct InstallGuard {
    prev: Trace,
    prev_parent: u32,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev.clone()));
        CURRENT_PARENT.with(|p| p.set(self.prev_parent));
    }
}

/// Captured (trace, parent-span) pair for propagating the current tracing
/// context across a `dclab_par` fan-out onto pool threads.
#[derive(Clone)]
pub struct FanoutCtx {
    trace: Trace,
    parent: u32,
}

impl FanoutCtx {
    /// Capture the calling thread's current trace and parent span.
    #[inline]
    pub fn capture() -> Self {
        let trace = current();
        let parent = if trace.is_enabled() {
            CURRENT_PARENT.with(|p| p.get())
        } else {
            0
        };
        FanoutCtx { trace, parent }
    }

    /// Whether the captured context records anything (workers skip the TLS
    /// swap entirely for untraced fan-outs).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Install the captured context on the calling (worker) thread.
    pub fn install(&self) -> InstallGuard {
        let prev = CURRENT.with(|c| c.replace(self.trace.clone()));
        let prev_parent = CURRENT_PARENT.with(|p| p.replace(self.parent));
        InstallGuard { prev, prev_parent }
    }
}

/// RAII span guard: records the span with its duration when dropped.
pub struct SpanGuard {
    trace: Option<Arc<TraceInner>>,
    id: u32,
    parent: u32,
    name: &'static str,
    detail: String,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Whether this guard records anything — callers gate `format!` on it.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The span's id (0 on an inert guard).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Attach a free-form annotation (no-op on an inert guard).
    #[inline]
    pub fn set_detail(&mut self, detail: String) {
        if self.trace.is_some() {
            self.detail = detail;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.trace.take() {
            let start = self.start.expect("live guard always has a start");
            let start_us = start.duration_since(inner.epoch).as_micros() as u64;
            let dur_us = start.elapsed().as_micros() as u64;
            CURRENT_PARENT.with(|p| p.set(self.parent));
            let span = Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                detail: std::mem::take(&mut self.detail),
                start_us,
                dur_us,
                tid: thread_tid(),
            };
            inner.spans.lock().expect("trace arena poisoned").push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        {
            let mut g = t.span("solve");
            assert!(!g.is_enabled());
            g.set_detail("ignored".into());
        }
        t.instant("bb", || panic!("detail closure must not run when disabled"));
        assert!(t.phase_totals().is_empty());
        assert!(t.finish("id".into(), "label".into()).is_none());
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let t = Trace::enabled();
        let _install = t.install();
        {
            let _root = current().span("solve");
            {
                let _a = current().span("reduce");
                let _b = current().span("apsp");
            }
            let _c = current().span("lk");
        }
        let trace = t.finish("r1".into(), "lk".into()).unwrap();
        assert_eq!(trace.spans.len(), 4);
        let by_name = |n: &str| trace.spans.iter().find(|s| s.name == n).unwrap();
        let solve = by_name("solve");
        assert_eq!(solve.parent, 0);
        assert_eq!(by_name("reduce").parent, solve.id);
        assert_eq!(by_name("apsp").parent, by_name("reduce").id);
        assert_eq!(by_name("lk").parent, solve.id);
    }

    #[test]
    fn fanout_ctx_carries_parent_across_threads() {
        let t = Trace::enabled();
        let _install = t.install();
        let root_id;
        {
            let root = current().span("race");
            root_id = root.id;
            let ctx = FanoutCtx::capture();
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let ctx = ctx.clone();
                    std::thread::spawn(move || {
                        let _g = ctx.install();
                        let _s = current().span("member");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let trace = t.finish("r".into(), "race".into()).unwrap();
        let members: Vec<_> = trace.spans.iter().filter(|s| s.name == "member").collect();
        assert_eq!(members.len(), 3);
        assert!(members.iter().all(|s| s.parent == root_id));
    }

    #[test]
    fn phase_totals_aggregate_by_name() {
        let t = Trace::enabled();
        let _install = t.install();
        for _ in 0..3 {
            let _g = current().span("lk");
        }
        {
            let _g = current().span("bb");
        }
        let totals = t.phase_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].name, "lk");
        assert_eq!(totals[0].calls, 3);
        assert_eq!(totals[1].name, "bb");
        assert_eq!(totals[1].calls, 1);
    }

    #[test]
    fn phase_totals_since_skip_earlier_spans() {
        let t = Trace::enabled();
        let _install = t.install();
        {
            let _g = current().span("parse");
        }
        let first = {
            let solve = current().span("solve");
            let _lk = current().span("lk");
            solve.id()
        };
        let names: Vec<String> = t
            .phase_totals_since(first)
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, ["lk", "solve"]);
        assert_eq!(t.phase_totals().len(), 3);
    }

    #[test]
    fn instant_records_zero_duration_at_current_level() {
        let t = Trace::enabled();
        let _install = t.install();
        {
            let bb = current().span("bb");
            current().instant("checkpoint", || "nodes=65536".into());
            drop(bb);
        }
        let trace = t.finish("r".into(), "bb".into()).unwrap();
        let cp = trace.spans.iter().find(|s| s.name == "checkpoint").unwrap();
        assert_eq!(cp.dur_us, 0);
        assert_eq!(cp.detail, "nodes=65536");
        let bb = trace.spans.iter().find(|s| s.name == "bb").unwrap();
        assert_eq!(cp.parent, bb.id);
    }

    #[test]
    fn install_is_scoped_and_restores_previous() {
        assert!(!current().is_enabled());
        let t = Trace::enabled();
        {
            let _g = t.install();
            assert!(current().is_enabled());
        }
        assert!(!current().is_enabled());
    }

    #[test]
    fn detail_set_via_guard_survives() {
        let t = Trace::enabled();
        {
            let mut g = t.span("lk");
            g.set_detail("kicks=7".into());
        }
        let trace = t.finish("r".into(), "lk".into()).unwrap();
        assert_eq!(trace.spans[0].detail, "kicks=7");
    }

    #[test]
    fn phase_registry_is_consistent() {
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(phase_index(p), Some(i));
        }
        assert_eq!(phase_index("nope"), None);
    }
}
