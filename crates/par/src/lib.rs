//! Minimal data-parallel substrate for the `dclab` workspace.
//!
//! The workspace deliberately avoids a full work-stealing runtime; the
//! parallel workloads here (all-pairs BFS, multi-start local search,
//! experiment sweeps) are embarrassingly parallel over an index range, so a
//! chunked fork-join on [`crossbeam::scope`] is sufficient and keeps the
//! dependency surface small.
//!
//! All entry points preserve *deterministic output order*: `par_map(xs, f)`
//! returns exactly `xs.iter().map(f).collect()` regardless of how many
//! threads take part, which keeps seeded experiments reproducible.
//!
//! # One compute-thread budget per process
//!
//! [`default_threads`] is also the process's budget of compute threads. A
//! thread counts against it while it works: a [`WorkerPool`] worker while it
//! runs a job, a fan-out's caller while it fans out, and each fan-out helper
//! for as long as it lives. A fan-out that wants `t` threads reserves at
//! most `t − 1` free slots, spawns only that many helpers and runs items on
//! the calling thread too; with no free slot it runs inline, exactly as a
//! one-thread process does. So fan-outs borrow only idle cores: a fan-out
//! nested in another (LK restarts inside a race member or a `/batch` item)
//! or inside a loaded server's pool job adds no thread past the budget.
//!
//! A pool worker never waits for a slot: one that picks up a job while a
//! helper is out runs at once, so the count can pass the budget until that
//! helper's fan-out ends.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod cancel;
pub mod pool;

pub use cancel::{CancelToken, Deadline};
pub use pool::{SubmitError, WorkerPool};

/// Process-wide thread-count override (0 = unset). Takes precedence over
/// `DCLAB_THREADS`; set from `dclab --threads N`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the compute-thread budget for this process, beating the
/// `DCLAB_THREADS` environment variable. `None` clears the override.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// The process's compute-thread budget (see the crate docs): how many
/// threads pool jobs and fan-outs share.
///
/// Precedence: [`set_thread_override`] (the CLI's `--threads N`) beats the
/// `DCLAB_THREADS` environment variable, which beats
/// [`std::thread::available_parallelism`] (capped at 64).
pub fn default_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("DCLAB_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(64)
}

/// Threads counted against the budget right now. It publishes no other
/// data, so every access is `Relaxed`.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether the current thread already counts against the budget.
    static HOLDS_SLOT: Cell<bool> = const { Cell::new(false) };
}

/// The current thread's slot of the budget while it works; dropping it
/// (an unwinding panic included) gives the slot back. Holding never
/// waits, since the thread runs either way: a full budget only keeps
/// fan-outs from adding helpers. A thread that already holds a slot takes
/// no second one.
pub(crate) struct WorkSlot {
    counted: bool,
}

impl WorkSlot {
    pub(crate) fn hold() -> WorkSlot {
        let counted = !HOLDS_SLOT.replace(true);
        if counted {
            BUSY.fetch_add(1, Ordering::Relaxed);
        }
        WorkSlot { counted }
    }
}

impl Drop for WorkSlot {
    fn drop(&mut self) {
        if self.counted {
            HOLDS_SLOT.set(false);
            BUSY.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One helper's reserved slot, moved into the helper and given back when
/// the helper ends (or when a failed spawn drops it unused).
struct HelperSlot;

impl Drop for HelperSlot {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Reserve up to `want` of the budget's free slots.
fn reserve_helpers(want: usize, budget: usize) -> Vec<HelperSlot> {
    let mut busy = BUSY.load(Ordering::Relaxed);
    loop {
        let take = budget.saturating_sub(busy).min(want);
        if take == 0 {
            return Vec::new();
        }
        match BUSY.compare_exchange_weak(busy, busy + take, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return (0..take).map(|_| HelperSlot).collect(),
            Err(now) => busy = now,
        }
    }
}

/// Parallel map over a slice with deterministic output order.
///
/// The calling thread and as many helpers as the budget has free slots
/// (at most `default_threads() − 1`) pull indices from a shared atomic
/// counter (dynamic scheduling, good for skewed work such as BFS from
/// vertices of very different eccentricity).
///
/// Falls back to a sequential map on the calling thread when the input is
/// small, the budget is one thread, or no slot is free.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Parallel map over the index range `0..n` with deterministic output order.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let budget = default_threads();
    if budget <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let _caller = WorkSlot::hold();
    let helpers = reserve_helpers(budget.min(n) - 1, budget);
    if helpers.is_empty() {
        return (0..n).map(f).collect();
    }
    let threads = helpers.len() + 1;
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = Mutex::new(&mut out);
    let next = AtomicUsize::new(0);
    // Grab work in small batches to amortize the atomic without losing load
    // balance on skewed items.
    let batch = (n / (threads * 8)).max(1);
    let work = || loop {
        let start = next.fetch_add(batch, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + batch).min(n);
        // Compute outside the lock; store under it.
        let mut local: Vec<(usize, U)> = Vec::with_capacity(end - start);
        for i in start..end {
            local.push((i, f(i)));
        }
        let mut guard = slots.lock();
        for (i, v) in local {
            guard[i] = Some(v);
        }
    };
    // Propagate the caller's tracing context onto the helpers (disabled
    // traces skip the per-helper install entirely).
    let trace_ctx = dclab_trace::FanoutCtx::capture();
    crossbeam::scope(|s| {
        for slot in helpers {
            let (work, trace_ctx) = (&work, &trace_ctx);
            s.spawn(move |_| {
                let _slot = slot;
                // Already counted: a fan-out nested in this helper must
                // not count it again.
                HOLDS_SLOT.set(true);
                let _trace = trace_ctx.is_enabled().then(|| trace_ctx.install());
                work();
            });
        }
        work();
    })
    .expect("dclab-par worker panicked");
    out.into_iter()
        .map(|v| v.expect("par_map_indexed slot unfilled"))
        .collect()
}

/// Parallel map over `0..n` in contiguous chunks of `chunk_size`, with
/// deterministic output order (one result per chunk, in chunk order).
///
/// This is the fan-out shape of blocked kernels — e.g. the bit-parallel
/// APSP, which processes sources in blocks of 64 — where the unit of work
/// is a *range* of indices, not a single index. The final chunk may be
/// shorter than `chunk_size`.
pub fn par_map_chunks<U, F>(n: usize, chunk_size: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> U + Sync,
{
    let chunk_size = chunk_size.max(1);
    let chunks = n.div_ceil(chunk_size);
    par_map_indexed(chunks, |b| {
        let lo = b * chunk_size;
        f(lo..(lo + chunk_size).min(n))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Barrier, MutexGuard};

    /// Every test in this crate that runs a fan-out or a pool job holds
    /// this lock, so the budget tests read `BUSY` with nothing else moving
    /// it.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn par_map_matches_sequential() {
        let _serial = serial();
        let xs: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = xs.iter().map(|x| x * x + 1).collect();
        let par = par_map(&xs, |x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_indexed_order_is_deterministic() {
        let _serial = serial();
        for _ in 0..5 {
            let v = par_map_indexed(257, |i| i * 3);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
        }
    }

    #[test]
    fn par_map_chunks_covers_range_in_order() {
        let _serial = serial();
        let chunks = par_map_chunks(250, 64, |r| r);
        assert_eq!(chunks, vec![0..64, 64..128, 128..192, 192..250]);
        // Exact multiple and degenerate cases.
        assert_eq!(par_map_chunks(128, 64, |r| r.len()), vec![64, 64]);
        assert!(par_map_chunks(0, 64, |r| r).is_empty());
        assert_eq!(par_map_chunks(3, 0, |r| r), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn a_full_budget_runs_the_fan_out_on_the_calling_thread() {
        let _serial = serial();
        let budget = default_threads();
        let mut pool = WorkerPool::new(budget, budget);
        // Each job waits twice: once until every worker (and this thread)
        // has arrived, so all `budget` slots are held, and once until the
        // fan-out below is done.
        let barrier = Arc::new(Barrier::new(budget + 1));
        for _ in 0..budget {
            let barrier = Arc::clone(&barrier);
            pool.try_submit(move || {
                barrier.wait();
                barrier.wait();
            })
            .unwrap();
        }
        barrier.wait();
        // Items slow enough that a helper, had one been spawned, would
        // take some of them.
        let got = par_map_indexed(200, |i| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            (i * i + 1, std::thread::current().id())
        });
        barrier.wait();
        pool.shutdown();
        let me = std::thread::current().id();
        assert!(
            got.iter().all(|&(_, id)| id == me),
            "an item ran off the calling thread"
        );
        let values: Vec<usize> = got.into_iter().map(|(v, _)| v).collect();
        assert_eq!(values, (0..200).map(|i| i * i + 1).collect::<Vec<_>>());
    }

    #[test]
    fn nested_fan_outs_in_pool_jobs_stay_within_the_budget() {
        let _serial = serial();
        let budget = default_threads();
        let running = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        // Every worker takes its job before any fan-out starts; the jobs
        // differ in size, so as the short ones end, their slots free up
        // and the long ones' nested fan-outs borrow helpers.
        let barrier = Arc::new(Barrier::new(budget));
        let (tx, rx) = mpsc::channel();
        let mut pool = WorkerPool::new(budget, budget);
        for job in 0..budget {
            let (running, high_water) = (Arc::clone(&running), Arc::clone(&high_water));
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            pool.try_submit(move || {
                barrier.wait();
                let outer = par_map_indexed(4 + 6 * job, |i| {
                    par_map_indexed(16, |j| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        high_water.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        running.fetch_sub(1, Ordering::SeqCst);
                        i * 16 + j
                    })
                });
                tx.send((job, outer)).unwrap();
            })
            .unwrap();
        }
        drop(tx);
        pool.shutdown();
        let mut results: Vec<(usize, Vec<Vec<usize>>)> = rx.iter().collect();
        results.sort_by_key(|&(job, _)| job);
        assert_eq!(results.len(), budget);
        for (job, outer) in results {
            let want: Vec<Vec<usize>> = (0..4 + 6 * job)
                .map(|i| (0..16).map(|j| i * 16 + j).collect())
                .collect();
            assert_eq!(outer, want, "job {job}");
        }
        let high = high_water.load(Ordering::SeqCst);
        assert!(
            high <= budget,
            "{high} inner calls ran at once under a budget of {budget}"
        );
        assert_eq!(BUSY.load(Ordering::SeqCst), 0, "every slot given back");
    }

    #[test]
    fn a_panicking_fan_out_propagates_and_gives_its_slots_back() {
        let _serial = serial();
        let before = BUSY.load(Ordering::SeqCst);
        // One panicking item (on whichever thread takes it), then every item
        // panicking (the caller's and each helper's).
        for panics_at in [Some(37), None] {
            let caught = std::panic::catch_unwind(|| {
                par_map_indexed(64, |i| {
                    if panics_at.is_none_or(|p| p == i) {
                        panic!("item {i}");
                    }
                    i
                })
            });
            assert!(caught.is_err(), "the panic reached the caller");
            assert_eq!(BUSY.load(Ordering::SeqCst), before);
        }
        assert!(!HOLDS_SLOT.get(), "the caller's slot was given back");
        // A fan-out after the panics still returns every item in order.
        assert_eq!(par_map_indexed(64, |i| i), (0..64).collect::<Vec<_>>());
    }
}
