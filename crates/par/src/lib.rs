//! Minimal data-parallel substrate for the `dclab` workspace.
//!
//! The workspace deliberately avoids a full work-stealing runtime; the
//! parallel workloads here (all-pairs BFS, multi-start local search,
//! experiment sweeps) are embarrassingly parallel over an index range, so a
//! chunked fork-join on [`crossbeam::scope`] is sufficient and keeps the
//! dependency surface small.
//!
//! All entry points preserve *deterministic output order*: `par_map(xs, f)`
//! returns exactly `xs.iter().map(f).collect()` regardless of thread count,
//! which keeps seeded experiments reproducible.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod cancel;
pub mod pool;

pub use cancel::{CancelToken, Deadline};
pub use pool::{SubmitError, WorkerPool};

/// Process-wide thread-count override (0 = unset). Takes precedence over
/// `DCLAB_THREADS`; set from `dclab --threads N`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker-thread count for this process, beating the
/// `DCLAB_THREADS` environment variable. `None` clears the override.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |n| n.max(1)), Ordering::Relaxed);
}

/// Maximum number of worker threads used by default.
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

/// Parallel map over a slice with deterministic output order.
///
/// Spawns up to `default_threads()` scoped workers that pull indices from a
/// shared atomic counter (dynamic scheduling, good for skewed work such as
/// BFS from vertices of very different eccentricity).
///
/// Falls back to a sequential map when the input is small or only one thread
/// is available.
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
    let threads = default_threads().min(n.max(1));
    if threads <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<U>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let slots = Mutex::new(&mut out);
    let next = AtomicUsize::new(0);
    // Propagate the caller's tracing context onto the workers (disabled
    // traces skip the per-worker install entirely).
    let trace_ctx = dclab_trace::FanoutCtx::capture();
    // Grab work in small batches to amortize the atomic without losing load
    // balance on skewed items.
    let batch = (n / (threads * 8)).max(1);
    crossbeam::scope(|s| {
        for _ in 0..threads {
            let (next, slots, f, trace_ctx) = (&next, &slots, &f, &trace_ctx);
            s.spawn(move |_| {
                let _trace = trace_ctx.is_enabled().then(|| trace_ctx.install());
                loop {
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
                }
            });
        }
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
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
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
        for _ in 0..5 {
            let v = par_map_indexed(257, |i| i * 3);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
        }
    }

    #[test]
    fn par_map_chunks_covers_range_in_order() {
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
}
