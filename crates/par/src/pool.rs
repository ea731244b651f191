//! A fixed worker pool over a **bounded** job queue.
//!
//! [`par_map`](crate::par_map) covers fork-join batch work; a long-running
//! server needs the complementary shape: a fixed set of worker threads
//! draining a queue of independent jobs, where the queue bound provides
//! back-pressure instead of unbounded memory growth under overload.
//!
//! Semantics:
//!
//! * [`WorkerPool::try_submit`] never blocks; it returns the job back to
//!   the caller when the queue is full (load-shedding, HTTP 503).
//! * [`WorkerPool::shutdown`] is graceful: already-queued jobs are drained,
//!   then workers exit and are joined. Submissions after shutdown are
//!   rejected.
//! * A worker counts against the process's compute-thread budget (see the
//!   crate docs) while it runs a job, so a fan-out inside a job borrows
//!   only the cores no other job holds.

use crate::WorkSlot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job: any one-shot closure the workers can run.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a submission was not accepted.
pub enum SubmitError {
    /// `try_submit` found the queue full; the job is handed back.
    QueueFull(Job),
    /// The pool is shutting down (or already shut down).
    ShuttingDown,
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "QueueFull(..)"),
            SubmitError::ShuttingDown => write!(f, "ShuttingDown"),
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "job queue full"),
            SubmitError::ShuttingDown => write!(f, "worker pool shutting down"),
        }
    }
}

struct Shared {
    queue: Mutex<QueueState>,
    /// Signaled when a job is pushed or shutdown begins (workers wait on it).
    job_ready: Condvar,
    /// Jobs currently *executing* (popped but not finished). Together with
    /// `queue_len` this lets an event loop see real pool pressure — a full
    /// queue with idle workers and a full queue with saturated workers
    /// call for different shed decisions.
    in_flight: AtomicUsize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

/// Fixed-size thread pool with a bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
}

impl WorkerPool {
    /// Spawn `workers` threads sharing a queue bounded at `queue_cap` jobs.
    pub fn new(workers: usize, queue_cap: usize) -> WorkerPool {
        let workers_n = workers.max(1);
        let capacity = queue_cap.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                shutting_down: false,
            }),
            job_ready: Condvar::new(),
            in_flight: AtomicUsize::new(0),
        });
        let handles = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dclab-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            capacity,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently executing on workers (diagnostic gauge).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Enqueue `job` without blocking; a full queue hands the job back.
    pub fn try_submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), SubmitError> {
        let mut state = self.shared.queue.lock().expect("pool lock poisoned");
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if state.jobs.len() >= self.capacity {
            return Err(SubmitError::QueueFull(Box::new(job)));
        }
        state.jobs.push_back(Box::new(job));
        drop(state);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Jobs currently waiting in the queue (diagnostic).
    pub fn queue_len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("pool lock poisoned")
            .jobs
            .len()
    }

    /// Graceful shutdown: refuse new jobs, drain the queue, join workers.
    /// Idempotent; also called on drop.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.queue.lock().expect("pool lock poisoned");
            state.shutting_down = true;
        }
        self.shared.job_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.queue.lock().expect("pool lock poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.job_ready.wait(state).expect("pool lock poisoned");
            }
        };
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        let slot = WorkSlot::hold();
        // A panicking job must not kill the worker: in a long-running
        // server that would silently shrink the pool until every request
        // is shed. The job owns any response channel, so the panic is the
        // job's problem; the worker moves on.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        drop(slot);
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_all_submitted_jobs() {
        let _serial = crate::tests::serial();
        let counter = Arc::new(AtomicUsize::new(0));
        // A queue bound the 100 jobs can never fill.
        let mut pool = WorkerPool::new(4, 100);
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.try_submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn try_submit_sheds_load_when_full() {
        let _serial = crate::tests::serial();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut pool = WorkerPool::new(1, 1);
        // Occupy the single worker (the queue is empty, so this is taken)…
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // …fill the single queue slot (worker may or may not have picked up
        // the first job yet, so allow one success before the queue jams).
        let mut accepted = 0;
        let mut rejected = 0;
        for _ in 0..8 {
            match pool.try_submit(|| {}) {
                Ok(()) => accepted += 1,
                Err(SubmitError::QueueFull(_)) => rejected += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(accepted <= 2, "bounded queue accepted {accepted}");
        assert!(rejected >= 6);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let _serial = crate::tests::serial();
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(1, 8);
        pool.try_submit(|| panic!("job panics")).unwrap();
        let c = Arc::clone(&counter);
        pool.try_submit(move || {
            c.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "the single worker survived the panic and ran the next job"
        );
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_rejects_new_ones() {
        let _serial = crate::tests::serial();
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(2, 64);
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_micros(100));
                c.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 50, "queued jobs drained");
        assert!(matches!(
            pool.try_submit(|| {}),
            Err(SubmitError::ShuttingDown)
        ));
    }
}
