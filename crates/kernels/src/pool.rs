//! A reusable fixed-size worker pool for the compute kernels.
//!
//! The pool keeps one job queue, a `Mutex<VecDeque>` with a `Condvar`
//! that workers block on, and each scope opens a `std::sync::mpsc`
//! channel that carries task completions back to the caller. Workers are
//! spawned
//! once and live for the pool's lifetime, so per-call overhead is one
//! channel send per task instead of an OS thread spawn — the difference
//! between a usable trailing-update fan-out at HPL block granularity and
//! one that loses its speedup to `clone(2)`.
//!
//! # Determinism
//!
//! [`WorkerPool::scope`] runs a batch of *disjoint* tasks and joins them
//! all before returning. Callers split their data into tiles, each task
//! owns its tile exclusively, and the per-tile computation is a fixed
//! sequential program — so results are bit-identical run-to-run at any
//! worker count. Scheduling only decides *which worker* runs a tile,
//! never *what* the tile computes. Every parallel kernel in this crate
//! (packed DGEMM, the LU trailing update, STREAM) is written against that
//! contract, and the property tests in `tests/properties.rs` enforce it
//! for 1..=8 threads.
//!
//! # Checkpoint synchronisation
//!
//! Because `scope` is a full barrier, a [`crate::checkpoint::Checkpoint`]
//! snapshot taken between scopes observes fully quiesced state: there is
//! never an in-flight tile when `checkpoint()` runs. This is what keeps
//! the PR 2 checkpoint/restart machinery lossless on top of the threaded
//! kernels.
//!
//! # Examples
//!
//! ```
//! use cimone_kernels::pool::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let mut data = vec![0u64; 1024];
//! pool.scope(|scope| {
//!     for (i, chunk) in data.chunks_mut(256).enumerate() {
//!         scope.spawn(move || {
//!             for v in chunk.iter_mut() {
//!                 *v = i as u64;
//!             }
//!         });
//!     }
//! });
//! assert_eq!(data[0], 0);
//! assert_eq!(data[1023], 3);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the global pool's worker count.
pub const THREADS_ENV: &str = "CIMONE_THREADS";

/// Hard cap on worker threads (the paper's nodes have 4 cores; 64 leaves
/// generous headroom for big hosts while bounding a typo'd override).
pub const MAX_THREADS: usize = 64;

/// A boxed unit of work handed to a worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The job queue the workers share with the scope callers.
#[derive(Default)]
struct Injector {
    state: Mutex<Queue>,
    /// Signalled when a job is queued or the pool closes.
    ready: Condvar,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set when the pool drops: workers drain what is queued, then exit.
    closed: bool,
}

impl Injector {
    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        // Jobs never run under the lock, so it cannot be poisoned.
        self.state.lock().expect("pool queue lock")
    }

    fn push(&self, job: Job) {
        self.lock().jobs.push_back(job);
        self.ready.notify_one();
    }

    /// The next queued job, without blocking.
    fn try_pop(&self) -> Option<Job> {
        self.lock().jobs.pop_front()
    }

    /// Blocks until a job is queued, or returns `None` once the pool is
    /// closed and the queue drained.
    fn pop(&self) -> Option<Job> {
        let mut queue = self.lock();
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.closed {
                return None;
            }
            queue = self.ready.wait(queue).expect("pool queue lock");
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// A fixed-size pool of long-lived worker threads.
pub struct WorkerPool {
    /// The job queue, shared with the workers; a blocked scope caller
    /// helps drain it instead of idling on an OS wakeup. `None` for the
    /// one-worker pool, which runs its scopes inline.
    injector: Option<Arc<Injector>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` workers. A pool of size 1 spawns no OS
    /// threads at all: its scopes run inline on the caller, which makes a
    /// one-worker pool literally the serial path.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a worker pool needs at least one worker");
        let threads = threads.min(MAX_THREADS);
        if threads == 1 {
            return WorkerPool {
                injector: None,
                workers: Vec::new(),
                size: 1,
            };
        }
        let injector = Arc::new(Injector::default());
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("cimone-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            injector: Some(injector),
            workers,
            size: threads,
        }
    }

    /// The shared process-wide pool. Sized by [`THREADS_ENV`] when set to
    /// a positive integer, otherwise by `std::thread::available_parallelism`.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_threads()))
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs a batch of tasks and blocks until every one has finished —
    /// a full barrier, which is what makes checkpoints taken between
    /// scopes consistent. Tasks may borrow from the caller's stack; the
    /// barrier guarantees no borrow outlives the call.
    ///
    /// Tasks run in spawn order on a one-worker pool and in arbitrary
    /// order otherwise; they must not depend on ordering or overlap
    /// mutable state (disjoint tiles only).
    ///
    /// # Panics
    ///
    /// If a task panics, the panic is captured and re-raised on the
    /// caller *after* every other task in the scope has completed (so the
    /// barrier still holds). Must not be called from inside a pool task
    /// of the same pool — workers do not re-enter the injector queue and
    /// a nested scope could deadlock waiting for them.
    pub fn scope<'env, F>(&self, f: F)
    where
        F: FnOnce(&mut Scope<'env>),
    {
        let mut scope = Scope { tasks: Vec::new() };
        f(&mut scope);
        let tasks = scope.tasks;
        if tasks.is_empty() {
            return;
        }
        let Some(injector) = &self.injector else {
            // Serial pool: run inline, in spawn order.
            for task in tasks {
                task();
            }
            return;
        };
        let total = tasks.len();
        let (done_tx, done_rx) = mpsc::channel::<Option<Box<dyn std::any::Any + Send>>>();
        for task in tasks {
            // SAFETY: the transmute erases the `'env` lifetime on the
            // boxed closure so it can cross the job queue. It is
            // sound because this function does not return until every
            // task has reported completion below — the borrows inside
            // the closure therefore never outlive `'env`.
            let task: Job = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + 'env>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(task)
            };
            let done = done_tx.clone();
            let job: Job = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(task)).err();
                // The scope cannot have dropped the receiver: it is
                // still blocked in the recv loop below.
                let _ = done.send(outcome);
            });
            injector.push(job);
        }
        // Join with helping: instead of idling on the done channel, the
        // caller drains queued jobs itself. On machines with fewer cores
        // than workers this removes the OS-wakeup round trip from the
        // barrier's critical path (the caller may well run every tile).
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut completed = 0;
        while completed < total {
            if let Ok(outcome) = done_rx.try_recv() {
                completed += 1;
                if panic.is_none() {
                    panic = outcome;
                }
                continue;
            }
            if let Some(job) = injector.try_pop() {
                job();
                continue;
            }
            // Queue empty and nothing reported: the stragglers are running
            // on workers — block until they report.
            let outcome = done_rx.recv().expect("task completion reported");
            completed += 1;
            if panic.is_none() {
                panic = outcome;
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Splits `0..len` into at most `size()` contiguous chunks of
    /// near-equal length (difference at most one). Returns the
    /// `(start, end)` pairs in order; empty when `len` is zero. This is
    /// the canonical tile split every parallel kernel uses, so the tile
    /// boundaries — and therefore the merge order — are a pure function
    /// of `(len, size)`.
    pub fn even_chunks(&self, len: usize) -> Vec<(usize, usize)> {
        even_chunks(len, self.size)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Workers drain what is queued, then see the queue closed and
        // exit.
        if let Some(injector) = self.injector.take() {
            injector.close();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Collects the tasks of one [`WorkerPool::scope`] call.
pub struct Scope<'env> {
    tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
}

impl<'env> Scope<'env> {
    /// Adds a task to the batch. Tasks start only after the scope closure
    /// returns.
    pub fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.tasks.push(Box::new(f));
    }

    /// Tasks queued so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task has been queued.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// Worker count for the global pool: `CIMONE_THREADS` when set to a
/// positive integer, else available parallelism, clamped to
/// [`MAX_THREADS`].
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The tile split behind [`WorkerPool::even_chunks`], usable without a
/// pool (the serial paths share it so serial and threaded kernels walk
/// identical tile boundaries).
pub fn even_chunks(len: usize, parts: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.max(1).min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_every_task_and_joins() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..100 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_may_borrow_disjoint_mutable_tiles() {
        let pool = WorkerPool::new(3);
        let mut data = [0usize; 10];
        pool.scope(|scope| {
            for (i, slot) in data.iter_mut().enumerate() {
                scope.spawn(move || *slot = i * i);
            }
        });
        assert_eq!(data[9], 81);
        assert_eq!(data[0], 0);
        assert_eq!(data[5], 25);
    }

    #[test]
    fn single_worker_pool_runs_inline_in_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.size(), 1);
        let order = std::sync::Mutex::new(Vec::new());
        pool.scope(|scope| {
            for i in 0..5 {
                let order = &order;
                scope.spawn(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_is_reusable_across_scopes() {
        let pool = WorkerPool::new(2);
        let mut total = 0u64;
        for round in 0..10u64 {
            let mut partial = [0u64; 2];
            pool.scope(|scope| {
                for (i, slot) in partial.iter_mut().enumerate() {
                    scope.spawn(move || *slot = round + i as u64);
                }
            });
            total += partial.iter().sum::<u64>();
        }
        assert_eq!(total, 2 * 45 + 10);
    }

    #[test]
    fn task_panic_propagates_after_the_barrier() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("boom"));
                for _ in 0..10 {
                    scope.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        // The barrier held: every non-panicking task still ran.
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        // And the pool survives for the next scope.
        pool.scope(|scope| {
            scope.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn even_chunks_cover_the_range_without_overlap() {
        for len in [0usize, 1, 7, 8, 9, 100] {
            for parts in 1usize..9 {
                let chunks = even_chunks(len, parts);
                let mut covered = 0;
                for (i, &(s, e)) in chunks.iter().enumerate() {
                    assert!(s < e, "chunk {i} empty for len={len} parts={parts}");
                    assert_eq!(s, covered, "gap before chunk {i}");
                    covered = e;
                }
                assert_eq!(covered, len);
                if len > 0 {
                    let sizes: Vec<usize> = chunks.iter().map(|(s, e)| e - s).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "uneven split {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn env_override_is_clamped() {
        // Not a global-pool test (the env var is process-wide); exercise
        // the parsing helper's clamp directly.
        assert!(default_threads() >= 1);
        assert!(default_threads() <= MAX_THREADS);
    }

    #[test]
    fn scope_len_reports_queued_tasks() {
        let pool = WorkerPool::new(1);
        pool.scope(|scope| {
            assert!(scope.is_empty());
            scope.spawn(|| {});
            scope.spawn(|| {});
            assert_eq!(scope.len(), 2);
        });
    }
}
