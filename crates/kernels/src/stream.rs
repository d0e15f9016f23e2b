//! The STREAM memory-bandwidth benchmark (McCalpin), real and threaded.
//!
//! Implements the four canonical kernels over heap-allocated arrays with
//! the standard STREAM accounting (copy/scale move 16 B per element,
//! add/triad 24 B) and validation. Unlike upstream STREAM's static arrays —
//! whose size the `medany` code model caps at 2 GiB on RV64, as the paper
//! discusses — these arrays are heap allocated, which is exactly the
//! workaround the paper suggests exploring.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::pool::WorkerPool;

/// One of the four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = q·c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + q·c[i]`
    Triad,
}

impl StreamKernel {
    /// All kernels in STREAM's canonical order.
    pub const ALL: [StreamKernel; 4] = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ];

    /// The kernel's lowercase name as used in STREAM output and Table V.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "copy",
            StreamKernel::Scale => "scale",
            StreamKernel::Add => "add",
            StreamKernel::Triad => "triad",
        }
    }

    /// Bytes moved per element under STREAM's accounting.
    pub fn bytes_per_element(self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }

    /// FLOPs per element.
    pub fn flops_per_element(self) -> usize {
        match self {
            StreamKernel::Copy => 0,
            StreamKernel::Scale | StreamKernel::Add => 1,
            StreamKernel::Triad => 2,
        }
    }

    /// Memory streams touched (read + write), which determines how many
    /// prefetcher slots the kernel occupies per core.
    pub fn stream_count(self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 2,
            StreamKernel::Add | StreamKernel::Triad => 3,
        }
    }
}

impl fmt::Display for StreamKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration for a STREAM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Elements per array.
    pub elements: usize,
    /// Worker threads (the paper uses one per physical core: 4).
    pub threads: usize,
    /// The scale factor `q` (STREAM uses 3.0).
    pub scalar: f64,
}

impl StreamConfig {
    /// A config with STREAM defaults for the scalar.
    ///
    /// # Panics
    ///
    /// Panics if `elements` or `threads` is zero.
    pub fn new(elements: usize, threads: usize) -> Self {
        assert!(elements > 0, "need at least one element");
        assert!(threads > 0, "need at least one thread");
        StreamConfig {
            elements,
            threads,
            scalar: 3.0,
        }
    }

    /// Total working set across the three arrays, in bytes.
    pub fn working_set_bytes(&self) -> u64 {
        3 * self.elements as u64 * std::mem::size_of::<f64>() as u64
    }
}

/// The three STREAM arrays plus run machinery.
///
/// # Examples
///
/// ```
/// use cimone_kernels::stream::{StreamConfig, StreamKernel, StreamRun};
///
/// let mut run = StreamRun::new(StreamConfig::new(10_000, 2));
/// for _ in 0..3 {
///     run.run_iteration();
/// }
/// run.validate(3).expect("results validate");
/// let result = run.benchmark(StreamKernel::Triad, 3);
/// assert!(result.best_mb_per_s > 0.0);
/// ```
#[derive(Debug)]
pub struct StreamRun {
    config: StreamConfig,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    /// Full STREAM iterations applied so far (for validation).
    iterations: usize,
    /// Executes the per-chunk work; long-lived, so repeated kernels pay a
    /// channel send per chunk instead of an OS thread spawn per chunk.
    pool: Arc<WorkerPool>,
}

impl StreamRun {
    /// Allocates and initialises the arrays (STREAM's 1.0/2.0/0.0 pattern)
    /// with a private worker pool of `config.threads` workers.
    pub fn new(config: StreamConfig) -> Self {
        let pool = Arc::new(WorkerPool::new(config.threads));
        StreamRun::with_pool(config, pool)
    }

    /// [`new`](StreamRun::new), but sharing an existing pool (e.g. the
    /// process-wide [`WorkerPool::global`]). Chunking still follows
    /// `config.threads`, so results and accounting are independent of the
    /// pool that happens to execute the chunks.
    pub fn with_pool(config: StreamConfig, pool: Arc<WorkerPool>) -> Self {
        StreamRun {
            config,
            a: vec![1.0; config.elements],
            b: vec![2.0; config.elements],
            c: vec![0.0; config.elements],
            iterations: 0,
            pool,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The arrays and iteration count, for checkpoint snapshots.
    pub(crate) fn parts(&self) -> (&[f64], &[f64], &[f64], usize) {
        (&self.a, &self.b, &self.c, self.iterations)
    }

    /// Rebuilds a run mid-flight from snapshotted arrays.
    pub(crate) fn from_parts(
        config: StreamConfig,
        a: Vec<f64>,
        b: Vec<f64>,
        c: Vec<f64>,
        iterations: usize,
    ) -> Self {
        assert_eq!(a.len(), config.elements, "array a length matches config");
        assert_eq!(b.len(), config.elements, "array b length matches config");
        assert_eq!(c.len(), config.elements, "array c length matches config");
        let pool = Arc::new(WorkerPool::new(config.threads));
        StreamRun {
            config,
            a,
            b,
            c,
            iterations,
            pool,
        }
    }

    /// Executes one kernel once across all threads; returns elapsed seconds.
    ///
    /// Min-work threshold: when the arrays are too small to amortise the
    /// fan-out/join overhead (`PARALLEL_GRAIN_ELEMENTS` per worker) the
    /// kernel runs inline on the caller's thread — the elementwise maths
    /// is identical either way, only the wall clock changes.
    pub fn run_kernel(&mut self, kernel: StreamKernel) -> f64 {
        let threads = self.config.threads;
        let scalar = self.config.scalar;
        let len = self.a.len();
        let chunk = if len < threads * PARALLEL_GRAIN_ELEMENTS {
            len // one chunk ⇒ par_map runs it inline, skipping the pool
        } else {
            len.div_ceil(threads)
        };
        let pool = &self.pool;
        let start = Instant::now();
        match kernel {
            StreamKernel::Copy => {
                par_map2(pool, &mut self.c, &self.a, chunk, |c, a| {
                    c.copy_from_slice(a)
                });
            }
            StreamKernel::Scale => {
                par_map2(pool, &mut self.b, &self.c, chunk, |b, c| {
                    for (bv, cv) in b.iter_mut().zip(c) {
                        *bv = scalar * cv;
                    }
                });
            }
            StreamKernel::Add => {
                par_map3(pool, &mut self.c, &self.a, &self.b, chunk, |c, a, b| {
                    for ((cv, av), bv) in c.iter_mut().zip(a).zip(b) {
                        *cv = av + bv;
                    }
                });
            }
            StreamKernel::Triad => {
                par_map3(pool, &mut self.a, &self.b, &self.c, chunk, |a, b, c| {
                    for ((av, bv), cv) in a.iter_mut().zip(b).zip(c) {
                        *av = bv + scalar * cv;
                    }
                });
            }
        }
        start.elapsed().as_secs_f64()
    }

    /// Runs one full STREAM iteration (copy, scale, add, triad in order),
    /// returning the four elapsed times in seconds.
    pub fn run_iteration(&mut self) -> [f64; 4] {
        let times = [
            self.run_kernel(StreamKernel::Copy),
            self.run_kernel(StreamKernel::Scale),
            self.run_kernel(StreamKernel::Add),
            self.run_kernel(StreamKernel::Triad),
        ];
        self.iterations += 1;
        times
    }

    /// Benchmarks one kernel over `trials` runs, reporting STREAM's
    /// best-rate statistic.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn benchmark(&mut self, kernel: StreamKernel, trials: usize) -> StreamResult {
        assert!(trials > 0, "need at least one trial");
        let bytes = (kernel.bytes_per_element() * self.config.elements) as f64;
        let times: Vec<f64> = (0..trials).map(|_| self.run_kernel(kernel)).collect();
        let best = times.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = times.iter().copied().fold(0.0, f64::max);
        let avg = times.iter().sum::<f64>() / trials as f64;
        StreamResult {
            kernel,
            best_mb_per_s: bytes / best / 1e6,
            avg_mb_per_s: bytes / avg / 1e6,
            min_time_s: best,
            max_time_s: worst,
        }
    }

    /// Verifies the arrays hold the values implied by `iterations` full
    /// STREAM iterations, within STREAM's error tolerance.
    ///
    /// # Errors
    ///
    /// Returns the offending array name and relative error on failure.
    pub fn validate(&self, iterations: usize) -> Result<(), StreamValidationError> {
        let q = self.config.scalar;
        let (mut ea, mut eb, mut ec) = (1.0, 2.0, 0.0);
        for _ in 0..iterations {
            ec = ea;
            eb = q * ec;
            ec = ea + eb;
            ea = eb + q * ec;
        }
        for (name, expected, arr) in [("a", ea, &self.a), ("b", eb, &self.b), ("c", ec, &self.c)] {
            let sum: f64 = arr.iter().sum();
            let avg = sum / arr.len() as f64;
            let rel = ((avg - expected) / expected).abs();
            if rel > 1e-13 {
                return Err(StreamValidationError {
                    array: name,
                    relative_error: rel,
                });
            }
        }
        Ok(())
    }
}

/// Bandwidth result for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamResult {
    /// The kernel measured.
    pub kernel: StreamKernel,
    /// Best (highest) rate across trials, in MB/s — STREAM's headline.
    pub best_mb_per_s: f64,
    /// Average rate across trials, in MB/s.
    pub avg_mb_per_s: f64,
    /// Fastest trial, seconds.
    pub min_time_s: f64,
    /// Slowest trial, seconds.
    pub max_time_s: f64,
}

/// Array contents diverged from the analytic expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamValidationError {
    /// Which array failed.
    pub array: &'static str,
    /// Relative error observed.
    pub relative_error: f64,
}

impl fmt::Display for StreamValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "STREAM validation failed on array {} (relative error {:.3e})",
            self.array, self.relative_error
        )
    }
}

impl std::error::Error for StreamValidationError {}

/// Minimum elements each worker must receive before a kernel fans out to
/// the pool. Below this the fan-out/join handshake costs more than the
/// memory traffic it parallelises (a 64 Ki-element chunk is ~512 KiB —
/// roughly one worker's share of L2 — and streams in well under the
/// ~10 µs a scope round-trip costs), so smaller runs stay on the caller's
/// thread. The arithmetic is elementwise either way, so results are
/// bit-identical.
const PARALLEL_GRAIN_ELEMENTS: usize = 64 * 1024;

/// Applies `f` to corresponding chunks of one mutable and one shared slice
/// across the pool's workers. A single chunk (`dst.len() <= chunk`) runs
/// inline on the caller's thread, skipping the pool entirely.
fn par_map2(
    pool: &WorkerPool,
    dst: &mut [f64],
    src: &[f64],
    chunk: usize,
    f: impl Fn(&mut [f64], &[f64]) + Send + Sync,
) {
    if dst.len() <= chunk {
        f(dst, src);
        return;
    }
    let f = &f;
    pool.scope(|scope| {
        for (d, s) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
            scope.spawn(move || f(d, s));
        }
    });
}

/// Applies `f` to corresponding chunks of one mutable and two shared slices
/// across the pool's workers. A single chunk (`dst.len() <= chunk`) runs
/// inline on the caller's thread, skipping the pool entirely.
fn par_map3(
    pool: &WorkerPool,
    dst: &mut [f64],
    s1: &[f64],
    s2: &[f64],
    chunk: usize,
    f: impl Fn(&mut [f64], &[f64], &[f64]) + Send + Sync,
) {
    if dst.len() <= chunk {
        f(dst, s1, s2);
        return;
    }
    let f = &f;
    pool.scope(|scope| {
        for ((d, a), b) in dst
            .chunks_mut(chunk)
            .zip(s1.chunks(chunk))
            .zip(s2.chunks(chunk))
        {
            scope.spawn(move || f(d, a, b));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_accounting_matches_stream_conventions() {
        assert_eq!(StreamKernel::Copy.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Triad.bytes_per_element(), 24);
        assert_eq!(StreamKernel::Triad.flops_per_element(), 2);
        assert_eq!(StreamKernel::Add.stream_count(), 3);
    }

    #[test]
    fn kernels_compute_correct_values() {
        let mut run = StreamRun::new(StreamConfig::new(1000, 3));
        run.run_kernel(StreamKernel::Copy);
        assert!(run.c.iter().all(|&v| v == 1.0));
        run.run_kernel(StreamKernel::Scale);
        assert!(run.b.iter().all(|&v| v == 3.0));
        run.run_kernel(StreamKernel::Add);
        assert!(run.c.iter().all(|&v| v == 4.0));
        run.run_kernel(StreamKernel::Triad);
        assert!(run.a.iter().all(|&v| v == 15.0));
    }

    #[test]
    fn validation_tracks_full_iterations() {
        let mut run = StreamRun::new(StreamConfig::new(512, 2));
        for _ in 0..4 {
            run.run_iteration();
        }
        run.validate(4).unwrap();
        assert!(run.validate(3).is_err());
    }

    #[test]
    fn benchmark_reports_consistent_statistics() {
        let mut run = StreamRun::new(StreamConfig::new(4096, 2));
        let r = run.benchmark(StreamKernel::Copy, 5);
        assert!(r.best_mb_per_s >= r.avg_mb_per_s * 0.99);
        assert!(r.min_time_s <= r.max_time_s);
    }

    #[test]
    fn uneven_chunking_covers_all_elements() {
        // 1001 elements with a chunk of 250 exercises the pool path and
        // the remainder chunk (run_kernel itself would run this size
        // inline under the min-work threshold).
        let pool = WorkerPool::new(4);
        let src = vec![2.0; 1001];
        let mut dst = vec![0.0; 1001];
        par_map2(&pool, &mut dst, &src, 250, |d, s| {
            for (x, y) in d.iter_mut().zip(s) {
                *x = *y;
            }
        });
        assert!(dst.iter().all(|&v| v == 2.0));
        let mut tri = vec![0.0; 1001];
        par_map3(&pool, &mut tri, &src, &dst, 250, |d, a, b| {
            for ((x, y), z) in d.iter_mut().zip(a).zip(b) {
                *x = y + 3.0 * z;
            }
        });
        assert!(tri.iter().all(|&v| v == 8.0));
    }

    #[test]
    fn small_runs_stay_inline_and_match_pooled_results() {
        // Below threads * PARALLEL_GRAIN_ELEMENTS the kernels run on the
        // caller's thread; the values must match the pooled path exactly.
        let elements = 1001;
        assert!(elements < 4 * PARALLEL_GRAIN_ELEMENTS);
        let mut small = StreamRun::new(StreamConfig::new(elements, 4));
        let mut serial = StreamRun::new(StreamConfig::new(elements, 1));
        for k in StreamKernel::ALL {
            small.run_kernel(k);
            serial.run_kernel(k);
        }
        assert_eq!(small.a, serial.a);
        assert_eq!(small.b, serial.b);
        assert_eq!(small.c, serial.c);
    }

    #[test]
    fn working_set_accounts_three_arrays() {
        let cfg = StreamConfig::new(1_000_000, 4);
        assert_eq!(cfg.working_set_bytes(), 24_000_000);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = StreamConfig::new(10, 0);
    }
}
