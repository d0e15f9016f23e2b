//! Real dense linear-algebra and bandwidth kernels for the Monte Cimone
//! reproduction.
//!
//! Unlike the behavioural models elsewhere in the workspace, everything in
//! this crate **actually computes**: the blocked LU really factors, STREAM
//! really moves bytes, the eigensolver really diagonalises. These kernels
//! serve three purposes:
//!
//! 1. native timings (`perf_baseline` in `cimone-bench`) — the repo works
//!    as a small dense-LA library in its own right;
//! 2. numerically validated ground truth for the simulator's FLOP/byte
//!    accounting;
//! 3. the workload definitions (HPL, STREAM, QE LAX) whose machine-scale
//!    behaviour `cimone-cluster` reproduces from the paper.
//!
//! # Examples
//!
//! ```
//! use cimone_kernels::hpl::{run, HplConfig};
//!
//! let result = run(HplConfig::new(64, 16))?;
//! assert!(result.passed);
//! # Ok::<(), cimone_kernels::lu::LuError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod abft;
pub mod checkpoint;
pub mod dgemm;
pub mod eig;
pub mod hpl;
pub mod lu;
pub mod matrix;
pub mod pool;
pub mod stream;

pub use abft::{AbftMode, AbftReport, SdcInjection};
pub use checkpoint::{Checkpoint, SteppableLu};
pub use eig::EigenDecomposition;
pub use lu::LuFactorization;
pub use matrix::Matrix;
pub use pool::WorkerPool;
pub use stream::{StreamConfig, StreamKernel, StreamRun};
