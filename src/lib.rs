//! # Monte Cimone — a reproduction in Rust
//!
//! This workspace reproduces *Monte Cimone: Paving the Road for the First
//! Generation of RISC-V High-Performance Computers* (Bartolini et al.,
//! SOCC 2022) as a deterministic, laptop-scale system: the paper's
//! contribution is a physical eight-node RISC-V cluster and its
//! characterisation, so the reproduction builds the machine — SoC, memory
//! hierarchy, interconnect, scheduler, package manager, monitoring — as
//! calibrated behavioural models, plus real dense linear-algebra kernels,
//! and regenerates every table and figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the eight member crates so
//! downstream users can depend on one name.
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`soc`] | `cimone-soc` | SiFive Freedom U740 model: cores, HPM counters, power rails, boot |
//! | [`mem`] | `cimone-mem` | DDR4 + L2 + prefetcher + Table V bandwidth model |
//! | [`net`] | `cimone-net` | GbE / InfiniBand links, MPI cost models, management switch |
//! | [`kernels`] | `cimone-kernels` | real DGEMM, LU/HPL, STREAM, eigensolver |
//! | [`sched`] | `cimone-sched` | Slurm-like batch scheduler |
//! | [`pkg`] | `cimone-pkg` | Spack-like package manager + archspec targets |
//! | [`monitor`] | `cimone-monitor` | ExaMon-like ODA stack |
//! | [`cluster`] | `cimone-cluster` | the machine, the engine, the experiments |
//!
//! # Examples
//!
//! ```
//! use monte_cimone::cluster::perf::{HplModel, HplProblem};
//!
//! // The paper's headline: 1.86 GFLOP/s on one node, 12.65 on eight.
//! let hpl = HplModel::monte_cimone(HplProblem::paper());
//! assert!((hpl.gflops(1) - 1.86).abs() < 0.02);
//! assert!((hpl.gflops(8) - 12.65).abs() < 0.3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use cimone_cluster as cluster;
pub use cimone_kernels as kernels;
pub use cimone_mem as mem;
pub use cimone_monitor as monitor;
pub use cimone_net as net;
pub use cimone_pkg as pkg;
pub use cimone_sched as sched;
pub use cimone_soc as soc;
