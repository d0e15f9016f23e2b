//! The Monte Cimone machine model: the paper's eight-node RISC-V cluster
//! as a deterministic simulator, plus every experiment from the paper's
//! evaluation.
//!
//! This is the top of the reproduction stack. It composes the substrate
//! crates — [`cimone_soc`] (the FU740), [`cimone_mem`] (DDR/L2),
//! [`cimone_net`] (GbE/InfiniBand), [`cimone_kernels`] (real dense LA),
//! [`cimone_sched`] (Slurm-like batch), [`cimone_monitor`] (ExaMon-like
//! ODA) and [`cimone_pkg`] (Spack-like packaging) — into:
//!
//! * [`node`] / [`blade`] — the RV007 blade hardware;
//! * [`thermal`] — the enclosure model behind the Fig. 6 incident;
//! * [`perf`] — calibrated HPL and QE LAX machine-scale models;
//! * [`reference`](mod@reference) — the Marconi100 / Armida comparison nodes;
//! * [`engine`] — the scheduler-driven simulation loop with power,
//!   thermal and monitoring integrated;
//! * [`faults`] — deterministic, seeded fault injection driven against
//!   the engine clock;
//! * [`checkpoint`] / [`healing`] — the recovery subsystem: CRC-framed
//!   checkpoint/restart on the NFS export, phi-accrual failure detection
//!   over broker heartbeats, and the self-healing control plane (fencing,
//!   migration, partition-aware detection, blade and rack power
//!   arbitration);
//! * [`experiments`] — one module per paper table/figure.
//!
//! # Examples
//!
//! Reproduce the paper's single-node HPL headline:
//!
//! ```
//! use cimone_cluster::perf::{HplModel, HplProblem};
//!
//! let model = HplModel::monte_cimone(HplProblem::paper());
//! assert!((model.gflops(1) - 1.86).abs() < 0.02);
//! assert!((model.gflops(8) - 12.65).abs() < 0.3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blade;
pub mod checkpoint;
pub mod dpm;
pub mod engine;
pub mod experiments;
pub mod faults;
pub mod healing;
pub mod node;
pub mod perf;
pub mod reference;
pub mod report;
pub mod services;
pub mod thermal;

pub use blade::{Blade, MachineLayout, RAIL_RATED_WATTS};
pub use checkpoint::{CheckpointStore, JobCheckpoint};
pub use dpm::ThermalGovernor;
pub use engine::{ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultPlanError};
pub use healing::{CapAction, CheckpointConfig, ControlPlane, PowerCapGovernor, RecoveryConfig};
pub use node::ComputeNode;
pub use perf::{HplModel, HplProblem, LaxModel};
pub use reference::ReferenceNode;
pub use thermal::{AirflowConfig, AirflowDegradation, ThermalModel};
