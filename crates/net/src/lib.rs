//! Interconnect models for the Monte Cimone cluster.
//!
//! The paper's machine talks over its on-board Gigabit Ethernet today, with
//! Mellanox ConnectX-4 FDR InfiniBand HCAs installed in two nodes but RDMA
//! not yet functional. This crate models all of it:
//!
//! * [`link`] — α–β link models for GbE and IB FDR;
//! * [`mpi`] — collective-operation cost models (binomial broadcast,
//!   recursive doubling) and HPL's P×Q process grid;
//! * [`ib`] — the InfiniBand capability matrix exactly as the paper
//!   reports it: device recognised, module loaded, `ib_ping` fine, RDMA
//!   unsupported;
//! * [`switch`] — the single shared GbE management switch, the rack-level
//!   fault domain every node's heartbeat and telemetry path rides on.
//!
//! # Examples
//!
//! ```
//! use cimone_net::ib::{IbCapability, IbHca};
//!
//! let hca = IbHca::connect_x4_fdr_on_riscv();
//! assert!(hca.ping().is_ok());
//! assert!(!hca.supports(IbCapability::RdmaTransport));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ib;
pub mod link;
pub mod mpi;
pub mod switch;

pub use ib::{IbCapability, IbHca};
pub use link::LinkModel;
pub use mpi::{CommWorld, ProcessGrid};
pub use switch::MgmtSwitch;
