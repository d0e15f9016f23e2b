//! The paper's experiments, one module per table or figure.
//!
//! Each experiment returns a typed result struct, so the same code backs
//! both the test suite and the `cimone-bench` reproduction binaries. The
//! figure and table experiments render it with `render()`; the five
//! fault campaigns take a [`ClockMode`](crate::engine::ClockMode) and map
//! it onto one [`Report`](crate::report::Report) for the printed tables,
//! the `BENCH_*.json` and the gates.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`hpl_scaling`] | Fig. 2 + the §V-A cross-ISA HPL comparison |
//! | [`stream_table`] | Table V + the §V-A cross-ISA STREAM comparison |
//! | [`qe_lax`] | the §V-A QuantumESPRESSO LAX data point |
//! | [`power_table`] | Table VI |
//! | [`power_traces`] | Fig. 3 |
//! | [`boot_trace`] | Fig. 4 + the §V-B power decomposition |
//! | [`monitored_hpl`] | Fig. 5 (ExaMon heatmaps during HPL) |
//! | [`thermal_runaway`] | Fig. 6 (the node-7 incident and its mitigation) |
//! | [`software_stack`] | Table I (Spack-style stack deployment) |
//! | [`dvfs`] | extension: the paper's future-work item (ii) — thermal DVFS |
//! | [`energy`] | extension: energy-to-solution across the OPP ladder |
//! | [`availability`] | extension: HPL campaign under a node-crash fault sweep |
//! | [`recovery`] | extension: checkpoint/restart + heartbeat detection under crashes |
//! | [`degradation`] | extension: blade fault domains — brownout capping, blade placement, fan loss |
//! | [`rack_outage`] | extension: rack fault domains — switch outage, /ckpt export failure, multi-rail arbitration |
//! | [`sdc`] | extension: silent data corruption — ABFT kernels, CRC-verified checkpoints, telemetry scrub |

pub mod availability;
pub mod boot_trace;
pub mod degradation;
pub mod dvfs;
pub mod energy;
pub mod hpl_scaling;
pub mod monitored_hpl;
pub mod power_table;
pub mod power_traces;
pub mod qe_lax;
pub mod rack_outage;
pub mod recovery;
pub mod sdc;
pub mod software_stack;
pub mod stream_table;
pub mod thermal_runaway;
