//! The U74 core pipeline model.
//!
//! The U74 is a dual-issue, in-order application core. Sustained IPC is
//! bounded structurally (one memory pipe, one FP pipe, one branch unit per
//! cycle) and degraded by the stall fraction of the running instruction
//! mix, which captures exposed FP latency and cache misses on an in-order
//! machine. With the calibrated HPL mix this model reproduces the paper's
//! 46.5 % FPU utilisation; with the QE LAX mix, 36 %.

use crate::hpm::{HpmUnit, RetiredWork, UBootConfig};
use crate::units::{Frequency, SimDuration};
use crate::workload::{InstructionMix, Workload};

/// Peak double-precision throughput of one U74 core, as inferred by the
/// paper from the micro-architecture specification.
pub const U74_PEAK_FLOPS_PER_CORE: f64 = 1.0e9;

/// Nominal U74 clock on the HiFive Unmatched.
pub const U74_NOMINAL_CLOCK_HZ: f64 = 1.2e9;

/// Structural issue model of a dual-issue in-order pipeline.
///
/// # Examples
///
/// ```
/// use cimone_soc::core::PipelineModel;
/// use cimone_soc::workload::Workload;
///
/// let pipe = PipelineModel::u74();
/// let util = pipe.fpu_utilization(&Workload::Hpl.instruction_mix());
/// assert!((util - 0.465).abs() < 0.01); // paper: 46.5 %
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineModel {
    issue_width: f64,
    clock: Frequency,
    peak_flops: f64,
}

impl PipelineModel {
    /// The U74 configuration: dual issue at 1.2 GHz, 1 GFLOP/s peak.
    pub fn u74() -> Self {
        PipelineModel {
            issue_width: 2.0,
            clock: Frequency::from_hz(U74_NOMINAL_CLOCK_HZ),
            peak_flops: U74_PEAK_FLOPS_PER_CORE,
        }
    }

    /// A custom pipeline (used for the reference-node models).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(issue_width: f64, clock: Frequency, peak_flops: f64) -> Self {
        assert!(issue_width > 0.0, "issue width must be positive");
        assert!(clock.as_hz() > 0.0, "clock must be positive");
        assert!(peak_flops > 0.0, "peak FLOP rate must be positive");
        PipelineModel {
            issue_width,
            clock,
            peak_flops,
        }
    }

    /// The core clock.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Peak FLOP/s of the core.
    pub fn peak_flops(&self) -> f64 {
        self.peak_flops
    }

    /// Structurally attainable IPC for a mix (ignoring stalls): bounded by
    /// the issue width and by the single memory, FP and branch pipes.
    pub fn structural_ipc(&self, mix: &InstructionMix) -> f64 {
        let mut bound = self.issue_width;
        for class_fraction in [mix.fp(), mix.memory(), mix.branch()] {
            if class_fraction > 0.0 {
                bound = bound.min(1.0 / class_fraction);
            }
        }
        bound
    }

    /// Sustained IPC after the mix's stall fraction is applied.
    pub fn sustained_ipc(&self, mix: &InstructionMix) -> f64 {
        self.structural_ipc(mix) * (1.0 - mix.stall_fraction())
    }

    /// Sustained instructions per second.
    pub fn instructions_per_second(&self, mix: &InstructionMix) -> f64 {
        self.sustained_ipc(mix) * self.clock.as_hz()
    }

    /// Sustained double-precision FLOP/s (one FLOP per retired FP
    /// instruction, matching the paper's 1 GFLOP/s peak definition).
    pub fn flops_per_second(&self, mix: &InstructionMix) -> f64 {
        self.instructions_per_second(mix) * mix.fp()
    }

    /// Fraction of the FPU peak the mix sustains, in `[0, 1]`.
    pub fn fpu_utilization(&self, mix: &InstructionMix) -> f64 {
        (self.flops_per_second(mix) / self.peak_flops).min(1.0)
    }
}

/// One U74 application core: the pipeline model plus its HPM register file.
///
/// # Examples
///
/// ```
/// use cimone_soc::core::U74Core;
/// use cimone_soc::hpm::UBootConfig;
/// use cimone_soc::units::SimDuration;
/// use cimone_soc::workload::Workload;
///
/// let mut core = U74Core::new(0, UBootConfig::with_hpm_patch());
/// core.run(Workload::Hpl, SimDuration::from_secs(1));
/// assert!(core.hpm().instret() > 1_000_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct U74Core {
    hart_id: usize,
    pipeline: PipelineModel,
    hpm: HpmUnit,
}

impl U74Core {
    /// Creates hart `hart_id` with the given firmware configuration.
    pub fn new(hart_id: usize, firmware: UBootConfig) -> Self {
        U74Core {
            hart_id,
            pipeline: PipelineModel::u74(),
            hpm: HpmUnit::new(firmware),
        }
    }

    /// The hart id (U74 harts are 1–4 on the FU740; hart 0 is the S7).
    pub fn hart_id(&self) -> usize {
        self.hart_id
    }

    /// The pipeline model.
    pub fn pipeline(&self) -> &PipelineModel {
        &self.pipeline
    }

    /// The core's HPM register file.
    pub fn hpm(&self) -> &HpmUnit {
        &self.hpm
    }

    /// Mutable access to the HPM register file (for programming counters).
    pub fn hpm_mut(&mut self) -> &mut HpmUnit {
        &mut self.hpm
    }

    /// Executes `workload` for `duration`, retiring instructions into the
    /// HPM counters, and returns the retired batch.
    pub fn run(&mut self, workload: Workload, duration: SimDuration) -> RetiredWork {
        let mix = workload.instruction_mix();
        self.run_mix(&mix, workload.ddr_bytes_per_instruction(), duration)
    }

    /// Executes an explicit mix for `duration`.
    pub fn run_mix(
        &mut self,
        mix: &InstructionMix,
        ddr_bytes_per_instruction: f64,
        duration: SimDuration,
    ) -> RetiredWork {
        let secs = duration.as_secs_f64();
        let instructions = (self.pipeline.instructions_per_second(mix) * secs).round() as u64;
        let cycles = self.pipeline.clock().cycles_over(duration);
        let work = RetiredWork::from_mix(instructions, cycles, mix, ddr_bytes_per_instruction);
        self.hpm.advance(&work);
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpl_mix_reproduces_paper_fpu_utilization() {
        let pipe = PipelineModel::u74();
        let util = pipe.fpu_utilization(&Workload::Hpl.instruction_mix());
        assert!(
            (util - 0.465).abs() < 0.005,
            "HPL utilisation {util}, paper 0.465"
        );
    }

    #[test]
    fn qe_mix_reproduces_paper_fpu_utilization() {
        let pipe = PipelineModel::u74();
        let util = pipe.fpu_utilization(&Workload::QeLax.instruction_mix());
        assert!(
            (util - 0.36).abs() < 0.005,
            "QE utilisation {util}, paper 0.36"
        );
    }

    #[test]
    fn structural_ipc_respects_single_memory_pipe() {
        let pipe = PipelineModel::u74();
        // 60 % memory instructions -> at most 1/0.6 IPC.
        let mix = InstructionMix::new(0.0, 0.4, 0.2, 0.0, 0.0);
        assert!((pipe.structural_ipc(&mix) - 1.0 / 0.6).abs() < 1e-12);
    }

    #[test]
    fn structural_ipc_caps_at_issue_width() {
        let pipe = PipelineModel::u74();
        let mix = InstructionMix::new(0.1, 0.1, 0.05, 0.05, 0.0);
        assert_eq!(pipe.structural_ipc(&mix), 2.0);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        let pipe = PipelineModel::u74();
        let mix = InstructionMix::new(1.0, 0.0, 0.0, 0.0, 0.0);
        assert!(pipe.fpu_utilization(&mix) <= 1.0);
    }

    #[test]
    fn core_run_accumulates_hpm_counters() {
        let mut core = U74Core::new(1, UBootConfig::with_hpm_patch());
        let work = core.run(Workload::Hpl, SimDuration::from_millis(500));
        assert_eq!(core.hpm().instret(), work.instructions);
        assert_eq!(core.hpm().cycle(), 600_000_000); // 1.2 GHz * 0.5 s
                                                     // Sustained IPC under HPL is ~0.97.
        let ipc = work.instructions as f64 / work.cycles as f64;
        assert!((ipc - 0.97).abs() < 0.01, "ipc {ipc}");
    }

    #[test]
    fn consecutive_runs_are_additive() {
        let mut core = U74Core::new(1, UBootConfig::stock());
        core.run(Workload::Idle, SimDuration::from_millis(100));
        let after_first = core.hpm().instret();
        core.run(Workload::Idle, SimDuration::from_millis(100));
        assert_eq!(core.hpm().instret(), after_first * 2);
    }

    #[test]
    #[should_panic(expected = "issue width")]
    fn zero_issue_width_panics() {
        let _ = PipelineModel::new(0.0, Frequency::from_ghz(1.0), 1e9);
    }
}
