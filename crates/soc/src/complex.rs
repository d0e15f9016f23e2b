//! The U74-MC core complex and FU740 SoC descriptor.
//!
//! The FU740-C000 packages four U74 application cores, one S7 monitor core,
//! a shared 2 MiB L2, a DDR4 controller and a PCIe Gen3 ×8 root complex.
//! [`U74McComplex`] is the executable model (cores + counters);
//! [`Fu740Spec`] collects the datasheet constants the experiments use.

use crate::core::{U74Core, U74_PEAK_FLOPS_PER_CORE};
use crate::hpm::{RetiredWork, UBootConfig};
use crate::isa::IsaString;
use crate::units::{Bytes, Frequency, SimDuration};
use crate::workload::Workload;

/// Datasheet-level constants of the FU740 SoC and HiFive Unmatched board.
#[derive(Debug, Clone, PartialEq)]
pub struct Fu740Spec {
    /// Number of U74 application cores.
    pub application_cores: usize,
    /// Nominal application-core clock.
    pub clock: Frequency,
    /// Peak double-precision FLOP/s per core (paper: 1.0 GFLOP/s).
    pub peak_flops_per_core: f64,
    /// Shared L2 cache capacity.
    pub l2_capacity: Bytes,
    /// L2 line size.
    pub l2_line: Bytes,
    /// Streams trackable by the L2 prefetcher, per core.
    pub prefetcher_streams_per_core: usize,
    /// Installed DDR4 capacity.
    pub ddr_capacity: Bytes,
    /// DDR4 transfer rate in MT/s.
    pub ddr_mt_per_s: u32,
    /// Peak attainable DDR bandwidth in bytes/s (paper: 7760 MB/s).
    pub ddr_peak_bandwidth: f64,
    /// PCIe lanes exposed by the board (Gen3, electrically x8).
    pub pcie_lanes: u32,
}

impl Fu740Spec {
    /// The FU740 as configured on Monte Cimone.
    pub fn monte_cimone() -> Self {
        Fu740Spec {
            application_cores: 4,
            clock: Frequency::from_ghz(1.2),
            peak_flops_per_core: U74_PEAK_FLOPS_PER_CORE,
            l2_capacity: Bytes::from_mib(2),
            l2_line: Bytes::new(64),
            prefetcher_streams_per_core: 8,
            ddr_capacity: Bytes::from_gib(16),
            ddr_mt_per_s: 1866,
            ddr_peak_bandwidth: 7760.0e6,
            pcie_lanes: 8,
        }
    }

    /// Peak double-precision FLOP/s of the whole SoC (paper: 4.0 GFLOP/s).
    pub fn peak_flops(&self) -> f64 {
        self.peak_flops_per_core * self.application_cores as f64
    }
}

impl Default for Fu740Spec {
    fn default() -> Self {
        Fu740Spec::monte_cimone()
    }
}

/// The executable model of one FU740: four U74 harts with HPM counters
/// and the SoC spec.
///
/// # Examples
///
/// ```
/// use cimone_soc::complex::U74McComplex;
/// use cimone_soc::hpm::UBootConfig;
/// use cimone_soc::units::SimDuration;
/// use cimone_soc::workload::Workload;
///
/// let mut soc = U74McComplex::new(UBootConfig::with_hpm_patch());
/// soc.run(Workload::Hpl, SimDuration::from_secs(1));
/// assert_eq!(soc.cores().len(), 4);
/// assert!(soc.total_instret() > 4_000_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct U74McComplex {
    spec: Fu740Spec,
    cores: Vec<U74Core>,
    firmware: UBootConfig,
    step_memo: StepMemo,
}

/// Cross-tick memo of the per-workload retired batches used by
/// [`U74McComplex::step_threads_scaled`]. The batch is a pure function of
/// (workload, effective duration) and the construction-fixed pipeline
/// model, and the steady-state simulation loop calls with the same
/// arguments every tick — so the mix arithmetic (and its libm `round`
/// calls) runs once per workload change instead of once per tick.
///
/// Purely a cache: it never affects observable state, so it compares
/// equal to any other memo and is skipped by (no-op) serialization.
#[derive(Debug, Clone, Default)]
struct StepMemo {
    /// (busy workload, `to_bits` of the effective duration in seconds).
    key: Option<(Workload, u64)>,
    busy: Option<RetiredWork>,
    idle: Option<RetiredWork>,
}

impl PartialEq for StepMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl U74McComplex {
    /// Creates the Monte Cimone SoC configuration with the given firmware.
    pub fn new(firmware: UBootConfig) -> Self {
        let spec = Fu740Spec::monte_cimone();
        // Hart 0 is the S7 monitor core; application harts are 1..=4.
        let cores = (1..=spec.application_cores)
            .map(|id| U74Core::new(id, firmware))
            .collect();
        U74McComplex {
            spec,
            cores,
            firmware,
            step_memo: StepMemo::default(),
        }
    }

    /// The datasheet constants.
    pub fn spec(&self) -> &Fu740Spec {
        &self.spec
    }

    /// The application cores (harts 1–4).
    pub fn cores(&self) -> &[U74Core] {
        &self.cores
    }

    /// Mutable access to the application cores.
    pub fn cores_mut(&mut self) -> &mut [U74Core] {
        &mut self.cores
    }

    /// The ISA of the application cores.
    pub fn application_isa(&self) -> IsaString {
        IsaString::u74()
    }

    /// The ISA of the S7 monitor core.
    pub fn monitor_isa(&self) -> IsaString {
        IsaString::s7()
    }

    /// The firmware configuration the complex booted with.
    pub fn firmware(&self) -> UBootConfig {
        self.firmware
    }

    /// Runs `workload` on all application cores for `duration`, returning
    /// the per-core retired batches.
    pub fn run(&mut self, workload: Workload, duration: SimDuration) -> Vec<RetiredWork> {
        self.cores
            .iter_mut()
            .map(|core| core.run(workload, duration))
            .collect()
    }

    /// Runs `workload` on the first `threads` cores only (the rest idle),
    /// returning per-core batches for all cores.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds the core count.
    pub fn run_threads(
        &mut self,
        workload: Workload,
        threads: usize,
        duration: SimDuration,
    ) -> Vec<RetiredWork> {
        self.run_threads_scaled(workload, threads, duration, 1.0)
    }

    /// Like [`U74McComplex::run_threads`], but with the clock scaled to
    /// `performance_scale` of nominal (DVFS): instruction and cycle rates
    /// both shrink with the clock.
    ///
    /// # Panics
    ///
    /// Panics if `threads` exceeds the core count or the scale is not in
    /// `(0, 1]`.
    pub fn run_threads_scaled(
        &mut self,
        workload: Workload,
        threads: usize,
        duration: SimDuration,
        performance_scale: f64,
    ) -> Vec<RetiredWork> {
        assert!(
            threads <= self.cores.len(),
            "requested {threads} threads on {} cores",
            self.cores.len()
        );
        assert!(
            performance_scale > 0.0 && performance_scale <= 1.0,
            "performance scale {performance_scale} outside (0, 1]"
        );
        // A slower clock retires proportionally less work in the same
        // wall time: equivalent to running nominal for a shorter span.
        let effective = SimDuration::from_secs_f64(duration.as_secs_f64() * performance_scale);
        self.cores
            .iter_mut()
            .enumerate()
            .map(|(i, core)| {
                let w = if i < threads {
                    workload
                } else {
                    Workload::Idle
                };
                core.run(w, effective)
            })
            .collect()
    }

    /// [`U74McComplex::run_threads_scaled`] without materialising the
    /// per-core [`RetiredWork`] results — for callers that only want the
    /// HPM-counter side effects (the per-tick simulation step), it avoids
    /// one short-lived `Vec` allocation per call.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`U74McComplex::run_threads_scaled`].
    pub fn step_threads_scaled(
        &mut self,
        workload: Workload,
        threads: usize,
        duration: SimDuration,
        performance_scale: f64,
    ) {
        assert!(
            threads <= self.cores.len(),
            "requested {threads} threads on {} cores",
            self.cores.len()
        );
        assert!(
            performance_scale > 0.0 && performance_scale <= 1.0,
            "performance scale {performance_scale} outside (0, 1]"
        );
        let effective = SimDuration::from_secs_f64(duration.as_secs_f64() * performance_scale);
        // Every core carries the same pipeline model (fixed at
        // construction), so the retired batch for a given workload and
        // duration is identical on every hart — and, steady state,
        // identical across ticks: derive it once per (workload,
        // duration) change and replay it into each HPM file, instead of
        // recomputing the mix arithmetic five times per tick.
        let key = (workload, effective.as_secs_f64().to_bits());
        if self.step_memo.key != Some(key) {
            self.step_memo = StepMemo {
                key: Some(key),
                busy: None,
                idle: None,
            };
        }
        for (i, core) in self.cores.iter_mut().enumerate() {
            let (kind, slot) = if i < threads {
                (workload, &mut self.step_memo.busy)
            } else {
                (Workload::Idle, &mut self.step_memo.idle)
            };
            let work = match slot {
                Some(work) => *work,
                None => {
                    let mix = kind.instruction_mix();
                    let secs = effective.as_secs_f64();
                    let instructions =
                        (core.pipeline().instructions_per_second(&mix) * secs).round() as u64;
                    let cycles = core.pipeline().clock().cycles_over(effective);
                    let work = RetiredWork::from_mix(
                        instructions,
                        cycles,
                        &mix,
                        kind.ddr_bytes_per_instruction(),
                    );
                    *slot = Some(work);
                    work
                }
            };
            core.hpm_mut().advance(&work);
        }
    }

    /// Sum of retired instructions over all application cores.
    pub fn total_instret(&self) -> u64 {
        self.cores.iter().map(|c| c.hpm().instret()).sum()
    }

    /// Sustained node FLOP/s under `workload` with all cores busy.
    pub fn sustained_flops(&self, workload: Workload) -> f64 {
        let per_core = self.cores[0]
            .pipeline()
            .flops_per_second(&workload.instruction_mix());
        per_core * self.cores.len() as f64
    }
}

impl Default for U74McComplex {
    fn default() -> Self {
        U74McComplex::new(UBootConfig::with_hpm_patch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_matches_the_paper_hardware() {
        let spec = Fu740Spec::monte_cimone();
        assert_eq!(spec.application_cores, 4);
        assert_eq!(spec.peak_flops(), 4.0e9);
        assert_eq!(spec.ddr_capacity, Bytes::from_gib(16));
        assert_eq!(spec.ddr_mt_per_s, 1866);
        assert_eq!(spec.prefetcher_streams_per_core, 8);
    }

    #[test]
    fn harts_are_numbered_from_one() {
        let soc = U74McComplex::default();
        let ids: Vec<usize> = soc.cores().iter().map(|c| c.hart_id()).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
    }

    #[test]
    fn hpl_sustained_flops_matches_paper_single_node() {
        let soc = U74McComplex::default();
        let gflops = soc.sustained_flops(Workload::Hpl) / 1e9;
        // Paper: 1.86 GFLOP/s sustained on one node.
        assert!((gflops - 1.86).abs() < 0.02, "sustained {gflops}");
    }

    #[test]
    fn run_threads_leaves_remaining_cores_idle() {
        let mut soc = U74McComplex::default();
        let batches = soc.run_threads(Workload::Hpl, 2, SimDuration::from_millis(100));
        assert!(batches[0].instructions > 0);
        // Idle cores retire far fewer FP ops.
        let busy_fp = batches[0].event_count(crate::hpm::HpmEvent::FpArithRetired);
        let idle_fp = batches[3].event_count(crate::hpm::HpmEvent::FpArithRetired);
        assert!(busy_fp > idle_fp * 10);
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn oversubscribed_threads_panic() {
        let mut soc = U74McComplex::default();
        let _ = soc.run_threads(Workload::Hpl, 5, SimDuration::from_millis(1));
    }

    #[test]
    fn isa_strings_are_exposed() {
        let soc = U74McComplex::default();
        assert_eq!(soc.application_isa().to_string(), "rv64imafdc_zba_zbb");
        assert_eq!(soc.monitor_isa().to_string(), "rv64imac");
    }
}
