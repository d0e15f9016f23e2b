//! The hardware performance monitor (HPM) of a U74 hart.
//!
//! The Linux perf interface on the FU740 exposes the fixed `CYCLE` and
//! `INSTRET` counters; the programmable `mhpmcounter` registers are
//! disabled by the stock firmware. The paper's authors patched U-Boot to
//! enable and program them — modelled here by [`UBootConfig`]: without the
//! patch, [`HpmUnit::program`] fails exactly like the real machine.

use std::fmt;

use crate::workload::InstructionMix;

/// A selectable HPM event (a representative subset of the U74 event set:
/// instruction-commit, micro-architectural and memory-system groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HpmEvent {
    /// Integer load instruction retired.
    IntLoadRetired,
    /// Integer store instruction retired.
    IntStoreRetired,
    /// Floating-point load retired.
    FpLoadRetired,
    /// Floating-point store retired.
    FpStoreRetired,
    /// Floating-point arithmetic op retired (add/mul/fma/div).
    FpArithRetired,
    /// Conditional branch retired.
    BranchRetired,
    /// Integer arithmetic retired.
    IntArithRetired,
    /// Exception taken.
    ExceptionTaken,
    /// Branch direction misprediction.
    BranchMisprediction,
    /// Pipeline interlock (dependency stall) cycles.
    PipelineInterlock,
    /// Instruction cache miss.
    ICacheMiss,
    /// Data cache / L2 miss.
    DCacheMiss,
    /// Data cache writeback.
    DCacheWriteback,
    /// Data TLB miss.
    DTlbMiss,
}

impl HpmEvent {
    /// All modelled events.
    pub const ALL: [HpmEvent; 14] = [
        HpmEvent::IntLoadRetired,
        HpmEvent::IntStoreRetired,
        HpmEvent::FpLoadRetired,
        HpmEvent::FpStoreRetired,
        HpmEvent::FpArithRetired,
        HpmEvent::BranchRetired,
        HpmEvent::IntArithRetired,
        HpmEvent::ExceptionTaken,
        HpmEvent::BranchMisprediction,
        HpmEvent::PipelineInterlock,
        HpmEvent::ICacheMiss,
        HpmEvent::DCacheMiss,
        HpmEvent::DCacheWriteback,
        HpmEvent::DTlbMiss,
    ];

    /// The perf-style event name published on the monitoring bus.
    pub fn name(self) -> &'static str {
        match self {
            HpmEvent::IntLoadRetired => "int_load_retired",
            HpmEvent::IntStoreRetired => "int_store_retired",
            HpmEvent::FpLoadRetired => "fp_load_retired",
            HpmEvent::FpStoreRetired => "fp_store_retired",
            HpmEvent::FpArithRetired => "fp_arith_retired",
            HpmEvent::BranchRetired => "branch_retired",
            HpmEvent::IntArithRetired => "int_arith_retired",
            HpmEvent::ExceptionTaken => "exception_taken",
            HpmEvent::BranchMisprediction => "branch_mispred",
            HpmEvent::PipelineInterlock => "pipeline_interlock",
            HpmEvent::ICacheMiss => "icache_miss",
            HpmEvent::DCacheMiss => "dcache_miss",
            HpmEvent::DCacheWriteback => "dcache_writeback",
            HpmEvent::DTlbMiss => "dtlb_miss",
        }
    }
}

impl fmt::Display for HpmEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Firmware configuration controlling HPM availability.
///
/// Mirrors the paper's U-Boot patch: stock firmware leaves the programmable
/// counters disabled; the patch enables and programs all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UBootConfig {
    hpm_patch_applied: bool,
}

impl UBootConfig {
    /// Stock upstream U-Boot: programmable counters locked.
    pub fn stock() -> Self {
        UBootConfig {
            hpm_patch_applied: false,
        }
    }

    /// U-Boot with the paper's counter-enable patch.
    pub fn with_hpm_patch() -> Self {
        UBootConfig {
            hpm_patch_applied: true,
        }
    }

    /// Whether the counter-enable patch is applied.
    pub fn hpm_patch_applied(&self) -> bool {
        self.hpm_patch_applied
    }
}

/// Errors raised by HPM register accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HpmError {
    /// The firmware did not unlock programmable counters.
    CountersLockedByFirmware,
    /// Counter index outside the implemented range.
    InvalidCounterIndex {
        /// The requested index.
        index: usize,
        /// Number of implemented programmable counters.
        implemented: usize,
    },
    /// Counter read before an event was programmed.
    CounterNotProgrammed {
        /// The requested index.
        index: usize,
    },
}

impl fmt::Display for HpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HpmError::CountersLockedByFirmware => {
                write!(f, "programmable HPM counters are disabled by stock firmware (U-Boot patch required)")
            }
            HpmError::InvalidCounterIndex { index, implemented } => write!(
                f,
                "programmable counter {index} out of range (hart implements {implemented})"
            ),
            HpmError::CounterNotProgrammed { index } => {
                write!(f, "programmable counter {index} has no event selected")
            }
        }
    }
}

impl std::error::Error for HpmError {}

/// Event counts produced by retiring a batch of instructions.
///
/// Built from an [`InstructionMix`] by [`RetiredWork::from_mix`]; consumed
/// by [`HpmUnit::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetiredWork {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Per-event counts, indexed by position in [`HpmEvent::ALL`].
    pub events: [u64; 14],
}

impl RetiredWork {
    /// Derives deterministic event counts for `instructions` retired over
    /// `cycles` with the given mix.
    ///
    /// Load/store counts are split 70/30 between integer and FP pipes for
    /// FP-heavy mixes; mispredictions are 3 % of branches; cache misses are
    /// derived from `ddr_bytes_per_instruction` at a 64-byte line size.
    pub fn from_mix(
        instructions: u64,
        cycles: u64,
        mix: &InstructionMix,
        ddr_bytes_per_instruction: f64,
    ) -> Self {
        let n = instructions as f64;
        let fp_mem_share = if mix.fp() > 0.2 { 0.5 } else { 0.05 };
        let loads = n * mix.load();
        let stores = n * mix.store();
        let misses = n * ddr_bytes_per_instruction / 64.0;
        let mut work = RetiredWork {
            cycles,
            instructions,
            events: [0; 14],
        };
        let mut set = |event: HpmEvent, value: f64| {
            let idx = HpmEvent::ALL
                .iter()
                .position(|e| *e == event)
                .expect("event");
            work.events[idx] = value.round().max(0.0) as u64;
        };
        set(HpmEvent::IntLoadRetired, loads * (1.0 - fp_mem_share));
        set(HpmEvent::IntStoreRetired, stores * (1.0 - fp_mem_share));
        set(HpmEvent::FpLoadRetired, loads * fp_mem_share);
        set(HpmEvent::FpStoreRetired, stores * fp_mem_share);
        set(HpmEvent::FpArithRetired, n * mix.fp());
        set(HpmEvent::BranchRetired, n * mix.branch());
        set(HpmEvent::IntArithRetired, n * mix.int());
        set(HpmEvent::ExceptionTaken, n * 1e-6);
        set(HpmEvent::BranchMisprediction, n * mix.branch() * 0.03);
        set(
            HpmEvent::PipelineInterlock,
            cycles as f64 * mix.stall_fraction(),
        );
        set(HpmEvent::ICacheMiss, n * 1e-5);
        set(HpmEvent::DCacheMiss, misses);
        set(HpmEvent::DCacheWriteback, misses * 0.4);
        set(HpmEvent::DTlbMiss, misses * 0.01);
        work
    }

    /// The count recorded for `event`.
    pub fn event_count(&self, event: HpmEvent) -> u64 {
        let idx = HpmEvent::ALL
            .iter()
            .position(|e| *e == event)
            .expect("event");
        self.events[idx]
    }

    /// Accumulates another batch into this one.
    pub fn merge(&mut self, other: &RetiredWork) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        for (a, b) in self.events.iter_mut().zip(other.events.iter()) {
            *a += b;
        }
    }
}

/// The HPM register file of one hart.
///
/// # Examples
///
/// ```
/// use cimone_soc::hpm::{HpmEvent, HpmUnit, RetiredWork, UBootConfig};
/// use cimone_soc::workload::Workload;
///
/// let mut hpm = HpmUnit::new(UBootConfig::with_hpm_patch());
/// hpm.program(0, HpmEvent::DCacheMiss)?;
/// let mix = Workload::Hpl.instruction_mix();
/// hpm.advance(&RetiredWork::from_mix(1_000_000, 2_000_000, &mix, 0.4));
/// assert_eq!(hpm.instret(), 1_000_000);
/// assert!(hpm.read(0)? > 0);
/// # Ok::<(), cimone_soc::hpm::HpmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HpmUnit {
    firmware: UBootConfig,
    cycle: u64,
    instret: u64,
    programmable: Vec<ProgrammableCounter>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgrammableCounter {
    event: Option<HpmEvent>,
    value: u64,
}

/// Number of programmable counters a U74 hart implements
/// (`mhpmcounter3`/`mhpmcounter4` in the core-complex manual).
pub const U74_PROGRAMMABLE_COUNTERS: usize = 2;

impl HpmUnit {
    /// Creates the register file for one hart under the given firmware.
    pub fn new(firmware: UBootConfig) -> Self {
        HpmUnit::with_counters(firmware, U74_PROGRAMMABLE_COUNTERS)
    }

    /// Creates a register file with a custom number of programmable
    /// counters (for modelling other cores).
    pub fn with_counters(firmware: UBootConfig, programmable: usize) -> Self {
        HpmUnit {
            firmware,
            cycle: 0,
            instret: 0,
            programmable: vec![
                ProgrammableCounter {
                    event: None,
                    value: 0,
                };
                programmable
            ],
        }
    }

    /// The fixed cycle counter.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The fixed retired-instruction counter.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Number of implemented programmable counters.
    pub fn programmable_len(&self) -> usize {
        self.programmable.len()
    }

    /// Selects `event` on programmable counter `index` and resets it.
    ///
    /// # Errors
    ///
    /// Fails with [`HpmError::CountersLockedByFirmware`] on stock firmware
    /// and [`HpmError::InvalidCounterIndex`] for out-of-range indices.
    pub fn program(&mut self, index: usize, event: HpmEvent) -> Result<(), HpmError> {
        if !self.firmware.hpm_patch_applied() {
            return Err(HpmError::CountersLockedByFirmware);
        }
        let implemented = self.programmable.len();
        let slot = self
            .programmable
            .get_mut(index)
            .ok_or(HpmError::InvalidCounterIndex { index, implemented })?;
        *slot = ProgrammableCounter {
            event: Some(event),
            value: 0,
        };
        Ok(())
    }

    /// Reads programmable counter `index`.
    ///
    /// # Errors
    ///
    /// Fails for out-of-range indices and for counters that were never
    /// programmed.
    pub fn read(&self, index: usize) -> Result<u64, HpmError> {
        let implemented = self.programmable.len();
        let slot = self
            .programmable
            .get(index)
            .ok_or(HpmError::InvalidCounterIndex { index, implemented })?;
        if slot.event.is_none() {
            return Err(HpmError::CounterNotProgrammed { index });
        }
        Ok(slot.value)
    }

    /// The event programmed on counter `index`, if any.
    pub fn programmed_event(&self, index: usize) -> Option<HpmEvent> {
        self.programmable.get(index).and_then(|c| c.event)
    }

    /// Accumulates a batch of retired work into all enabled counters.
    ///
    /// The fixed counters always count (as on real hardware); the
    /// programmable ones only count once programmed.
    pub fn advance(&mut self, work: &RetiredWork) {
        self.cycle += work.cycles;
        self.instret += work.instructions;
        for counter in &mut self.programmable {
            if let Some(event) = counter.event {
                counter.value += work.event_count(event);
            }
        }
    }

    /// Zeroes every counter (used when a sampling plugin restarts).
    pub fn reset(&mut self) {
        self.cycle = 0;
        self.instret = 0;
        for counter in &mut self.programmable {
            counter.value = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn hpl_work(instructions: u64) -> RetiredWork {
        let mix = Workload::Hpl.instruction_mix();
        RetiredWork::from_mix(
            instructions,
            instructions * 2,
            &mix,
            Workload::Hpl.ddr_bytes_per_instruction(),
        )
    }

    #[test]
    fn stock_firmware_locks_programmable_counters() {
        let mut hpm = HpmUnit::new(UBootConfig::stock());
        let err = hpm.program(0, HpmEvent::DCacheMiss).unwrap_err();
        assert_eq!(err, HpmError::CountersLockedByFirmware);
        // Fixed counters still count, as on the real machine.
        hpm.advance(&hpl_work(1000));
        assert_eq!(hpm.instret(), 1000);
        assert_eq!(hpm.cycle(), 2000);
    }

    #[test]
    fn patched_firmware_enables_programming() {
        let mut hpm = HpmUnit::new(UBootConfig::with_hpm_patch());
        hpm.program(0, HpmEvent::FpArithRetired).unwrap();
        hpm.program(1, HpmEvent::DCacheMiss).unwrap();
        hpm.advance(&hpl_work(1_000_000));
        let fp = hpm.read(0).unwrap();
        assert_eq!(fp, 400_000); // HPL mix has fp = 0.40
        assert!(hpm.read(1).unwrap() > 0);
    }

    #[test]
    fn out_of_range_and_unprogrammed_reads_fail() {
        let hpm = HpmUnit::new(UBootConfig::with_hpm_patch());
        assert!(matches!(
            hpm.read(5),
            Err(HpmError::InvalidCounterIndex {
                index: 5,
                implemented: 2
            })
        ));
        assert!(matches!(
            hpm.read(0),
            Err(HpmError::CounterNotProgrammed { index: 0 })
        ));
    }

    #[test]
    fn event_counts_are_conserved() {
        let work = hpl_work(1_000_000);
        let mix = Workload::Hpl.instruction_mix();
        // Retired-class events should sum to ~the instruction count.
        let classes = work.event_count(HpmEvent::IntLoadRetired)
            + work.event_count(HpmEvent::IntStoreRetired)
            + work.event_count(HpmEvent::FpLoadRetired)
            + work.event_count(HpmEvent::FpStoreRetired)
            + work.event_count(HpmEvent::FpArithRetired)
            + work.event_count(HpmEvent::BranchRetired)
            + work.event_count(HpmEvent::IntArithRetired);
        let expected = (1_000_000.0
            * (mix.fp() + mix.load() + mix.store() + mix.branch() + mix.int()))
        .round() as u64;
        assert!((classes as i64 - expected as i64).abs() <= 4);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = hpl_work(1000);
        let b = hpl_work(500);
        a.merge(&b);
        assert_eq!(a.instructions, 1500);
        assert_eq!(a.cycles, 3000);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut hpm = HpmUnit::new(UBootConfig::with_hpm_patch());
        hpm.program(0, HpmEvent::BranchRetired).unwrap();
        hpm.advance(&hpl_work(1000));
        hpm.reset();
        assert_eq!(hpm.cycle(), 0);
        assert_eq!(hpm.instret(), 0);
        assert_eq!(hpm.read(0).unwrap(), 0);
    }

    #[test]
    fn reprogramming_resets_the_counter() {
        let mut hpm = HpmUnit::new(UBootConfig::with_hpm_patch());
        hpm.program(0, HpmEvent::BranchRetired).unwrap();
        hpm.advance(&hpl_work(1000));
        assert!(hpm.read(0).unwrap() > 0);
        hpm.program(0, HpmEvent::DCacheMiss).unwrap();
        assert_eq!(hpm.read(0).unwrap(), 0);
    }
}
