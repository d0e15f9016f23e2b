//! Characterised workload classes and their instruction mixes.
//!
//! The paper characterises the node under five steady workloads (Table VI
//! columns): idle, HPL, the two STREAM variants (L2-resident and
//! DDR-resident) and the QuantumESPRESSO LAX driver. Each workload carries
//! an [`InstructionMix`] that drives the core pipeline model and the HPM
//! counters, and an activity profile that drives the power model.

use std::fmt;

/// A steady-state workload class characterised by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// OS services and daemons only.
    Idle,
    /// High-Performance Linpack (CPU-bound dense LU).
    Hpl,
    /// STREAM with an L2-resident working set.
    StreamL2,
    /// STREAM with a DDR-resident working set.
    StreamDdr,
    /// QuantumESPRESSO LAX blocked matrix diagonalisation.
    QeLax,
}

impl Workload {
    /// All workloads in Table VI column order.
    pub const ALL: [Workload; 5] = [
        Workload::Idle,
        Workload::Hpl,
        Workload::StreamL2,
        Workload::StreamDdr,
        Workload::QeLax,
    ];

    /// The workload's name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Idle => "Idle",
            Workload::Hpl => "HPL",
            Workload::StreamL2 => "STREAM.L2",
            Workload::StreamDdr => "STREAM.DDR",
            Workload::QeLax => "QE",
        }
    }

    /// The dynamic instruction mix the workload retires on a U74 core.
    ///
    /// Mixes are calibrated so the pipeline model reproduces the paper's
    /// measured FPU utilisation (46.5 % for HPL, 36 % for QE LAX) — see
    /// [`crate::core::PipelineModel`].
    pub fn instruction_mix(self) -> InstructionMix {
        match self {
            // OS housekeeping: integer/branch heavy, almost no FP, and the
            // cores spend almost every cycle in WFI (the stall fraction
            // models the sleep duty cycle, keeping idle INSTRET rates at
            // the tens-of-millions level a quiet Linux box shows).
            Workload::Idle => InstructionMix::new(0.005, 0.22, 0.10, 0.18, 0.97),
            // Blocked LU: dgemm inner loops, high FP density, exposed FP
            // latency on the in-order pipe -> large stall fraction.
            Workload::Hpl => InstructionMix::new(0.40, 0.30, 0.08, 0.10, 0.515),
            // STREAM retires mostly loads/stores with trivial FP.
            Workload::StreamL2 => InstructionMix::new(0.17, 0.34, 0.17, 0.08, 0.35),
            Workload::StreamDdr => InstructionMix::new(0.17, 0.34, 0.17, 0.08, 0.80),
            // Blocked diagonalisation: dgemm-like but with less regular
            // access and more synchronisation.
            Workload::QeLax => InstructionMix::new(0.36, 0.30, 0.08, 0.12, 0.583),
        }
    }

    /// Approximate DDR traffic intensity in bytes per retired instruction.
    ///
    /// Used by the stats plugin and the memory-power coupling; values are
    /// qualitative (STREAM.DDR streams everything, HPL is cache-friendly).
    pub fn ddr_bytes_per_instruction(self) -> f64 {
        match self {
            Workload::Idle => 0.05,
            Workload::Hpl => 0.4,
            Workload::StreamL2 => 0.1,
            Workload::StreamDdr => 6.0,
            Workload::QeLax => 0.8,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Fractions of the dynamic instruction stream by class, plus the fraction
/// of cycles lost to stalls (dependencies, FP latency, cache misses).
///
/// The four class fractions must not exceed 1; the remainder is plain
/// integer ALU work.
///
/// # Examples
///
/// ```
/// use cimone_soc::workload::InstructionMix;
///
/// let mix = InstructionMix::new(0.4, 0.3, 0.08, 0.1, 0.5);
/// assert!((mix.int() - 0.12).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionMix {
    fp: f64,
    load: f64,
    store: f64,
    branch: f64,
    stall_fraction: f64,
}

impl InstructionMix {
    /// Creates a mix from class fractions and a stall fraction.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]` or the class fractions sum
    /// past 1.
    pub fn new(fp: f64, load: f64, store: f64, branch: f64, stall_fraction: f64) -> Self {
        for (name, v) in [
            ("fp", fp),
            ("load", load),
            ("store", store),
            ("branch", branch),
            ("stall_fraction", stall_fraction),
        ] {
            assert!(
                (0.0..=1.0).contains(&v),
                "{name} fraction {v} outside [0, 1]"
            );
        }
        let sum = fp + load + store + branch;
        assert!(
            sum <= 1.0 + 1e-12,
            "class fractions sum to {sum}, must be <= 1"
        );
        InstructionMix {
            fp,
            load,
            store,
            branch,
            stall_fraction,
        }
    }

    /// Fraction of floating-point instructions.
    pub fn fp(&self) -> f64 {
        self.fp
    }

    /// Fraction of loads.
    pub fn load(&self) -> f64 {
        self.load
    }

    /// Fraction of stores.
    pub fn store(&self) -> f64 {
        self.store
    }

    /// Fraction of memory instructions (loads + stores).
    pub fn memory(&self) -> f64 {
        self.load + self.store
    }

    /// Fraction of branches and jumps.
    pub fn branch(&self) -> f64 {
        self.branch
    }

    /// Fraction of plain integer ALU instructions (the remainder).
    pub fn int(&self) -> f64 {
        1.0 - self.fp - self.load - self.store - self.branch
    }

    /// Fraction of issue slots lost to stalls.
    pub fn stall_fraction(&self) -> f64 {
        self.stall_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_match_paper_columns() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["Idle", "HPL", "STREAM.L2", "STREAM.DDR", "QE"]);
    }

    #[test]
    fn every_mix_is_internally_consistent() {
        for w in Workload::ALL {
            let mix = w.instruction_mix();
            let total = mix.fp() + mix.load() + mix.store() + mix.branch() + mix.int();
            assert!((total - 1.0).abs() < 1e-12, "{w}: classes sum to {total}");
            assert!(mix.int() >= 0.0, "{w}: negative int fraction");
        }
    }

    #[test]
    fn stream_ddr_is_the_most_memory_hungry() {
        let ddr = Workload::StreamDdr.ddr_bytes_per_instruction();
        for w in Workload::ALL {
            if w != Workload::StreamDdr {
                assert!(ddr > w.ddr_bytes_per_instruction());
            }
        }
    }

    #[test]
    fn hpl_has_the_highest_fp_density() {
        let hpl = Workload::Hpl.instruction_mix().fp();
        for w in [
            Workload::Idle,
            Workload::StreamL2,
            Workload::StreamDdr,
            Workload::QeLax,
        ] {
            assert!(hpl > w.instruction_mix().fp());
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_fraction_panics() {
        let _ = InstructionMix::new(1.5, 0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be <= 1")]
    fn oversubscribed_classes_panic() {
        let _ = InstructionMix::new(0.5, 0.4, 0.2, 0.1, 0.0);
    }
}
