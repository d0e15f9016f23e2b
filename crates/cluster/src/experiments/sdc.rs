//! Extension: the silent-data-corruption fault domain — ABFT-protected
//! kernels, CRC-verified checkpoints and telemetry scrubbing, measured
//! end to end.
//!
//! Monte Cimone's FU740 blades carry non-ECC DDR: a flipped bit does not
//! crash anything, it just quietly changes an answer, a stored checkpoint
//! or a published power sample. This experiment measures the three
//! defence layers the simulator grew against that failure mode:
//!
//! * **kernel campaign** — real single-bit flips planted into the live
//!   factors of the native HPL driver, swept across
//!   [`AbftMode::Off`]/[`AbftMode::Detect`]/[`AbftMode::Correct`]: how
//!   many materially-corrupted runs each mode flags (by a Huang–Abraham
//!   panel checksum or, failing that, the end-of-run residual), how many
//!   it repairs back to the bit-exact clean answer, and what the
//!   checksums cost relative to the HPL operation count;
//! * **engine campaign** — a cluster-scale fault plan combining a
//!   trailing-matrix flip, a factored-panel flip, an on-disk checkpoint
//!   corruption (drained through the CRC64 generation-fallback restore)
//!   and a telemetry payload-corruption window (drained through the
//!   ingestion scrub), run under each ABFT mode. `Off` ships a silently
//!   wrong job; `Detect` pays rollback-and-recompute; `Correct` pays one
//!   panel of recompute.
//!
//! Both campaigns are fully deterministic and byte-identical across
//! [`ClockMode`]s.

use cimone_kernels::abft::{AbftMode, SdcInjection};
use cimone_kernels::hpl::{run_with_injection, HplConfig};
use cimone_kernels::lu::hpl_flops;
use cimone_kernels::matrix::vec_norm_inf;
use cimone_soc::units::{SimDuration, SimTime};
use cimone_soc::workload::Workload;

use crate::engine::{ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine};
use crate::faults::{FaultKind, FaultPlan, SdcTarget};
use crate::healing::{CheckpointConfig, RecoveryConfig};
use crate::report::{Campaign, Cell, Gate, Report, Table};

/// Relative sup-norm solution error above which a run is *materially*
/// wrong. Anything past this bound also fails the HPL residual by many
/// orders of magnitude, so a passing-but-wrong run can only hide below
/// numerical noise.
const WRONG_REL_ERR: f64 = 1e-6;

/// The three protection modes, in sweep order.
const MODES: [AbftMode; 3] = [AbftMode::Off, AbftMode::Detect, AbftMode::Correct];

fn mode_label(mode: AbftMode) -> &'static str {
    match mode {
        AbftMode::Off => "off",
        AbftMode::Detect => "detect",
        AbftMode::Correct => "correct",
    }
}

/// Outcome of the native-kernel injection sweep under one ABFT mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SdcKernelCell {
    /// Mode label: `off`, `detect` or `correct`.
    pub mode: String,
    /// Injection trials run.
    pub trials: usize,
    /// Trials where the flip had any observable effect under this mode:
    /// a checksum flag, a failed residual, or a materially wrong
    /// solution. (A repaired run counts — its flag is the observation.)
    pub affected: usize,
    /// Affected trials flagged by a panel/column checksum (before the
    /// run completed).
    pub checksum_caught: usize,
    /// Affected trials flagged only by the end-of-run residual check.
    pub residual_caught: usize,
    /// Trials repaired back to the bit-exact clean solution.
    pub corrected_bitwise: usize,
    /// Materially wrong runs that passed the residual unflagged — the
    /// silent failures.
    pub undetected_wrong: usize,
    /// Flagged fraction of the affected trials (1.0 when none were
    /// affected).
    pub detection_coverage: f64,
    /// Checksum arithmetic of a *clean* run relative to the HPL
    /// operation count.
    pub overhead_frac: f64,
}

/// Outcome of the cluster-scale SDC plan under one ABFT mode.
#[derive(Debug, Clone, PartialEq)]
pub struct SdcEngineCell {
    /// Mode label: `off`, `detect` or `correct`.
    pub mode: String,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// `SdcDetected` events (rollback to the last checkpoint).
    pub sdc_detected: usize,
    /// `SdcCorrected` events (in-place column repair).
    pub sdc_corrected: usize,
    /// `SdcUndetected` events (silently wrong results shipped).
    pub sdc_undetected: usize,
    /// Checkpoint records quarantined by the CRC64 restore walk.
    pub ckpt_corrupt: usize,
    /// Telemetry samples quarantined by the ingestion scrub.
    pub sdc_suspected: usize,
    /// Campaign makespan, seconds.
    pub makespan_secs: f64,
    /// Node-hours of completed work recomputed after detection.
    pub wasted_node_hours: f64,
}

/// The full SDC measurement set.
#[derive(Debug, Clone, PartialEq)]
pub struct SdcResult {
    /// Kernel-campaign problem size.
    pub n: usize,
    /// Kernel-campaign blocking factor.
    pub nb: usize,
    /// Injection trials per mode.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Kernel-campaign cells: off, detect, correct — in that order.
    pub kernel: Vec<SdcKernelCell>,
    /// Engine-campaign cells, same order.
    pub engine: Vec<SdcEngineCell>,
}

/// Runs both campaigns. Deterministic for fixed arguments and
/// byte-identical across [`ClockMode`]s and reruns.
///
/// # Panics
///
/// Panics if `trials == 0`, `n == 0` or `nb == 0`.
pub fn run(n: usize, nb: usize, trials: usize, seed: u64, clock: ClockMode) -> SdcResult {
    assert!(trials > 0, "need at least one injection trial");
    let kernel = MODES
        .iter()
        .map(|&mode| kernel_campaign(n, nb, trials, seed, mode))
        .collect();
    let engine = MODES
        .iter()
        .map(|&mode| engine_campaign(mode, seed, clock))
        .collect();
    SdcResult {
        n,
        nb,
        trials,
        seed,
        kernel,
        engine,
    }
}

/// SplitMix64: a tiny deterministic stream for deriving injection sites
/// from `(seed, trial)` without threading an RNG through the sweep.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic injection for trial `t`: any panel (including the
/// last, whose flip lands in finished factors), any word, any bit.
fn injection(n: usize, nb: usize, seed: u64, t: usize) -> SdcInjection {
    let h = mix(seed ^ ((t as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)));
    let panels = n.div_ceil(nb);
    SdcInjection {
        panel: (h % panels as u64) as usize,
        word: ((h >> 16) % (n * n) as u64) as usize,
        bit: ((h >> 48) % 64) as u32,
    }
}

/// Relative sup-norm distance between a trial solution and the clean
/// one; NaN when the trial solution holds a NaN.
fn rel_err(x: &[f64], clean: &[f64]) -> f64 {
    let diff: Vec<f64> = x.iter().zip(clean).map(|(a, b)| a - b).collect();
    vec_norm_inf(&diff) / vec_norm_inf(clean).max(1e-300)
}

fn kernel_campaign(n: usize, nb: usize, trials: usize, seed: u64, mode: AbftMode) -> SdcKernelCell {
    let config = HplConfig::new(n, nb).with_seed(seed).with_abft(mode);
    // Clean pass: the reference solution and the mode's checksum cost.
    let (clean_result, clean_x) = run_with_injection(config, None).expect("clean run factors");
    assert!(clean_result.passed, "the clean system must verify");
    let overhead_frac = clean_result
        .abft
        .map(|r| r.overhead_vs(hpl_flops(n)))
        .unwrap_or(0.0);

    let mut cell = SdcKernelCell {
        mode: mode_label(mode).to_owned(),
        trials,
        affected: 0,
        checksum_caught: 0,
        residual_caught: 0,
        corrected_bitwise: 0,
        undetected_wrong: 0,
        detection_coverage: 1.0,
        overhead_frac,
    };
    for t in 0..trials {
        let inject = injection(n, nb, seed, t);
        let (result, x) = run_with_injection(config, Some(inject)).expect("injected run factors");
        let mismatches = result.abft.map(|r| r.mismatches).unwrap_or(0);
        let repaired = result.abft.map(|r| r.columns_recomputed).unwrap_or(0);
        let bitwise_clean = x
            .iter()
            .zip(&clean_x)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if repaired > 0 && bitwise_clean {
            cell.corrected_bitwise += 1;
        }
        // NaN-safe: a solution error poisoned into NaN must count as
        // corrupt, so NaN is checked alongside the threshold.
        let flagged = mismatches > 0;
        let failed = !result.passed;
        let err = rel_err(&x, &clean_x);
        let corrupted = err > WRONG_REL_ERR || err.is_nan() || failed;
        if !(flagged || corrupted) {
            continue;
        }
        cell.affected += 1;
        if flagged {
            cell.checksum_caught += 1;
        } else if failed {
            cell.residual_caught += 1;
        } else {
            cell.undetected_wrong += 1;
        }
    }
    if cell.affected > 0 {
        cell.detection_coverage =
            (cell.checksum_caught + cell.residual_caught) as f64 / cell.affected as f64;
    }
    cell
}

/// When the trailing-matrix flip hits node 0 (job A's first board).
const FLIP_TRAILING_AT: u64 = 150;
/// When the factored-panel flip hits node 2 (job B's first board).
const FLIP_FACTORED_AT: u64 = 180;
/// When job A's newest stored checkpoint generation rots on the export —
/// after the last pre-crash commit (≈ t=237), so no fresh record shields
/// the corruption from the restore walk.
const CKPT_ROT_AT: u64 = 238;
/// When job A's second board crashes — forcing the CRC-verified restore
/// to walk past the rotten generation.
const CRASH_AT: u64 = 240;
/// When the crashed board returns.
const REPAIR_AT: u64 = 420;
/// When the telemetry path of idle node 4 starts corrupting samples.
const PAYLOAD_AT: u64 = 300;
/// Length of the payload-corruption window, seconds.
const PAYLOAD_SPAN: u64 = 120;
/// Per-job synthetic runtime, seconds.
const JOB_SECS: u64 = 600;
/// Checkpoint cadence, seconds.
const CKPT_SECS: u64 = 60;

/// The cluster-scale SDC plan: one flip per kernel region, one stored
/// checkpoint corruption (plus the crash that forces its restore), and
/// one telemetry corruption window.
fn sdc_plan() -> FaultPlan {
    let secs = SimTime::from_secs;
    FaultPlan::new()
        .with(
            secs(FLIP_TRAILING_AT),
            FaultKind::BitFlip {
                node: 0,
                target: SdcTarget::TrailingMatrix,
                word: 12_345,
                bit: 62,
            },
        )
        .with(
            secs(FLIP_FACTORED_AT),
            FaultKind::BitFlip {
                node: 2,
                target: SdcTarget::FactoredPanel,
                word: 777,
                bit: 55,
            },
        )
        .with(
            secs(CKPT_ROT_AT),
            FaultKind::CheckpointCorruption {
                node: 0,
                generation: 0,
            },
        )
        .with(secs(CRASH_AT), FaultKind::NodeCrash { node: 1 })
        .with(
            secs(PAYLOAD_AT),
            FaultKind::PayloadCorruption {
                node: 4,
                span: SimDuration::from_secs(PAYLOAD_SPAN),
            },
        )
        .with(secs(REPAIR_AT), FaultKind::NodeRecover { node: 1 })
}

fn engine_campaign(abft: AbftMode, seed: u64, clock: ClockMode) -> SdcEngineCell {
    let recovery = RecoveryConfig {
        checkpoint: Some(CheckpointConfig::every(SimDuration::from_secs(CKPT_SECS))),
        ..RecoveryConfig::detection_only()
    };
    let mut engine = SimEngine::new(EngineConfig {
        dt: SimDuration::from_secs(1),
        seed,
        recovery: Some(recovery),
        clock,
        abft,
        ..EngineConfig::default()
    })
    .with_fault_plan(sdc_plan());
    for name in ["sdc-a", "sdc-b"] {
        engine
            .submit(JobRequest {
                name: name.into(),
                user: "bench".into(),
                nodes: 2,
                workload: ClusterWorkload::Synthetic {
                    workload: Workload::Hpl,
                    secs: JOB_SECS,
                },
            })
            .expect("2-node jobs fit the machine");
    }
    assert!(
        engine.run_until_idle(SimDuration::from_secs(4 * 3600)),
        "the SDC campaign must drain"
    );

    let (sdc_detected, sdc_corrected, sdc_undetected) = engine.sdc_counts();
    let count = |pred: fn(&EngineEvent) -> bool| engine.events().iter().filter(|e| pred(e)).count();
    SdcEngineCell {
        mode: mode_label(abft).to_owned(),
        completed: count(|e| matches!(e, EngineEvent::JobCompleted { .. })),
        sdc_detected,
        sdc_corrected,
        sdc_undetected,
        ckpt_corrupt: count(|e| matches!(e, EngineEvent::CheckpointCorrupt { .. })),
        sdc_suspected: count(|e| matches!(e, EngineEvent::SdcSuspected { .. })),
        makespan_secs: engine.now().as_secs_f64(),
        wasted_node_hours: engine.wasted_node_seconds() / 3600.0,
    }
}

impl Campaign for SdcResult {
    fn report(&self) -> Report {
        let kernel = self
            .kernel
            .iter()
            .map(|c| {
                vec![
                    Cell::new("Mode", "mode", c.mode.as_str(), c.mode.as_str()),
                    Cell::json("trials", c.trials),
                    Cell::count("Affected", "affected", c.affected),
                    Cell::count("Checksum", "checksum_caught", c.checksum_caught),
                    Cell::count("Residual", "residual_caught", c.residual_caught),
                    Cell::count("Repaired", "corrected_bitwise", c.corrected_bitwise),
                    Cell::count("Silent", "undetected_wrong", c.undetected_wrong),
                    Cell::percent("Coverage", "detection_coverage", c.detection_coverage, 1),
                    Cell::percent("Overhead", "overhead_frac", c.overhead_frac, 2),
                ]
            })
            .collect();
        let engine = self
            .engine
            .iter()
            .map(|c| {
                let wasted = c.wasted_node_hours;
                vec![
                    Cell::new("Mode", "mode", c.mode.as_str(), c.mode.as_str()),
                    Cell::count("Done", "completed", c.completed),
                    Cell::count("Detected", "sdc_detected", c.sdc_detected),
                    Cell::count("Corrected", "sdc_corrected", c.sdc_corrected),
                    Cell::count("Undetected", "sdc_undetected", c.sdc_undetected),
                    Cell::count("CkptQuar", "ckpt_corrupt", c.ckpt_corrupt),
                    Cell::count("Suspected", "sdc_suspected", c.sdc_suspected),
                    Cell::fixed("Wasted [node-h]", "wasted_node_hours", wasted, 2),
                    Cell::fixed("Makespan [s]", "makespan_s", c.makespan_secs, 0),
                ]
            })
            .collect();
        let [_, detect, correct] = &self.kernel[..] else {
            panic!("the kernel campaign sweeps off, detect and correct");
        };
        let coverage = detect.detection_coverage;
        let covered = coverage >= 0.99;
        let uncovered =
            (!covered).then(|| format!("detect-mode coverage {coverage} below the 99% floor"));
        let shipped = |c: &SdcEngineCell| c.mode != "off" && c.sdc_undetected > 0;
        let silent = correct.undetected_wrong > 0 || self.engine.iter().any(shipped);
        let silent = silent.then(|| "a protected mode shipped an undetected wrong result".into());
        let within_budget = |c: &&SdcKernelCell| c.overhead_frac <= 0.15;
        let over_budget = self.kernel.iter().filter(|c| !within_budget(c)).map(|c| {
            format!(
                "{} checksum overhead {:.1}% exceeds the 15% budget",
                c.mode,
                c.overhead_frac * 100.0
            )
        });
        Report {
            config: vec![
                Cell::json("n", self.n),
                Cell::json("nb", self.nb),
                Cell::json("trials", self.trials),
                Cell::json("seed", self.seed),
            ],
            tables: vec![
                Table {
                    key: "kernel",
                    caption: format!(
                        "SDC sweep: {} single-bit injections into HPL N={} NB={} per ABFT mode",
                        self.trials, self.n, self.nb
                    ),
                    rows: kernel,
                },
                Table {
                    key: "engine",
                    caption: "Cluster campaign: flips + checkpoint rot + telemetry corruption"
                        .to_owned(),
                    rows: engine,
                },
            ],
            notes: Vec::new(),
            gates: vec![
                Gate::new("detect_coverage_ok", uncovered),
                Gate::new("correct_silent_free", silent),
                Gate::new("overhead_ok", over_budget),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SdcResult {
        // One cached sweep: several tests inspect the same run.
        static RESULT: std::sync::OnceLock<SdcResult> = std::sync::OnceLock::new();
        RESULT
            .get_or_init(|| run(192, 48, 24, 2022, ClockMode::EventDriven))
            .clone()
    }

    #[test]
    fn detect_and_correct_flag_every_corrupted_kernel_run() {
        let result = quick();
        let [off, detect, correct] = &result.kernel[..] else {
            panic!("three kernel cells");
        };
        assert!(off.affected > 0, "the sweep must hit harmful flips");
        assert_eq!(off.checksum_caught, 0, "off mode carries no checksums");
        for c in [detect, correct] {
            assert!(
                c.detection_coverage >= 0.99,
                "{}: coverage {}",
                c.mode,
                c.detection_coverage
            );
            assert!(
                c.checksum_caught > 0,
                "{}: the panel checksums must fire before completion",
                c.mode
            );
        }
        assert_eq!(
            correct.undetected_wrong, 0,
            "correct mode must never ship a silently wrong answer"
        );
        assert!(
            correct.corrected_bitwise > 0,
            "repairs must restore the clean solution bit-for-bit"
        );
    }

    #[test]
    fn checksum_overhead_stays_under_the_budget() {
        let result = quick();
        let [off, detect, correct] = &result.kernel[..] else {
            panic!("three kernel cells");
        };
        assert_eq!(off.overhead_frac, 0.0);
        for c in [detect, correct] {
            assert!(
                c.overhead_frac > 0.0 && c.overhead_frac <= 0.15,
                "{}: overhead {}",
                c.mode,
                c.overhead_frac
            );
        }
    }

    #[test]
    fn engine_campaign_exercises_all_three_defence_layers() {
        let result = quick();
        let [off, detect, correct] = &result.engine[..] else {
            panic!("three engine cells");
        };
        // Off ships a silently wrong job; the protected modes never do.
        assert!(off.sdc_undetected > 0, "off must ship a wrong result");
        assert_eq!(off.sdc_detected + off.sdc_corrected, 0);
        assert_eq!(detect.sdc_undetected, 0);
        assert_eq!(correct.sdc_undetected, 0);
        assert!(detect.sdc_detected > 0, "detect must roll back");
        assert!(correct.sdc_corrected > 0, "correct must repair in place");
        // The factored-panel flip escapes panel checks in both protected
        // modes and is caught by the end-of-run residual.
        assert!(correct.sdc_detected > 0, "the residual net must fire");
        // Detection costs recompute; correction costs one panel.
        assert!(detect.wasted_node_hours > 0.0);
        assert!(
            detect.makespan_secs >= off.makespan_secs,
            "rollback cannot shorten the campaign"
        );
        for c in [off, detect, correct] {
            assert_eq!(c.completed, 2, "{}: both jobs must finish", c.mode);
            assert!(
                c.ckpt_corrupt > 0,
                "{}: the CRC restore walk must quarantine the rotten record",
                c.mode
            );
            assert!(
                c.sdc_suspected > 0,
                "{}: the scrub must quarantine corrupted samples",
                c.mode
            );
        }
    }
}
