//! Extension: rack-level fault domains — a shared GbE switch outage, a
//! /ckpt NFS export failure with a node crash inside the window, and a
//! machine-wide multi-rail brownout, run back-to-back over one HPL
//! campaign.
//!
//! The paper's §III machine hangs all eight nodes off *one* management
//! switch, *one* NFS export and *one* feed of blade rails, so the rack —
//! not just the blade — is a fault domain. This experiment runs the same
//! combined fault plan through three postures of the recovery subsystem:
//!
//! * **naive** — the legacy control plane (`partition_aware: false`,
//!   no spill buffer): the switch outage silences every heartbeat at
//!   once, the detector mass-suspects the machine, and every running job
//!   is fenced off its perfectly healthy nodes;
//! * **partition-aware** — the plane recognises "everyone went silent
//!   simultaneously" as a path failure, enters `Partitioned`, and defers
//!   all suspicion until connectivity returns (zero fences), but
//!   checkpoints landing in the NFS window still retry and abandon;
//! * **spill** — partition awareness plus the node-local write-behind
//!   spill buffer: in-window checkpoints commit locally and flush when
//!   the export returns, so a crash inside the window resumes from the
//!   spill instead of the last pre-outage durable commit (or zero).
//!
//! All three campaigns end under the same machine-wide multi-rail
//! brownout, arbitrated by the rack governor's water-filling — the
//! reported rack peak power must stay within the machine budget.

use serde::{Deserialize, Serialize};

use cimone_sched::job::JobState;
use cimone_soc::units::{SimDuration, SimTime};

use crate::blade::RAIL_RATED_WATTS;
use crate::engine::{ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine};
use crate::faults::{FaultKind, FaultPlan};
use crate::healing::{CheckpointConfig, RecoveryConfig};
use crate::perf::{HplModel, HplProblem};
use crate::report::render_table;

/// Blades on the machine (the rack budget spans all of them).
const BLADES: usize = 4;
/// When the switch outage starts; its span stays under the partition
/// timeout so an aware plane never lets fencing proceed.
const SWITCH_AT: u64 = 150;
/// Switch outage length, seconds.
const SWITCH_SPAN: u64 = 90;
/// When the /ckpt export goes away.
const NFS_AT: u64 = 500;
/// Export outage length — longer than the checkpoint interval, so every
/// campaign gets at least one commit attempt inside the window.
const NFS_SPAN: u64 = 1000;
/// The node that crashes mid-outage (the second board of the first job,
/// so the first board keeps holding that job's spill buffer).
const CRASH_NODE: usize = 1;
/// When it crashes — after the first in-window commit attempt.
const CRASH_AT: u64 = 1100;
/// When it is repaired.
const REPAIR_AT: u64 = 1700;
/// When the machine-wide brownout starts (export back, spill flushed).
const RACK_AT: u64 = 2600;
/// Multi-rail brownout length, seconds.
const RACK_SPAN: u64 = 900;
/// Checkpoint cadence, seconds.
const CKPT_SECS: u64 = 600;

/// Outcome of one campaign (one recovery posture).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackCampaign {
    /// Posture label: `naive`, `partition-aware` or `spill`.
    pub label: String,
    /// Whether the control plane was partition-aware.
    pub partition_aware: bool,
    /// Whether the node-local spill buffer was enabled.
    pub spill: bool,
    /// Jobs submitted.
    pub jobs_submitted: usize,
    /// Jobs that ran to completion inside the horizon.
    pub jobs_completed: usize,
    /// Jobs abandoned after exhausting their retry budget.
    pub jobs_lost: usize,
    /// Suspicions raised by the failure detector.
    pub suspicions: usize,
    /// Fences applied by the control plane.
    pub fences: usize,
    /// Times the plane entered the `Partitioned` state.
    pub partitions: usize,
    /// Requeue events across the campaign.
    pub requeues: usize,
    /// Checkpoints committed durably to the export.
    pub checkpoints: usize,
    /// Commits deferred by the bounded-retry path.
    pub ckpt_deferred: usize,
    /// Commits redirected to the node-local spill buffer.
    pub ckpt_spilled: usize,
    /// Commits abandoned after the retry budget ran out.
    pub ckpt_abandoned: usize,
    /// Spill records flushed to the export on recovery.
    pub spill_flushed: usize,
    /// Rack power emergencies (budget infeasible even at floor OPPs).
    pub rack_emergencies: usize,
    /// Peak machine power while the rack budget was active, watts.
    pub rack_peak_watts: f64,
    /// The machine-wide budget, watts.
    pub rack_budget_watts: f64,
    /// Total energy of the completed jobs, joules.
    pub energy_joules: f64,
    /// Node-hours of completed work thrown away by evictions.
    pub wasted_node_hours: f64,
    /// Campaign makespan, seconds.
    pub makespan_secs: f64,
}

/// The full rack-outage measurement set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackOutageResult {
    /// The HPL configuration each job runs.
    pub problem: HplProblem,
    /// Jobs per campaign.
    pub jobs: usize,
    /// Base seed.
    pub seed: u64,
    /// Machine budget as a fraction of the summed rated rails.
    pub budget_frac: f64,
    /// Campaigns: naive, partition-aware, spill — in that order.
    pub campaigns: Vec<RackCampaign>,
}

/// Runs the combined switch + NFS + multi-rail plan through the three
/// recovery postures. Fully deterministic for fixed arguments, and
/// byte-identical across [`ClockMode`]s.
///
/// # Panics
///
/// Panics if `jobs == 0` or `budget_frac` is outside `(0, 1]`.
pub fn run(
    problem: HplProblem,
    jobs: usize,
    budget_frac: f64,
    seed: u64,
    clock: ClockMode,
) -> RackOutageResult {
    assert!(jobs > 0, "need at least one job");
    assert!(
        budget_frac > 0.0 && budget_frac <= 1.0,
        "budget_frac must be in (0, 1]"
    );
    let campaigns = vec![
        campaign(
            problem,
            jobs,
            budget_frac,
            seed,
            clock,
            "naive",
            false,
            false,
        ),
        campaign(
            problem,
            jobs,
            budget_frac,
            seed,
            clock,
            "partition-aware",
            true,
            false,
        ),
        campaign(problem, jobs, budget_frac, seed, clock, "spill", true, true),
    ];
    RackOutageResult {
        problem,
        jobs,
        seed,
        budget_frac,
        campaigns,
    }
}

/// The combined fault plan every campaign runs.
fn rack_plan(budget_frac: f64) -> FaultPlan {
    let secs = SimTime::from_secs;
    let span = SimDuration::from_secs;
    FaultPlan::new()
        .with(
            secs(SWITCH_AT),
            FaultKind::SwitchOutage {
                span: span(SWITCH_SPAN),
            },
        )
        .with(
            secs(NFS_AT),
            FaultKind::NfsExportDown {
                span: span(NFS_SPAN),
            },
        )
        .with(secs(CRASH_AT), FaultKind::NodeCrash { node: CRASH_NODE })
        .with(secs(REPAIR_AT), FaultKind::NodeRecover { node: CRASH_NODE })
        .with(
            secs(RACK_AT),
            FaultKind::MultiRailBrownout {
                budget_frac,
                span: span(RACK_SPAN),
            },
        )
}

#[allow(clippy::too_many_arguments)]
fn campaign(
    problem: HplProblem,
    jobs: usize,
    budget_frac: f64,
    seed: u64,
    clock: ClockMode,
    label: &str,
    partition_aware: bool,
    spill: bool,
) -> RackCampaign {
    let fault_free = HplModel::monte_cimone(problem).run_time(2);
    let horizon = SimDuration::from_secs_f64(fault_free * 4.0 + 3600.0);
    let mut ckpt = CheckpointConfig::every(SimDuration::from_secs(CKPT_SECS));
    if spill {
        ckpt = ckpt.with_spill();
    }
    let recovery = RecoveryConfig {
        checkpoint: Some(ckpt),
        partition_aware,
        ..RecoveryConfig::detection_only()
    };
    let mut engine = SimEngine::new(EngineConfig {
        dt: SimDuration::from_secs(2),
        seed,
        monitoring: false,
        recovery: Some(recovery),
        clock,
        ..EngineConfig::default()
    })
    .with_fault_plan(rack_plan(budget_frac));
    for _ in 0..jobs {
        engine
            .submit(JobRequest {
                name: "hpl-rack".into(),
                user: "bench".into(),
                nodes: 2,
                workload: ClusterWorkload::Hpl(problem),
            })
            .expect("2-node jobs fit the machine");
    }
    engine.run_until_idle(horizon);

    let records = engine.accounting().records();
    let completed = records
        .iter()
        .filter(|r| r.state == JobState::Completed)
        .count();
    let energy_joules: f64 = records
        .iter()
        .filter(|r| r.state == JobState::Completed)
        .filter_map(|r| r.energy)
        .map(|e| e.as_joules())
        .sum();
    let count = |pred: fn(&EngineEvent) -> bool| engine.events().iter().filter(|e| pred(e)).count();
    let spill_flushed = engine
        .events()
        .iter()
        .map(|e| match e {
            EngineEvent::SpillFlushed { records, .. } => *records,
            _ => 0,
        })
        .sum();
    RackCampaign {
        label: label.to_owned(),
        partition_aware,
        spill,
        jobs_submitted: jobs,
        jobs_completed: completed,
        jobs_lost: count(|e| matches!(e, EngineEvent::JobLost { .. })),
        suspicions: engine.suspicion_count(),
        fences: count(|e| matches!(e, EngineEvent::NodeFenced { .. })),
        partitions: count(|e| matches!(e, EngineEvent::PartitionSuspected { .. })),
        requeues: count(|e| matches!(e, EngineEvent::JobRequeued { .. })),
        checkpoints: engine.checkpoints_written(),
        ckpt_deferred: count(|e| matches!(e, EngineEvent::CheckpointDeferred { .. })),
        ckpt_spilled: count(|e| matches!(e, EngineEvent::CheckpointSpilled { .. })),
        ckpt_abandoned: count(|e| matches!(e, EngineEvent::CheckpointAbandoned { .. })),
        spill_flushed,
        rack_emergencies: count(|e| matches!(e, EngineEvent::RackPowerEmergency { .. })),
        rack_peak_watts: engine.rack_peak_power(),
        rack_budget_watts: budget_frac * RAIL_RATED_WATTS * BLADES as f64,
        energy_joules,
        wasted_node_hours: engine.wasted_node_seconds() / 3600.0,
        makespan_secs: engine.now().as_secs_f64(),
    }
}

impl RackOutageResult {
    /// Renders the campaign table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Rack-outage sweep: switch {SWITCH_SPAN} s + /ckpt export {NFS_SPAN} s (crash inside) \
             + multi-rail {:.0}% x {RACK_SPAN} s (HPL N={}, {} x 2-node jobs)\n",
            self.budget_frac * 100.0,
            self.problem.n,
            self.jobs
        );
        let rows: Vec<Vec<String>> = self
            .campaigns
            .iter()
            .map(|c| {
                vec![
                    c.label.clone(),
                    format!("{}/{}", c.jobs_completed, c.jobs_submitted),
                    c.jobs_lost.to_string(),
                    c.suspicions.to_string(),
                    c.fences.to_string(),
                    c.partitions.to_string(),
                    c.requeues.to_string(),
                    c.checkpoints.to_string(),
                    c.ckpt_deferred.to_string(),
                    c.ckpt_spilled.to_string(),
                    c.ckpt_abandoned.to_string(),
                    c.spill_flushed.to_string(),
                    format!("{:.2}", c.rack_peak_watts),
                    format!("{:.2}", c.rack_budget_watts),
                    format!("{:.1}", c.energy_joules / 1e3),
                    format!("{:.2}", c.wasted_node_hours),
                    format!("{:.0}", c.makespan_secs),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "Config",
                "Done",
                "Lost",
                "Susp",
                "Fences",
                "Part.",
                "Requeues",
                "Ckpts",
                "Defer",
                "Spill",
                "Aband",
                "Flushed",
                "Peak [W]",
                "Budget [W]",
                "Energy [kJ]",
                "Wasted [node-h]",
                "Makespan [s]",
            ],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(clock: ClockMode) -> RackOutageResult {
        // One cached sweep per mode: several tests inspect the same run.
        static EVENT: std::sync::OnceLock<RackOutageResult> = std::sync::OnceLock::new();
        static FIXED: std::sync::OnceLock<RackOutageResult> = std::sync::OnceLock::new();
        let cell = match clock {
            ClockMode::EventDriven => &EVENT,
            ClockMode::FixedDt => &FIXED,
        };
        cell.get_or_init(|| run(HplProblem::paper(), 4, 0.6, 2022, clock))
            .clone()
    }

    #[test]
    fn naive_plane_mass_fences_where_the_aware_plane_defers() {
        let result = quick(ClockMode::EventDriven);
        let naive = &result.campaigns[0];
        let aware = &result.campaigns[1];
        assert!(!naive.partition_aware && aware.partition_aware);
        // The switch outage silences all eight nodes: the legacy plane
        // suspects and fences healthy hardware; the crash at t=1100 adds
        // its own legitimate suspicion to both.
        assert!(
            naive.suspicions > aware.suspicions,
            "naive {} vs aware {} suspicions",
            naive.suspicions,
            aware.suspicions
        );
        assert!(naive.fences > aware.fences);
        assert_eq!(naive.partitions, 0, "the naive plane never partitions");
        assert!(aware.partitions > 0, "the aware plane must partition");
        // Mass-fencing evicts work; deferring does not.
        assert!(naive.requeues > aware.requeues);
    }

    #[test]
    fn spill_buffer_saves_the_in_window_checkpoint() {
        let result = quick(ClockMode::EventDriven);
        let aware = &result.campaigns[1];
        let spill = &result.campaigns[2];
        // Without spill, the in-window commits burn their retry budget and
        // abandon; with it they land locally and flush on recovery.
        assert!(aware.ckpt_deferred > 0, "retries must fire");
        assert!(aware.ckpt_abandoned > 0, "the retry budget must run out");
        assert_eq!(aware.ckpt_spilled, 0);
        assert!(spill.ckpt_spilled > 0, "spill commits must fire");
        assert_eq!(spill.ckpt_abandoned, 0, "spill never abandons");
        assert!(spill.spill_flushed > 0, "the buffer must flush");
        // The crash inside the window: the spill posture resumes from the
        // spilled progress, the retry posture from nothing newer.
        assert!(
            spill.wasted_node_hours < aware.wasted_node_hours,
            "spill {} vs retry {} wasted node-hours",
            spill.wasted_node_hours,
            aware.wasted_node_hours
        );
    }

    #[test]
    fn rack_arbitration_keeps_the_machine_inside_the_budget() {
        let result = quick(ClockMode::EventDriven);
        for c in &result.campaigns {
            assert!(
                c.rack_peak_watts > 0.0,
                "{}: the brownout window must see load",
                c.label
            );
            assert!(
                c.rack_peak_watts <= c.rack_budget_watts,
                "{}: peak {} W must stay within the {} W machine budget",
                c.label,
                c.rack_peak_watts,
                c.rack_budget_watts
            );
            assert_eq!(c.rack_emergencies, 0, "60% of the rails is feasible");
        }
    }

    #[test]
    fn every_posture_eventually_serves_the_whole_campaign() {
        let result = quick(ClockMode::EventDriven);
        for c in &result.campaigns {
            assert_eq!(
                c.jobs_completed, c.jobs_submitted,
                "{}: all jobs served",
                c.label
            );
            assert_eq!(c.jobs_lost, 0, "{}: no job abandoned", c.label);
        }
    }

    #[test]
    fn sweep_is_deterministic_and_clock_mode_invariant() {
        let a = quick(ClockMode::EventDriven);
        let b = quick(ClockMode::EventDriven);
        assert_eq!(a, b);
        let fixed = quick(ClockMode::FixedDt);
        assert_eq!(a, fixed, "clock modes must agree byte-for-byte");
        assert!(a.render().contains("Rack-outage sweep"));
    }
}
