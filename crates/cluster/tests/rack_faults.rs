//! Rack-level fault domains, end to end: the combined switch + NFS +
//! multi-rail plan under the bit-identity contract (DESIGN.md §13), the
//! rack arbiter's machine-budget invariant, the crash-inside-the-NFS-window
//! recovery path, and the zero-false-suspicion law for pure switch
//! outages.

use proptest::prelude::*;

use cimone_cluster::engine::{
    ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine,
};
use cimone_cluster::faults::{FaultKind, FaultPlan, SdcTarget};
use cimone_cluster::healing::{CheckpointConfig, RecoveryConfig};
use cimone_soc::units::{SimDuration, SimTime};
use cimone_soc::workload::Workload;

fn synthetic(nodes: usize, secs: u64) -> JobRequest {
    JobRequest {
        name: "rack-faults".into(),
        user: "ci".into(),
        nodes,
        workload: ClusterWorkload::Synthetic {
            workload: Workload::Hpl,
            secs,
        },
    }
}

/// Recovery with spill-enabled checkpointing every `secs`.
fn spill_recovery(secs: u64) -> RecoveryConfig {
    RecoveryConfig {
        checkpoint: Some(CheckpointConfig::every(SimDuration::from_secs(secs)).with_spill()),
        ..RecoveryConfig::detection_only()
    }
}

/// Asserts every observable output of the two engines is identical.
fn assert_bit_identical(reference: &SimEngine, other: &SimEngine, label: &str) {
    assert_eq!(
        reference.now(),
        other.now(),
        "{label}: final clock diverged"
    );
    assert_eq!(
        reference.events(),
        other.events(),
        "{label}: event log diverged"
    );
    assert!(
        reference.store() == other.store(),
        "{label}: telemetry stores diverged ({} vs {} points)",
        reference.store().point_count(),
        other.store().point_count(),
    );
    assert_eq!(
        reference.accounting(),
        other.accounting(),
        "{label}: accounting diverged"
    );
    assert!(
        reference.thermal() == other.thermal(),
        "{label}: thermal state diverged"
    );
    assert_eq!(
        reference.checkpoint_store(),
        other.checkpoint_store(),
        "{label}: checkpoint store diverged"
    );
    assert_eq!(
        reference.wasted_node_seconds().to_bits(),
        other.wasted_node_seconds().to_bits(),
        "{label}: wasted-work accounting diverged"
    );
    assert_eq!(
        reference.suspicion_count(),
        other.suspicion_count(),
        "{label}: suspicion count diverged"
    );
    for i in 0..8 {
        assert_eq!(
            reference.node_cpufreq(i).current_index(),
            other.node_cpufreq(i).current_index(),
            "{label}: node {i} DVFS state diverged"
        );
    }
}

/// The tentpole identity requirement: a plan combining a switch outage, an
/// NFS export failure (with a crash inside the window), and a machine-wide
/// multi-rail brownout is byte-equal across clock modes, with monitoring
/// on (so the switch's telemetry suppression is exercised) and the
/// spill-enabled recovery stack underneath.
#[test]
fn combined_rack_plan_is_bit_identical_across_clock_modes() {
    let plan = || {
        FaultPlan::new()
            .with(
                SimTime::from_secs(60),
                FaultKind::SwitchOutage {
                    span: SimDuration::from_secs(90),
                },
            )
            .with(
                SimTime::from_secs(200),
                FaultKind::NfsExportDown {
                    span: SimDuration::from_secs(200),
                },
            )
            .with(SimTime::from_secs(300), FaultKind::NodeCrash { node: 1 })
            .with(SimTime::from_secs(500), FaultKind::NodeRecover { node: 1 })
            .with(
                SimTime::from_secs(700),
                FaultKind::MultiRailBrownout {
                    budget_frac: 0.6,
                    span: SimDuration::from_secs(200),
                },
            )
    };
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            recovery: Some(spill_recovery(60)),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(plan());
        engine.submit(synthetic(2, 600)).unwrap();
        engine.submit(synthetic(4, 300)).unwrap();
        engine.run_for(SimDuration::from_secs(1500));
        engine
    };
    let reference = run(ClockMode::FixedDt);
    let saw = |pred: fn(&EngineEvent) -> bool| reference.events().iter().any(pred);
    assert!(
        saw(|e| matches!(e, EngineEvent::PartitionSuspected { .. })),
        "the switch outage must partition the control plane"
    );
    assert!(
        saw(|e| matches!(e, EngineEvent::SwitchRestored { .. })),
        "the switch must come back"
    );
    assert!(
        saw(|e| matches!(e, EngineEvent::CheckpointSpilled { .. })),
        "the export outage must force a spill"
    );
    assert!(
        saw(|e| matches!(e, EngineEvent::SpillFlushed { .. })),
        "the spill must flush on recovery"
    );
    assert!(
        saw(|e| matches!(e, EngineEvent::BladeCapped { .. })),
        "the rack brownout must engage the arbiter"
    );
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&reference, &event, "combined rack plan");
    assert_eq!(
        reference.rack_peak_power().to_bits(),
        event.rack_peak_power().to_bits(),
        "rack peak-power accounting diverged"
    );
}

/// A crash mid-job while `/ckpt` is away: the job resumes from the spill
/// buffer (never a torn write — every resume point is a progress value
/// some commit actually recorded), the wasted work is exactly the span
/// between the eviction and the resume point, and the spill posture beats
/// bounded-retry on wasted work.
#[test]
fn crash_during_nfs_outage_resumes_from_spill_with_wasted_work_attributed() {
    let plan = || {
        FaultPlan::new()
            .with(
                SimTime::from_secs(100),
                FaultKind::NfsExportDown {
                    span: SimDuration::from_secs(200),
                },
            )
            // The job's second board dies inside the window; the first
            // board holds the spill buffer and survives.
            .with(SimTime::from_secs(220), FaultKind::NodeCrash { node: 1 })
            .with(SimTime::from_secs(400), FaultKind::NodeRecover { node: 1 })
    };
    let run = |spill: bool| {
        let mut ckpt = CheckpointConfig::every(SimDuration::from_secs(60));
        if spill {
            ckpt = ckpt.with_spill();
        }
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            monitoring: false,
            recovery: Some(RecoveryConfig {
                checkpoint: Some(ckpt),
                ..RecoveryConfig::detection_only()
            }),
            clock: ClockMode::EventDriven,
            ..EngineConfig::default()
        })
        .with_fault_plan(plan());
        engine.submit(synthetic(2, 600)).unwrap();
        assert!(
            engine.run_until_idle(SimDuration::from_secs(4 * 3600)),
            "the campaign must drain"
        );
        engine
    };

    let with_spill = run(true);
    let committed: Vec<f64> = with_spill
        .events()
        .iter()
        .filter_map(|e| match e {
            EngineEvent::CheckpointWritten { progress, .. }
            | EngineEvent::CheckpointSpilled { progress, .. } => Some(*progress),
            _ => None,
        })
        .collect();
    let resumes: Vec<f64> = with_spill
        .events()
        .iter()
        .filter_map(|e| match e {
            EngineEvent::JobResumed { progress, .. } => Some(*progress),
            _ => None,
        })
        .collect();
    assert!(
        with_spill
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::CheckpointSpilled { .. })),
        "the in-window commit must spill"
    );
    assert!(!resumes.is_empty(), "the crash must force a resume");
    for progress in &resumes {
        assert!(
            *progress > 0.0,
            "the resume must come from the spill, not zero"
        );
        assert!(
            committed.iter().any(|c| c.to_bits() == progress.to_bits()),
            "resume point {progress} was never committed: a torn write"
        );
    }
    assert!(
        with_spill.wasted_node_seconds() > 0.0,
        "the work past the spilled commit is genuinely lost"
    );

    // The same crash under bounded-retry-only checkpointing: the in-window
    // commits never land, so the job restarts from the last pre-outage
    // durable commit (older than the spill) and wastes strictly more.
    let retry_only = run(false);
    assert!(
        retry_only
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::CheckpointDeferred { .. })),
        "the retry path must defer in-window commits"
    );
    assert!(
        retry_only.wasted_node_seconds() > with_spill.wasted_node_seconds(),
        "retry-only wasted {} node-s, spill wasted {} node-s — the spill \
         must preserve strictly more progress",
        retry_only.wasted_node_seconds(),
        with_spill.wasted_node_seconds()
    );
}

/// The zero-false-suspicion acceptance law: a pure switch outage (no node
/// is actually down) must produce *zero* suspicions and *zero* fences on a
/// partition-aware plane — and the legacy plane reproduces the historical
/// mass-false-suspect behaviour on the identical scenario.
#[test]
fn pure_switch_outage_suspects_nothing_on_an_aware_plane() {
    let run = |partition_aware: bool| {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            monitoring: false,
            recovery: Some(RecoveryConfig {
                partition_aware,
                ..RecoveryConfig::detection_only()
            }),
            clock: ClockMode::EventDriven,
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(60),
            FaultKind::SwitchOutage {
                span: SimDuration::from_secs(90),
            },
        ));
        engine.submit(synthetic(8, 500)).unwrap();
        engine.run_for(SimDuration::from_secs(600));
        engine
    };

    let aware = run(true);
    assert_eq!(
        aware.suspicion_count(),
        0,
        "a pure switch outage must raise zero suspicions"
    );
    assert_eq!(aware.fence_count(), 0, "and fence nothing");
    assert!(
        aware
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::PartitionSuspected { .. })),
        "the plane must enter the partitioned state"
    );
    assert!(
        aware
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::PartitionHealed { .. })),
        "and heal when connectivity returns"
    );
    assert!(
        !aware
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::JobRequeued { .. })),
        "no job loses its nodes to a network blip"
    );

    let naive = run(false);
    assert!(
        naive.suspicion_count() >= 8,
        "the legacy plane mass-suspects the whole machine, got {}",
        naive.suspicion_count()
    );
    assert!(naive.fence_count() >= 8, "and mass-fences it");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The rack arbiter's machine-budget invariant, tick by tick: while a
    /// multi-rail budget is live, the per-blade shares it hands out sum to
    /// the machine budget (never more), and outside a rack emergency the
    /// measured machine power never exceeds it either.
    #[test]
    fn rack_arbiter_never_exceeds_the_machine_budget(
        budget_pct in 60u32..=95,
        seed in prop::sample::select(vec![1u64, 7, 2022]),
    ) {
        let budget_frac = f64::from(budget_pct) / 100.0;
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(2),
            seed,
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(60),
            FaultKind::MultiRailBrownout {
                budget_frac,
                span: SimDuration::from_secs(600),
            },
        ));
        engine.submit(synthetic(8, 900)).unwrap();
        let mut budgeted_ticks = 0usize;
        for _ in 0..400 {
            engine.step();
            let gov = engine.power_cap().expect("governor configured");
            let Some(budget) = gov.active_rack_budget_watts() else {
                continue;
            };
            budgeted_ticks += 1;
            let shares: f64 = (0..4)
                .filter_map(|b| gov.active_budget_watts(b))
                .sum();
            prop_assert!(
                shares <= budget + 1e-9,
                "arbitrated shares sum to {shares} W over the {budget} W budget"
            );
            if !gov.in_rack_emergency() {
                let drawn: f64 = (0..4).map(|b| engine.blade_power(b)).sum();
                prop_assert!(
                    drawn <= budget + 1e-9,
                    "machine drew {drawn} W over the {budget} W budget"
                );
            }
        }
        prop_assert!(budgeted_ticks > 0, "the brownout window must be sampled");
        prop_assert!(engine.rack_peak_power() > 0.0);
    }
}

/// A random fault event for [`FaultPlan::validate`] fuzzing — including
/// out-of-range nodes, blades, budgets, bits and generations, and
/// overlapping windows (brownout and payload-corruption alike).
fn arb_fault() -> impl Strategy<Value = FaultKind> {
    (
        (0u8..11, 0usize..12, 0usize..6, -0.5f64..1.5, 1u64..900),
        (0u32..80, 0usize..8),
    )
        .prop_map(
            |((kind, node, blade, budget_frac, secs), (bit, generation))| {
                let span = SimDuration::from_secs(secs);
                match kind {
                    0 => FaultKind::NodeCrash { node },
                    1 => FaultKind::NodeRecover { node },
                    2 => FaultKind::RailBrownout {
                        blade,
                        budget_frac,
                        span,
                    },
                    3 => FaultKind::MultiRailBrownout { budget_frac, span },
                    4 => FaultKind::SwitchOutage { span },
                    5 => FaultKind::NfsExportDown { span },
                    6 => FaultKind::FanFailure { blade, span },
                    7 => FaultKind::BitFlip {
                        node,
                        target: if secs % 2 == 0 {
                            SdcTarget::TrailingMatrix
                        } else {
                            SdcTarget::FactoredPanel
                        },
                        word: blade * 4099,
                        bit,
                    },
                    8 => FaultKind::CheckpointCorruption { node, generation },
                    9 => FaultKind::PayloadCorruption { node, span },
                    _ => FaultKind::PsuFailure { blade },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `FaultPlan::validate` over random plans mixing every fault kind:
    /// a rejected plan yields a Display-able error, and an accepted plan
    /// expands and runs through the engine without panicking.
    #[test]
    fn random_plans_either_reject_with_a_message_or_run_clean(
        events in prop::collection::vec(((0u64..2000), arb_fault()), 0..6),
    ) {
        let mut plan = FaultPlan::new();
        for (at, kind) in events {
            plan = plan.with(SimTime::from_secs(at), kind);
        }
        match plan.validate(8, 4) {
            Err(e) => {
                let message = e.to_string();
                prop_assert!(
                    !message.is_empty(),
                    "a rejected plan must explain itself"
                );
            }
            Ok(()) => {
                let mut engine = SimEngine::new(EngineConfig {
                    monitoring: false,
                    dt: SimDuration::from_secs(2),
                    recovery: Some(spill_recovery(120)),
                    clock: ClockMode::EventDriven,
                    ..EngineConfig::default()
                })
                .with_fault_plan(plan);
                engine.submit(synthetic(2, 300)).unwrap();
                engine.run_for(SimDuration::from_secs(3000));
            }
        }
    }
}
