//! The silent-data-corruption fault domain, end to end: CRC64 checkpoint
//! integrity under arbitrary single-bit rot (durable and through the
//! spill/flush path), and the cluster-scale SDC plan under the
//! bit-identity contract — byte-equal across clock modes, with every
//! defence layer (ABFT, CRC restore walk, telemetry scrub) firing.

use proptest::prelude::*;

use cimone_cluster::checkpoint::{CheckpointPosition, CheckpointStore, JobCheckpoint};
use cimone_cluster::engine::{
    ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine,
};
use cimone_cluster::faults::{FaultKind, FaultPlan, SdcTarget};
use cimone_cluster::healing::{CheckpointConfig, RecoveryConfig};
use cimone_kernels::abft::AbftMode;
use cimone_soc::units::{SimDuration, SimTime};
use cimone_soc::workload::Workload;

const JOB: u64 = 42;

fn ckpt(progress: f64, tag: usize, at_secs: u64) -> JobCheckpoint {
    JobCheckpoint::new(
        JOB,
        progress,
        CheckpointPosition::HplPanel(tag),
        SimTime::from_secs(at_secs),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-bit flip in the newest stored generation is caught by
    /// the restore walk: the record is quarantined and the restart point
    /// falls back, bit-exact, to the previous generation.
    #[test]
    fn corrupted_newest_generation_always_falls_back(
        old_progress in 0.0f64..1.0,
        new_progress in 0.0f64..1.0,
        salt in 0u64..u64::MAX,
    ) {
        let mut store = CheckpointStore::new();
        store.save(ckpt(old_progress, 1, 100)).expect("saves");
        store.save(ckpt(new_progress, 2, 200)).expect("saves");
        prop_assert!(store.corrupt_chain(JOB, 0, salt));

        let (restored, quarantined) = store.restore_verified(JOB, true);
        prop_assert_eq!(quarantined, vec![0], "the flip must be caught");
        let restored = restored.expect("the older generation survives");
        prop_assert_eq!(
            restored.progress().to_bits(),
            old_progress.to_bits(),
            "fallback must be bit-exact"
        );
        prop_assert_eq!(store.generations_retained(JOB), 1);
        // The survivor is now the newest record: a second walk is clean.
        let (again, quarantined) = store.restore_verified(JOB, true);
        prop_assert!(quarantined.is_empty());
        prop_assert_eq!(again.map(|c| c.progress().to_bits()), Some(old_progress.to_bits()));
    }

    /// A bit flipped in the node-local spill buffer survives the flush
    /// verbatim (the store must not silently heal it) and is caught on
    /// the post-flush restore, which falls back to the pre-outage
    /// durable record.
    #[test]
    fn corrupted_spill_is_caught_before_and_after_the_flush(
        durable_progress in 0.0f64..1.0,
        spill_progress in 0.0f64..1.0,
        salt in 0u64..u64::MAX,
    ) {
        let build = || {
            let mut store = CheckpointStore::new();
            store.save(ckpt(durable_progress, 1, 100)).expect("saves");
            store.set_export_offline(SimTime::from_secs(500));
            store.spill_write(ckpt(spill_progress, 2, 200));
            assert!(store.corrupt_chain(JOB, 0, salt), "spill is chain index 0");
            store
        };

        // Restore with the spill visible: quarantined, durable fallback.
        let mut store = build();
        let (restored, quarantined) = store.restore_verified(JOB, true);
        prop_assert_eq!(quarantined, vec![0]);
        prop_assert_eq!(
            restored.map(|c| c.progress().to_bits()),
            Some(durable_progress.to_bits())
        );

        // Flush instead: the poisoned bytes land on the export unchanged
        // and the restore walk catches them there.
        let mut store = build();
        store.clear_export_offline();
        let (flushed, _) = store.flush_spill(SimTime::from_secs(500)).expect("export is back");
        prop_assert_eq!(flushed, 1);
        let (restored, quarantined) = store.restore_verified(JOB, false);
        prop_assert_eq!(quarantined, vec![0], "the flush must not heal the rot");
        prop_assert_eq!(
            restored.map(|c| c.progress().to_bits()),
            Some(durable_progress.to_bits())
        );
    }
}

/// The SDC plan of the experiments: one flip per kernel region, a stored
/// checkpoint rotting between the last pre-crash commit and the crash
/// that forces its restore, and a telemetry corruption window.
fn sdc_plan() -> FaultPlan {
    let secs = SimTime::from_secs;
    FaultPlan::new()
        .with(
            secs(150),
            FaultKind::BitFlip {
                node: 0,
                target: SdcTarget::TrailingMatrix,
                word: 12_345,
                bit: 62,
            },
        )
        .with(
            secs(180),
            FaultKind::BitFlip {
                node: 2,
                target: SdcTarget::FactoredPanel,
                word: 777,
                bit: 55,
            },
        )
        .with(
            secs(238),
            FaultKind::CheckpointCorruption {
                node: 0,
                generation: 0,
            },
        )
        .with(secs(240), FaultKind::NodeCrash { node: 1 })
        .with(
            secs(300),
            FaultKind::PayloadCorruption {
                node: 4,
                span: SimDuration::from_secs(120),
            },
        )
        .with(secs(420), FaultKind::NodeRecover { node: 1 })
}

/// Asserts every observable output of the two engines is identical.
fn assert_bit_identical(reference: &SimEngine, other: &SimEngine, label: &str) {
    assert_eq!(reference.now(), other.now(), "{label}: clock diverged");
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
    assert_eq!(
        reference.checkpoint_store(),
        other.checkpoint_store(),
        "{label}: checkpoint store diverged"
    );
    assert_eq!(
        reference.sdc_counts(),
        other.sdc_counts(),
        "{label}: SDC counters diverged"
    );
    assert_eq!(
        reference.wasted_node_seconds().to_bits(),
        other.wasted_node_seconds().to_bits(),
        "{label}: wasted-work accounting diverged"
    );
}

/// The tentpole identity requirement extended to the SDC domain: a plan
/// mixing kernel flips, checkpoint rot and telemetry corruption is
/// byte-equal across clock modes, with monitoring on (so the scrub path
/// is exercised) and ABFT detection active.
#[test]
fn sdc_plan_is_bit_identical_across_clock_modes() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            recovery: Some(RecoveryConfig {
                checkpoint: Some(CheckpointConfig::every(SimDuration::from_secs(60))),
                ..RecoveryConfig::detection_only()
            }),
            clock,
            abft: AbftMode::Detect,
            ..EngineConfig::default()
        })
        .with_fault_plan(sdc_plan());
        for name in ["sdc-a", "sdc-b"] {
            engine
                .submit(JobRequest {
                    name: name.into(),
                    user: "ci".into(),
                    nodes: 2,
                    workload: ClusterWorkload::Synthetic {
                        workload: Workload::Hpl,
                        secs: 600,
                    },
                })
                .unwrap();
        }
        engine.run_for(SimDuration::from_secs(1500));
        engine
    };
    let reference = run(ClockMode::FixedDt);
    let saw = |pred: fn(&EngineEvent) -> bool| reference.events().iter().any(pred);
    assert!(
        saw(|e| matches!(e, EngineEvent::SdcDetected { .. })),
        "the trailing flip must trip the panel checksums"
    );
    assert!(
        saw(|e| matches!(e, EngineEvent::CheckpointCorrupt { .. })),
        "the restore walk must quarantine the rotten record"
    );
    assert!(
        saw(|e| matches!(e, EngineEvent::SdcSuspected { .. })),
        "the scrub must quarantine the corrupted samples"
    );
    assert!(
        !saw(|e| matches!(e, EngineEvent::SdcUndetected { .. })),
        "detect mode must never ship a wrong result"
    );
    assert!(
        saw(|e| matches!(e, EngineEvent::JobCompleted { .. })),
        "the campaign must finish inside the horizon"
    );
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&reference, &event, "SDC plan");
}

/// An SDC-rate-0 regression guard: adding the SDC machinery must leave a
/// plan *without* SDC events byte-identical to itself across clock modes
/// — and the scrub must quarantine nothing on a clean run.
#[test]
fn clean_runs_are_never_scrubbed() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            clock,
            ..EngineConfig::default()
        });
        engine
            .submit(JobRequest {
                name: "clean".into(),
                user: "ci".into(),
                nodes: 4,
                workload: ClusterWorkload::Synthetic {
                    workload: Workload::Hpl,
                    secs: 120,
                },
            })
            .unwrap();
        engine.run_for(SimDuration::from_secs(300));
        engine
    };
    let fixed = run(ClockMode::FixedDt);
    assert!(
        !fixed
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::SdcSuspected { .. })),
        "a clean run must produce zero scrub quarantines"
    );
    assert_eq!(fixed.sdc_counts(), (0, 0, 0));
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&fixed, &event, "clean run");
}
