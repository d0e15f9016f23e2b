//! The silent-data-corruption fault domain, end to end: CRC64 checkpoint
//! integrity under arbitrary single-bit rot (durable and through the
//! spill/flush path), the checkpoint store held to a plain list model
//! under random operation sequences, and the cluster-scale SDC plan under the
//! bit-identity contract — byte-equal across clock modes, with every
//! defence layer (ABFT, CRC restore walk, telemetry scrub) firing.

use std::collections::BTreeMap;

use proptest::prelude::*;

use cimone_cluster::checkpoint::{
    CheckpointError, CheckpointPosition, CheckpointStore, JobCheckpoint, GENERATION_DEPTH,
};
use cimone_cluster::engine::{
    ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine,
};
use cimone_cluster::faults::{FaultKind, FaultPlan, SdcTarget};
use cimone_cluster::healing::{CheckpointConfig, RecoveryConfig};
use cimone_cluster::thermal::AirflowConfig;
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
        store.save(ckpt(old_progress, 1, 100));
        store.save(ckpt(new_progress, 2, 200));
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
            store.save(ckpt(durable_progress, 1, 100));
            store.set_export_offline(SimTime::from_secs(500));
            store.spill_write(ckpt(spill_progress, 2, 200), 0);
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
        prop_assert_eq!(store.flush_spill(SimTime::from_secs(500)), Ok(1));
        let (restored, quarantined) = store.restore_verified(JOB, false);
        prop_assert_eq!(quarantined, vec![0], "the flush must not heal the rot");
        prop_assert_eq!(
            restored.map(|c| c.progress().to_bits()),
            Some(durable_progress.to_bits())
        );
    }
}

/// A record's bytes, tagged with the node buffering it when it is a
/// spill.
type Record = (Option<usize>, Vec<u8>);

/// The checkpoint store's reference model: per job, one newest-first list
/// of byte records, whose first entry may be a spill.
#[derive(Debug, Default)]
struct StoreModel {
    offline_until: Option<SimTime>,
    jobs: BTreeMap<u64, Vec<Record>>,
}

/// 1 when `records` starts with a spill, else 0.
fn spilled(records: &[Record]) -> usize {
    usize::from(records.first().is_some_and(|r| r.0.is_some()))
}

/// A record's bytes, if they decode and verify.
fn verified(bytes: &[u8]) -> Option<JobCheckpoint> {
    JobCheckpoint::decode(std::str::from_utf8(bytes).ok()?).ok()
}

impl StoreModel {
    fn reachable(&self, now: SimTime) -> Result<(), CheckpointError> {
        match self.offline_until {
            Some(until) if now < until => Err(CheckpointError::ExportOffline { until }),
            _ => Ok(()),
        }
    }

    fn save_at(&mut self, now: SimTime, ckpt: JobCheckpoint) -> Result<(), CheckpointError> {
        self.reachable(now)?;
        let records = self.jobs.entry(ckpt.job_id).or_default();
        let newest = spilled(records);
        records.insert(newest, (None, ckpt.encode().into_bytes()));
        records.truncate(newest + GENERATION_DEPTH);
        Ok(())
    }

    fn spill_write(&mut self, ckpt: JobCheckpoint, holder: usize) {
        let records = self.jobs.entry(ckpt.job_id).or_default();
        if spilled(records) == 1 {
            records.remove(0);
        }
        records.insert(0, (Some(holder), ckpt.encode().into_bytes()));
    }

    fn corrupt_chain(&mut self, job: u64, generation: usize, salt: u64) -> bool {
        let Some(records) = self.jobs.get_mut(&job) else {
            return false;
        };
        let Some(oldest) = records.len().checked_sub(1) else {
            return false;
        };
        let bytes = &mut records[generation.min(oldest)].1;
        if bytes.is_empty() {
            return false;
        }
        let byte = (salt / 8) as usize % bytes.len();
        bytes[byte] ^= 1 << (salt % 8);
        true
    }

    fn flush_spill(&mut self, now: SimTime) -> Result<usize, CheckpointError> {
        self.reachable(now)?;
        let mut flushed = 0;
        for records in self.jobs.values_mut() {
            if spilled(records) == 1 {
                records[0].0 = None;
                records.truncate(GENERATION_DEPTH);
                flushed += 1;
            }
        }
        Ok(flushed)
    }

    fn drop_spill(&mut self, job: u64) -> bool {
        match self.jobs.get_mut(&job) {
            Some(records) if spilled(records) == 1 => {
                records.remove(0);
                true
            }
            _ => false,
        }
    }

    fn restore_verified(
        &mut self,
        job: u64,
        include_spill: bool,
    ) -> (Option<JobCheckpoint>, Vec<usize>) {
        let mut quarantined = Vec::new();
        let Some(records) = self.jobs.get_mut(&job) else {
            return (None, quarantined);
        };
        let walk = if include_spill { 0 } else { spilled(records) };
        while walk < records.len() {
            match verified(&records[walk].1) {
                Some(ckpt) => return (Some(ckpt), quarantined),
                None => {
                    quarantined.push(quarantined.len());
                    records.remove(walk);
                }
            }
        }
        (None, quarantined)
    }

    fn load(&self, job: u64, include_spill: bool) -> Option<JobCheckpoint> {
        let records = self.jobs.get(&job)?;
        let skip = if include_spill { 0 } else { spilled(records) };
        records.iter().skip(skip).find_map(|r| verified(&r.1))
    }

    fn spill_holder(&self, job: u64) -> Option<usize> {
        self.jobs.get(&job)?.first()?.0
    }
}

/// Asserts every read of `store` agrees with `model`.
fn same_view(store: &CheckpointStore, model: &StoreModel) -> Result<(), TestCaseError> {
    for job in 0..3 {
        prop_assert_eq!(store.load(job), model.load(job, true), "load {}", job);
        prop_assert_eq!(
            store.load_durable(job),
            model.load(job, false),
            "durable {}",
            job
        );
        prop_assert_eq!(store.spill_holder(job), model.spill_holder(job));
        let durable = model.jobs.get(&job).map_or(0, |r| r.len() - spilled(r));
        prop_assert_eq!(store.generations_retained(job), durable);
    }
    for node in 0..8 {
        let holds = (0..3).any(|job| model.spill_holder(job) == Some(node));
        prop_assert_eq!(store.holds_spill(node), holds, "node {}", node);
    }
    let spills = model.jobs.values().map(|r| spilled(r)).sum::<usize>();
    prop_assert_eq!(store.spilled_jobs(), spills);
    let held = model.jobs.values().filter(|r| !r.is_empty()).count();
    prop_assert_eq!(store.len(), held);
    prop_assert_eq!(store.export_offline_until(), model.offline_until);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleavings of saves, spills, rot, flushes, dropped
    /// spills, verified restores and removals leave the store exactly
    /// where a plain per-job list of byte records would be: every restore
    /// returns the same checkpoint and quarantines the same indices.
    #[test]
    fn store_matches_a_per_job_record_list(
        ops in prop::collection::vec((0u8..9, 0u64..3, 0u64..u64::MAX), 1..80),
    ) {
        let mut store = CheckpointStore::new();
        let mut model = StoreModel::default();
        for (step, (op, job, r)) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(10 * step as u64);
            let record = JobCheckpoint::new(
                job,
                (r % 1001) as f64 / 1000.0,
                CheckpointPosition::HplPanel((r % 97) as usize),
                now,
            );
            match op {
                0 => prop_assert_eq!(store.save_at(now, record), model.save_at(now, record)),
                1 => {
                    let holder = (r % 8) as usize;
                    store.spill_write(record, holder);
                    model.spill_write(record, holder);
                }
                2 => {
                    let (generation, salt) = ((r % 6) as usize, r >> 8);
                    prop_assert_eq!(
                        store.corrupt_chain(job, generation, salt),
                        model.corrupt_chain(job, generation, salt)
                    );
                }
                3 => prop_assert_eq!(store.flush_spill(now), model.flush_spill(now)),
                4 => prop_assert_eq!(store.drop_spill(job), model.drop_spill(job)),
                5 => {
                    let include_spill = r % 2 == 0;
                    prop_assert_eq!(
                        store.restore_verified(job, include_spill),
                        model.restore_verified(job, include_spill)
                    );
                }
                6 => {
                    store.remove(job);
                    model.jobs.remove(&job);
                }
                7 => {
                    let until = now + SimDuration::from_secs(r % 100);
                    store.set_export_offline(until);
                    model.offline_until = Some(model.offline_until.map_or(until, |t| t.max(until)));
                }
                _ => {
                    store.clear_export_offline();
                    model.offline_until = None;
                }
            }
            same_view(&store, &model)?;
        }
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

/// Two telemetry corruption windows on different nodes overlap inside
/// one monitored replay span. Both clocks land each sample as it is
/// delivered and drain the quarantine at the end of every tick, replayed
/// or stepped; both must raise the same `SdcSuspected` sequence, in
/// arrival order — the two nodes' samples interleaved tick by tick, not
/// grouped by series.
#[test]
fn overlapping_corruption_windows_quarantine_in_arrival_order() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new()
                .with(
                    SimTime::from_secs(300),
                    FaultKind::PayloadCorruption {
                        node: 6,
                        span: SimDuration::from_secs(120),
                    },
                )
                .with(
                    SimTime::from_secs(330),
                    FaultKind::PayloadCorruption {
                        node: 3,
                        span: SimDuration::from_secs(120),
                    },
                ),
        );
        engine.run_for(SimDuration::from_secs(600));
        engine
    };
    let suspected = |engine: &SimEngine| -> Vec<(usize, SimTime, u64)> {
        engine
            .events()
            .iter()
            .filter_map(|e| match *e {
                EngineEvent::SdcSuspected { node, at, value } => Some((node, at, value.to_bits())),
                _ => None,
            })
            .collect()
    };
    let fixed = run(ClockMode::FixedDt);
    let event = run(ClockMode::EventDriven);
    let (fixed_seq, event_seq) = (suspected(&fixed), suspected(&event));
    assert_eq!(
        fixed_seq.len(),
        240,
        "every corrupted sample is quarantined"
    );
    assert_eq!(
        event_seq, fixed_seq,
        "the replay must quarantine in arrival order"
    );
    // Arrival order: by tick, and within a tick by node.
    assert!(
        fixed_seq
            .windows(2)
            .all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
        "samples must interleave tick by tick"
    );
    assert!(
        event.ticks_skipped() > 60,
        "the overlap must be replayed, not stepped ({} ticks skipped)",
        event.ticks_skipped()
    );
    assert_bit_identical(&fixed, &event, "overlapping corruption windows");
}

/// A node trips inside a monitored replay span while a payload
/// corruption window is open: the lid-on tight stack heats idle node 6
/// to its 107 °C trip at t = 1028 s. The replay must log the trip among
/// the span's `SdcSuspected` events exactly where fixed-dt's tick-by-tick
/// ingest puts it, with and without the failure detector: a replay that
/// drained its quarantine only at the span end would log the trip ahead
/// of the whole span's suspicions.
#[test]
fn a_trip_inside_a_corrupted_replay_span_logs_in_step_order() {
    for recovery in [None, Some(RecoveryConfig::detection_only())] {
        let run = |clock: ClockMode| {
            let mut engine = SimEngine::new(EngineConfig {
                airflow: AirflowConfig::LidOnTightStack,
                dt: SimDuration::from_secs(2),
                recovery,
                clock,
                ..EngineConfig::default()
            })
            .with_fault_plan(FaultPlan::new().with(
                SimTime::from_secs(4),
                FaultKind::PayloadCorruption {
                    node: 0,
                    span: SimDuration::from_secs(3000),
                },
            ));
            engine.run_for(SimDuration::from_secs(3600));
            engine
        };
        let label = format!("trip in a corrupted span, recovery {recovery:?}");
        let fixed = run(ClockMode::FixedDt);
        assert!(
            fixed.events().iter().any(|e| matches!(
                e,
                EngineEvent::NodeTripped { node: 6, at, .. } if *at == SimTime::from_secs(1028)
            )),
            "{label}: node 6 must trip mid-window"
        );
        assert!(
            fixed
                .events()
                .iter()
                .filter(|e| matches!(e, EngineEvent::SdcSuspected { .. }))
                .count()
                > 1000,
            "{label}: the window must quarantine every tick's sample"
        );
        let event = run(ClockMode::EventDriven);
        assert!(
            event.ticks_skipped() > 100,
            "{label}: the trip must fall inside a replay span ({} ticks skipped)",
            event.ticks_skipped()
        );
        assert_bit_identical(&fixed, &event, &label);
    }
}
