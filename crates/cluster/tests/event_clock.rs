//! The event-driven clock's bit-identity contract (DESIGN.md §13): an
//! [`ClockMode::EventDriven`] run must be byte-equal to the fixed-dt run
//! at the same `dt` — telemetry store, event log, accounting, final
//! clock, thermal state — with and without faults, recovery and
//! checkpointing.

use proptest::prelude::*;

use cimone_cluster::engine::{
    ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine,
};
use cimone_cluster::faults::{FaultKind, FaultPlan};
use cimone_cluster::healing::RecoveryConfig;
use cimone_cluster::thermal::AirflowConfig;
use cimone_soc::units::{SimDuration, SimTime};
use cimone_soc::workload::Workload;

fn synthetic(nodes: usize, secs: u64) -> JobRequest {
    JobRequest {
        name: "event-clock".into(),
        user: "ci".into(),
        nodes,
        workload: ClusterWorkload::Synthetic {
            workload: Workload::Hpl,
            secs,
        },
    }
}

/// Asserts every observable output of the two engines is identical.
fn assert_bit_identical(fixed: &SimEngine, event: &SimEngine, label: &str) {
    assert_eq!(fixed.now(), event.now(), "{label}: final clock diverged");
    assert_eq!(
        fixed.events(),
        event.events(),
        "{label}: event log diverged"
    );
    assert!(
        fixed.store() == event.store(),
        "{label}: telemetry stores diverged ({} vs {} points)",
        fixed.store().point_count(),
        event.store().point_count(),
    );
    assert_eq!(
        fixed.accounting(),
        event.accounting(),
        "{label}: accounting diverged"
    );
    assert!(
        fixed.thermal() == event.thermal(),
        "{label}: thermal state diverged"
    );
    assert_eq!(
        fixed.total_downtime(),
        event.total_downtime(),
        "{label}: downtime diverged"
    );
    assert_eq!(
        fixed.checkpoints_written(),
        event.checkpoints_written(),
        "{label}: checkpoint count diverged"
    );
    assert_eq!(
        fixed.checkpoint_store(),
        event.checkpoint_store(),
        "{label}: checkpoint store diverged"
    );
    for i in 0..8 {
        assert_eq!(
            fixed.node_cpufreq(i).current_index(),
            event.node_cpufreq(i).current_index(),
            "{label}: node {i} DVFS state diverged"
        );
    }
}

/// A sparse availability-style run: one short job, a crash/recover pair,
/// then hours of idle. The event clock must skip the idle span without
/// changing a single observable byte.
#[test]
fn sparse_idle_sweep_is_bit_identical_and_actually_skips() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(2),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new()
                .with(SimTime::from_secs(1800), FaultKind::NodeCrash { node: 3 })
                .with(SimTime::from_secs(2400), FaultKind::NodeRecover { node: 3 }),
        );
        engine.submit(synthetic(8, 60)).unwrap();
        engine.run_for(SimDuration::from_secs(4 * 3600));
        engine
    };
    let fixed = run(ClockMode::FixedDt);
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&fixed, &event, "sparse sweep");
    assert_eq!(fixed.ticks_skipped(), 0);
    assert!(
        event.ticks_skipped() > 1000,
        "the idle span must fast-forward, skipped only {}",
        event.ticks_skipped()
    );
    assert!(
        event.ticks_stepped() < fixed.ticks_stepped() / 10,
        "event mode stepped {} of fixed's {}",
        event.ticks_stepped(),
        fixed.ticks_stepped()
    );
}

/// With monitoring on every tick publishes telemetry; the sampled-span
/// replay (DESIGN.md §16) must nonetheless skip the observation-only
/// tail after the job drains — while matching fixed-dt bitwise.
#[test]
fn dense_monitored_run_replays_samples_and_matches() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            clock,
            ..EngineConfig::default()
        });
        engine.submit(synthetic(4, 30)).unwrap();
        engine.run_for(SimDuration::from_secs(120));
        engine
    };
    let fixed = run(ClockMode::FixedDt);
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&fixed, &event, "dense run");
    assert!(
        event.ticks_skipped() > 0,
        "the monitored tail must replay, not step"
    );
    assert!(
        event.ticks_stepped() < fixed.ticks_stepped(),
        "event mode stepped {} of fixed's {}",
        event.ticks_stepped(),
        fixed.ticks_stepped()
    );
    assert_eq!(
        event.ticks_stepped() + event.ticks_skipped(),
        fixed.ticks_stepped(),
        "every fixed tick is either stepped or replayed"
    );
}

/// `run_until_idle` must exit at the identical tick in both modes, with
/// backoff releases woken exactly.
#[test]
fn run_until_idle_exits_at_the_same_tick() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new()
                .with(SimTime::from_secs(10), FaultKind::NodeCrash { node: 0 })
                .with(SimTime::from_secs(90), FaultKind::NodeRecover { node: 0 }),
        );
        engine.submit(synthetic(8, 40)).unwrap();
        let drained = engine.run_until_idle(SimDuration::from_secs(3600));
        (drained, engine)
    };
    let (drained_fixed, fixed) = run(ClockMode::FixedDt);
    let (drained_event, event) = run(ClockMode::EventDriven);
    assert_eq!(drained_fixed, drained_event);
    assert!(drained_fixed, "the requeued job must finish");
    assert_bit_identical(&fixed, &event, "until-idle");
}

/// The full recovery stack — heartbeats, phi detection, fencing,
/// checkpoint/restart — under a crash, in both clock modes. This is the
/// PR 2 resilience law carried over to the event clock: the checkpoint
/// round-trip must preserve committed progress exactly.
#[test]
fn recovery_with_checkpoints_is_bit_identical() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            recovery: Some(RecoveryConfig::with_checkpoints(SimDuration::from_secs(30))),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new()
                .with(SimTime::from_secs(75), FaultKind::NodeCrash { node: 1 })
                .with(SimTime::from_secs(200), FaultKind::NodeRecover { node: 1 }),
        );
        engine.submit(synthetic(2, 300)).unwrap();
        let drained = engine.run_until_idle(SimDuration::from_secs(4 * 3600));
        (drained, engine)
    };
    let (drained_fixed, fixed) = run(ClockMode::FixedDt);
    let (drained_event, event) = run(ClockMode::EventDriven);
    assert_eq!(drained_fixed, drained_event);
    assert_bit_identical(&fixed, &event, "recovery + checkpoints");
    assert!(
        fixed.checkpoints_written() > 0,
        "the scenario must exercise checkpointing"
    );
    assert!(
        fixed
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::JobResumed { .. })),
        "the crash must force a checkpoint resume"
    );
    assert_eq!(
        fixed.wasted_node_seconds(),
        event.wasted_node_seconds(),
        "wasted-work accounting diverged"
    );
    assert_eq!(fixed.suspicion_count(), event.suspicion_count());
    assert_eq!(fixed.fence_count(), event.fence_count());
}

/// Worst-case airflow plus the DVFS governor: the fast-forward microstep
/// must replicate governor step-downs at the exact tick a threshold is
/// crossed, even while idle (lid-on node 7 idles hot).
#[test]
fn governor_thresholds_fire_at_identical_ticks_under_fast_forward() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            airflow: AirflowConfig::LidOnTightStack,
            monitoring: false,
            dt: SimDuration::from_secs(2),
            governor: Some(cimone_cluster::dpm::ThermalGovernor::fu740_default()),
            clock,
            ..EngineConfig::default()
        });
        engine.submit(synthetic(8, 600)).unwrap();
        engine.run_for(SimDuration::from_secs(3600));
        engine
    };
    let fixed = run(ClockMode::FixedDt);
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&fixed, &event, "governor under fast-forward");
}

/// An event-driven run through a mid-job crash matches the fixed-dt
/// reference.
#[test]
fn crashed_event_run_matches_the_fixed_run() {
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new().with(SimTime::from_secs(40), FaultKind::NodeCrash { node: 2 }),
        );
        engine.submit(synthetic(4, 50)).unwrap();
        engine.run_for(SimDuration::from_secs(1800));
        engine
    };
    let fixed = run(ClockMode::FixedDt);
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&fixed, &event, "event clock through a crash");
}

/// The blade fault domains — a governed brownout, a fan failure with its
/// airflow shadow, and a PSU failure — composed in one plan: byte-equal
/// across clock modes, with the recovery stack (and its cap-aware failure
/// detector) running underneath.
#[test]
fn blade_fault_domains_are_bit_identical_across_clock_modes() {
    let plan = || {
        FaultPlan::new()
            .with(
                SimTime::from_secs(60),
                FaultKind::RailBrownout {
                    blade: 1,
                    budget_frac: 0.7,
                    span: SimDuration::from_secs(400),
                },
            )
            .with(
                SimTime::from_secs(120),
                FaultKind::FanFailure {
                    blade: 2,
                    span: SimDuration::from_secs(300),
                },
            )
            .with(SimTime::from_secs(200), FaultKind::PsuFailure { blade: 3 })
            .with(SimTime::from_secs(700), FaultKind::NodeRecover { node: 6 })
            .with(SimTime::from_secs(700), FaultKind::NodeRecover { node: 7 })
    };
    let run = |clock: ClockMode| {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            recovery: Some(RecoveryConfig::with_checkpoints(SimDuration::from_secs(60))),
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(plan());
        engine.submit(synthetic(4, 180)).unwrap();
        engine.submit(synthetic(2, 120)).unwrap();
        engine.run_for(SimDuration::from_secs(2400));
        engine
    };
    let reference = run(ClockMode::FixedDt);
    assert!(
        reference
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::BladeCapped { blade: 1, .. })),
        "the brownout must engage the governor"
    );
    let event = run(ClockMode::EventDriven);
    assert_bit_identical(&reference, &event, "blade fault domains");
    assert_eq!(
        reference.brownout_peak_power(1),
        event.brownout_peak_power(1),
        "peak-power accounting diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds, random crash plans, random dt: the two clock modes
    /// never diverge in any observable output.
    #[test]
    fn event_and_fixed_clocks_agree_for_any_seed(
        seed in prop::sample::select(vec![7u64, 99, 2022, 31337]),
        fault_seed in 0u64..64,
        dt_secs in prop::sample::select(vec![1u64, 2]),
        recovery in any::<bool>(),
    ) {
        let plan = FaultPlan::random_crashes(
            fault_seed,
            8,
            SimDuration::from_secs(1800),
            4.0,
            SimDuration::from_secs(90),
        );
        let run = |clock: ClockMode| {
            let mut engine = SimEngine::new(EngineConfig {
                monitoring: false,
                dt: SimDuration::from_secs(dt_secs),
                seed,
                recovery: recovery
                    .then(|| RecoveryConfig::with_checkpoints(SimDuration::from_secs(60))),
                clock,
                ..EngineConfig::default()
            })
            .with_fault_plan(plan.clone());
            engine.submit(synthetic(4, 120)).unwrap();
            engine.submit(synthetic(2, 90)).unwrap();
            engine.run_for(SimDuration::from_secs(3600));
            engine
        };
        let fixed = run(ClockMode::FixedDt);
        let event = run(ClockMode::EventDriven);
        prop_assert_eq!(fixed.now(), event.now());
        prop_assert_eq!(fixed.events(), event.events());
        prop_assert!(fixed.store() == event.store());
        prop_assert_eq!(fixed.accounting(), event.accounting());
        prop_assert!(fixed.thermal() == event.thermal());
        prop_assert_eq!(fixed.total_downtime(), event.total_downtime());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The degraded-mode power invariant: while a rail is browned out the
    /// governed blade's power never exceeds `budget_frac ×` the rated rail
    /// budget at any tick — checked tick by tick against the exact
    /// quantity the governor bounds — and the whole brownout run is
    /// bit-identical across clock modes.
    #[test]
    fn capped_blade_power_never_exceeds_the_budget(
        budget_pct in 65u32..=95,
        seed in prop::sample::select(vec![1u64, 7, 2022]),
    ) {
        let budget_frac = f64::from(budget_pct) / 100.0;
        let budget = budget_frac * cimone_cluster::RAIL_RATED_WATTS;
        let plan = || {
            FaultPlan::new().with(
                SimTime::from_secs(60),
                FaultKind::RailBrownout {
                    blade: 0,
                    budget_frac,
                    span: SimDuration::from_secs(600),
                },
            )
        };
        // Tick-by-tick: step a fixed-dt engine manually and sample the
        // governed blade's power at every tick of the brownout window.
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(2),
            seed,
            ..EngineConfig::default()
        })
        .with_fault_plan(plan());
        engine.submit(synthetic(8, 500)).unwrap();
        for _ in 0..400 {
            engine.step();
            let now = engine.now().as_secs_f64();
            if (62.0..=660.0).contains(&now) {
                prop_assert!(
                    engine.blade_power(0) <= budget + 1e-9,
                    "tick {now}: blade 0 at {} W over the {budget} W budget",
                    engine.blade_power(0)
                );
            }
        }
        prop_assert!(engine.brownout_peak_power(0) <= budget + 1e-9);
        prop_assert!(engine.brownout_peak_power(0) > 0.0);

        // Whole-run identity: the clock modes agree.
        let run = |clock: ClockMode| {
            let mut engine = SimEngine::new(EngineConfig {
                monitoring: false,
                dt: SimDuration::from_secs(2),
                seed,
                clock,
                ..EngineConfig::default()
            })
            .with_fault_plan(plan());
            engine.submit(synthetic(8, 500)).unwrap();
            engine.run_for(SimDuration::from_secs(1200));
            engine
        };
        let reference = run(ClockMode::FixedDt);
        let event = run(ClockMode::EventDriven);
        prop_assert_eq!(reference.now(), event.now());
        prop_assert_eq!(reference.events(), event.events());
        prop_assert_eq!(reference.accounting(), event.accounting());
        prop_assert!(reference.thermal() == event.thermal());
        prop_assert_eq!(
            reference.brownout_peak_power(0).to_bits(),
            event.brownout_peak_power(0).to_bits()
        );
    }
}
