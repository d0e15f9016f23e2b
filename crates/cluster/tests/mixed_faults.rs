//! Clock-mode identity under mixed span faults (DESIGN.md §13, §16):
//! random plans drawing from every [`FaultKind`], with windows of one
//! kind overlapping on one scope wherever [`FaultPlan::validate`] allows
//! it, run under recovery with checkpoints, monitoring on or off and the
//! power-cap governor on or off. Plus the span-fault overlap rules,
//! pinned.

use proptest::prelude::*;

use cimone_cluster::engine::{
    ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine,
};
use cimone_cluster::faults::{FaultKind, FaultPlan, SdcTarget};
use cimone_cluster::healing::{PowerCapConfig, RecoveryConfig};
use cimone_cluster::thermal::AirflowDegradation;
use cimone_soc::units::{SimDuration, SimTime};
use cimone_soc::workload::Workload;

fn synthetic(nodes: usize, secs: u64) -> JobRequest {
    JobRequest {
        name: "mixed-faults".into(),
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
        fixed.failure_count(),
        event.failure_count(),
        "{label}: failure count diverged"
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
    assert_eq!(
        fixed.wasted_node_seconds().to_bits(),
        event.wasted_node_seconds().to_bits(),
        "{label}: wasted-work accounting diverged"
    );
    assert_eq!(
        (fixed.suspicion_count(), fixed.fence_count()),
        (event.suspicion_count(), event.fence_count()),
        "{label}: suspicion or fence count diverged"
    );
    assert_eq!(
        fixed.sdc_counts(),
        event.sdc_counts(),
        "{label}: SDC outcome counts diverged"
    );
    assert_eq!(
        fixed.rack_peak_power().to_bits(),
        event.rack_peak_power().to_bits(),
        "{label}: rack peak power diverged"
    );
    for blade in 0..4 {
        assert_eq!(
            (
                fixed.blade_power(blade).to_bits(),
                fixed.brownout_peak_power(blade).to_bits()
            ),
            (
                event.blade_power(blade).to_bits(),
                event.brownout_peak_power(blade).to_bits()
            ),
            "{label}: blade {blade} power accounting diverged"
        );
    }
    for i in 0..8 {
        assert_eq!(
            fixed.node_cpufreq(i).current_index(),
            event.node_cpufreq(i).current_index(),
            "{label}: node {i} DVFS state diverged"
        );
    }
}

/// One event of any of the 19 fault kinds. Nodes and blades come from a
/// narrow range so windows of one kind often share a scope.
fn arb_fault() -> impl Strategy<Value = FaultKind> {
    (
        (0u8..19, 0usize..3, 0usize..2, 0.4f64..1.0, 20u64..400),
        (0u32..64, 0usize..3, 1.0f64..4.0, 0.0f64..0.5),
    )
        .prop_map(
            |((kind, node, blade, budget_frac, secs), (bit, generation, factor, rate))| {
                let span = SimDuration::from_secs(secs);
                match kind {
                    0 => FaultKind::NodeCrash { node },
                    1 => FaultKind::NodeRecover { node },
                    2 => FaultKind::SensorDropout { node, span },
                    3 => FaultKind::SensorStuck { node, span },
                    4 => FaultKind::BrokerMessageLoss { rate, span },
                    5 => FaultKind::SubscriberDisconnect { span },
                    6 => FaultKind::LinkDegrade { factor, span },
                    7 => FaultKind::Partition {
                        a: node,
                        b: node + 1 + blade,
                        span,
                    },
                    8 => FaultKind::NfsStall { span },
                    9 => FaultKind::SpuriousThermalTrip { node },
                    10 => FaultKind::PsuFailure { blade },
                    11 => FaultKind::RailBrownout {
                        blade,
                        budget_frac,
                        span,
                    },
                    12 => FaultKind::SwitchOutage { span },
                    13 => FaultKind::NfsExportDown { span },
                    14 => FaultKind::MultiRailBrownout { budget_frac, span },
                    15 => FaultKind::FanFailure { blade, span },
                    16 => FaultKind::BitFlip {
                        node,
                        target: if bit % 2 == 0 {
                            SdcTarget::TrailingMatrix
                        } else {
                            SdcTarget::FactoredPanel
                        },
                        word: secs as usize * 4099,
                        bit,
                    },
                    17 => FaultKind::CheckpointCorruption { node, generation },
                    _ => FaultKind::PayloadCorruption { node, span },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed plans: the event clock matches fixed-dt stepping in
    /// every output, and every fixed tick is either stepped or skipped.
    #[test]
    fn mixed_span_fault_plans_are_bit_identical_across_clock_modes(
        events in prop::collection::vec(((0u64..900), arb_fault()), 1..10),
        monitoring in any::<bool>(),
        capped in any::<bool>(),
        dt_secs in prop::sample::select(vec![1u64, 2]),
        seed in prop::sample::select(vec![7u64, 2022]),
    ) {
        // Keep each event only if the plan stays valid with it, so every
        // overlap `validate` accepts can occur.
        let mut plan = FaultPlan::new();
        for (at, kind) in events {
            let candidate = plan.clone().with(SimTime::from_secs(at), kind);
            if candidate.validate(8, 4).is_ok() {
                plan = candidate;
            }
        }
        let run = |clock: ClockMode| {
            let mut engine = SimEngine::new(EngineConfig {
                dt: SimDuration::from_secs(dt_secs),
                seed,
                monitoring,
                recovery: Some(RecoveryConfig::with_checkpoints(SimDuration::from_secs(60))),
                power_cap: capped.then(PowerCapConfig::rv007_default),
                clock,
                ..EngineConfig::default()
            })
            .with_fault_plan(plan.clone());
            engine.submit(synthetic(4, 300)).unwrap();
            engine.submit(synthetic(2, 200)).unwrap();
            engine.run_for(SimDuration::from_secs(1500));
            engine
        };
        let fixed = run(ClockMode::FixedDt);
        let event = run(ClockMode::EventDriven);
        assert_bit_identical(&fixed, &event, "mixed span faults");
        prop_assert_eq!(fixed.ticks_skipped(), 0);
        prop_assert_eq!(
            fixed.ticks_stepped(),
            event.ticks_stepped() + event.ticks_skipped()
        );
    }
}

/// The span-fault overlap rules. A later window of the same kind and
/// scope replaces the open one, even when that shortens it; a fan failure
/// keeps the later end; windows on other scopes are untouched; a link
/// degradation or partition has one machine-wide slot; and crash-only
/// brownouts power their boards back up in blade order.
#[test]
fn later_windows_replace_open_ones_and_close_in_blade_order() {
    let secs = SimDuration::from_secs;
    let at = SimTime::from_secs;
    let mut engine = SimEngine::new(EngineConfig {
        dt: secs(1),
        power_cap: None,
        ..EngineConfig::default()
    })
    .with_fault_plan(
        FaultPlan::new()
            .with(
                at(10),
                FaultKind::SensorDropout {
                    node: 0,
                    span: secs(100),
                },
            )
            .with(
                at(10),
                FaultKind::SensorDropout {
                    node: 1,
                    span: secs(100),
                },
            )
            .with(
                at(20),
                FaultKind::SensorDropout {
                    node: 0,
                    span: secs(5),
                },
            )
            .with(
                at(10),
                FaultKind::FanFailure {
                    blade: 1,
                    span: secs(100),
                },
            )
            .with(
                at(20),
                FaultKind::FanFailure {
                    blade: 1,
                    span: secs(5),
                },
            )
            .with(
                at(10),
                FaultKind::MultiRailBrownout {
                    budget_frac: 0.5,
                    span: secs(50),
                },
            ),
    );
    engine.run_for(secs(50));
    let power = |node: usize| {
        format!(
            "org/unibo/cluster/cimone/node/mc-node-0{node}/plugin/pwr_pub/chnl/data/total_power"
        )
    };
    let samples = |engine: &SimEngine, node: usize, from: u64, to: u64| {
        engine
            .store()
            .query(&power(node + 1), at(from), at(to))
            .len()
    };
    assert_eq!(samples(&engine, 0, 10, 25), 0, "node 0 dropped out");
    assert_eq!(
        samples(&engine, 0, 25, 50),
        25,
        "the shorter window replaced it"
    );
    assert_eq!(
        samples(&engine, 1, 10, 50),
        0,
        "node 1 keeps its own window"
    );
    assert_eq!(
        engine.thermal().airflow_degradation(2),
        AirflowDegradation::Direct,
        "the fan failure keeps its later end"
    );
    engine.run_for(secs(70));
    assert_eq!(samples(&engine, 1, 110, 120), 10, "node 1's window closed");
    assert_eq!(
        engine.thermal().airflow_degradation(2),
        AirflowDegradation::None
    );
    let recovered: Vec<(usize, SimTime)> = engine
        .events()
        .iter()
        .filter_map(|e| match e {
            EngineEvent::NodeRecovered { node, at } => Some((*node, *at)),
            _ => None,
        })
        .collect();
    assert_eq!(
        recovered,
        (0..8).map(|node| (node, at(60))).collect::<Vec<_>>(),
        "the rails recover in blade order"
    );

    // Partitions share one slot: a later cut elsewhere heals the first,
    // so the job spanning nodes 0 and 1 stalls only until it lands.
    let elapsed = |plan: FaultPlan| {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(plan);
        let id = engine.submit(synthetic(2, 20)).unwrap();
        assert!(engine.run_until_idle(secs(60)));
        engine.scheduler().job(id).unwrap().elapsed().unwrap()
    };
    let cut = |a, b, from, span| {
        (
            at(from),
            FaultKind::Partition {
                a,
                b,
                span: secs(span),
            },
        )
    };
    let (first, later) = (cut(0, 1, 5, 100), cut(2, 3, 10, 5));
    assert_eq!(
        elapsed(
            FaultPlan::new()
                .with(first.0, first.1)
                .with(later.0, later.1)
        ),
        elapsed(FaultPlan::new()) + secs(5),
        "stalled from 5 s until the later cut replaced it at 10 s"
    );
}

/// A capped blade's ramp-back ends one step before a fast-forward inside
/// which a crashed node's phi crosses the threshold. The crossing must be
/// searched with the heartbeat cadence scale of the node's new operating
/// point, as the next full step's heartbeat phase would set it, or the
/// event clock fences late.
#[test]
fn phi_crossing_after_a_cap_release_fences_at_the_fixed_tick() {
    let plan = FaultPlan::new()
        .with(
            SimTime::from_secs(20),
            FaultKind::RailBrownout {
                blade: 0,
                budget_frac: 0.58,
                span: SimDuration::from_secs(200),
            },
        )
        .with(SimTime::from_secs(241), FaultKind::NodeCrash { node: 0 });
    for monitoring in [false, true] {
        let run = |clock: ClockMode| {
            let mut engine = SimEngine::new(EngineConfig {
                monitoring,
                dt: SimDuration::from_secs(1),
                recovery: Some(RecoveryConfig::detection_only()),
                clock,
                ..EngineConfig::default()
            })
            .with_fault_plan(plan.clone());
            engine.submit(synthetic(8, 60)).unwrap();
            engine.run_for(SimDuration::from_secs(600));
            engine
        };
        let fixed = run(ClockMode::FixedDt);
        assert_eq!(fixed.fence_count(), 1, "the crash must be detected");
        assert_bit_identical(&fixed, &run(ClockMode::EventDriven), "cap release");
    }
}
