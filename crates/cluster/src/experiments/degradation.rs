//! Extension: blade-level fault domains — power-emergency graceful
//! degradation, blade-aware placement, and coupled-airflow fan loss.
//!
//! The paper's §III machine stacks two nodes per RV007 blade behind one
//! PSU, one power rail and one fan, so the blade is the machine's fault
//! domain. This experiment measures the three consequences the engine
//! models:
//!
//! * **Brownout** — a single rail drops to a fraction of its rated
//!   budget. With the [`crate::healing::PowerCapGovernor`] the blade
//!   degrades gracefully via DVFS opp capping and keeps serving jobs;
//!   without it (crash-only, the pre-governor machine) both boards drop
//!   and their jobs requeue. The sweep reports jobs served, jobs lost,
//!   energy and the peak blade power against the reduced budget.
//! * **Placement** — the Fig. 2 intermediate point the blade topology
//!   creates: a 2-node HPL run packed on one blade versus split across
//!   two, from the calibrated cross-blade communication penalty.
//! * **Fan loss** — the Fig. 6 runaway revisited with coupled airflow: a
//!   dead fan starves its own blade *and* warms the blade in its exhaust
//!   shadow, so the mid-fault temperatures order healthy < shadow <
//!   direct.

use cimone_soc::units::{SimDuration, SimTime};

use crate::blade::RAIL_RATED_WATTS;
use crate::engine::{ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine};
use crate::faults::{FaultKind, FaultPlan};
use crate::healing::RecoveryConfig;
use crate::perf::{HplModel, HplProblem};
use crate::report::{Campaign, Cell, Gate, Note, Report, Table};

use cimone_sched::job::JobState;

/// The blade the brownout and fan faults target.
const FAULT_BLADE: usize = 1;
/// The blade whose fan dies in the airflow scenario (its shadow falls on
/// the next blade up the stack).
const FAN_BLADE: usize = 1;

/// Outcome of one brownout campaign (capping on or off).
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutPoint {
    /// Whether the power-cap governor was configured.
    pub capping: bool,
    /// Fraction of the rated rail budget left during the brownout.
    pub budget_frac: f64,
    /// The absolute budget, watts.
    pub budget_watts: f64,
    /// Jobs submitted.
    pub jobs_submitted: usize,
    /// Jobs that ran to completion inside the horizon.
    pub jobs_completed: usize,
    /// Jobs abandoned after exhausting their retry budget.
    pub jobs_lost: usize,
    /// Requeue events (evictions) across the campaign.
    pub requeues: usize,
    /// Blade-capped (graceful DVFS degradation) events.
    pub cap_events: usize,
    /// Power emergencies (budget infeasible even at the lowest opp).
    pub emergencies: usize,
    /// Peak blade power at any tick while the budget was active, watts.
    pub peak_blade_watts: f64,
    /// Total energy of the completed jobs, joules.
    pub energy_joules: f64,
    /// Node-hours of completed work thrown away by evictions.
    pub wasted_node_hours: f64,
    /// Campaign makespan, seconds.
    pub makespan_secs: f64,
}

/// The Fig. 2 intermediate point: 2-node HPL packed versus split.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPoint {
    /// 2-node HPL on one blade (intra-blade), GFLOP/s.
    pub intra_blade_gflops: f64,
    /// 2-node HPL split across two blades, GFLOP/s.
    pub cross_blade_gflops: f64,
    /// Throughput lost to the cross-blade split, percent.
    pub penalty_pct: f64,
}

/// The coupled-airflow fan-loss scenario, sampled mid-fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FanLossPoint {
    /// Hottest node on the blade whose fan died, °C.
    pub direct_peak_c: f64,
    /// Hottest node on the blade in the exhaust shadow, °C.
    pub shadow_peak_c: f64,
    /// Hottest node on the unaffected blades, °C.
    pub healthy_peak_c: f64,
    /// Thermal trips latched over the whole run.
    pub trips: usize,
}

/// The full degraded-mode measurement set.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationResult {
    /// The HPL configuration each job runs.
    pub problem: HplProblem,
    /// Jobs per brownout campaign.
    pub jobs: usize,
    /// Base seed.
    pub seed: u64,
    /// Brownout campaigns: capping on first, crash-only second.
    pub brownout: Vec<BrownoutPoint>,
    /// The intra- vs cross-blade placement point.
    pub placement: PlacementPoint,
    /// The fan-loss airflow-coupling point.
    pub fan_loss: FanLossPoint,
}

/// Runs the degraded-mode set: a brownout campaign with the power-cap
/// governor on and off, the intra-/cross-blade HPL placement point, and
/// the coupled-airflow fan-loss scenario. Fully deterministic for fixed
/// arguments, and byte-identical across [`ClockMode`]s.
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
) -> DegradationResult {
    assert!(jobs > 0, "need at least one job");
    assert!(
        budget_frac > 0.0 && budget_frac <= 1.0,
        "budget_frac must be in (0, 1]"
    );
    let brownout = vec![
        brownout_campaign(problem, jobs, budget_frac, seed, clock, true),
        brownout_campaign(problem, jobs, budget_frac, seed, clock, false),
    ];
    DegradationResult {
        problem,
        jobs,
        seed,
        brownout,
        placement: placement_point(problem),
        fan_loss: fan_loss_point(seed, clock),
    }
}

/// One campaign of 2-node HPL jobs through a single-rail brownout.
fn brownout_campaign(
    problem: HplProblem,
    jobs: usize,
    budget_frac: f64,
    seed: u64,
    clock: ClockMode,
    capping: bool,
) -> BrownoutPoint {
    let model = HplModel::monte_cimone(problem);
    let fault_free = model.run_time(2) * jobs as f64;
    let span = SimDuration::from_secs_f64((fault_free * 0.5).max(600.0));
    let horizon = SimDuration::from_secs_f64(fault_free * 4.0 + 3600.0);
    // The full recovery stack runs underneath: capped nodes heartbeat
    // slower but must not be fenced (the detector is cap-aware), while
    // crash-only brownouts go through real detection and requeue.
    let config = EngineConfig {
        dt: SimDuration::from_secs(2),
        seed,
        monitoring: false,
        recovery: Some(RecoveryConfig::with_checkpoints(SimDuration::from_secs(
            600,
        ))),
        clock,
        power_cap: capping,
        ..EngineConfig::default()
    };
    let mut engine = SimEngine::new(config).with_fault_plan(FaultPlan::new().with(
        SimTime::from_secs(120),
        FaultKind::RailBrownout {
            blade: FAULT_BLADE,
            budget_frac,
            span,
        },
    ));
    for _ in 0..jobs {
        engine
            .submit(JobRequest {
                name: "hpl-degraded".into(),
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
    BrownoutPoint {
        capping,
        budget_frac,
        budget_watts: budget_frac * RAIL_RATED_WATTS,
        jobs_submitted: jobs,
        jobs_completed: completed,
        jobs_lost: count(|e| matches!(e, EngineEvent::JobLost { .. })),
        requeues: count(|e| matches!(e, EngineEvent::JobRequeued { .. })),
        cap_events: count(|e| matches!(e, EngineEvent::BladeCapped { .. })),
        emergencies: count(|e| matches!(e, EngineEvent::PowerEmergency { .. })),
        peak_blade_watts: engine.brownout_peak_power(FAULT_BLADE),
        energy_joules,
        wasted_node_hours: engine.wasted_node_seconds() / 3600.0,
        makespan_secs: engine.now().as_secs_f64(),
    }
}

/// The Fig. 2 intermediate point from the calibrated model directly.
fn placement_point(problem: HplProblem) -> PlacementPoint {
    let model = HplModel::monte_cimone(problem);
    let intra = model.gflops_spanning(2, 1);
    let cross = model.gflops_spanning(2, 2);
    PlacementPoint {
        intra_blade_gflops: intra,
        cross_blade_gflops: cross,
        penalty_pct: (1.0 - cross / intra) * 100.0,
    }
}

/// Runs the whole machine under HPL-class load, kills one fan mid-run,
/// and samples the enclosure at the hottest point of the fault window.
fn fan_loss_point(seed: u64, clock: ClockMode) -> FanLossPoint {
    let span = SimDuration::from_secs(1800);
    let mut engine = SimEngine::new(EngineConfig {
        dt: SimDuration::from_secs(2),
        seed,
        monitoring: false,
        clock,
        ..EngineConfig::default()
    })
    .with_fault_plan(FaultPlan::new().with(
        SimTime::from_secs(60),
        FaultKind::FanFailure {
            blade: FAN_BLADE,
            span,
        },
    ));
    engine
        .submit(JobRequest {
            name: "hpl-fanloss".into(),
            user: "bench".into(),
            nodes: 8,
            workload: ClusterWorkload::Synthetic {
                workload: cimone_soc::workload::Workload::Hpl,
                secs: 2400,
            },
        })
        .expect("full-machine job fits");
    // Sample just before the fan recovers: the coupled enclosure has had
    // the whole span to heat up.
    engine.run_for(SimDuration::from_secs(60) + span - SimDuration::from_secs(2));
    let layout = engine.layout().clone();
    let peak_of = |blade: usize| -> f64 {
        layout.blades()[blade]
            .node_indices
            .iter()
            .map(|&i| engine.thermal().temperature(i).as_f64())
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let shadow = layout
        .airflow_shadow_of(FAN_BLADE)
        .expect("the faulted blade has a neighbour above");
    let healthy_peak_c = (0..layout.blades().len())
        .filter(|&b| b != FAN_BLADE && b != shadow)
        .map(peak_of)
        .fold(f64::NEG_INFINITY, f64::max);
    let point = FanLossPoint {
        direct_peak_c: peak_of(FAN_BLADE),
        shadow_peak_c: peak_of(shadow),
        healthy_peak_c,
        trips: 0,
    };
    engine.run_for(SimDuration::from_secs(1800));
    FanLossPoint {
        trips: engine
            .events()
            .iter()
            .filter(|e| matches!(e, EngineEvent::NodeTripped { .. }))
            .count(),
        ..point
    }
}

impl Campaign for DegradationResult {
    fn report(&self) -> Report {
        let rows = self
            .brownout
            .iter()
            .map(|p| {
                let mode = if p.capping { "cap" } else { "crash" };
                let done = format!("{}/{}", p.jobs_completed, p.jobs_submitted);
                let kilojoules = format!("{:.1}", p.energy_joules / 1e3);
                let wasted = p.wasted_node_hours;
                vec![
                    Cell::new("Mode", "capping", p.capping, mode),
                    Cell::json("budget_frac", p.budget_frac),
                    Cell::new("Done", "jobs_completed", p.jobs_completed, done),
                    Cell::json("jobs_submitted", p.jobs_submitted),
                    Cell::count("Lost", "jobs_lost", p.jobs_lost),
                    Cell::count("Requeues", "requeues", p.requeues),
                    Cell::count("Caps", "cap_events", p.cap_events),
                    Cell::count("Emerg.", "emergencies", p.emergencies),
                    Cell::fixed("Peak [W]", "peak_blade_watts", p.peak_blade_watts, 2),
                    Cell::fixed("Budget [W]", "budget_watts", p.budget_watts, 2),
                    Cell::new("Energy [kJ]", "energy_joules", p.energy_joules, kilojoules),
                    Cell::fixed("Wasted [node-h]", "wasted_node_hours", wasted, 2),
                    Cell::fixed("Makespan [s]", "makespan_s", p.makespan_secs, 0),
                ]
            })
            .collect();
        let (placement, fan) = (&self.placement, &self.fan_loss);
        let cap = &self.brownout[0];
        let (peak, budget) = (cap.peak_blade_watts, cap.budget_watts);
        let within_budget = peak <= budget;
        let over_budget = (!within_budget)
            .then(|| format!("capped blade peaked at {peak} W over the {budget} W budget"));
        Report {
            config: vec![
                Cell::json("jobs", self.jobs),
                Cell::json("seed", self.seed),
                Cell::json("budget_frac", cap.budget_frac),
            ],
            tables: vec![Table {
                key: "brownout",
                caption: format!(
                    "Degraded-mode sweep: single-rail brownout at {:.0}% budget (HPL N={}, {} x 2-node jobs)",
                    cap.budget_frac * 100.0,
                    self.problem.n,
                    self.jobs
                ),
                rows,
            }],
            notes: vec![
                Note {
                    key: "placement",
                    text: format!(
                        "Placement (Fig. 2 intermediate): 2-node HPL intra-blade {:.2} GFLOP/s, \
                         cross-blade {:.2} GFLOP/s ({:.1}% penalty)",
                        placement.intra_blade_gflops,
                        placement.cross_blade_gflops,
                        placement.penalty_pct
                    ),
                    cells: vec![
                        Cell::json("intra_blade_gflops", placement.intra_blade_gflops),
                        Cell::json("cross_blade_gflops", placement.cross_blade_gflops),
                        Cell::json("penalty_pct", placement.penalty_pct),
                    ],
                },
                Note {
                    key: "fan_loss",
                    text: format!(
                        "Fan loss (Fig. 6 with coupled airflow): mid-fault peaks direct {:.1} C, \
                         shadow {:.1} C, healthy {:.1} C; {} thermal trips",
                        fan.direct_peak_c, fan.shadow_peak_c, fan.healthy_peak_c, fan.trips
                    ),
                    cells: vec![
                        Cell::json("direct_peak_c", fan.direct_peak_c),
                        Cell::json("shadow_peak_c", fan.shadow_peak_c),
                        Cell::json("healthy_peak_c", fan.healthy_peak_c),
                        Cell::json("trips", fan.trips),
                    ],
                },
            ],
            gates: vec![Gate::new("within_budget", over_budget)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DegradationResult {
        // One cached sweep: several tests inspect the same run.
        static RESULT: std::sync::OnceLock<DegradationResult> = std::sync::OnceLock::new();
        RESULT
            .get_or_init(|| run(HplProblem::paper(), 2, 0.75, 2022, ClockMode::EventDriven))
            .clone()
    }

    #[test]
    fn capping_serves_every_job_within_the_reduced_budget() {
        let result = quick();
        let cap = &result.brownout[0];
        assert!(cap.capping);
        assert_eq!(cap.jobs_completed, cap.jobs_submitted, "all jobs served");
        assert_eq!(cap.jobs_lost, 0, "graceful degradation loses nothing");
        assert_eq!(cap.requeues, 0, "running jobs are slowed, not evicted");
        assert!(cap.cap_events > 0, "the governor must actually cap");
        assert_eq!(cap.emergencies, 0, "75% of the rail is feasible");
        assert!(
            cap.peak_blade_watts > 0.0 && cap.peak_blade_watts <= cap.budget_watts,
            "peak {} W must stay within the {} W budget",
            cap.peak_blade_watts,
            cap.budget_watts
        );
    }

    #[test]
    fn crash_only_brownout_evicts_where_capping_does_not() {
        let result = quick();
        let cap = &result.brownout[0];
        let crash = &result.brownout[1];
        assert!(!crash.capping);
        assert!(
            crash.requeues > 0,
            "without the governor the brownout crashes the blade"
        );
        assert_eq!(cap.wasted_node_hours, 0.0, "capping evicts nothing");
        assert!(
            crash.wasted_node_hours > 0.0,
            "the crashed blade's in-flight work is thrown away"
        );
    }

    #[test]
    fn fan_loss_couples_through_the_airflow_shadow() {
        let f = quick().fan_loss;
        assert!(
            f.direct_peak_c > f.shadow_peak_c + 1.0,
            "direct {} C vs shadow {} C",
            f.direct_peak_c,
            f.shadow_peak_c
        );
        assert!(
            f.shadow_peak_c > f.healthy_peak_c + 1.0,
            "shadow {} C vs healthy {} C",
            f.shadow_peak_c,
            f.healthy_peak_c
        );
    }

    #[test]
    fn placement_penalty_is_small_but_real() {
        let p = quick().placement;
        assert!(p.intra_blade_gflops > p.cross_blade_gflops);
        assert!(p.penalty_pct > 0.0 && p.penalty_pct < 10.0);
    }
}
