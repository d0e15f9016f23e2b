//! Extension: cluster availability under a node-crash fault sweep.
//!
//! The paper reports Monte Cimone's fault-free HPL numbers; a production
//! machine also has to survive hardware faults. This experiment runs the
//! same 8-node HPL campaign under a seeded crash/repair process
//! ([`crate::faults::FaultPlan::random_crashes`]) at increasing fault
//! rates and reports jobs completed / requeued / lost, MTTF, MTTR and
//! machine availability. A rate of zero is the fault-free baseline and
//! reproduces the Fig. 2 full-machine throughput.

use cimone_sched::accounting::JobEventKind;
use cimone_sched::job::JobState;
use cimone_soc::units::SimDuration;

use crate::engine::{ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine};
use crate::faults::FaultPlan;
use crate::perf::{HplModel, HplProblem};
use crate::report::{Campaign, Cell, Report, Stats, Table};

/// Outcome of the campaign at one fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePoint {
    /// Crash rate, per node-hour.
    pub rate_per_node_hour: f64,
    /// Jobs submitted.
    pub jobs_submitted: usize,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Jobs abandoned after exhausting their retry budget.
    pub jobs_lost: usize,
    /// Requeue events across the campaign.
    pub requeues: usize,
    /// Node outages (crashes) observed.
    pub failures: usize,
    /// Campaign makespan, seconds.
    pub makespan_secs: f64,
    /// Accumulated node outage, node-seconds.
    pub downtime_node_secs: f64,
    /// Fraction of node-time the machine was in service.
    pub availability: f64,
    /// Mean time to failure, seconds (`None` without failures).
    pub mttf_secs: Option<f64>,
    /// Mean time to repair, seconds (`None` without failures).
    pub mttr_secs: Option<f64>,
    /// Sustained GFLOP/s of the completed runs (`None` if none finished).
    pub gflops: Option<Stats>,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityResult {
    /// The HPL configuration each job runs.
    pub problem: HplProblem,
    /// Jobs per campaign.
    pub jobs: usize,
    /// Repair time after each crash, seconds.
    pub repair_secs: u64,
    /// Base seed (plan and engine RNGs derive from it).
    pub seed: u64,
    /// One point per fault rate, in the order given.
    pub points: Vec<RatePoint>,
}

const NODES: usize = 8;

/// Runs the sweep: one 8-node HPL campaign of `jobs` back-to-back jobs
/// per entry of `rates` (crashes per node-hour), with `repair` downtime
/// after each crash. Fully deterministic for fixed arguments, and
/// identical across [`ClockMode`]s.
///
/// # Panics
///
/// Panics if `jobs` or `rates` is empty, or a rate is negative.
///
/// # Examples
///
/// ```
/// use cimone_cluster::engine::ClockMode;
/// use cimone_cluster::experiments::availability;
/// use cimone_cluster::perf::HplProblem;
/// use cimone_soc::units::SimDuration;
///
/// let result = availability::run(
///     HplProblem::paper(),
///     1,
///     &[0.0],
///     SimDuration::from_secs(300),
///     2022,
///     ClockMode::EventDriven,
/// );
/// assert_eq!(result.points[0].availability, 1.0);
/// ```
pub fn run(
    problem: HplProblem,
    jobs: usize,
    rates: &[f64],
    repair: SimDuration,
    seed: u64,
    clock: ClockMode,
) -> AvailabilityResult {
    assert!(jobs > 0, "need at least one job");
    assert!(!rates.is_empty(), "need at least one fault rate");

    // Plan horizon: generous against the fault-free makespan so crashes
    // keep arriving even when repairs stretch the campaign.
    let fault_free_secs = HplModel::monte_cimone(problem).run_time(NODES) * jobs as f64;
    let horizon = SimDuration::from_secs_f64(fault_free_secs * 3.0 + 3600.0);

    let mut points = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        let plan = FaultPlan::random_crashes(
            seed.wrapping_add(k as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
            NODES,
            horizon,
            rate,
            repair,
        );
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(2),
            seed,
            monitoring: false,
            clock,
            ..EngineConfig::default()
        })
        .with_fault_plan(plan);
        for _ in 0..jobs {
            engine
                .submit(JobRequest {
                    name: "hpl-avail".into(),
                    user: "bench".into(),
                    nodes: NODES,
                    workload: ClusterWorkload::Hpl(problem),
                })
                .expect("8-node job fits the machine");
        }
        engine.run_until_idle(horizon * 2);
        points.push(measure(&engine, rate, jobs, problem));
    }

    AvailabilityResult {
        problem,
        jobs,
        repair_secs: (repair.as_secs_f64()) as u64,
        seed,
        points,
    }
}

fn measure(engine: &SimEngine, rate: f64, jobs: usize, problem: HplProblem) -> RatePoint {
    let records = engine.accounting().records();
    let completed: Vec<_> = records
        .iter()
        .filter(|r| r.state == JobState::Completed)
        .collect();
    let lost = engine
        .events()
        .iter()
        .filter(|e| matches!(e, EngineEvent::JobLost { .. }))
        .count();
    let requeues = engine
        .accounting()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, JobEventKind::Requeued { .. }))
        .count();
    let failures = engine.failure_count();

    let makespan = engine.now().as_secs_f64();
    let downtime = engine.total_downtime().as_secs_f64();
    let node_time = makespan * NODES as f64;
    let uptime = node_time - downtime;
    let gflops_samples: Vec<f64> = completed
        .iter()
        .map(|r| problem.flops() / 1e9 / r.elapsed.as_secs_f64())
        .collect();

    RatePoint {
        rate_per_node_hour: rate,
        jobs_submitted: jobs,
        jobs_completed: completed.len(),
        jobs_lost: lost,
        requeues,
        failures,
        makespan_secs: makespan,
        downtime_node_secs: downtime,
        availability: if node_time > 0.0 {
            uptime / node_time
        } else {
            1.0
        },
        mttf_secs: (failures > 0).then(|| uptime / failures as f64),
        mttr_secs: (failures > 0).then(|| downtime / failures as f64),
        gflops: (!gflops_samples.is_empty()).then(|| Stats::from_samples(&gflops_samples)),
    }
}

impl Campaign for AvailabilityResult {
    fn report(&self) -> Report {
        let rows = self
            .points
            .iter()
            .map(|p| {
                let rate = p.rate_per_node_hour;
                let done = format!("{}/{}", p.jobs_completed, p.jobs_submitted);
                vec![
                    Cell::fixed("Crash/node-h", "rate_per_node_hour", rate, 2),
                    Cell::new("Done", "jobs_completed", p.jobs_completed, done),
                    Cell::json("jobs_submitted", p.jobs_submitted),
                    Cell::count("Lost", "jobs_lost", p.jobs_lost),
                    Cell::count("Requeues", "requeues", p.requeues),
                    Cell::count("Outages", "failures", p.failures),
                    Cell::fixed("Makespan [s]", "makespan_s", p.makespan_secs, 0),
                    Cell::json("downtime_node_s", p.downtime_node_secs),
                    Cell::percent("Avail.", "availability", p.availability, 2),
                    Cell::fixed("MTTF [s]", "mttf_s", p.mttf_secs, 0),
                    Cell::fixed("MTTR [s]", "mttr_s", p.mttr_secs, 0),
                    Cell::stats("GFLOP/s", "gflops", p.gflops.as_ref()),
                ]
            })
            .collect();
        Report {
            config: vec![
                Cell::json("jobs", self.jobs),
                Cell::json("repair_s", self.repair_secs),
                Cell::json("seed", self.seed),
            ],
            tables: vec![Table {
                key: "points",
                caption: format!(
                    "Availability under node-crash injection (HPL N={}, {} jobs x {} nodes, repair {} s)",
                    self.problem.n, self.jobs, NODES, self.repair_secs
                ),
                rows,
            }],
            notes: Vec::new(),
            gates: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep(seed: u64, clock: ClockMode) -> AvailabilityResult {
        run(
            HplProblem::paper(),
            2,
            &[0.0, 4.0],
            SimDuration::from_secs(300),
            seed,
            clock,
        )
    }

    #[test]
    fn zero_rate_reproduces_the_fault_free_fig2_machine() {
        let result = run(
            HplProblem::paper(),
            1,
            &[0.0],
            SimDuration::from_secs(300),
            2022,
            ClockMode::EventDriven,
        );
        let p = &result.points[0];
        assert_eq!(p.jobs_completed, 1);
        assert_eq!(p.jobs_lost, 0);
        assert_eq!(p.requeues, 0);
        assert_eq!(p.failures, 0);
        assert_eq!(p.availability, 1.0);
        assert!(p.mttf_secs.is_none() && p.mttr_secs.is_none());
        let gflops = p.gflops.as_ref().expect("one completed run").mean;
        assert!(
            (gflops - 12.65).abs() < 0.6,
            "8-node HPL at {gflops} GFLOP/s"
        );
    }

    #[test]
    fn faults_cost_availability_and_stretch_the_campaign() {
        let result = quick_sweep(2022, ClockMode::EventDriven);
        let clean = &result.points[0];
        let faulty = &result.points[1];
        assert!(faulty.failures > 0, "4 crashes/node-hour must fire");
        assert!(faulty.availability < 1.0);
        assert!(faulty.downtime_node_secs > 0.0);
        assert!(faulty.makespan_secs >= clean.makespan_secs);
        assert!(faulty.mttr_secs.is_some());
        // Nothing is silently dropped: every job completed or was lost.
        assert_eq!(
            faulty.jobs_completed + faulty.jobs_lost,
            faulty.jobs_submitted
        );
    }

    #[test]
    fn sweep_is_deterministic_and_clock_mode_invariant() {
        let a = quick_sweep(7, ClockMode::EventDriven);
        assert_eq!(a, quick_sweep(7, ClockMode::EventDriven));
        assert_eq!(a, quick_sweep(7, ClockMode::FixedDt));
    }
}
