//! Extension: checkpoint/restart and heartbeat-detected failure recovery
//! under a node-crash sweep.
//!
//! Where [`super::availability`] gives the scheduler oracle knowledge of
//! crashes, this experiment runs the full recovery subsystem: nodes
//! heartbeat through the broker, a phi-accrual detector suspects the
//! silent ones, the control plane fences them, and evicted jobs restart
//! from their last NFS checkpoint on the surviving nodes. The sweep
//! crosses crash rate with checkpoint interval (including checkpointing
//! off) and reports wasted work, time-to-detect, time-to-recover and
//! effective throughput — the overhead-vs-rework tradeoff every HPC
//! checkpoint policy balances.
//!
//! The zero-fault, checkpointing-off corner reproduces the fault-free
//! Fig. 2 full-machine throughput bit-for-bit: heartbeats and detection
//! consume no engine randomness.

use cimone_sched::accounting::JobEventKind;
use cimone_sched::job::JobState;
use cimone_soc::units::SimDuration;

use crate::engine::{ClockMode, ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine};
use crate::faults::{FaultKind, FaultPlan};
use crate::healing::RecoveryConfig;
use crate::perf::{HplModel, HplProblem};
use crate::report::{Campaign, Cell, Report, Stats, Table};

/// Outcome at one (crash rate, checkpoint interval) grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPoint {
    /// Crash rate, per node-hour.
    pub rate_per_node_hour: f64,
    /// Checkpoint interval, seconds (`None` = checkpointing off).
    pub checkpoint_interval_secs: Option<u64>,
    /// Jobs submitted.
    pub jobs_submitted: usize,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Jobs abandoned after exhausting their retry budget.
    pub jobs_lost: usize,
    /// Requeue events across the campaign.
    pub requeues: usize,
    /// Node outages (physical crashes) observed.
    pub failures: usize,
    /// Fences applied by the control plane.
    pub fences: usize,
    /// Checkpoints committed.
    pub checkpoints: usize,
    /// Times a job resumed from a checkpoint instead of zero.
    pub resumes: usize,
    /// Campaign makespan, seconds.
    pub makespan_secs: f64,
    /// Node-hours of completed work thrown away by evictions.
    pub wasted_node_hours: f64,
    /// Mean crash → fence latency, seconds (`None` without detections).
    pub mean_ttd_secs: Option<f64>,
    /// Mean eviction → restart latency, seconds (`None` without requeues
    /// that restarted).
    pub mean_ttr_secs: Option<f64>,
    /// Fraction of node-time the machine was in service.
    pub availability: f64,
    /// Sustained GFLOP/s of the completed runs (`None` if none finished).
    pub gflops: Option<Stats>,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryResult {
    /// The HPL configuration each job runs.
    pub problem: HplProblem,
    /// Jobs per campaign.
    pub jobs: usize,
    /// Nodes each job asks for (fewer than the machine so checkpointed
    /// work can migrate to the survivors).
    pub job_nodes: usize,
    /// Repair time after each crash, seconds.
    pub repair_secs: u64,
    /// Base seed (plan and engine RNGs derive from it).
    pub seed: u64,
    /// One point per (rate, interval) pair, rates outer, intervals inner.
    pub points: Vec<RecoveryPoint>,
}

const NODES: usize = 8;

/// Runs the sweep: for every crash rate (per node-hour) and checkpoint
/// interval (`None` = off), one campaign of `jobs` back-to-back HPL jobs
/// on `job_nodes` nodes under the recovery subsystem. Fully deterministic
/// for fixed arguments, and identical across [`ClockMode`]s.
///
/// # Panics
///
/// Panics if `jobs`, `rates` or `intervals` is empty, or `job_nodes` does
/// not fit the machine.
///
/// # Examples
///
/// ```
/// use cimone_cluster::engine::ClockMode;
/// use cimone_cluster::experiments::recovery;
/// use cimone_cluster::perf::HplProblem;
/// use cimone_soc::units::SimDuration;
///
/// let result = recovery::run(
///     HplProblem::paper(),
///     1,
///     8,
///     &[0.0],
///     &[None],
///     SimDuration::from_secs(300),
///     2022,
///     ClockMode::EventDriven,
/// );
/// assert_eq!(result.points[0].availability, 1.0);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn run(
    problem: HplProblem,
    jobs: usize,
    job_nodes: usize,
    rates: &[f64],
    intervals: &[Option<u64>],
    repair: SimDuration,
    seed: u64,
    clock: ClockMode,
) -> RecoveryResult {
    assert!(jobs > 0, "need at least one job");
    assert!(!rates.is_empty(), "need at least one fault rate");
    assert!(!intervals.is_empty(), "need at least one interval entry");
    assert!(
        (1..=NODES).contains(&job_nodes),
        "jobs must fit the machine"
    );

    let fault_free_secs = HplModel::monte_cimone(problem).run_time(job_nodes) * jobs as f64;
    let horizon = SimDuration::from_secs_f64(fault_free_secs * 3.0 + 3600.0);

    let mut points = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        for &interval in intervals {
            // The same plan seed for every interval at one rate, so the
            // fault process is held fixed while the policy varies.
            let plan = FaultPlan::random_crashes(
                seed.wrapping_add(k as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15),
                NODES,
                horizon,
                rate,
                repair,
            );
            let recovery = match interval {
                Some(secs) => RecoveryConfig::with_checkpoints(SimDuration::from_secs(secs)),
                None => RecoveryConfig::detection_only(),
            };
            let mut engine = SimEngine::new(EngineConfig {
                dt: SimDuration::from_secs(2),
                seed,
                monitoring: false,
                recovery: Some(recovery),
                clock,
                ..EngineConfig::default()
            })
            .with_fault_plan(plan);
            for _ in 0..jobs {
                engine
                    .submit(JobRequest {
                        name: "hpl-recover".into(),
                        user: "bench".into(),
                        nodes: job_nodes,
                        workload: ClusterWorkload::Hpl(problem),
                    })
                    .expect("job fits the machine");
            }
            engine.run_until_idle(horizon * 2);
            points.push(measure(&engine, rate, interval, jobs, problem));
        }
    }

    RecoveryResult {
        problem,
        jobs,
        job_nodes,
        repair_secs: (repair.as_secs_f64()) as u64,
        seed,
        points,
    }
}

fn measure(
    engine: &SimEngine,
    rate: f64,
    interval: Option<u64>,
    jobs: usize,
    problem: HplProblem,
) -> RecoveryPoint {
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
    let resumes = engine
        .events()
        .iter()
        .filter(|e| matches!(e, EngineEvent::JobResumed { .. }))
        .count();

    // Time-to-detect: each physical crash to the first fence of that node
    // at or after it.
    let mut ttd = Vec::new();
    for event in engine.events() {
        if let EngineEvent::FaultInjected {
            at,
            kind: FaultKind::NodeCrash { node },
        } = event
        {
            let fenced = engine.events().iter().find_map(|e| match e {
                EngineEvent::NodeFenced { node: n, at: t } if n == node && t >= at => Some(*t),
                _ => None,
            });
            if let Some(t) = fenced {
                ttd.push(t.saturating_since(*at).as_secs_f64());
            }
        }
    }
    // Time-to-recover: each requeue to the job's next start.
    let mut ttr = Vec::new();
    for (i, event) in engine.events().iter().enumerate() {
        if let EngineEvent::JobRequeued { id, at } = event {
            let restarted = engine.events()[i..].iter().find_map(|e| match e {
                EngineEvent::JobStarted { id: j, at: t, .. } if j == id => Some(*t),
                _ => None,
            });
            if let Some(t) = restarted {
                ttr.push(t.saturating_since(*at).as_secs_f64());
            }
        }
    }

    let makespan = engine.now().as_secs_f64();
    let downtime = engine.total_downtime().as_secs_f64();
    let node_time = makespan * NODES as f64;
    // A resumed job's final run only performs the *remaining* fraction of
    // the problem, so credit it that fraction — otherwise checkpointing
    // would appear to inflate throughput.
    let gflops_samples: Vec<f64> = completed
        .iter()
        .map(|r| {
            let resumed_from = engine
                .events()
                .iter()
                .rev()
                .find_map(|e| match e {
                    EngineEvent::JobResumed { id, progress, .. } if id.0 == r.job_id => {
                        Some(*progress)
                    }
                    _ => None,
                })
                .unwrap_or(0.0);
            problem.flops() * (1.0 - resumed_from) / 1e9 / r.elapsed.as_secs_f64()
        })
        .collect();
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);

    RecoveryPoint {
        rate_per_node_hour: rate,
        checkpoint_interval_secs: interval,
        jobs_submitted: jobs,
        jobs_completed: completed.len(),
        jobs_lost: lost,
        requeues,
        failures: engine.failure_count(),
        fences: engine.fence_count(),
        checkpoints: engine.checkpoints_written(),
        resumes,
        makespan_secs: makespan,
        wasted_node_hours: engine.wasted_node_seconds() / 3600.0,
        mean_ttd_secs: mean(&ttd),
        mean_ttr_secs: mean(&ttr),
        availability: if node_time > 0.0 {
            (node_time - downtime) / node_time
        } else {
            1.0
        },
        gflops: (!gflops_samples.is_empty()).then(|| Stats::from_samples(&gflops_samples)),
    }
}

impl Campaign for RecoveryResult {
    fn report(&self) -> Report {
        let rows = self
            .points
            .iter()
            .map(|p| {
                let (rate, wasted) = (p.rate_per_node_hour, p.wasted_node_hours);
                let interval = p.checkpoint_interval_secs;
                let ckpt = interval.map_or("off".to_owned(), |s| s.to_string());
                let done = format!("{}/{}", p.jobs_completed, p.jobs_submitted);
                vec![
                    Cell::fixed("Crash/node-h", "rate_per_node_hour", rate, 2),
                    Cell::new("Ckpt [s]", "checkpoint_interval_s", interval, ckpt),
                    Cell::new("Done", "jobs_completed", p.jobs_completed, done),
                    Cell::json("jobs_submitted", p.jobs_submitted),
                    Cell::count("Lost", "jobs_lost", p.jobs_lost),
                    Cell::count("Requeues", "requeues", p.requeues),
                    Cell::json("failures", p.failures),
                    Cell::count("Fences", "fences", p.fences),
                    Cell::count("Ckpts", "checkpoints", p.checkpoints),
                    Cell::count("Resumes", "resumes", p.resumes),
                    Cell::fixed("Wasted [node-h]", "wasted_node_hours", wasted, 2),
                    Cell::fixed("TTD [s]", "mean_ttd_s", p.mean_ttd_secs, 0),
                    Cell::fixed("TTR [s]", "mean_ttr_s", p.mean_ttr_secs, 0),
                    Cell::fixed("Makespan [s]", "makespan_s", p.makespan_secs, 0),
                    Cell::percent("Avail.", "availability", p.availability, 2),
                    Cell::stats("GFLOP/s", "gflops", p.gflops.as_ref()),
                ]
            })
            .collect();
        Report {
            config: vec![
                Cell::json("jobs", self.jobs),
                Cell::json("job_nodes", self.job_nodes),
                Cell::json("repair_s", self.repair_secs),
                Cell::json("seed", self.seed),
            ],
            tables: vec![Table {
                key: "points",
                caption: format!(
                    "Recovery sweep: checkpoint interval x crash rate (HPL N={}, {} jobs x {} nodes, repair {} s)",
                    self.problem.n, self.jobs, self.job_nodes, self.repair_secs
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
    use crate::experiments::availability;

    #[test]
    fn zero_fault_checkpoint_off_corner_matches_the_oracle_baseline_exactly() {
        // The recovery subsystem at zero faults must not perturb the
        // simulation: heartbeats and detection consume no engine
        // randomness, so the throughput equals availability's fault-free
        // corner bit-for-bit.
        let recovered = run(
            HplProblem::paper(),
            1,
            8,
            &[0.0],
            &[None],
            SimDuration::from_secs(300),
            2022,
            ClockMode::EventDriven,
        );
        let oracle = availability::run(
            HplProblem::paper(),
            1,
            &[0.0],
            SimDuration::from_secs(300),
            2022,
            ClockMode::EventDriven,
        );
        let r = &recovered.points[0];
        let o = &oracle.points[0];
        assert_eq!(r.jobs_completed, 1);
        assert_eq!(r.fences, 0);
        assert_eq!(r.checkpoints, 0);
        assert_eq!(r.wasted_node_hours, 0.0);
        assert_eq!(r.availability, 1.0);
        let r_gflops = r.gflops.as_ref().expect("completed").mean;
        let o_gflops = o.gflops.as_ref().expect("completed").mean;
        assert_eq!(
            r_gflops.to_bits(),
            o_gflops.to_bits(),
            "recovery-on {r_gflops} vs oracle {o_gflops}"
        );
    }

    fn quick_sweep(seed: u64, clock: ClockMode) -> RecoveryResult {
        run(
            HplProblem::paper(),
            2,
            4,
            &[4.0],
            &[None, Some(120)],
            SimDuration::from_secs(300),
            seed,
            clock,
        )
    }

    #[test]
    fn checkpointing_cuts_wasted_work_under_crashes() {
        let result = quick_sweep(2022, ClockMode::EventDriven);
        let off = &result.points[0];
        let on = &result.points[1];
        assert!(off.failures > 0, "crashes must fire");
        assert!(off.fences > 0, "the detector must fence silent nodes");
        assert!(
            off.mean_ttd_secs.is_some_and(|t| t > 0.0),
            "detection takes real time, there is no oracle"
        );
        assert!(on.checkpoints > 0, "checkpoints must be written");
        if on.resumes > 0 {
            assert!(
                on.wasted_node_hours < off.wasted_node_hours,
                "restarting from checkpoints ({} node-h) must beat \
                 restarting from zero ({} node-h)",
                on.wasted_node_hours,
                off.wasted_node_hours
            );
        }
    }

    #[test]
    fn sweep_is_deterministic_and_clock_mode_invariant() {
        let a = quick_sweep(7, ClockMode::EventDriven);
        let b = quick_sweep(7, ClockMode::EventDriven);
        assert_eq!(a, b);
        assert_eq!(a, quick_sweep(7, ClockMode::FixedDt));
    }
}
