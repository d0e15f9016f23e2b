//! The three workloads that drive the simulated machine: `busy_day`,
//! `idle_watch` and `fault_storm`. One op builds a fresh 8-node machine
//! from seed-drawn inputs and runs it in fixed chunks.

use cimone_cluster::checkpoint::GENERATION_DEPTH;
use cimone_cluster::engine::{ClockMode, ClusterWorkload, EngineConfig, JobRequest, SimEngine};
use cimone_cluster::faults::{FaultKind, FaultPlan, SdcTarget};
use cimone_cluster::healing::{CheckpointConfig, RecoveryConfig};
use cimone_cluster::perf::HplProblem;
use cimone_cluster::EngineEvent;
use cimone_kernels::abft::AbftMode;
use cimone_monitor::query::evaluate_json;
use cimone_sched::job::{JobId, JobState};
use cimone_soc::units::{SimDuration, SimTime};
use cimone_soc::workload::Workload as JobKind;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::runner::{op_rng, Tally, Workload};
use crate::trace::Tracer;

/// Which of the engine workloads an [`EngineWorkload`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A busy machine watched by an operator dashboard.
    BusyDay,
    /// A nearly idle, densely monitored machine.
    IdleWatch,
    /// A random plan of every fault kind against a recovering machine.
    FaultStorm,
}

const NODES: usize = 8;
const BLADES: usize = 4;
const USERS: [&str; 4] = ["ada", "grace", "linus", "barbara"];
/// Every 8th trial is replayed under the fixed-dt clock.
const REPLAY_EVERY: usize = 8;
/// The operator dashboard's window and bin.
const DASHBOARD_WINDOW_S: f64 = 6.0 * 3600.0;
const DASHBOARD_BIN_S: f64 = 60.0;
const POWER_FILTER: &str = "org/unibo/cluster/cimone/node/+/plugin/pwr_pub/chnl/data/total_power";
/// Storm faults land in the first 20 simulated minutes, while the jobs
/// run; the machine then has up to two hours to drain.
const STORM_WINDOW_S: u64 = 1200;
const STORM_DRAIN_S: u64 = 7200;

/// How an op advances the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    /// `run_until_idle` in chunks until the machine drains or `max`
    /// passes; the op fails if it does not drain.
    UntilIdle { max: SimDuration },
    /// `run_for` in `count` chunks.
    For { count: usize },
}

/// Everything one trial is built from, all drawn from the seed.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    config: EngineConfig,
    jobs: Vec<JobRequest>,
    plan: Option<FaultPlan>,
    /// `(pmu period, pmu phase, stats period, stats phase)`.
    cadence: Option<[SimDuration; 4]>,
    chunk: SimDuration,
    drive: Drive,
    dashboard: bool,
    plans_drawn: usize,
}

/// A machine built and loaded, ready to run.
pub struct Trial {
    spec: TrialSpec,
    engine: SimEngine,
    ids: Vec<JobId>,
}

/// One engine chunk, as seen from outside.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    secs: f64,
    stepped: u64,
    skipped: u64,
    sim_secs: f64,
}

/// A finished trial.
pub struct TrialRun {
    spec: TrialSpec,
    engine: SimEngine,
    ids: Vec<JobId>,
    drained: bool,
    chunks: Vec<Chunk>,
    responses: Vec<String>,
    query_secs: Vec<f64>,
}

/// One of the engine workloads at one seed.
pub struct EngineWorkload {
    kind: Kind,
    seed: u64,
}

impl EngineWorkload {
    /// The `kind` workload with inputs drawn from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        EngineWorkload { kind, seed }
    }

    fn draw(&self, op: usize, t: &mut Tracer) -> TrialSpec {
        let mut rng = op_rng(self.seed, self.kind as u64, op);
        let base = EngineConfig {
            seed: rng.next_u64(),
            clock: ClockMode::EventDriven,
            ..EngineConfig::default()
        };
        match self.kind {
            Kind::BusyDay => TrialSpec {
                config: EngineConfig {
                    recovery: Some(RecoveryConfig::with_checkpoints(SimDuration::from_secs(
                        600,
                    ))),
                    ..base
                },
                jobs: (0..16).map(|j| busy_job(&mut rng, j, NODES)).collect(),
                plan: None,
                cadence: None,
                chunk: SimDuration::from_secs(300),
                drive: Drive::UntilIdle {
                    max: SimDuration::from_secs(12 * 3600),
                },
                dashboard: true,
                plans_drawn: 0,
            },
            Kind::IdleWatch => {
                let dt = SimDuration::from_secs(2);
                TrialSpec {
                    config: EngineConfig {
                        dt,
                        recovery: Some(RecoveryConfig::detection_only()),
                        ..base
                    },
                    jobs: (0..2)
                        .map(|j| JobRequest {
                            name: format!("short-{j}"),
                            user: USERS[j].to_owned(),
                            nodes: rng.gen_range(1..=2),
                            workload: ClusterWorkload::Synthetic {
                                workload: JobKind::Hpl,
                                secs: rng.gen_range(60..=300),
                            },
                        })
                        .collect(),
                    plan: None,
                    // pmu on every tick; stats on a 7-tick comb with a
                    // seed-drawn phase, coprime with the 1-tick pmu comb
                    // and the 5 s heartbeats.
                    cadence: Some([
                        dt,
                        SimDuration::ZERO,
                        SimDuration::from_secs(14),
                        SimDuration::from_secs(2 * rng.gen_range(0..7)),
                    ]),
                    chunk: SimDuration::from_secs(3600),
                    drive: Drive::For { count: 8 },
                    dashboard: false,
                    plans_drawn: 0,
                }
            }
            Kind::FaultStorm => {
                let jobs = (0..rng.gen_range(8..=12))
                    .map(|j| busy_job(&mut rng, j, 4))
                    .collect();
                let mut plans_drawn = 0;
                let plan = loop {
                    plans_drawn += 1;
                    let plan = storm_plan(&mut rng);
                    let (valid, _) = t.time("cluster.faults/validate", || {
                        plan.validate(NODES, BLADES).is_ok()
                    });
                    if valid {
                        break plan;
                    }
                };
                TrialSpec {
                    config: EngineConfig {
                        recovery: Some(RecoveryConfig {
                            checkpoint: Some(
                                CheckpointConfig::every(SimDuration::from_secs(300)).with_spill(),
                            ),
                            ..RecoveryConfig::detection_only()
                        }),
                        abft: AbftMode::Detect,
                        ..base
                    },
                    jobs,
                    plan: Some(plan),
                    cadence: None,
                    chunk: SimDuration::from_secs(300),
                    drive: Drive::UntilIdle {
                        max: SimDuration::from_secs(STORM_DRAIN_S),
                    },
                    dashboard: false,
                    plans_drawn,
                }
            }
        }
    }
}

/// A job from the busy-day mix: HPL, QE LAX, STREAM.DDR or a synthetic
/// load, at most `max_nodes` wide.
fn busy_job(rng: &mut StdRng, j: usize, max_nodes: usize) -> JobRequest {
    let (name, nodes, workload) = match rng.gen_range(0..4) {
        0 => (
            "hpl",
            rng.gen_range(1..=max_nodes),
            ClusterWorkload::Hpl(HplProblem::new(1000 * rng.gen_range(6..=12usize), 192)),
        ),
        1 => ("qe-lax", 1, ClusterWorkload::QeLax),
        2 => (
            "stream-ddr",
            rng.gen_range(1..=2),
            ClusterWorkload::StreamDdr {
                secs: rng.gen_range(120..=600),
            },
        ),
        _ => {
            let kinds = [
                JobKind::Hpl,
                JobKind::StreamL2,
                JobKind::StreamDdr,
                JobKind::QeLax,
            ];
            (
                "synthetic",
                rng.gen_range(1..=max_nodes.min(4)),
                ClusterWorkload::Synthetic {
                    workload: kinds[rng.gen_range(0..kinds.len())],
                    secs: rng.gen_range(120..=900),
                },
            )
        }
    };
    JobRequest {
        name: format!("{name}-{j}"),
        user: USERS[rng.gen_range(0..USERS.len())].to_owned(),
        nodes,
        workload,
    }
}

/// About a dozen faults in the storm window: one of each of the ten
/// kinds that break something, two more of random kinds, and a
/// `NodeRecover` after every node a crash or PSU failure takes down.
fn storm_plan(rng: &mut StdRng) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for k in (0..10).chain([rng.gen_range(0..10), rng.gen_range(0..10)]) {
        let at = SimTime::from_secs(rng.gen_range(0..STORM_WINDOW_S));
        let node = rng.gen_range(0..NODES);
        let blade = rng.gen_range(0..BLADES);
        let span = SimDuration::from_secs(rng.gen_range(60..=600));
        let repair = SimDuration::from_secs(rng.gen_range(120..=900));
        let kind = match k {
            0 => {
                plan.push(at + repair, FaultKind::NodeRecover { node });
                FaultKind::NodeCrash { node }
            }
            1 => {
                for node in [2 * blade, 2 * blade + 1] {
                    plan.push(at + repair, FaultKind::NodeRecover { node });
                }
                FaultKind::PsuFailure { blade }
            }
            2 => FaultKind::RailBrownout {
                blade,
                budget_frac: rng.gen_range(0.5..0.9),
                span,
            },
            3 => FaultKind::MultiRailBrownout {
                budget_frac: rng.gen_range(0.6..0.9),
                span,
            },
            4 => FaultKind::SwitchOutage {
                span: SimDuration::from_secs(rng.gen_range(30..=180)),
            },
            5 => FaultKind::NfsExportDown { span },
            6 => FaultKind::FanFailure { blade, span },
            7 => FaultKind::BitFlip {
                node,
                target: if rng.gen_bool(0.5) {
                    SdcTarget::TrailingMatrix
                } else {
                    SdcTarget::FactoredPanel
                },
                word: rng.next_u64() as usize,
                bit: rng.gen_range(0..64),
            },
            8 => FaultKind::CheckpointCorruption {
                node,
                generation: rng.gen_range(0..GENERATION_DEPTH),
            },
            _ => FaultKind::PayloadCorruption { node, span },
        };
        plan.push(at, kind);
    }
    plan
}

/// Builds the machine: `SimEngine::new`, the fault plan, the sampling
/// comb and one `submit` per job.
fn build(spec: TrialSpec, t: &mut Tracer) -> Result<Trial, String> {
    let (mut engine, _) = t.time("cluster.engine/new", || {
        let engine = SimEngine::new(spec.config);
        match &spec.plan {
            Some(plan) => engine.with_fault_plan(plan.clone()),
            None => engine,
        }
    });
    if let Some([pmu, pmu_phase, stats, stats_phase]) = spec.cadence {
        engine.set_sampling_cadence(pmu, pmu_phase, stats, stats_phase);
    }
    let mut ids = Vec::with_capacity(spec.jobs.len());
    for job in &spec.jobs {
        let (id, _) = t.time("cluster.engine/submit", || engine.submit(job.clone()));
        ids.push(id.map_err(|e| format!("submit {}: {e}", job.name))?);
    }
    Ok(Trial { spec, engine, ids })
}

/// Runs a built trial chunk by chunk, with the dashboard requests after
/// each chunk.
fn drive(trial: Trial, t: &mut Tracer) -> Result<TrialRun, String> {
    let Trial {
        spec,
        mut engine,
        ids,
    } = trial;
    // The dashboard's panels, each one request over all nodes: power and
    // CPU temperature, and the mean and peak of per-core retired
    // instructions and cycles. The per-core panels size the reads to a
    // tenth or more of the op.
    let schema = engine.schema();
    let pmu = |metric| schema.pmu_metric_filter(metric).to_string();
    let panels = [
        (POWER_FILTER.to_owned(), "Mean"),
        (
            schema
                .stats_metric_filter("temperature.cpu_temp")
                .to_string(),
            "Max",
        ),
        (pmu("instret"), "Mean"),
        (pmu("instret"), "Max"),
        (pmu("cycles"), "Mean"),
        (pmu("cycles"), "Max"),
    ];
    let chunk_count = match spec.drive {
        Drive::UntilIdle { max } => max.as_micros().div_ceil(spec.chunk.as_micros()) as usize,
        Drive::For { count } => count,
    };
    let mut drained = false;
    let mut chunks = Vec::with_capacity(chunk_count);
    let mut responses = Vec::new();
    let mut query_secs = Vec::new();
    for _ in 0..chunk_count {
        let (stepped, skipped, now) =
            (engine.ticks_stepped(), engine.ticks_skipped(), engine.now());
        let secs = match spec.drive {
            Drive::UntilIdle { .. } => {
                let secs;
                (drained, secs) = t.time("cluster.engine/run_until_idle", || {
                    engine.run_until_idle(spec.chunk)
                });
                secs
            }
            Drive::For { .. } => {
                t.time("cluster.engine/run_for", || engine.run_for(spec.chunk))
                    .1
            }
        };
        chunks.push(Chunk {
            secs,
            stepped: engine.ticks_stepped() - stepped,
            skipped: engine.ticks_skipped() - skipped,
            sim_secs: engine.now().saturating_since(now).as_secs_f64(),
        });
        if spec.dashboard {
            let to = engine.now().as_secs_f64();
            let from = (to - DASHBOARD_WINDOW_S).max(0.0);
            for (filter, aggregation) in &panels {
                let request = format!(
                    r#"{{"filter":"{filter}","from_secs":{from},"to_secs":{to},"bin_secs":{DASHBOARD_BIN_S},"aggregation":"{aggregation}"}}"#
                );
                let (response, secs) = t.time("monitor/evaluate_json", || {
                    evaluate_json(engine.store(), &request)
                });
                responses.push(response.map_err(|e| format!("dashboard request {request}: {e}"))?);
                query_secs.push(secs);
            }
        }
        if drained {
            break;
        }
    }
    Ok(TrialRun {
        spec,
        engine,
        ids,
        drained,
        chunks,
        responses,
        query_secs,
    })
}

impl Workload for EngineWorkload {
    type Input = Trial;
    type Output = TrialRun;

    fn prepare(&mut self, op: usize, t: &mut Tracer) -> Result<Trial, String> {
        let generate = t.begin("generate/inputs");
        let spec = self.draw(op, t);
        t.end(generate);
        build(spec, t)
    }

    fn execute(&mut self, input: Trial, t: &mut Tracer) -> Result<TrialRun, String> {
        drive(input, t)
    }

    fn verify(&mut self, op: usize, run: &TrialRun, t: &mut Tracer) -> Result<(), String> {
        if matches!(run.spec.drive, Drive::UntilIdle { .. }) {
            let open: Vec<String> = run
                .ids
                .iter()
                .filter_map(|&id| {
                    let state = run.engine.scheduler().job(id).map(|j| j.state());
                    match state {
                        Ok(s) if s.is_terminal() => None,
                        other => Some(format!("{id}: {other:?}")),
                    }
                })
                .collect();
            if !run.drained || !open.is_empty() {
                return Err(format!(
                    "machine did not drain by t={}: {} of {} jobs not terminal ({})",
                    run.engine.now(),
                    open.len(),
                    run.ids.len(),
                    open.join(", ")
                ));
            }
        }
        let (_, _, undetected) = run.engine.sdc_counts();
        if self.kind == Kind::FaultStorm && undetected > 0 {
            return Err(format!(
                "{undetected} bit flips went undetected under ABFT Detect"
            ));
        }
        if op.is_multiple_of(REPLAY_EVERY) {
            let mut spec = run.spec.clone();
            spec.config.clock = ClockMode::FixedDt;
            let replay = t.begin("check/fixed_dt_replay");
            let mut quiet = Tracer::new(false);
            let fixed = build(spec, &mut quiet).and_then(|trial| drive(trial, &mut quiet));
            t.end(replay);
            let fixed = fixed?;
            if let Some(diff) = difference(run, &fixed) {
                return Err(format!("fixed-dt replay diverged: {diff}"));
            }
        }
        Ok(())
    }

    fn same(&self, a: &TrialRun, b: &TrialRun) -> bool {
        difference(a, b).is_none()
    }

    fn tally(&self, run: &TrialRun, tally: &mut Tally) {
        let engine = &run.engine;
        for c in &run.chunks {
            tally.add("engine.secs", c.secs);
            tally.add("engine.sim_secs", c.sim_secs);
            if c.skipped == 0 && c.stepped > 0 {
                tally.add("engine.pure_stepped_ticks", c.stepped as f64);
                tally.add("engine.pure_stepped_secs", c.secs);
            }
            if c.stepped == 0 && c.skipped > 0 {
                tally.add("engine.pure_skipped_ticks", c.skipped as f64);
                tally.add("engine.pure_skipped_secs", c.secs);
            }
        }
        tally.add("engine.chunks", run.chunks.len() as f64);
        tally.add("engine.ticks_stepped", engine.ticks_stepped() as f64);
        tally.add("engine.ticks_skipped", engine.ticks_skipped() as f64);
        tally.add("engine.events", engine.events().len() as f64);
        tally.add("monitor.points", engine.store().point_count() as f64);
        tally.add("monitor.series", engine.store().series_count() as f64);
        tally.add("monitor.queries", run.query_secs.len() as f64);
        tally.add("monitor.query_secs", run.query_secs.iter().sum());
        tally.add(
            "monitor.response_bytes",
            run.responses.iter().map(String::len).sum::<usize>() as f64,
        );
        let count = |pred: fn(&EngineEvent) -> bool| {
            engine.events().iter().filter(|e| pred(e)).count() as f64
        };
        tally.add(
            "monitor.scrub_quarantined",
            count(|e| matches!(e, EngineEvent::SdcSuspected { .. })),
        );
        tally.add("checkpoint.written", engine.checkpoints_written() as f64);
        tally.add(
            "checkpoint.quarantined",
            count(|e| matches!(e, EngineEvent::CheckpointCorrupt { .. })),
        );
        tally.add(
            "checkpoint.restores",
            count(|e| matches!(e, EngineEvent::JobResumed { .. })),
        );
        tally.add("healing.fences", engine.fence_count() as f64);
        tally.add("healing.suspicions", engine.suspicion_count() as f64);
        let wasted = engine.wasted_node_seconds();
        let used: f64 = engine
            .accounting()
            .records()
            .iter()
            .map(|r| r.node_seconds)
            .sum();
        tally.add("healing.wasted_node_s", wasted);
        tally.add("healing.allocated_node_s", used + wasted);
        tally.add(
            "faults.injected",
            count(|e| matches!(e, EngineEvent::FaultInjected { .. })),
        );
        tally.add("faults.plans_drawn", run.spec.plans_drawn as f64);
        tally.add(
            "faults.plans_rejected",
            run.spec.plans_drawn.saturating_sub(1) as f64,
        );
        tally.add(
            "sched.jobs_completed",
            engine
                .accounting()
                .records()
                .iter()
                .filter(|r| r.state == JobState::Completed)
                .count() as f64,
        );
    }
}

/// The first observable difference between two runs of one trial: final
/// clock, event log, telemetry store, accounting or dashboard responses.
fn difference(a: &TrialRun, b: &TrialRun) -> Option<String> {
    let (x, y) = (&a.engine, &b.engine);
    if x.now() != y.now() {
        return Some(format!("final clock {} vs {}", x.now(), y.now()));
    }
    if x.events() != y.events() {
        let at = x
            .events()
            .iter()
            .zip(y.events())
            .position(|(p, q)| p != q)
            .unwrap_or(x.events().len().min(y.events().len()));
        return Some(format!(
            "event logs differ at entry {at} ({} vs {} events): {:?} vs {:?}",
            x.events().len(),
            y.events().len(),
            x.events().get(at),
            y.events().get(at)
        ));
    }
    if x.store() != y.store() {
        return Some(format!(
            "telemetry stores differ ({} vs {} points)",
            x.store().point_count(),
            y.store().point_count()
        ));
    }
    if x.accounting() != y.accounting() {
        return Some("accounting logs differ".to_owned());
    }
    if a.responses != b.responses {
        let at = a
            .responses
            .iter()
            .zip(&b.responses)
            .position(|(p, q)| p != q)
            .unwrap_or(a.responses.len().min(b.responses.len()));
        return Some(format!("dashboard response {at} differs"));
    }
    None
}
