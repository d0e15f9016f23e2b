//! The cluster simulation engine: scheduler-driven jobs running on the
//! eight-node machine, with power, thermal and monitoring all advancing on
//! one deterministic clock.
//!
//! Every experiment in the paper runs through this loop: submit a job,
//! step the engine, read the results out of the scheduler's accounting and
//! the ExaMon store.

use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::SeedableRng;

use cimone_monitor::broker::Broker;
use cimone_monitor::collector::Collector;
use cimone_monitor::payload::Payload;
use cimone_monitor::plugins::{NodeSnapshot, PluginRunner, PmuPlugin, StatsPlugin};
use cimone_monitor::topic::{ExamonSchema, Topic};
use cimone_monitor::tsdb::TimeSeriesStore;
use cimone_sched::accounting::{AccountingLog, JobRecord};
use cimone_sched::job::{JobId, JobSpec, JobState};
use cimone_sched::partition::Partition;
use cimone_sched::scheduler::{SchedError, Scheduler};
use cimone_soc::power::PowerModel;
use cimone_soc::units::{Celsius, Energy, Power, SimDuration, SimTime};
use cimone_soc::workload::Workload;

use cimone_kernels::abft::AbftMode;
use cimone_monitor::scrub::ScrubPolicy;

use cimone_net::switch::MgmtSwitch;

use crate::blade::MachineLayout;
use crate::checkpoint::{
    CheckpointError, CheckpointPosition, CheckpointSchedule, CheckpointStore, JobCheckpoint,
};
use crate::dpm::{GovernorAction, ThermalGovernor};
use crate::faults::{FaultKind, FaultPlan, FaultPlanError, FaultQueue, SdcTarget};
use crate::healing::{
    CapAction, ControlAction, ControlPlane, PowerCapConfig, PowerCapGovernor, RecoveryConfig,
};
use crate::node::{ComputeNode, NodeConditions};
use crate::perf::{HplModel, HplProblem, LaxModel};
use crate::thermal::{AirflowConfig, AirflowDegradation, ThermalModel};

/// What a job runs on its allocated nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterWorkload {
    /// Distributed HPL.
    Hpl(HplProblem),
    /// The QE LAX driver (single node).
    QeLax,
    /// STREAM with the Table V DDR-resident working set, for `secs`.
    StreamDdr {
        /// Benchmark duration.
        secs: u64,
    },
    /// STREAM with the L2-resident working set, for `secs`.
    StreamL2 {
        /// Benchmark duration.
        secs: u64,
    },
    /// Any steady workload class for a fixed duration.
    Synthetic {
        /// The workload class.
        workload: Workload,
        /// Duration, seconds.
        secs: u64,
    },
}

/// A job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Job name.
    pub name: String,
    /// User.
    pub user: String,
    /// Nodes requested.
    pub nodes: usize,
    /// The workload.
    pub workload: ClusterWorkload,
}

/// How the engine's clock advances between interesting instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Walk every tick through the full step pipeline (the original
    /// behaviour, and the reference the event-driven mode is held to).
    #[default]
    FixedDt,
    /// Due-time scheduling: a tick whose only work is observation is
    /// fast-forwarded with its decision phases masked — heartbeats,
    /// sensor draws, plugin samples and the thermal integrator replay
    /// exactly — and the engine wakes at the next due decision (fault,
    /// span-fault window end, switch or export recovery, backoff
    /// release) or just before a phi crossing. Observable outputs —
    /// telemetry, events, TSDB contents, final clock — are bit-identical
    /// to [`ClockMode::FixedDt`] at the same `dt`.
    EventDriven,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Enclosure airflow.
    pub airflow: AirflowConfig,
    /// Simulation step.
    pub dt: SimDuration,
    /// RNG seed (drives run-to-run noise).
    pub seed: u64,
    /// Whether the ExaMon pipeline runs (costs simulation time).
    pub monitoring: bool,
    /// Optional per-node thermal DVFS governor (the paper's future-work
    /// item: dynamic power and thermal management).
    pub governor: Option<ThermalGovernor>,
    /// Optional recovery subsystem: heartbeat failure detection, node
    /// fencing and checkpoint/restart. When `None` (the default) the
    /// engine keeps its oracle semantics — a crash reaches the scheduler
    /// the same instant it happens.
    pub recovery: Option<RecoveryConfig>,
    /// Clock advancement strategy; see [`ClockMode`].
    pub clock: ClockMode,
    /// Blade power-rail cap governor. `Some` (the default) arms graceful
    /// degradation: a [`FaultKind::RailBrownout`] is met by capping the
    /// blade's DVFS operating points under the reduced budget instead of
    /// letting its boards crash. `None` reproduces the crash-only
    /// machine — a brownout takes both boards down for its span.
    pub power_cap: Option<PowerCapConfig>,
    /// ABFT protection the jobs' kernels run with, governing how an
    /// injected [`FaultKind::BitFlip`] plays out: `Off` lets the flip ride
    /// to a wrong answer, `Detect` catches it (panel checksum or the
    /// end-of-run residual) and restarts the job from its last committed
    /// checkpoint, `Correct` repairs the poisoned column in place at the
    /// cost of one panel's recompute.
    pub abft: AbftMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            airflow: AirflowConfig::LidOffSpaced,
            dt: SimDuration::from_millis(500),
            seed: 2022,
            monitoring: true,
            governor: None,
            recovery: None,
            clock: ClockMode::FixedDt,
            power_cap: Some(PowerCapConfig::rv007_default()),
            abft: AbftMode::Off,
        }
    }
}

/// Notable events the engine emits (for tests and reports).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A job started on the listed node indices.
    JobStarted {
        /// The job.
        id: JobId,
        /// When.
        at: SimTime,
        /// Allocated node indices.
        nodes: Vec<usize>,
    },
    /// A job reached its natural end.
    JobCompleted {
        /// The job.
        id: JobId,
        /// When.
        at: SimTime,
    },
    /// A node crossed the 107 °C trip point and shut down.
    NodeTripped {
        /// Node index.
        node: usize,
        /// When.
        at: SimTime,
        /// Temperature at the trip.
        temperature: Celsius,
    },
    /// A job lost its allocation to a trip and went back to the queue.
    JobRequeued {
        /// The job.
        id: JobId,
        /// When.
        at: SimTime,
    },
    /// A planned fault fired.
    FaultInjected {
        /// When.
        at: SimTime,
        /// The fault.
        kind: FaultKind,
    },
    /// A node returned to service after an outage.
    NodeRecovered {
        /// Node index.
        node: usize,
        /// When.
        at: SimTime,
    },
    /// A job exhausted its retry budget and was abandoned.
    JobLost {
        /// The job.
        id: JobId,
        /// When.
        at: SimTime,
    },
    /// The failure detector crossed its phi threshold for a node.
    NodeSuspected {
        /// Node index.
        node: usize,
        /// When.
        at: SimTime,
        /// The phi value at detection.
        phi: f64,
    },
    /// The control plane fenced a node (took it out of scheduling).
    NodeFenced {
        /// Node index.
        node: usize,
        /// When.
        at: SimTime,
    },
    /// The control plane returned a fenced node to service.
    NodeUnfenced {
        /// Node index.
        node: usize,
        /// When.
        at: SimTime,
    },
    /// A job committed a checkpoint to the NFS store.
    CheckpointWritten {
        /// The job.
        id: JobId,
        /// When the write completed.
        at: SimTime,
        /// Work fraction the checkpoint preserves.
        progress: f64,
    },
    /// A requeued job restarted from its last checkpoint instead of zero.
    JobResumed {
        /// The job.
        id: JobId,
        /// When.
        at: SimTime,
        /// The progress fraction it resumed from.
        progress: f64,
    },
    /// The thermal watchdog stepped a hot node's DVFS down.
    WatchdogThrottled {
        /// Node index.
        node: usize,
        /// When.
        at: SimTime,
    },
    /// The power-cap governor set (or moved) a blade's DVFS ceiling to fit
    /// a browned-out rail's budget.
    BladeCapped {
        /// Blade index.
        blade: usize,
        /// When.
        at: SimTime,
        /// Highest admissible OPP index.
        ceiling: usize,
    },
    /// Ramp-back complete: the blade's cap is fully lifted.
    BladeReleased {
        /// Blade index.
        blade: usize,
        /// When.
        at: SimTime,
    },
    /// A rail budget below even the floor OPP: the blade sheds its load
    /// (checkpoint-assisted requeue) and drains rather than overdraw.
    PowerEmergency {
        /// Blade index.
        blade: usize,
        /// When.
        at: SimTime,
        /// The budget that could not be met, watts.
        budget_watts: f64,
    },
    /// A browned-out rail returned to its rated budget after an emergency;
    /// the blade's boards return to service.
    RailRecovered {
        /// Blade index.
        blade: usize,
        /// When.
        at: SimTime,
    },
    /// The control plane saw the whole cluster go silent at once and
    /// entered the `Partitioned` state instead of mass-fencing: suspicion
    /// is deferred until connectivity returns (or the partition times
    /// out).
    PartitionSuspected {
        /// When.
        at: SimTime,
        /// Unfenced nodes that were over the phi threshold at entry.
        silent: usize,
    },
    /// Heartbeats flowed again: the `Partitioned` state lifted without a
    /// single false suspicion.
    PartitionHealed {
        /// When.
        at: SimTime,
    },
    /// The `Partitioned` state outlived its timeout: the control plane
    /// concedes the cluster really died and lets fencing proceed.
    PartitionTimedOut {
        /// When.
        at: SimTime,
    },
    /// The shared GbE switch returned: heartbeats and telemetry flow
    /// again.
    SwitchRestored {
        /// When.
        at: SimTime,
    },
    /// A drained checkpoint write could not commit (the export is
    /// offline); the commit retries with exponential backoff.
    CheckpointDeferred {
        /// The job.
        id: JobId,
        /// When the commit was refused.
        at: SimTime,
        /// When the next attempt runs.
        retry_at: SimTime,
        /// Attempts deferred so far for this write.
        retries: u32,
    },
    /// A drained write exhausted its retry budget against an offline
    /// export and was dropped; the job's restart point stays at the last
    /// durable commit.
    CheckpointAbandoned {
        /// The job.
        id: JobId,
        /// When.
        at: SimTime,
    },
    /// A drained write spilled to the job's first allocated node instead
    /// of the offline export; it flushes when the export recovers.
    CheckpointSpilled {
        /// The job.
        id: JobId,
        /// When.
        at: SimTime,
        /// Work fraction the spilled record preserves.
        progress: f64,
    },
    /// The export recovered and the node-local spill buffers flushed.
    SpillFlushed {
        /// When.
        at: SimTime,
        /// Records made durable on the export.
        records: usize,
    },
    /// A machine-wide brownout budget proved infeasible even with every
    /// blade at its floor OPP: the whole rack checkpoint-drains.
    RackPowerEmergency {
        /// When.
        at: SimTime,
        /// The machine-wide budget that could not be met, watts.
        budget_watts: f64,
    },
    /// A stored checkpoint record failed its CRC64 on restore and was
    /// quarantined; the restore walked back to an older generation.
    CheckpointCorrupt {
        /// The job whose record was poisoned.
        id: JobId,
        /// Chain index of the quarantined record (0 = newest).
        generation: usize,
        /// When the corruption was discovered.
        at: SimTime,
    },
    /// The ingestion scrub quarantined an implausible telemetry sample —
    /// the monitoring-path signature of silent data corruption.
    SdcSuspected {
        /// The node whose sample was implausible.
        node: usize,
        /// The sample's own timestamp.
        at: SimTime,
        /// The implausible value.
        value: f64,
    },
    /// ABFT caught a bit flip in a running job's live state; the job
    /// restarts from its last committed checkpoint.
    SdcDetected {
        /// The poisoned job.
        id: JobId,
        /// When the check fired.
        at: SimTime,
    },
    /// ABFT caught *and repaired* a bit flip in place; the job continues,
    /// paying one panel of recompute.
    SdcCorrected {
        /// The repaired job.
        id: JobId,
        /// When.
        at: SimTime,
    },
    /// An unprotected run carried a bit flip to completion: the job
    /// finished with a silently wrong result.
    SdcUndetected {
        /// The job.
        id: JobId,
        /// When it finished.
        at: SimTime,
    },
}

#[derive(Debug, Clone)]
struct RunningJob {
    id: JobId,
    workload: ClusterWorkload,
    node_indices: Vec<usize>,
    started: SimTime,
    duration: SimDuration,
    /// Fraction of the job's work completed (advances slower when any of
    /// its nodes is thermally throttled below the nominal clock).
    progress: f64,
    /// HPL communication phase structure.
    comm_fraction: f64,
    panel_cycle: SimDuration,
    mem_per_node: f64,
    energy: Energy,
    /// Checkpoint/restart state machine (idle unless the engine runs with
    /// a checkpointing RecoveryConfig).
    ckpt: CheckpointSchedule,
    /// Injected bit flips poisoning the job's trailing matrix — caught by
    /// ABFT's column checksums at the next panel boundary.
    sdc_trailing: u32,
    /// Injected bit flips in already-factored panels — invisible to the
    /// panel checksums, caught only by the end-of-run residual.
    sdc_factored: u32,
}

/// The slices of a tick that [`SimEngine::tick`] can mask out. Heartbeat
/// publication and the sensor draws are observation: they run on every
/// tick.
#[derive(Debug, Clone, Copy)]
struct Phases {
    /// Faults and window closes (0), the control plane's decisions (0b),
    /// and the scheduler, jobs, checkpoints and power cap (1–3b). Masked,
    /// the control plane only ingests heartbeat arrivals.
    decide: bool,
    /// Mean power, job energy and the thermal phase (4–5b).
    plant: bool,
    /// Node counters and plugin sampling (6).
    advance: bool,
    /// The collector pump into the store and the scrub drain (6).
    ingest: bool,
}

impl Phases {
    const ALL: Phases = Phases {
        decide: true,
        plant: true,
        advance: true,
        ingest: true,
    };
}

/// What one tick did that a fast-forward must react to.
struct Tick {
    /// A heartbeat was due: detector state moved, so phi crossings move.
    beat: bool,
    /// A trip or a governor move changed state beyond the integrator.
    changed: bool,
}

/// The effect of an open span-fault window, with the node, blade or node
/// pair it covers. A payload corruption flips the sign bit of the node's
/// published power samples on the wire, leaving the RNG draw untouched; a
/// brownout is the crash-only one of a machine with no cap governor, whose
/// boards return to service when the rail recovers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SpanFault {
    SensorDropout { node: usize },
    SensorStuck { node: usize },
    PayloadCorruption { node: usize },
    BrokerLoss,
    CollectorOffline,
    LinkDegrade { factor: f64 },
    Partition { a: usize, b: usize },
    NfsStall,
    FanFailure { blade: usize },
    Brownout { blade: usize },
}

impl SpanFault {
    /// Kind, then scope. A later window with the same slot replaces the
    /// open one (a fan failure keeps the later end), and windows close in
    /// slot order. A link degradation or a partition has one machine-wide
    /// slot: its factor or node pair is data, not scope.
    fn slot(self) -> (u8, usize) {
        match self {
            SpanFault::SensorDropout { node } => (0, node),
            SpanFault::SensorStuck { node } => (1, node),
            SpanFault::PayloadCorruption { node } => (2, node),
            SpanFault::BrokerLoss => (3, 0),
            SpanFault::CollectorOffline => (4, 0),
            SpanFault::LinkDegrade { .. } => (5, 0),
            SpanFault::Partition { .. } => (6, 0),
            SpanFault::NfsStall => (7, 0),
            SpanFault::FanFailure { blade } => (8, blade),
            SpanFault::Brownout { blade } => (9, blade),
        }
    }
}

/// One open span-fault window: its effect holds while `now < until`.
#[derive(Debug, Clone, Copy)]
struct Window {
    fault: SpanFault,
    until: SimTime,
}

/// The Monte Cimone simulation engine.
///
/// # Examples
///
/// ```
/// use cimone_cluster::engine::{ClusterWorkload, EngineConfig, JobRequest, SimEngine};
/// use cimone_soc::units::SimDuration;
/// use cimone_soc::workload::Workload;
///
/// let mut engine = SimEngine::new(EngineConfig::default());
/// engine.submit(JobRequest {
///     name: "smoke".into(),
///     user: "ci".into(),
///     nodes: 1,
///     workload: ClusterWorkload::Synthetic { workload: Workload::Hpl, secs: 10 },
/// })?;
/// engine.run_for(SimDuration::from_secs(20));
/// assert_eq!(engine.accounting().len(), 1);
/// # Ok::<(), cimone_sched::scheduler::SchedError>(())
/// ```
#[derive(Debug)]
pub struct SimEngine {
    config: EngineConfig,
    nodes: Vec<ComputeNode>,
    thermal: ThermalModel,
    power: PowerModel,
    scheduler: Scheduler,
    // Keyed by `JobId` in a *sorted* map: several pump loops iterate the
    // running set and emit same-timestamp events per job, so iteration
    // order is observable through the event log and must be deterministic
    // for the bit-identity contract.
    running: BTreeMap<JobId, RunningJob>,
    workloads: HashMap<JobId, ClusterWorkload>,
    accounting: AccountingLog,
    broker: Broker,
    /// `None` while the ingestion subscriber is disconnected by a fault.
    collector: Option<Collector>,
    store: TimeSeriesStore,
    pmu: Vec<PluginRunner<PmuPlugin>>,
    stats: Vec<PluginRunner<StatsPlugin>>,
    /// Interned per-node power-sample topics, built once at construction:
    /// the per-tick publish path clones an `Arc` handle instead of
    /// re-building (and re-interning) an 11-segment topic.
    power_topics: Vec<Topic>,
    /// Interned per-node heartbeat topics (same rationale).
    heartbeat_topics: Vec<Topic>,
    schema: ExamonSchema,
    events: Vec<EngineEvent>,
    now: SimTime,
    rng: StdRng,
    // Fault-injection state: the plan queue plus every open span-fault
    // window, kept sorted by [`SpanFault::slot`].
    faults: FaultQueue,
    windows: Vec<Window>,
    /// Bit flips ABFT caught and rolled back to a checkpoint.
    sdc_detected: usize,
    /// Bit flips ABFT caught and repaired in place.
    sdc_corrected: usize,
    /// Bit flips an unprotected run carried to a silently wrong answer.
    sdc_undetected: usize,
    /// Last published power per node, for stuck-at sensor faults.
    last_power: Vec<Option<f64>>,
    /// The shared GbE management switch every node's heartbeat and
    /// telemetry path rides on; a [`FaultKind::SwitchOutage`] takes it
    /// down rack-wide.
    switch: MgmtSwitch,
    /// Physical blade layout: power rails and the airflow stack.
    layout: MachineLayout,
    /// The blade power-cap governor, when configured.
    power_cap: Option<PowerCapGovernor>,
    /// Mean (noise-free) per-blade power of the last executed tick, watts.
    last_blade_power: Vec<f64>,
    /// Peak blade power observed while the blade was under an active
    /// brownout budget (governed or crash-only), watts. The degraded-mode
    /// acceptance invariant — capped power never exceeds the reduced
    /// budget — is checked against this.
    brownout_peak_power: Vec<f64>,
    /// Peak machine-wide power observed while a multi-rail rack budget was
    /// active, watts. The rack-arbitration acceptance invariant — the
    /// water-filled per-blade shares never let the whole machine exceed
    /// the rack budget — is checked against this.
    rack_peak_power: f64,
    // Outage bookkeeping for MTTF/MTTR.
    node_down_since: Vec<Option<SimTime>>,
    node_downtime: Vec<SimDuration>,
    failures: usize,
    /// The recovery subsystem, when configured.
    recovery: Option<RecoveryState>,
    /// Per-node snapshots reused across ticks: a node due to sample
    /// refills its buffer through `snapshot_into` without allocating once
    /// warm.
    snap_scratch: Vec<NodeSnapshot>,
    /// Noise-free mean power per node, refilled by every tick that runs
    /// the plant.
    node_power: Vec<Power>,
    /// The tick's telemetry batch — power samples, then plugin messages
    /// in node order — drained by [`Broker::publish_batch_serial`].
    tick_batch: Vec<(Topic, Payload)>,
    /// Per-node temperatures, reused so a warm tick allocates nothing:
    /// the control plane's input on a full step, and the pre-tick
    /// snapshot in a fast-forward.
    temps: Vec<Celsius>,
    /// Ticks executed through the full step pipeline.
    ticks_stepped: u64,
    /// Ticks fast-forwarded by the event-driven clock (masked ticks and
    /// equilibrium jumps).
    ticks_skipped: u64,
}

/// Everything the recovery subsystem tracks: the control plane, the
/// checkpoint store, and the physical (as opposed to scheduler-visible)
/// liveness of each node.
#[derive(Debug)]
struct RecoveryState {
    config: RecoveryConfig,
    control: ControlPlane,
    store: CheckpointStore,
    /// Physical liveness. A dead node stops heartbeating and stalls its
    /// jobs, but the *scheduler* only learns about it when the control
    /// plane fences the node off the failure detector.
    node_alive: Vec<bool>,
    next_heartbeat: Vec<SimTime>,
    /// Progress each requeued job restarts from (captured at eviction
    /// from its last committed checkpoint, consumed at the next start).
    resume_progress: HashMap<JobId, f64>,
    /// Node-seconds of completed work thrown away by evictions.
    wasted_node_secs: f64,
    checkpoints_written: usize,
    suspicions: usize,
    fences: usize,
    /// Which node holds each job's spilled (node-local, not yet durable)
    /// checkpoint: by convention the job's first allocated node. Placement
    /// soft-avoids these nodes until the spill flushes.
    spill_holders: HashMap<u64, usize>,
}

impl SimEngine {
    /// Builds the engine over the standard 8-node machine.
    pub fn new(config: EngineConfig) -> Self {
        let nodes: Vec<ComputeNode> = (0..8).map(ComputeNode::new).collect();
        let schema = ExamonSchema::monte_cimone();
        let broker = Broker::new();
        let collector = config.monitoring.then(|| attach_collector(&broker));
        // The engine's power samples already include temperature-dependent
        // leakage, so the thermal model's own feedback term is disabled to
        // avoid double-counting the runaway loop.
        let thermal = ThermalModel::monte_cimone(config.airflow).with_leakage_feedback(0.0);
        // Thermal leakage feedback participates in the runaway loop. The
        // reference is the idle steady-state silicon temperature, so the
        // Table VI calibration holds at the machine's normal operating
        // point.
        let power = PowerModel::u740().with_thermal_leakage(0.012, Celsius::new(36.5));
        // Plugins pre-register their per-node/per-metric topics here, once;
        // `sample_into` then emits interned handles with zero allocations
        // per tick.
        let pmu = nodes
            .iter()
            .map(|node| {
                PluginRunner::new(PmuPlugin::for_host(
                    schema.clone(),
                    node.hostname(),
                    node.soc().cores().len(),
                ))
            })
            .collect();
        let stats = nodes
            .iter()
            .map(|node| PluginRunner::new(StatsPlugin::for_host(schema.clone(), node.hostname())))
            .collect();
        let power_topics: Vec<Topic> = nodes
            .iter()
            .map(|node| power_topic_for(node.hostname()))
            .collect();
        let heartbeat_topics: Vec<Topic> = nodes
            .iter()
            .map(|node| heartbeat_topic(node.hostname()))
            .collect();
        let n = nodes.len();
        let layout = MachineLayout::monte_cimone();
        let blade_count = layout.blades().len();
        let opp_count = nodes[0].cpufreq().opps().len();
        let mut scheduler = Scheduler::new(Partition::monte_cimone());
        scheduler.set_topology(cimone_sched::placement::BladeTopology::monte_cimone());
        let recovery = config.recovery.map(|rc| RecoveryState {
            config: rc,
            control: ControlPlane::new(
                &broker,
                rc,
                nodes
                    .iter()
                    .map(|node| node.hostname().to_owned())
                    .collect(),
            ),
            store: CheckpointStore::new(),
            node_alive: vec![true; n],
            next_heartbeat: vec![SimTime::ZERO; n],
            resume_progress: HashMap::new(),
            wasted_node_secs: 0.0,
            checkpoints_written: 0,
            suspicions: 0,
            fences: 0,
            spill_holders: HashMap::new(),
        });
        SimEngine {
            config,
            nodes,
            thermal,
            power,
            scheduler,
            running: BTreeMap::new(),
            workloads: HashMap::new(),
            accounting: AccountingLog::new(),
            broker,
            collector,
            store: TimeSeriesStore::new(),
            pmu,
            stats,
            power_topics,
            heartbeat_topics,
            schema,
            events: Vec::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(config.seed),
            faults: FaultQueue::default(),
            windows: Vec::new(),
            sdc_detected: 0,
            sdc_corrected: 0,
            sdc_undetected: 0,
            last_power: vec![None; n],
            switch: MgmtSwitch::monte_cimone(),
            layout,
            power_cap: config
                .power_cap
                .map(|pc| PowerCapGovernor::new(pc, blade_count, opp_count)),
            last_blade_power: vec![0.0; blade_count],
            brownout_peak_power: vec![0.0; blade_count],
            rack_peak_power: 0.0,
            node_down_since: vec![None; n],
            node_downtime: vec![SimDuration::ZERO; n],
            failures: 0,
            recovery,
            snap_scratch: (0..n).map(|_| NodeSnapshot::default()).collect(),
            node_power: Vec::with_capacity(n),
            tick_batch: Vec::new(),
            temps: Vec::with_capacity(n),
            ticks_stepped: 0,
            ticks_skipped: 0,
        }
    }

    /// Installs a fault schedule; events fire as the clock reaches them.
    /// Replaces any previously installed plan (already-fired events are
    /// not replayed).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// In-place form of [`SimEngine::with_fault_plan`].
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] against this
    /// machine — an out-of-range node or blade index, a brownout budget
    /// fraction outside `(0, 1]`, or overlapping brownouts on one rail.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = self.try_set_fault_plan(plan) {
            panic!("invalid fault plan: {e}");
        }
    }

    /// Fallible form of [`SimEngine::set_fault_plan`].
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] in the plan's time order.
    pub fn try_set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), FaultPlanError> {
        plan.validate(self.nodes.len(), self.layout.blades().len())?;
        self.faults = FaultQueue::from_plan(plan);
        Ok(())
    }

    /// Replaces the scheduling policy (must be called before any
    /// submission).
    ///
    /// # Panics
    ///
    /// Panics if jobs were already submitted.
    pub fn with_policy(mut self, policy: cimone_sched::scheduler::SchedulingPolicy) -> Self {
        assert!(
            self.workloads.is_empty(),
            "set the policy before submitting jobs"
        );
        self.scheduler = Scheduler::with_policy(Partition::monte_cimone(), policy);
        self.scheduler
            .set_topology(cimone_sched::placement::BladeTopology::monte_cimone());
        self
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The ExaMon time-series store.
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// Reserves room for `additional` further points on every series
    /// already in the store, so a run over a known horizon ingests
    /// without regrowing a column.
    pub fn reserve_store_points(&mut self, additional: usize) {
        self.store.reserve_points(additional);
    }

    /// The topic schema in use.
    pub fn schema(&self) -> &ExamonSchema {
        &self.schema
    }

    /// The scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Completed-job accounting.
    pub fn accounting(&self) -> &AccountingLog {
        &self.accounting
    }

    /// The compute nodes.
    pub fn nodes(&self) -> &[ComputeNode] {
        &self.nodes
    }

    /// The thermal model.
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Events so far.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// Lifetime silent-data-corruption outcome counters:
    /// `(detected, corrected, undetected)`. Detected corruptions rolled the
    /// job back to its last checkpoint, corrected ones were repaired in
    /// place by the ABFT checksums, undetected ones finished the job with a
    /// wrong result (only possible with [`AbftMode::Off`]).
    pub fn sdc_counts(&self) -> (usize, usize, usize) {
        (self.sdc_detected, self.sdc_corrected, self.sdc_undetected)
    }

    /// Switches the enclosure airflow (the paper's mitigation) in place.
    pub fn set_airflow(&mut self, airflow: AirflowConfig) {
        self.config.airflow = airflow;
        self.thermal.set_config(airflow);
    }

    /// Re-tunes every pmu/stats runner's sampling comb in place: `period`
    /// is the spacing between samples, `phase` the offset of the first
    /// sample after the current clock. Coprime, misaligned combs are the
    /// stress case for the §16 sampled-span replay, which must reproduce
    /// every interleaving bitwise.
    ///
    /// # Panics
    ///
    /// Panics if either period is zero — a zero-period plugin would be
    /// due forever.
    pub fn set_sampling_cadence(
        &mut self,
        pmu_period: SimDuration,
        pmu_phase: SimDuration,
        stats_period: SimDuration,
        stats_phase: SimDuration,
    ) {
        assert!(
            !pmu_period.is_zero() && !stats_period.is_zero(),
            "sampling periods must be positive"
        );
        for runner in &mut self.pmu {
            runner.plugin_mut().set_period(pmu_period);
            runner.set_next_due(self.now + pmu_phase);
        }
        for runner in &mut self.stats {
            runner.plugin_mut().set_period(stats_period);
            runner.set_next_due(self.now + stats_phase);
        }
    }

    /// The DVFS state of one node's core complex.
    pub fn node_cpufreq(&self, node_index: usize) -> &cimone_soc::cpufreq::CpuFreq {
        self.nodes[node_index].cpufreq()
    }

    /// The physical blade layout the engine simulates.
    pub fn layout(&self) -> &MachineLayout {
        &self.layout
    }

    /// The blade power-cap governor, when configured.
    pub fn power_cap(&self) -> Option<&PowerCapGovernor> {
        self.power_cap.as_ref()
    }

    /// Mean (noise-free) power one blade drew at the last executed tick,
    /// watts — exactly the quantity the power-cap governor bounds under a
    /// browned-out rail.
    pub fn blade_power(&self, blade: usize) -> f64 {
        self.last_blade_power[blade]
    }

    /// Peak mean blade power observed at any tick while `blade` was under
    /// an active brownout budget (0.0 if it never was). With the governor
    /// on, this never exceeds `budget_frac ×` [`crate::RAIL_RATED_WATTS`].
    pub fn brownout_peak_power(&self, blade: usize) -> f64 {
        self.brownout_peak_power[blade]
    }

    /// Peak machine-wide mean power observed at any tick while a
    /// multi-rail rack budget was active (0.0 if one never was). With the
    /// governor on, the water-filled per-blade shares keep this at or
    /// under the machine budget.
    pub fn rack_peak_power(&self) -> f64 {
        self.rack_peak_power
    }

    /// Records this tick's per-blade power and, while a blade is under an
    /// active brownout budget (governed or crash-only), tracks the peak.
    /// Called by [`SimEngine::thermal_phase`] with the mean powers the
    /// integrator consumes, so the peak is the exact governed quantity.
    fn record_blade_power(&mut self, node_power: &[Power]) {
        for blade in 0..self.last_blade_power.len() {
            let watts: f64 = self.layout.blades()[blade]
                .node_indices
                .iter()
                .map(|&i| node_power[i].as_watts())
                .sum();
            self.last_blade_power[blade] = watts;
            let budgeted = self
                .power_cap
                .as_ref()
                .is_some_and(|gov| gov.active_budget_watts(blade).is_some())
                || self.open_until(SpanFault::Brownout { blade }).is_some();
            if budgeted && watts > self.brownout_peak_power[blade] {
                self.brownout_peak_power[blade] = watts;
            }
        }
        if self
            .power_cap
            .as_ref()
            .is_some_and(|gov| gov.active_rack_budget_watts().is_some())
        {
            let total: f64 = self.last_blade_power.iter().sum();
            if total > self.rack_peak_power {
                self.rack_peak_power = total;
            }
        }
    }

    /// Operator-style failure injection: takes a node out of service as a
    /// hardware fault would, requeueing every job running on it. Returns
    /// the affected jobs (requeued or lost). This is the immediate form of
    /// scheduling a [`FaultKind::NodeCrash`] at the current time. With
    /// recovery enabled the crash is physical only — the scheduler learns
    /// of it through the failure detector, so the returned list is empty.
    pub fn inject_node_failure(&mut self, node_index: usize) -> Vec<JobId> {
        self.apply_fault(FaultKind::NodeCrash { node: node_index })
    }

    /// Returns a tripped or crashed node to service after repair. With
    /// recovery enabled the repair is physical: the node resumes
    /// heartbeating and the control plane unfences it once suspicion
    /// clears.
    pub fn resume_node(&mut self, node_index: usize) {
        self.bring_up(node_index);
    }

    /// Whether the recovery subsystem is active.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Node-seconds of completed work thrown away by evictions (work past
    /// the last committed checkpoint at the moment a job lost its nodes).
    pub fn wasted_node_seconds(&self) -> f64 {
        self.recovery.as_ref().map_or(0.0, |r| r.wasted_node_secs)
    }

    /// Checkpoints committed so far.
    pub fn checkpoints_written(&self) -> usize {
        self.recovery.as_ref().map_or(0, |r| r.checkpoints_written)
    }

    /// Times the failure detector crossed its threshold.
    pub fn suspicion_count(&self) -> usize {
        self.recovery.as_ref().map_or(0, |r| r.suspicions)
    }

    /// Nodes fenced by the control plane so far (suspicion or watchdog).
    pub fn fence_count(&self) -> usize {
        self.recovery.as_ref().map_or(0, |r| r.fences)
    }

    /// The shared GbE management switch (the rack-level fault domain).
    pub fn switch(&self) -> &MgmtSwitch {
        &self.switch
    }

    /// The checkpoint store, when recovery is configured.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.recovery.as_ref().map(|r| &r.store)
    }

    /// The control plane (suspicion levels, fence state), when recovery is
    /// configured.
    pub fn control_plane(&self) -> Option<&ControlPlane> {
        self.recovery.as_ref().map(|r| &r.control)
    }

    /// Accumulated outage time of one node, including any outage still
    /// open at the current time.
    pub fn node_downtime(&self, node_index: usize) -> SimDuration {
        let open = self.node_down_since[node_index]
            .map(|since| self.now.saturating_since(since))
            .unwrap_or(SimDuration::ZERO);
        self.node_downtime[node_index] + open
    }

    /// Total node-outage time across the machine (node-seconds down).
    pub fn total_downtime(&self) -> SimDuration {
        (0..self.nodes.len()).map(|i| self.node_downtime(i)).sum()
    }

    /// Node outages observed so far (trips, crashes, injected failures).
    pub fn failure_count(&self) -> usize {
        self.failures
    }

    /// Ticks executed through the full step pipeline so far.
    pub fn ticks_stepped(&self) -> u64 {
        self.ticks_stepped
    }

    /// Ticks the event-driven clock fast-forwarded (masked ticks plus
    /// equilibrium jumps). Zero under
    /// [`ClockMode::FixedDt`].
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// Propagates scheduler rejections (e.g. more nodes than the machine).
    pub fn submit(&mut self, request: JobRequest) -> Result<JobId, SchedError> {
        let limit = self.estimate_duration(&request.workload, request.nodes) * 3;
        let spec = JobSpec::new(
            request.name,
            request.user,
            request.nodes,
            SimDuration::from_secs_f64(limit.as_secs_f64().max(60.0)),
        );
        let id = self.scheduler.submit(spec, self.now)?;
        self.workloads.insert(id, request.workload);
        Ok(id)
    }

    /// Submits a job with an explicit wall-time limit instead of the
    /// engine's 3×-estimate default (`sbatch --time`). The engine kills
    /// the job with [`JobState::TimedOut`] when the limit expires.
    ///
    /// # Errors
    ///
    /// Propagates scheduler rejections.
    pub fn submit_with_limit(
        &mut self,
        request: JobRequest,
        time_limit: SimDuration,
    ) -> Result<JobId, SchedError> {
        let spec = JobSpec::new(request.name, request.user, request.nodes, time_limit);
        let id = self.scheduler.submit(spec, self.now)?;
        self.workloads.insert(id, request.workload);
        Ok(id)
    }

    fn estimate_duration(&self, workload: &ClusterWorkload, nodes: usize) -> SimDuration {
        let secs = match workload {
            ClusterWorkload::Hpl(problem) => HplModel::monte_cimone(*problem).run_time(nodes),
            ClusterWorkload::QeLax => LaxModel::paper().run_time(),
            ClusterWorkload::StreamDdr { secs } | ClusterWorkload::StreamL2 { secs } => {
                *secs as f64
            }
            ClusterWorkload::Synthetic { secs, .. } => *secs as f64,
        };
        SimDuration::from_secs_f64(secs)
    }

    /// Advances one step.
    pub fn step(&mut self) {
        self.tick(Phases::ALL);
        self.ticks_stepped += 1;
    }

    /// Runs one tick of the pipeline, in its fixed phase order, with the
    /// masked-out `phases` skipped, then advances the clock one `dt`.
    /// [`SimEngine::step`] runs every phase; a fast-forward masks the
    /// phases its entry predicate proved inert.
    fn tick(&mut self, phases: Phases) -> Tick {
        // 0. Fire any faults the clock has reached, close expired windows.
        if phases.decide {
            self.apply_due_faults();
        }

        // 0b. Recovery: heartbeats out through the broker, then the
        //     control plane turns their absence into fencing decisions.
        let mut beat = false;
        if self.recovery.is_some() {
            beat = self.publish_heartbeats();
            if phases.decide {
                self.control_plane_tick();
            } else if beat {
                let rec = self.recovery.as_mut().expect("recovery mode");
                rec.control.pump_arrivals();
            }
        }

        // 1–3b. Scheduler, jobs, checkpoints and the power cap.
        if phases.decide {
            self.decide_jobs();
        }

        // 4. Power and energy. The thermal and energy integrators consume
        //    the noise-free *mean* power; the noisy sample is drawn only
        //    for a reading that is actually published. Neither reads
        //    what the other writes.
        let dt = self.config.dt;
        let observe = self.observing();
        let mut batch = std::mem::take(&mut self.tick_batch);
        self.sample_power_into(observe, &mut batch);
        let mut changed = false;
        if phases.plant {
            let mut node_power = std::mem::take(&mut self.node_power);
            self.mean_power_into(&mut node_power);
            for job in self.running.values_mut() {
                let p: Power = job.node_indices.iter().map(|&i| node_power[i]).sum();
                job.energy += p.energy_over(dt);
            }
            // 5. Thermal step, trip handling and the thermal governor.
            changed = self.thermal_phase(&node_power);
            self.node_power = node_power;
        }

        // 6. Node execution and plugin sampling (node.advance reads only
        //    the conditions and DVFS state fixed in earlier phases, so
        //    running it after power/thermal is equivalent). The tick's
        //    messages then go out as one serial batch: power samples
        //    first, then plugins in node order — the order per-message
        //    publishing would produce.
        if phases.advance {
            self.advance_and_sample_into(observe, &mut batch);
        }
        self.broker.publish_batch_serial(&mut batch);
        self.tick_batch = batch;
        if phases.ingest {
            self.ingest();
        }

        self.now += dt;
        Tick { beat, changed }
    }

    /// Phases 1–3b: start what the scheduler releases, advance and finish
    /// jobs, run their checkpoints, refresh node conditions and evaluate
    /// the blade power cap.
    fn decide_jobs(&mut self) {
        let dt = self.config.dt;

        // 1. Start whatever the scheduler releases.
        for id in self.scheduler.schedule(self.now) {
            self.start_job(id);
        }

        // 2. Advance job progress (gated by the slowest allocated node's
        //    DVFS state — HPL is bulk-synchronous — and by any active
        //    filesystem / interconnect fault) and complete finished jobs.
        let nfs_stalled = self.open_until(SpanFault::NfsStall).is_some();
        let degrade = self
            .open_windows()
            .find_map(|w| match w.fault {
                SpanFault::LinkDegrade { factor } => Some(factor),
                _ => None,
            })
            .unwrap_or(1.0);
        let partitioned = self.active_partition();
        for job in self.running.values_mut() {
            let mut speed = job
                .node_indices
                .iter()
                .map(|&i| self.nodes[i].cpufreq().performance_scale())
                .fold(1.0f64, f64::min);
            if nfs_stalled {
                // I/O blocks cluster-wide: no job makes progress.
                speed = 0.0;
            }
            if let Some(rec) = &self.recovery {
                // A crashed node takes its jobs with it; until the control
                // plane notices, the scheduler still believes they run.
                if job.node_indices.iter().any(|&i| !rec.node_alive[i]) {
                    speed = 0.0;
                }
            }
            if job.ckpt.is_draining() {
                // Quiesced for a checkpoint write.
                speed = 0.0;
            }
            if let Some((a, b)) = partitioned {
                // A bulk-synchronous job spanning the cut stalls outright.
                if job.node_indices.contains(&a) && job.node_indices.contains(&b) {
                    speed = 0.0;
                }
            }
            if degrade > 1.0 && job.node_indices.len() > 1 {
                // Communication phases take `degrade`× longer.
                speed /= 1.0 + job.comm_fraction * (degrade - 1.0);
            }
            let before = job.progress;
            job.progress += dt.as_secs_f64() / job.duration.as_secs_f64() * speed;
            // 2a. ABFT panel verification: a flip in the trailing matrix is
            //     caught at the first panel boundary the job crosses after
            //     the hit (the column-checksum check runs once per panel).
            //     Flips in already-factored panels escape this check and
            //     are only caught by the end-of-run residual below.
            if job.sdc_trailing > 0 && self.config.abft != AbftMode::Off {
                let panels =
                    (job.duration.as_micros() / job.panel_cycle.as_micros().max(1)).max(1) as f64;
                let crossed = (before * panels).floor() != (job.progress * panels).floor();
                if crossed {
                    job.sdc_trailing = 0;
                    match self.config.abft {
                        AbftMode::Detect => {
                            // Detected but unrepairable: restart from the
                            // last committed checkpoint.
                            let saved = job.ckpt.committed();
                            let wasted = (job.progress - saved).max(0.0);
                            if let Some(rec) = self.recovery.as_mut() {
                                rec.wasted_node_secs += wasted
                                    * job.duration.as_secs_f64()
                                    * job.node_indices.len() as f64;
                            }
                            job.progress = saved;
                            self.sdc_detected += 1;
                            self.events.push(EngineEvent::SdcDetected {
                                id: job.id,
                                at: self.now,
                            });
                        }
                        AbftMode::Correct => {
                            // Repaired in place: one panel of recompute.
                            job.progress = (job.progress - 1.0 / panels).max(0.0);
                            self.sdc_corrected += 1;
                            self.events.push(EngineEvent::SdcCorrected {
                                id: job.id,
                                at: self.now,
                            });
                        }
                        AbftMode::Off => unreachable!("guarded above"),
                    }
                }
            }
        }
        // 2b. Checkpoint state machine: commit finished writes, begin due
        //     ones.
        self.advance_checkpoints();
        let finished: Vec<JobId> = self
            .running
            .values()
            .filter(|job| job.progress >= 1.0)
            .map(|job| job.id)
            .collect();
        for id in finished {
            // 2c. End-of-run residual check: a poisoned run that reached
            //     completion either fails the residual (ABFT on — restart
            //     from the last checkpoint, flip recomputed away) or ships
            //     a silently wrong answer (ABFT off).
            let poisoned = {
                let job = &self.running[&id];
                job.sdc_trailing > 0 || job.sdc_factored > 0
            };
            if poisoned {
                if self.config.abft == AbftMode::Off {
                    self.sdc_undetected += 1;
                    self.events
                        .push(EngineEvent::SdcUndetected { id, at: self.now });
                } else {
                    let job = self.running.get_mut(&id).expect("job is running");
                    job.sdc_trailing = 0;
                    job.sdc_factored = 0;
                    let saved = job.ckpt.committed();
                    let wasted = (job.progress - saved).max(0.0);
                    job.progress = saved;
                    let (duration, nodes) = (job.duration.as_secs_f64(), job.node_indices.len());
                    if let Some(rec) = self.recovery.as_mut() {
                        rec.wasted_node_secs += wasted * duration * nodes as f64;
                    }
                    self.sdc_detected += 1;
                    self.events
                        .push(EngineEvent::SdcDetected { id, at: self.now });
                    continue; // the job re-runs the poisoned stretch
                }
            }
            self.finish_job(id, JobState::Completed);
        }
        // Wall-time enforcement: Slurm kills jobs at their limit.
        let timed_out: Vec<JobId> = self
            .running
            .values()
            .filter(|job| {
                let limit = self
                    .scheduler
                    .job(job.id)
                    .expect("running job known")
                    .spec()
                    .time_limit;
                self.now.saturating_since(job.started) >= limit
            })
            .map(|job| job.id)
            .collect();
        for id in timed_out {
            self.finish_job(id, JobState::TimedOut);
        }
        self.refresh_conditions();

        // 3b. Blade power-cap governor: decides each blade's OPP ceiling
        //     against any browned-out rail *before* the power phase, using
        //     the same workloads and temperatures phase 4 consumes — so
        //     the power a capped blade then draws is exactly the power the
        //     governor predicted, and the ≤-budget invariant holds at
        //     every tick rather than only in steady state.
        self.evaluate_power_cap();
    }

    /// Whether telemetry leaves the nodes this tick: monitoring is on and
    /// the management switch it rides on is up. A dead switch silences
    /// every node at once (the broker lives across it), exactly like a
    /// cluster-wide sensor dropout.
    fn observing(&self) -> bool {
        self.config.monitoring && self.switch.is_up(self.now)
    }

    /// Phase 4a: each node's noise-free mean power, the quantity the
    /// thermal and energy integrators consume (sensor noise is a
    /// measurement artefact, not physics). Draws no randomness.
    fn mean_power_into(&self, node_power: &mut Vec<Power>) {
        node_power.clear();
        node_power.extend(self.nodes.iter().enumerate().map(|(i, node)| {
            let workload = node.effective_power_workload();
            let scale = node.cpufreq().scale();
            self.power
                .mean_all_dvfs(workload, self.thermal.temperature(i), scale)
                .total()
        }));
    }

    /// Phase 4b: when `observe`, each node's noisy power reading, drawn
    /// serially in node order and pushed onto `batch`. A dropped-out
    /// sensor draws nothing; a stuck one republishes its frozen value
    /// after the draw. An active payload-corruption span flips the sign
    /// bit of the value on the wire (after the draw, so the noise stream
    /// is untouched): the reading becomes implausible and the ingestion
    /// scrub quarantines it.
    fn sample_power_into(&mut self, observe: bool, batch: &mut Vec<(Topic, Payload)>) {
        if !observe {
            return;
        }
        for i in 0..self.nodes.len() {
            if self
                .open_until(SpanFault::SensorDropout { node: i })
                .is_some()
            {
                continue; // dropped out: no draw, no message
            }
            let stuck = self
                .open_until(SpanFault::SensorStuck { node: i })
                .is_some();
            let node = &self.nodes[i];
            let measured = self
                .power
                .sample_all_dvfs(
                    node.effective_power_workload(),
                    self.thermal.temperature(i),
                    node.cpufreq().scale(),
                    &mut self.rng,
                )
                .total()
                .as_watts();
            let watts = match (stuck, self.last_power[i]) {
                (true, Some(frozen)) => frozen,
                _ => measured,
            };
            let watts = if self
                .open_until(SpanFault::PayloadCorruption { node: i })
                .is_some()
            {
                f64::from_bits(watts.to_bits() ^ (1u64 << 63))
            } else {
                watts
            };
            batch.push((self.power_topics[i], Payload::new(watts, self.now)));
            if !stuck {
                self.last_power[i] = Some(measured);
            }
        }
    }

    /// Phases 5–5b: blade power bookkeeping, thermal integration, trip
    /// handling, the nodes' hwmon temperatures and the thermal governor,
    /// from this tick's mean powers. Returns whether a trip or a governor
    /// move changed state beyond the integrator.
    fn thermal_phase(&mut self, node_power: &[Power]) -> bool {
        self.record_blade_power(node_power);
        let tripped = self.thermal.step(node_power, self.config.dt);
        let any_trip = !tripped.is_empty();
        for node_index in tripped {
            self.handle_trip(node_index);
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.set_temperatures(
                self.thermal.temperature(i),
                self.thermal.mb_temperature(i),
                self.thermal.nvme_temperature(i),
            );
        }
        let governed = self.govern();
        any_trip || governed
    }

    /// Phase 6: every node advances its counters one tick (load averages
    /// smooth exponentially, so ticks are never batched). When `observe`,
    /// each node whose sensor is live and has a plugin due refills its
    /// reused snapshot and appends its due PMU then stats messages to
    /// `batch`; a node with nothing due is not snapshotted at all.
    fn advance_and_sample_into(&mut self, observe: bool, batch: &mut Vec<(Topic, Payload)>) {
        let dt = self.config.dt;
        let now = self.now;
        for i in 0..self.nodes.len() {
            self.nodes[i].advance(dt);
            if !observe
                || self
                    .open_until(SpanFault::SensorDropout { node: i })
                    .is_some()
            {
                continue; // silent, switch dark, or monitoring off
            }
            if now < self.pmu[i].next_due() && now < self.stats[i].next_due() {
                continue;
            }
            let snapshot = &mut self.snap_scratch[i];
            self.nodes[i].snapshot_into(now, snapshot);
            self.pmu[i].due_messages_into(now, snapshot, batch);
            self.stats[i].due_messages_into(now, snapshot, batch);
        }
    }

    /// Phase 6 ingest: pumps the collector's queue into the store, then
    /// turns every sample the ingestion scrub quarantined since the last
    /// drain into an [`EngineEvent::SdcSuspected`], in arrival order. The
    /// event carries the sample's own timestamp, so the one span-end
    /// ingest of a fast-forward yields the same events as per-tick
    /// ingest.
    fn ingest(&mut self) {
        let Some(collector) = self.collector.as_mut() else {
            return;
        };
        collector.pump(&mut self.store);
        for (topic, payload) in collector.take_quarantined() {
            let node = topic
                .segments()
                .iter()
                .find(|s| s.starts_with("mc-node-"))
                .map(|s| hostname_index(s))
                .expect("scrubbed topics carry a node segment");
            self.events.push(EngineEvent::SdcSuspected {
                node,
                at: payload.timestamp,
                value: payload.value,
            });
        }
    }

    /// Phase 5b: the thermal governor's per-node decision, run by
    /// [`SimEngine::thermal_phase`] on every tick that integrates
    /// temperature, full or fast-forwarded.
    fn govern(&mut self) -> bool {
        let Some(governor) = self.config.governor else {
            return false;
        };
        let mut changed = false;
        for i in 0..self.nodes.len() {
            match governor.decide(self.thermal.temperature(i)) {
                GovernorAction::StepDown => {
                    changed |= self.nodes[i].cpufreq_mut().step_down();
                }
                GovernorAction::StepUp => {
                    changed |= self.nodes[i].cpufreq_mut().step_up();
                }
                GovernorAction::Hold => {}
            }
        }
        changed
    }

    /// Phase 3b: the blade power-cap governor's decision, plus the
    /// enforcement of whatever ceilings it holds (the thermal watchdog or
    /// DVFS governor may have stepped a board back up since last tick).
    fn evaluate_power_cap(&mut self) {
        let Some(mut gov) = self.power_cap.take() else {
            return;
        };
        let actions = {
            let nodes = &self.nodes;
            let thermal = &self.thermal;
            let power = &self.power;
            let layout = &self.layout;
            gov.evaluate(self.now, |blade, opp| {
                layout.blades()[blade]
                    .node_indices
                    .iter()
                    .map(|&i| {
                        let workload = nodes[i].effective_power_workload();
                        let temp = thermal.temperature(i);
                        let scale = nodes[i].cpufreq().scale_at(opp);
                        power
                            .mean_all_dvfs(workload, temp, scale)
                            .total()
                            .as_watts()
                    })
                    .sum()
            })
        };
        for action in actions {
            match action {
                CapAction::SetCeiling { blade, ceiling } => {
                    // Steer new placements away from the degraded blade
                    // while it is capped (or still ramping back).
                    self.scheduler.set_blade_degraded(blade, true);
                    self.events.push(EngineEvent::BladeCapped {
                        blade,
                        at: self.now,
                        ceiling,
                    });
                }
                CapAction::Emergency {
                    blade,
                    budget_watts,
                } => {
                    self.scheduler.set_blade_degraded(blade, true);
                    self.events.push(EngineEvent::PowerEmergency {
                        blade,
                        at: self.now,
                        budget_watts,
                    });
                    // Controlled load-shed: evict this blade's jobs through
                    // the checkpoint-aware requeue path and drain the
                    // boards. Unlike a crash this is a *decision* — the
                    // failure detector plays no part, so heartbeats keep
                    // flowing and nothing is falsely suspected.
                    for node in self.layout.blades()[blade].node_indices {
                        self.node_failed(node);
                    }
                }
                CapAction::RailRecovered { blade } => {
                    self.events.push(EngineEvent::RailRecovered {
                        blade,
                        at: self.now,
                    });
                    for node in self.layout.blades()[blade].node_indices {
                        self.node_recovered(node);
                    }
                }
                CapAction::Release { blade } => {
                    self.scheduler.set_blade_degraded(blade, false);
                    self.events.push(EngineEvent::BladeReleased {
                        blade,
                        at: self.now,
                    });
                }
                CapAction::RackEmergency { budget_watts } => {
                    // The per-blade Emergency actions that follow carry the
                    // infeasible shares and do the actual checkpoint-drain;
                    // this records the machine-wide cause.
                    self.events.push(EngineEvent::RackPowerEmergency {
                        at: self.now,
                        budget_watts,
                    });
                }
            }
        }
        // With a thermal governor or watchdog configured, those own the
        // upward moves (they step boards back up when cool), so the cap is
        // a one-way upper bound. Without either, nothing else would ever
        // raise a clamped board again — so nodes are pinned *exactly* at
        // the ceiling (nominal on healthy blades, the implicit
        // performance-governor semantic), and each ramp-back step and the
        // final release restore their frequency.
        let pin_exact = self.config.governor.is_none()
            && self
                .recovery
                .as_ref()
                .is_none_or(|rec| rec.config.thermal_watchdog.is_none());
        for (blade, b) in self.layout.blades().iter().enumerate() {
            let ceiling = gov.ceiling(blade);
            for &i in &b.node_indices {
                let current = self.nodes[i].cpufreq().current_index();
                if current > ceiling || (pin_exact && current < ceiling) {
                    self.nodes[i].cpufreq_mut().set_index(ceiling);
                }
            }
        }
        self.power_cap = Some(gov);
    }

    /// Runs for a span of simulated time. Under [`ClockMode::EventDriven`]
    /// provably inert spans are fast-forwarded; the final clock is the
    /// same grid tick a fixed-dt run lands on.
    pub fn run_for(&mut self, span: SimDuration) {
        let end = self.now + span;
        while self.now < end {
            if self.config.clock == ClockMode::EventDriven {
                let cap = self.grid_align_up(end);
                if self.fast_forward_to(cap) {
                    continue;
                }
            }
            self.step();
        }
    }

    /// Runs until no job is pending or running, up to `max`. Returns
    /// whether the machine drained. Both clock modes exit at the
    /// identical tick: the idle check runs before each step.
    pub fn run_until_idle(&mut self, max: SimDuration) -> bool {
        let end = self.now + max;
        while self.now < end {
            if self.running.is_empty() && self.scheduler.pending().is_empty() {
                return true;
            }
            if self.config.clock == ClockMode::EventDriven {
                let cap = self.grid_align_up(end);
                if self.fast_forward_to(cap) {
                    continue;
                }
            }
            self.step();
        }
        self.running.is_empty() && self.scheduler.pending().is_empty()
    }

    /// The first clock-grid tick at or after `t` (the engine's clock only
    /// ever rests on multiples of `dt` from its starting point).
    fn grid_align_up(&self, t: SimTime) -> SimTime {
        let dt = self.config.dt.as_micros().max(1);
        let now = self.now.as_micros();
        let target = t.as_micros().max(now);
        SimTime::from_micros(now + (target - now).div_ceil(dt) * dt)
    }

    /// Whether the only work [`SimEngine::step`] has at the current tick
    /// is observation — heartbeats, sensor draws, plugin samples and
    /// their ingest — plus plant physics: nothing running, the scheduler
    /// provably starting nothing, nothing due at or before now, and the
    /// control plane, power-cap governor and DVFS governor all idle.
    /// `false` is conservative: the tick is stepped in full.
    fn tick_is_observation_only(&self) -> bool {
        // `would_start_any == false` is a proof schedule() is a no-op.
        if !self.running.is_empty()
            || self.scheduler.would_start_any(self.now)
            || self.next_due(self.now).is_some()
            || self.control_plane_busy()
        {
            return false;
        }
        // A non-quiescent power-cap governor (active budget, pending ramp,
        // emergency, or any ceiling below nominal) decides every tick.
        if self
            .power_cap
            .as_ref()
            .is_some_and(|gov| !gov.is_quiescent())
        {
            return false;
        }
        // Under a governor the skip is only provable when every node is
        // at nominal (StepUp is a no-op there) and none is hot enough to
        // be stepped down.
        self.config.governor.is_none_or(|governor| {
            (0..self.nodes.len()).all(|i| {
                self.nodes[i].cpufreq().is_nominal()
                    && governor.decide(self.thermal.temperature(i)) != GovernorAction::StepDown
            })
        })
    }

    /// Earliest instant no later than `cap` at which a decision phase has
    /// work: the next planned fault, span-fault window end, switch
    /// restore, export recovery or scheduler release. Anything due at or
    /// before now keeps [`SimEngine::tick_is_observation_only`] false;
    /// anything later wakes a fast-forward. Heartbeats, phi crossings
    /// and plugin samples are observation, replayed rather than woken
    /// for.
    fn next_due(&self, cap: SimTime) -> Option<SimTime> {
        let export = self
            .recovery
            .as_ref()
            .and_then(|rec| rec.store.export_offline_until());
        [
            self.faults.next_due(),
            self.switch.next_due(),
            export,
            self.scheduler.next_due(self.now),
        ]
        .into_iter()
        .flatten()
        .chain(self.windows.iter().map(|w| w.until))
        .filter(|&t| t <= cap)
        .min()
    }

    /// Fast-forwards from the current tick towards `cap`, a grid tick
    /// (DESIGN.md §13, §16). Entered when
    /// [`SimEngine::tick_is_observation_only`] holds, it wakes at
    /// [`SimEngine::next_due`]. Every fast-forwarded tick is a
    /// [`SimEngine::tick`] with the decision and ingest phases masked —
    /// and node advance too when monitoring is off, since nothing then
    /// reads the counters — so heartbeats, sensor draws, plugin samples
    /// and the plant replay exactly. Once the temperatures reach their
    /// f64 fixed point the plant is masked as well; if nothing is
    /// observed either, the clock jumps straight to the next heartbeat,
    /// phi crossing or wake.
    ///
    /// Phi-accrual suspicion is scheduled, not polled: between heartbeat
    /// arrivals a detector's state is frozen and phi is monotone in
    /// silence, so the solved first crossing is exact until the next
    /// arrival, after which it is solved again from the following tick. A crossing fences, which only a full step applies, so the
    /// span stops just before it; a trip, governor move or watchdog
    /// arming finishes its tick, then stops the span. The collector is
    /// pumped once, at the span end: nothing reads the store mid-span
    /// and the queue keeps each series' order. Fast-forwarded ticks count
    /// as skipped. Returns whether the clock advanced (`false` ⇒ the
    /// caller steps).
    fn fast_forward_to(&mut self, cap: SimTime) -> bool {
        if cap <= self.now || !self.tick_is_observation_only() {
            return false;
        }
        let dt = self.config.dt;
        let n = self.nodes.len();
        let wake = self
            .next_due(cap)
            .map_or(cap, |due| cap.min(self.grid_align_up(due)));
        let start = self.now;
        let mut phases = Phases {
            decide: false,
            plant: true,
            advance: self.config.monitoring,
            ingest: false,
        };
        self.set_expected_scales();
        let mut crossing = self.next_crossing(wake);
        let mut prev_temps = std::mem::take(&mut self.temps);
        while self.now < wake && crossing.is_none_or(|t| t > self.now) {
            if !phases.plant && !phases.advance {
                // Settled and unobserved: every tick before the next
                // heartbeat is bitwise the same no-op.
                let to = [self.next_heartbeat(), crossing]
                    .into_iter()
                    .flatten()
                    .fold(wake, SimTime::min);
                if to > self.now {
                    self.ticks_skipped +=
                        (to.as_micros() - self.now.as_micros()) / dt.as_micros().max(1);
                    self.now = to;
                    continue;
                }
            }
            if phases.plant {
                prev_temps.clear();
                prev_temps.extend((0..n).map(|i| self.thermal.temperature(i)));
            }
            let tick = self.tick(phases);
            self.ticks_skipped += 1;
            if phases.plant {
                if tick.changed || self.control_plane_busy() {
                    break;
                }
                phases.plant = (0..n).any(|i| self.thermal.temperature(i) != prev_temps[i]);
            }
            if tick.beat {
                crossing = self.next_crossing(wake);
            }
        }
        self.temps = prev_temps;
        if self.now > start {
            self.ingest();
        }
        self.now > start
    }

    /// The first grid tick from now to `to` at which some node's phi would
    /// cross the suspicion threshold if no heartbeat arrived first.
    fn next_crossing(&self, to: SimTime) -> Option<SimTime> {
        let rec = self.recovery.as_ref()?;
        (0..self.nodes.len())
            .filter_map(|i| {
                rec.control
                    .next_suspicion_due(i, self.now, to, self.config.dt)
            })
            .min()
    }

    /// The first grid tick at which an alive node the partition leaves
    /// connected is due to heartbeat.
    fn next_heartbeat(&self) -> Option<SimTime> {
        let rec = self.recovery.as_ref()?;
        let partition = self.active_partition();
        (0..self.nodes.len())
            .filter(|&i| rec.node_alive[i] && !partition.is_some_and(|(a, b)| a == i || b == i))
            .map(|i| self.grid_align_up(rec.next_heartbeat[i]))
            .min()
    }

    /// Whether the recovery control plane has work at the current
    /// temperatures: a fenced node, watchdog state in flight, or a
    /// temperature over a watchdog threshold. Such a tick is never
    /// fast-forwarded.
    fn control_plane_busy(&self) -> bool {
        self.recovery.as_ref().is_some_and(|rec| {
            !rec.control
                .is_quiescent((0..self.nodes.len()).map(|i| self.thermal.temperature(i)))
        })
    }

    /// Open span-fault windows: their effect holds while `now < until`.
    fn open_windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(|w| self.now < w.until)
    }

    /// When the open window in `fault`'s slot ends, if one is open.
    fn open_until(&self, fault: SpanFault) -> Option<SimTime> {
        self.open_windows()
            .find(|w| w.fault.slot() == fault.slot())
            .map(|w| w.until)
    }

    /// Opens a span-fault window until `until`. A window already open in
    /// the same slot is replaced, even by a shorter one — except that a
    /// fan failure keeps the later end.
    fn open_window(&mut self, fault: SpanFault, until: SimTime) {
        let window = Window { fault, until };
        match self
            .windows
            .binary_search_by_key(&fault.slot(), |w| w.fault.slot())
        {
            Ok(i) => {
                let open = &mut self.windows[i];
                if !matches!(fault, SpanFault::FanFailure { .. }) || open.until < until {
                    *open = window;
                }
            }
            Err(i) => self.windows.insert(i, window),
        }
    }

    /// The partition cutting the management network right now, if any.
    fn active_partition(&self) -> Option<(usize, usize)> {
        self.open_windows().find_map(|w| match w.fault {
            SpanFault::Partition { a, b } => Some((a, b)),
            _ => None,
        })
    }

    fn start_job(&mut self, id: JobId) {
        let workload = self.workloads[&id];
        let job = self.scheduler.job(id).expect("started job exists");
        let node_indices: Vec<usize> = job
            .allocated_nodes()
            .iter()
            .map(|h| hostname_index(h))
            .collect();
        let nodes = node_indices.len();

        // Blades the allocation actually spans: scattering beyond the
        // minimal packing costs extra communication time (phase 3b of a
        // degraded machine can force this).
        let blades_spanned = {
            let mut blades: Vec<usize> = node_indices
                .iter()
                .map(|&i| self.layout.blade_of(i).position)
                .collect();
            blades.sort_unstable();
            blades.dedup();
            blades.len()
        };

        let (duration, comm_fraction, panel_cycle, mem_per_node) = match workload {
            ClusterWorkload::Hpl(problem) => {
                let model = HplModel::monte_cimone(problem);
                let sample = model.simulate_run_spanning(nodes, blades_spanned, &mut self.rng);
                let duration = SimDuration::from_secs_f64(sample.seconds);
                let cycle = duration / problem.panels().max(1) as u64;
                let mem = (problem.n * problem.n * 8) as f64 / nodes as f64;
                (duration, model.comm_fraction(nodes), cycle, mem)
            }
            ClusterWorkload::QeLax => {
                let model = LaxModel::paper();
                let (secs, _) = model.simulate_run(&mut self.rng);
                (
                    SimDuration::from_secs_f64(secs),
                    0.05,
                    SimDuration::from_secs(1),
                    (model.matrix_n * model.matrix_n * 8 * 4) as f64,
                )
            }
            ClusterWorkload::StreamDdr { secs } | ClusterWorkload::StreamL2 { secs } => (
                SimDuration::from_secs(secs),
                0.0,
                SimDuration::from_secs(1),
                2.0e9,
            ),
            ClusterWorkload::Synthetic { secs, .. } => (
                SimDuration::from_secs(secs),
                0.0,
                SimDuration::from_secs(1),
                1.0e9,
            ),
        };

        self.events.push(EngineEvent::JobStarted {
            id,
            at: self.now,
            nodes: node_indices.clone(),
        });
        // Restart from the last committed checkpoint when one survived a
        // previous eviction; schedule the first checkpoint of this run.
        let resumed = self
            .recovery
            .as_mut()
            .and_then(|r| r.resume_progress.remove(&id));
        if let Some(progress) = resumed {
            self.events.push(EngineEvent::JobResumed {
                id,
                at: self.now,
                progress,
            });
        }
        let next_ckpt_at = self
            .recovery
            .as_ref()
            .and_then(|r| r.config.checkpoint)
            .map(|c| self.now + c.interval);
        self.running.insert(
            id,
            RunningJob {
                id,
                workload,
                node_indices,
                started: self.now,
                duration,
                progress: resumed.unwrap_or(0.0),
                comm_fraction,
                panel_cycle: if panel_cycle.is_zero() {
                    SimDuration::from_secs(1)
                } else {
                    panel_cycle
                },
                mem_per_node,
                energy: Energy::ZERO,
                ckpt: CheckpointSchedule::new(next_ckpt_at, resumed.unwrap_or(0.0)),
                sdc_trailing: 0,
                sdc_factored: 0,
            },
        );
    }

    /// Re-derives every node's conditions from the running-job set: idle
    /// everywhere, then each job's nodes overwritten in id order.
    fn refresh_conditions(&mut self) {
        for node in &mut self.nodes {
            node.set_conditions(NodeConditions::default());
        }
        for job in self.running.values() {
            let elapsed = self.now.saturating_since(job.started);
            let workload_class = match job.workload {
                ClusterWorkload::Hpl(_) => Workload::Hpl,
                ClusterWorkload::QeLax => Workload::QeLax,
                ClusterWorkload::StreamDdr { .. } => Workload::StreamDdr,
                ClusterWorkload::StreamL2 { .. } => Workload::StreamL2,
                ClusterWorkload::Synthetic { workload, .. } => workload,
            };
            // Communication burst at the head of each panel cycle.
            let in_cycle = elapsed.as_micros() % job.panel_cycle.as_micros().max(1);
            let communicating = job.node_indices.len() > 1
                && (in_cycle as f64) < job.comm_fraction * job.panel_cycle.as_micros() as f64;
            let net = if communicating { 60.0e6 } else { 0.2e6 };
            for &i in &job.node_indices {
                self.nodes[i].set_conditions(NodeConditions {
                    workload: workload_class,
                    busy_cores: 4,
                    communicating,
                    net_recv: net,
                    net_send: net,
                    mem_used: job.mem_per_node,
                });
            }
        }
    }

    fn finish_job(&mut self, id: JobId, state: JobState) {
        let job = self.running.remove(&id).expect("finishing job is running");
        self.scheduler
            .complete(id, self.now, state)
            .expect("running job completes");
        if let Some(rec) = self.recovery.as_mut() {
            // A finished job's restart point is dead weight.
            rec.store.remove(id.0);
            rec.resume_progress.remove(&id);
            Self::release_spill_holder(
                &mut rec.spill_holders,
                &mut self.scheduler,
                &self.nodes,
                id.0,
            );
        }
        if let Some(record) = JobRecord::from_job(self.scheduler.job(id).expect("job exists")) {
            self.accounting.record(record.with_energy(job.energy));
        }
        self.events
            .push(EngineEvent::JobCompleted { id, at: self.now });
    }

    fn handle_trip(&mut self, node_index: usize) {
        let temperature = self.thermal.temperature(node_index);
        self.events.push(EngineEvent::NodeTripped {
            node: node_index,
            at: self.now,
            temperature,
        });
        // With recovery the hardware shut itself off; heartbeats stop and
        // the failure detector does the rest.
        self.take_down(node_index);
    }

    /// Fires every planned fault the clock has reached, then closes the
    /// span-fault windows that have expired.
    fn apply_due_faults(&mut self) {
        while let Some(event) = self.faults.pop_due(self.now) {
            self.apply_fault(event.kind);
        }
        if self.switch.restore_due(self.now) {
            self.switch.restore();
            self.events
                .push(EngineEvent::SwitchRestored { at: self.now });
        }
        // NFS export recovery: acknowledge the expired window once, then
        // flush any node-local spill buffers to the export in job-id order.
        let flush_due = self.recovery.as_ref().is_some_and(|rec| {
            rec.store
                .export_offline_until()
                .is_some_and(|t| self.now >= t)
        });
        if flush_due {
            let rec = self.recovery.as_mut().expect("recovery mode");
            rec.store.clear_export_offline();
            if rec.store.spilled_jobs() > 0 {
                let (records, _cost) = rec.store.flush_spill(self.now).expect("export back online");
                rec.checkpoints_written += records;
                for job_id in rec.spill_holders.keys().copied().collect::<Vec<_>>() {
                    Self::release_spill_holder(
                        &mut rec.spill_holders,
                        &mut self.scheduler,
                        &self.nodes,
                        job_id,
                    );
                }
                self.events.push(EngineEvent::SpillFlushed {
                    at: self.now,
                    records,
                });
            }
        }
        // The table is sorted by slot, so windows close kind by kind and,
        // within a kind, in node or blade order.
        while let Some(i) = self.windows.iter().position(|w| w.until <= self.now) {
            match self.windows.remove(i).fault {
                SpanFault::BrokerLoss => self.broker.set_loss(0.0, 0),
                // Reconnect ingestion; everything published meanwhile is
                // gone.
                SpanFault::CollectorOffline if self.config.monitoring => {
                    self.collector = Some(attach_collector(&self.broker));
                }
                // The fan is repaired: the blade and its shadow regain
                // their airflow (unless another failure still covers them).
                SpanFault::FanFailure { .. } => self.refresh_airflow_degradation(),
                SpanFault::Brownout { blade } => {
                    // Crash-only brownout over: both boards return.
                    for node in self.layout.blades()[blade].node_indices {
                        self.bring_up(node);
                    }
                }
                _ => {}
            }
        }
    }

    /// Applies one fault right now. Returns the victim jobs for node
    /// crashes (requeued or lost), empty otherwise. With recovery enabled
    /// a crash is physical only (the detector finds it later), so the list
    /// is empty there too.
    fn apply_fault(&mut self, kind: FaultKind) -> Vec<JobId> {
        self.events.push(EngineEvent::FaultInjected {
            at: self.now,
            kind: kind.clone(),
        });
        let now = self.now;
        match kind {
            FaultKind::NodeCrash { node } => return self.take_down(node),
            FaultKind::NodeRecover { node } => self.bring_up(node),
            FaultKind::SensorDropout { node, span } => {
                self.open_window(SpanFault::SensorDropout { node }, now + span);
            }
            FaultKind::SensorStuck { node, span } => {
                self.open_window(SpanFault::SensorStuck { node }, now + span);
            }
            FaultKind::BrokerMessageLoss { rate, span } => {
                // Seeded off the engine seed so runs stay reproducible.
                self.broker.set_loss(rate, self.config.seed ^ 0x6c6f_7373);
                self.open_window(SpanFault::BrokerLoss, now + span);
            }
            FaultKind::SubscriberDisconnect { span } => {
                // Dropping the collector closes its subscription; the
                // broker prunes it and accounts the missed messages.
                self.collector = None;
                self.open_window(SpanFault::CollectorOffline, now + span);
            }
            FaultKind::LinkDegrade { factor, span } => {
                let factor = factor.max(1.0);
                self.open_window(SpanFault::LinkDegrade { factor }, now + span);
            }
            FaultKind::Partition { a, b, span } => {
                let (a, b) = (a.min(b), a.max(b));
                self.open_window(SpanFault::Partition { a, b }, now + span);
            }
            FaultKind::NfsStall { span } => {
                self.open_window(SpanFault::NfsStall, now + span);
            }
            FaultKind::SpuriousThermalTrip { node } => self.handle_trip(node),
            // One supply feeds both boards: a correlated dual crash.
            FaultKind::PsuFailure { blade } => return self.take_down_blade(blade),
            FaultKind::RailBrownout {
                blade,
                budget_frac,
                span,
            } => {
                if let Some(gov) = self.power_cap.as_mut() {
                    // Graceful degradation: the governor caps the blade's
                    // DVFS under the reduced budget at the next phase 3b.
                    gov.begin_brownout(blade, budget_frac, self.now, span);
                } else {
                    // Crash-only machine: the rail cannot carry the boards
                    // at any operating point it is willing to risk.
                    self.open_window(SpanFault::Brownout { blade }, now + span);
                    return self.take_down_blade(blade);
                }
            }
            FaultKind::SwitchOutage { span } => {
                // The whole rack hangs off one GbE switch: every node's
                // heartbeat and telemetry path goes dark at the same
                // instant. Heartbeat *schedules* keep advancing so the
                // cadence is identical in both clock modes; the beats just
                // never leave the NIC.
                self.switch.fail_until(self.now + span);
            }
            FaultKind::NfsExportDown { span } => {
                // The /ckpt export goes unreachable; the checkpoint commit
                // path degrades to bounded retry (or the spill buffer).
                // Running jobs keep computing — only durability stalls,
                // unlike the full-filesystem NfsStall.
                if let Some(rec) = self.recovery.as_mut() {
                    rec.store.set_export_offline(self.now + span);
                }
            }
            FaultKind::MultiRailBrownout { budget_frac, span } => {
                if let Some(gov) = self.power_cap.as_mut() {
                    // The rack arbiter water-fills the machine-wide budget
                    // across blades at the next phase 3b.
                    gov.begin_rack_brownout(budget_frac, self.now, span);
                } else {
                    // Crash-only machine: the feed cannot carry any blade.
                    let mut victims = Vec::new();
                    for blade in 0..self.layout.blades().len() {
                        self.open_window(SpanFault::Brownout { blade }, now + span);
                        victims.extend(self.take_down_blade(blade));
                    }
                    return victims;
                }
            }
            FaultKind::FanFailure { blade, span } => {
                // Overlapping failures keep the longer window.
                self.open_window(SpanFault::FanFailure { blade }, now + span);
                self.refresh_airflow_degradation();
            }
            FaultKind::BitFlip { node, target, .. } => {
                // The flip poisons a job actually computing on the struck
                // node: the *lowest-id* running job there.
                let victim = self
                    .running
                    .values()
                    .filter(|job| job.node_indices.contains(&node))
                    .map(|job| job.id)
                    .min();
                if let Some(id) = victim {
                    let job = self.running.get_mut(&id).expect("victim is running");
                    match target {
                        SdcTarget::TrailingMatrix => job.sdc_trailing += 1,
                        SdcTarget::FactoredPanel => job.sdc_factored += 1,
                    }
                }
                // An idle node has no live factorisation: the flip lands in
                // memory nothing reads and is harmless by construction.
            }
            FaultKind::CheckpointCorruption { node, generation } => {
                if let Some(rec) = self.recovery.as_mut() {
                    let victim = self
                        .running
                        .values()
                        .filter(|job| job.node_indices.contains(&node))
                        .map(|job| job.id)
                        .min();
                    if let Some(id) = victim {
                        // Deterministic bit choice: a pure function of the
                        // engine seed and the victim's identity.
                        let salt = self.config.seed ^ id.0.rotate_left(17) ^ generation as u64;
                        rec.store.corrupt_chain(id.0, generation, salt);
                    }
                }
                // The rot is silent here: it surfaces (as a
                // `CheckpointCorrupt` event) only when a restore walks the
                // chain and the CRC fails.
            }
            FaultKind::PayloadCorruption { node, span } => {
                self.open_window(SpanFault::PayloadCorruption { node }, now + span);
            }
        }
        Vec::new()
    }

    /// Re-derives every node's airflow state from the set of active fan
    /// failures: a dead fan starves its own blade directly and pools
    /// un-moved hot air under the blade above it (its airflow shadow).
    fn refresh_airflow_degradation(&mut self) {
        let blade_count = self.layout.blades().len();
        let active = |blade: usize| self.open_until(SpanFault::FanFailure { blade }).is_some();
        let mut states = vec![AirflowDegradation::None; blade_count];
        for (blade, state) in states.iter_mut().enumerate() {
            if active(blade) {
                *state = AirflowDegradation::Direct;
            }
        }
        // Shadows second: a blade whose own fan died is already Direct and
        // must not be downgraded by a neighbour's shadow.
        for blade in 0..blade_count {
            if active(blade) {
                if let Some(shadow) = self.layout.airflow_shadow_of(blade) {
                    if states[shadow] == AirflowDegradation::None {
                        states[shadow] = AirflowDegradation::Shadow;
                    }
                }
            }
        }
        for (blade, &state) in states.iter().enumerate() {
            for &node in &self.layout.blades()[blade].node_indices {
                self.thermal.set_airflow_degradation(node, state);
            }
        }
    }

    /// The uniform oracle node-outage path: scheduler bookkeeping,
    /// victim-job disposition (requeue vs lost), outage clock, accounting.
    fn node_failed(&mut self, node_index: usize) -> Vec<JobId> {
        let hostname = self.nodes[node_index].hostname().to_owned();
        let victims = self.scheduler.fail_node(&hostname, self.now);
        if self.node_down_since[node_index].is_none() {
            self.node_down_since[node_index] = Some(self.now);
            self.failures += 1;
        }
        self.dispose_victims(&victims);
        victims
    }

    /// Books every job a node failure or fence evicted: wasted-work and
    /// restart-point accounting (recovery mode), the requeue-vs-lost
    /// split, and the scheduler's event drain.
    fn dispose_victims(&mut self, victims: &[JobId]) {
        for &id in victims {
            let run = self.running.remove(&id);
            if let (Some(rec), Some(run)) = (self.recovery.as_mut(), run.as_ref()) {
                // Work past the last committed checkpoint is gone. A
                // spilled (node-local, not yet durable) record counts as
                // committed *unless* the node buffering it is itself dead
                // or fenced — then the job falls back to its last record
                // durable on the export, and the extra loss is attributed
                // as wasted work (the crash landed inside the outage
                // window).
                let mut include_spill = false;
                if rec.store.spilled(id.0).is_some() {
                    let holder = rec.spill_holders.get(&id.0).copied();
                    let holder_ok =
                        holder.is_some_and(|h| rec.node_alive[h] && !rec.control.is_fenced(h));
                    if holder_ok {
                        include_spill = true;
                    } else {
                        rec.store.drop_spill(id.0);
                        Self::release_spill_holder(
                            &mut rec.spill_holders,
                            &mut self.scheduler,
                            &self.nodes,
                            id.0,
                        );
                    }
                }
                // The restart point is read back through the CRC-verifying
                // chain walk, never trusted from memory: a record rotted on
                // the export (or in the spill buffer) is quarantined here
                // and the job falls back to the next-newest generation that
                // still verifies. On an uncorrupted store this returns
                // exactly `run.ckpt.committed()`.
                let (verified, quarantined) = rec.store.restore_verified(id.0, include_spill);
                for generation in quarantined {
                    self.events.push(EngineEvent::CheckpointCorrupt {
                        id,
                        generation,
                        at: self.now,
                    });
                }
                if verified.is_none() && include_spill {
                    // The spill was the quarantined record: its holder mark
                    // is stale now that the buffer is gone.
                    Self::release_spill_holder(
                        &mut rec.spill_holders,
                        &mut self.scheduler,
                        &self.nodes,
                        id.0,
                    );
                }
                let saved = verified.map(|c| c.progress()).unwrap_or(0.0);
                let wasted = (run.progress - saved).max(0.0);
                rec.wasted_node_secs +=
                    wasted * run.duration.as_secs_f64() * run.node_indices.len() as f64;
                if saved > 0.0 {
                    rec.resume_progress.insert(id, saved);
                } else {
                    rec.resume_progress.remove(&id);
                }
            }
            let job = self.scheduler.job(id).expect("victim job exists");
            if job.state() == JobState::Failed {
                // Retry budget exhausted: the job is gone for good.
                if let Some(record) = JobRecord::from_job(job) {
                    let record = match &run {
                        Some(r) => record.with_energy(r.energy),
                        None => record,
                    };
                    self.accounting.record(record);
                }
                if let Some(rec) = self.recovery.as_mut() {
                    rec.store.remove(id.0);
                    rec.resume_progress.remove(&id);
                    Self::release_spill_holder(
                        &mut rec.spill_holders,
                        &mut self.scheduler,
                        &self.nodes,
                        id.0,
                    );
                }
                self.events.push(EngineEvent::JobLost { id, at: self.now });
            } else {
                self.events
                    .push(EngineEvent::JobRequeued { id, at: self.now });
            }
        }
        self.accounting.record_events(self.scheduler.take_events());
    }

    /// Takes a node out of service: physically only with recovery (the
    /// failure detector finds it), through the oracle outage path
    /// without. Returns the victim jobs, empty with recovery.
    fn take_down(&mut self, node_index: usize) -> Vec<JobId> {
        if self.recovery.is_some() {
            self.physical_down(node_index);
            Vec::new()
        } else {
            self.node_failed(node_index)
        }
    }

    /// [`SimEngine::take_down`] for both boards of a blade.
    fn take_down_blade(&mut self, blade: usize) -> Vec<JobId> {
        let nodes = self.layout.blades()[blade].node_indices;
        nodes.into_iter().flat_map(|i| self.take_down(i)).collect()
    }

    /// Returns a node to service: physically with recovery (the control
    /// plane unfences it once suspicion clears), through the oracle
    /// recovery path without.
    fn bring_up(&mut self, node_index: usize) {
        if self.recovery.is_some() {
            self.physical_up(node_index);
        } else {
            self.node_recovered(node_index);
        }
    }

    /// A node's hardware stops: heartbeats cease and its jobs stall, but
    /// the scheduler is told nothing — detection is the control plane's
    /// job. (Recovery mode only.)
    fn physical_down(&mut self, node_index: usize) {
        let rec = self.recovery.as_mut().expect("recovery mode");
        if !rec.node_alive[node_index] {
            return;
        }
        rec.node_alive[node_index] = false;
        if self.node_down_since[node_index].is_none() {
            self.node_down_since[node_index] = Some(self.now);
            self.failures += 1;
        }
    }

    /// A node's hardware returns: heartbeats resume. If the control plane
    /// fenced it meanwhile, the fence (and the outage clock) clears only
    /// once suspicion drains; if the repair beat detection, the outage
    /// closes here.
    fn physical_up(&mut self, node_index: usize) {
        let rec = self.recovery.as_mut().expect("recovery mode");
        if rec.node_alive[node_index] {
            return;
        }
        rec.node_alive[node_index] = true;
        if !rec.control.is_fenced(node_index) {
            self.thermal.clear_trip(node_index);
            if let Some(since) = self.node_down_since[node_index].take() {
                self.node_downtime[node_index] += self.now.saturating_since(since);
                self.events.push(EngineEvent::NodeRecovered {
                    node: node_index,
                    at: self.now,
                });
            }
        }
    }

    /// Fences a node off the machine: the scheduler evicts its jobs
    /// through the requeue path and stops placing work on it.
    fn fence_node(&mut self, node_index: usize) {
        let hostname = self.nodes[node_index].hostname().to_owned();
        let victims = self.scheduler.fail_node(&hostname, self.now);
        self.events.push(EngineEvent::NodeFenced {
            node: node_index,
            at: self.now,
        });
        if let Some(rec) = self.recovery.as_mut() {
            rec.fences += 1;
            rec.control.set_fenced(node_index, true);
        }
        // A false suspicion still takes a healthy node out of service:
        // that availability cost is real, so the outage clock opens either
        // way (a physical crash already opened it).
        if self.node_down_since[node_index].is_none() {
            self.node_down_since[node_index] = Some(self.now);
        }
        self.dispose_victims(&victims);
    }

    /// Returns a fenced node to the scheduler and closes its outage.
    fn unfence_node(&mut self, node_index: usize) {
        self.thermal.clear_trip(node_index);
        let hostname = self.nodes[node_index].hostname().to_owned();
        self.scheduler.resume_node(&hostname);
        if let Some(rec) = self.recovery.as_mut() {
            rec.control.set_fenced(node_index, false);
        }
        if let Some(since) = self.node_down_since[node_index].take() {
            self.node_downtime[node_index] += self.now.saturating_since(since);
        }
        self.events.push(EngineEvent::NodeUnfenced {
            node: node_index,
            at: self.now,
        });
    }

    /// Tells the failure detector each node's heartbeat cadence scale. A
    /// DVFS-capped or throttled board runs its management daemon slower
    /// too: its heartbeat cadence stretches by the inverse performance
    /// scale, and the detector is told so slowness is not mistaken for
    /// death (gated by [`RecoveryConfig::cap_aware_suspicion`]).
    fn set_expected_scales(&mut self) {
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        for (i, node) in self.nodes.iter().enumerate() {
            let perf = node.cpufreq().performance_scale();
            rec.control.set_expected_interval_scale(i, 1.0 / perf);
        }
    }

    /// Publishes heartbeats for every physically alive node whose cadence
    /// is due, after refreshing the detector's cadence scales. A partition
    /// cuts both endpoints off the management network, so their heartbeats
    /// are suppressed (a source of false suspicion); seeded broker loss
    /// drops beats inside the broker itself. Returns whether any beat was
    /// due.
    fn publish_heartbeats(&mut self) -> bool {
        self.set_expected_scales();
        let partitioned = self.active_partition();
        let switch_up = self.switch.is_up(self.now);
        let rec = self.recovery.as_mut().expect("recovery mode");
        let mut due = false;
        for i in 0..self.nodes.len() {
            let perf = self.nodes[i].cpufreq().performance_scale();
            if !rec.node_alive[i] {
                continue;
            }
            if partitioned.is_some_and(|(a, b)| a == i || b == i) {
                continue;
            }
            if self.now >= rec.next_heartbeat[i] {
                due = true;
                // A rack-wide switch outage drops every beat on the floor,
                // but the cadence keeps advancing exactly as if it were
                // published — the daemon doesn't know its frames go
                // nowhere, and both clock modes see identical schedules.
                if switch_up {
                    let topic = self.heartbeat_topics[i];
                    self.broker.publish(&topic, Payload::new(1.0, self.now));
                }
                rec.next_heartbeat[i] = self.now
                    + SimDuration::from_secs_f64(
                        rec.config.heartbeat_interval.as_secs_f64() / perf,
                    );
            }
        }
        due
    }

    /// One control-plane decision tick: suspicion, fencing, unfencing and
    /// the thermal watchdog.
    fn control_plane_tick(&mut self) {
        self.temps.clear();
        self.temps
            .extend((0..self.nodes.len()).map(|i| self.thermal.temperature(i)));
        let actions = {
            let rec = self.recovery.as_mut().expect("recovery mode");
            rec.control.tick(self.now, &self.temps)
        };
        for action in actions {
            match action {
                ControlAction::FenceSuspect { node, phi } => {
                    self.events.push(EngineEvent::NodeSuspected {
                        node,
                        at: self.now,
                        phi,
                    });
                    if let Some(rec) = self.recovery.as_mut() {
                        rec.suspicions += 1;
                    }
                    self.fence_node(node);
                }
                ControlAction::FenceHot { node, .. } => {
                    self.fence_node(node);
                }
                ControlAction::Unfence { node } => {
                    self.unfence_node(node);
                }
                ControlAction::ThrottleHot { node, .. } => {
                    if self.nodes[node].cpufreq_mut().step_down() {
                        self.events
                            .push(EngineEvent::WatchdogThrottled { node, at: self.now });
                    }
                }
                ControlAction::RelaxCool { node } => {
                    self.nodes[node].cpufreq_mut().step_up();
                }
                ControlAction::PartitionSuspected { silent } => {
                    self.events.push(EngineEvent::PartitionSuspected {
                        at: self.now,
                        silent,
                    });
                }
                ControlAction::PartitionHealed => {
                    self.events
                        .push(EngineEvent::PartitionHealed { at: self.now });
                }
                ControlAction::PartitionTimedOut => {
                    self.events
                        .push(EngineEvent::PartitionTimedOut { at: self.now });
                }
            }
        }
    }

    /// Records that `node` holds `job_id`'s only (spilled) checkpoint copy
    /// and steers placement away from it until the flush.
    fn mark_spill_holder(
        holders: &mut HashMap<u64, usize>,
        scheduler: &mut Scheduler,
        nodes: &[ComputeNode],
        job_id: u64,
        node: usize,
    ) {
        holders.insert(job_id, node);
        scheduler.set_node_avoided(nodes[node].hostname(), true);
    }

    /// Releases `job_id`'s spill-holder mark (record flushed, dropped, or
    /// job gone); the node returns to normal placement once no other job
    /// spills on it.
    fn release_spill_holder(
        holders: &mut HashMap<u64, usize>,
        scheduler: &mut Scheduler,
        nodes: &[ComputeNode],
        job_id: u64,
    ) {
        if let Some(node) = holders.remove(&job_id) {
            if !holders.values().any(|&n| n == node) {
                scheduler.set_node_avoided(nodes[node].hostname(), false);
            }
        }
    }

    /// Advances every running job's checkpoint state machine: commits
    /// writes whose drain completed, and begins writes whose cadence is
    /// due. An active NFS stall pushes the completion time out, exactly as
    /// it stalls every other filesystem client. A drained write that meets
    /// an *offline export* ([`FaultKind::NfsExportDown`]) either spills to
    /// the job's first allocated node (spill mode), or retries with
    /// exponential backoff until the retry budget runs out and the write
    /// is abandoned.
    fn advance_checkpoints(&mut self) {
        let now = self.now;
        let nfs_stalled_until = self.open_until(SpanFault::NfsStall);
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        let Some(cfg) = rec.config.checkpoint else {
            return;
        };
        let events = &mut self.events;
        let scheduler = &mut self.scheduler;
        let nodes = &self.nodes;
        for job in self.running.values_mut() {
            if job.ckpt.drained_by(now) {
                let progress = job.ckpt.pending();
                let ckpt = JobCheckpoint::new(
                    job.id.0,
                    progress,
                    checkpoint_position(&job.workload, progress),
                    now,
                );
                match rec.store.save_at(now, ckpt) {
                    Ok(_) => {
                        let progress = job.ckpt.commit(now + cfg.interval);
                        rec.checkpoints_written += 1;
                        events.push(EngineEvent::CheckpointWritten {
                            id: job.id,
                            at: now,
                            progress,
                        });
                    }
                    Err(CheckpointError::ExportOffline { .. }) => {
                        if cfg.spill {
                            // Write-behind: buffer on the job's first
                            // allocated node and treat the spilled record
                            // as the restart point — it survives anything
                            // short of that node dying before the flush.
                            let holder = *job.node_indices.first().expect("running job has nodes");
                            rec.store.spill_write(JobCheckpoint::new(
                                job.id.0,
                                progress,
                                checkpoint_position(&job.workload, progress),
                                now,
                            ));
                            Self::mark_spill_holder(
                                &mut rec.spill_holders,
                                scheduler,
                                nodes,
                                job.id.0,
                                holder,
                            );
                            let progress = job.ckpt.commit(now + cfg.interval);
                            events.push(EngineEvent::CheckpointSpilled {
                                id: job.id,
                                at: now,
                                progress,
                            });
                        } else if job.ckpt.retries() >= cfg.max_retries {
                            // Retry budget spent: drop the write, resume
                            // the cadence from the last durable commit.
                            job.ckpt.abandon(now + cfg.interval);
                            events.push(EngineEvent::CheckpointAbandoned {
                                id: job.id,
                                at: now,
                            });
                        } else {
                            let retry_at = now + cfg.retry_delay(job.ckpt.retries());
                            job.ckpt.defer(retry_at);
                            events.push(EngineEvent::CheckpointDeferred {
                                id: job.id,
                                at: now,
                                retry_at,
                                retries: job.ckpt.retries(),
                            });
                        }
                    }
                    Err(other) => panic!("checkpoint save failed: {other}"),
                }
            } else if job.ckpt.should_begin(now)
                && job.progress < 1.0
                && job.node_indices.iter().all(|&i| rec.node_alive[i])
            {
                let bytes = job.mem_per_node * job.node_indices.len() as f64;
                let start = nfs_stalled_until.unwrap_or(now);
                job.ckpt.begin(job.progress, start + cfg.cost.cost(bytes));
            }
        }
    }

    /// The uniform recovery path: clears any thermal trip latch, returns
    /// the node to the scheduler, closes the outage interval.
    fn node_recovered(&mut self, node_index: usize) {
        self.thermal.clear_trip(node_index);
        let hostname = self.nodes[node_index].hostname().to_owned();
        self.scheduler.resume_node(&hostname);
        if let Some(since) = self.node_down_since[node_index].take() {
            self.node_downtime[node_index] += self.now.saturating_since(since);
            self.events.push(EngineEvent::NodeRecovered {
                node: node_index,
                at: self.now,
            });
        }
    }
}

/// The engine's ingestion subscriber: every topic, into the store, through
/// the range scrub. Only a monitored engine has one — nothing else would
/// ever drain its queue.
fn attach_collector(broker: &Broker) -> Collector {
    Collector::attach(broker, "#".parse().expect("valid filter"))
        .with_scrub(ScrubPolicy::monte_cimone())
}

/// The ExaMon-style topic a node's power samples ride on.
fn power_topic_for(hostname: &str) -> Topic {
    Topic::new(
        [
            "org",
            "unibo",
            "cluster",
            "cimone",
            "node",
            hostname,
            "plugin",
            "pwr_pub",
            "chnl",
            "data",
            "total_power",
        ]
        .map(str::to_owned),
    )
}

/// The ExaMon-style topic a node's heartbeats ride on.
fn heartbeat_topic(hostname: &str) -> Topic {
    Topic::new(
        [
            "org",
            "unibo",
            "cluster",
            "cimone",
            "node",
            hostname,
            "plugin",
            "health_pub",
            "chnl",
            "data",
            "heartbeat",
        ]
        .map(str::to_owned),
    )
}

/// Maps a job's progress fraction onto its kernel's natural restart unit.
fn checkpoint_position(workload: &ClusterWorkload, progress: f64) -> CheckpointPosition {
    match workload {
        ClusterWorkload::Hpl(problem) => {
            CheckpointPosition::HplPanel((progress * problem.panels() as f64) as usize)
        }
        ClusterWorkload::QeLax => {
            // The LAX driver's 93 Davidson iterations (paper Table IV).
            CheckpointPosition::LaxSweep((progress * 93.0) as usize)
        }
        ClusterWorkload::StreamDdr { secs } | ClusterWorkload::StreamL2 { secs } => {
            CheckpointPosition::StreamIteration((progress * *secs as f64) as u64)
        }
        ClusterWorkload::Synthetic { .. } => CheckpointPosition::Fraction,
    }
}

/// Maps `mc-node-XX` back to its 0-based index.
fn hostname_index(hostname: &str) -> usize {
    hostname
        .rsplit('-')
        .next()
        .and_then(|n| n.parse::<usize>().ok())
        .map(|n| n - 1)
        .unwrap_or_else(|| panic!("malformed hostname {hostname}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SimEngine {
        SimEngine::new(EngineConfig::default())
    }

    fn synthetic(nodes: usize, secs: u64) -> JobRequest {
        JobRequest {
            name: "test".into(),
            user: "alice".into(),
            nodes,
            workload: ClusterWorkload::Synthetic {
                workload: Workload::Hpl,
                secs,
            },
        }
    }

    #[test]
    fn jobs_run_to_completion_with_energy_accounted() {
        let mut engine = engine();
        let id = engine.submit(synthetic(2, 30)).unwrap();
        assert!(engine.run_until_idle(SimDuration::from_secs(120)));
        let record = &engine.accounting().records()[0];
        assert_eq!(record.job_id, id.0);
        assert_eq!(record.state, JobState::Completed);
        // Two nodes at ~5.9 W for 30 s ≈ 355 J.
        let energy = record.energy.unwrap().as_joules();
        assert!((energy - 356.0).abs() < 30.0, "energy {energy}");
    }

    #[test]
    fn monitoring_pipeline_fills_the_store() {
        let mut engine = engine();
        engine.submit(synthetic(1, 10)).unwrap();
        engine.run_for(SimDuration::from_secs(12));
        let store = engine.store();
        assert!(store.series_count() > 8, "series: {}", store.series_count());
        // pmu_pub sampled at 2 Hz on node 1 while the job ran.
        let series =
            "org/unibo/cluster/cimone/node/mc-node-01/plugin/pmu_pub/chnl/data/core/0/instret";
        let points = store.query(series, SimTime::ZERO, SimTime::from_secs(12));
        assert!(points.len() >= 20, "points: {}", points.len());
        // Counters are cumulative, hence non-decreasing.
        assert!(points.windows(2).all(|w| w[1].1 >= w[0].1));
    }

    #[test]
    fn queued_jobs_start_when_resources_free() {
        let mut engine = engine();
        let a = engine.submit(synthetic(8, 20)).unwrap();
        let b = engine.submit(synthetic(8, 20)).unwrap();
        assert!(engine.run_until_idle(SimDuration::from_secs(200)));
        let job_a = engine.scheduler().job(a).unwrap();
        let job_b = engine.scheduler().job(b).unwrap();
        assert!(job_b.started_at().unwrap() >= job_a.ended_at().unwrap());
    }

    #[test]
    fn hpl_jobs_alternate_compute_and_communication() {
        let mut engine = engine();
        engine
            .submit(JobRequest {
                name: "hpl".into(),
                user: "bench".into(),
                nodes: 4,
                // A small problem so panels cycle quickly.
                workload: ClusterWorkload::Hpl(HplProblem::new(4096, 192)),
            })
            .unwrap();
        let mut saw_comm = false;
        let mut saw_compute = false;
        for _ in 0..400 {
            engine.step();
            for node in engine.nodes().iter().take(4) {
                if node.conditions().busy_cores == 4 {
                    if node.conditions().communicating {
                        saw_comm = true;
                    } else {
                        saw_compute = true;
                    }
                }
            }
        }
        assert!(saw_comm, "never saw a communication phase");
        assert!(saw_compute, "never saw a compute phase");
    }

    #[test]
    fn idle_machine_power_sits_at_the_paper_level() {
        let mut engine = engine();
        engine.run_for(SimDuration::from_secs(30));
        let series =
            "org/unibo/cluster/cimone/node/mc-node-03/plugin/pwr_pub/chnl/data/total_power";
        let mean = engine
            .store()
            .aggregate(
                series,
                SimTime::ZERO,
                SimTime::from_secs(30),
                cimone_monitor::tsdb::Aggregation::Mean,
            )
            .unwrap();
        // Slightly below the 4.81 W steady figure: the silicon is still
        // warming towards its idle operating point, so leakage is low.
        assert!((mean - 4.81).abs() < 0.09, "idle power {mean} W");
    }

    #[test]
    fn monitoring_can_be_disabled() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            ..EngineConfig::default()
        });
        engine.submit(synthetic(1, 5)).unwrap();
        engine.run_for(SimDuration::from_secs(8));
        assert!(engine.store().is_empty());
    }

    #[test]
    fn jobs_are_killed_at_their_wall_time_limit() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            ..EngineConfig::default()
        });
        // A 100 s workload under a 10 s limit: killed, nodes freed.
        let id = engine
            .submit_with_limit(synthetic(2, 100), SimDuration::from_secs(10))
            .unwrap();
        assert!(engine.run_until_idle(SimDuration::from_secs(60)));
        let job = engine.scheduler().job(id).unwrap();
        assert_eq!(job.state(), JobState::TimedOut);
        let elapsed = job.elapsed().unwrap().as_secs_f64();
        assert!((elapsed - 10.0).abs() <= 1.0, "killed at {elapsed}s");
        assert_eq!(engine.scheduler().partition().idle_count(), 8);
        // The accounting record carries the TIMEOUT state.
        assert_eq!(engine.accounting().records()[0].state, JobState::TimedOut);
    }

    #[test]
    fn governor_throttles_hot_nodes_and_recovers_cool_ones() {
        use crate::dpm::ThermalGovernor;
        let mut engine = SimEngine::new(EngineConfig {
            airflow: crate::thermal::AirflowConfig::LidOnTightStack,
            dt: SimDuration::from_secs(2),
            monitoring: false,
            governor: Some(ThermalGovernor::fu740_default()),
            ..EngineConfig::default()
        });
        engine.submit(synthetic(8, 3000)).unwrap();
        engine.run_for(SimDuration::from_secs(2000));
        // Node 7 (worst airflow) must have been throttled below nominal...
        assert!(
            !engine.node_cpufreq(6).is_nominal(),
            "node 7 should throttle"
        );
        // ...and never tripped.
        assert!(!engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::NodeTripped { .. })));
        // An edge node stays at (or recovers to) nominal.
        assert!(
            engine.node_cpufreq(0).is_nominal(),
            "edge node should stay nominal"
        );
    }

    #[test]
    fn hostname_index_round_trips() {
        assert_eq!(hostname_index("mc-node-01"), 0);
        assert_eq!(hostname_index("mc-node-08"), 7);
    }

    fn power_series(node: usize) -> String {
        format!(
            "org/unibo/cluster/cimone/node/mc-node-0{}/plugin/pwr_pub/chnl/data/total_power",
            node + 1
        )
    }

    #[test]
    fn planned_crash_and_recovery_drive_the_outage_clock() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new()
                .with(SimTime::from_secs(10), FaultKind::NodeCrash { node: 3 })
                .with(SimTime::from_secs(70), FaultKind::NodeRecover { node: 3 }),
        );
        engine.run_for(SimDuration::from_secs(100));
        assert_eq!(engine.failure_count(), 1);
        assert_eq!(engine.node_downtime(3), SimDuration::from_secs(60));
        assert_eq!(engine.total_downtime(), SimDuration::from_secs(60));
        assert!(engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::NodeRecovered { node: 3, .. })));
        assert_eq!(engine.scheduler().partition().in_service_count(), 8);
    }

    #[test]
    fn sensor_dropout_silences_one_node_and_stuck_at_freezes_it() {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new()
                .with(
                    SimTime::from_secs(10),
                    FaultKind::SensorDropout {
                        node: 0,
                        span: SimDuration::from_secs(20),
                    },
                )
                .with(
                    SimTime::from_secs(10),
                    FaultKind::SensorStuck {
                        node: 1,
                        span: SimDuration::from_secs(20),
                    },
                ),
        );
        engine.run_for(SimDuration::from_secs(40));
        // Node 1 published nothing inside the dropout window...
        let dropped = engine.store().query(
            &power_series(0),
            SimTime::from_secs(10),
            SimTime::from_secs(30),
        );
        assert!(dropped.is_empty(), "published {} samples", dropped.len());
        // ...while a healthy node kept its cadence.
        let healthy = engine.store().query(
            &power_series(2),
            SimTime::from_secs(10),
            SimTime::from_secs(30),
        );
        assert_eq!(healthy.len(), 20);
        // The stuck sensor kept publishing one frozen value.
        let stuck = engine.store().query(
            &power_series(1),
            SimTime::from_secs(10),
            SimTime::from_secs(30),
        );
        assert_eq!(stuck.len(), 20);
        assert!(
            stuck.windows(2).all(|w| w[0].1 == w[1].1),
            "value must freeze"
        );
        // Both recover after the span.
        let after = engine.store().query(
            &power_series(0),
            SimTime::from_secs(30),
            SimTime::from_secs(40),
        );
        assert_eq!(after.len(), 10);
    }

    #[test]
    fn subscriber_disconnect_loses_the_window_but_ingestion_recovers() {
        let mut engine = SimEngine::new(EngineConfig {
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(10),
            FaultKind::SubscriberDisconnect {
                span: SimDuration::from_secs(15),
            },
        ));
        engine.run_for(SimDuration::from_secs(40));
        let series = power_series(4);
        let during = engine
            .store()
            .query(&series, SimTime::from_secs(10), SimTime::from_secs(25));
        assert!(during.is_empty(), "disconnected window must be lost");
        let after = engine
            .store()
            .query(&series, SimTime::from_secs(25), SimTime::from_secs(40));
        assert_eq!(after.len(), 15, "ingestion must recover");
    }

    #[test]
    fn nfs_stall_freezes_job_progress() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(5),
            FaultKind::NfsStall {
                span: SimDuration::from_secs(30),
            },
        ));
        let id = engine.submit(synthetic(1, 20)).unwrap();
        // 20 s of work + 30 s stalled: still running at t=45, done by t=60.
        engine.run_for(SimDuration::from_secs(45));
        assert_eq!(
            engine.scheduler().job(id).unwrap().state(),
            JobState::Running
        );
        assert!(engine.run_until_idle(SimDuration::from_secs(30)));
        let elapsed = engine.scheduler().job(id).unwrap().elapsed().unwrap();
        assert!(elapsed >= SimDuration::from_secs(49), "elapsed {elapsed}");
    }

    #[test]
    fn partition_stalls_only_jobs_spanning_the_cut() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(5),
            FaultKind::Partition {
                a: 0,
                b: 1,
                span: SimDuration::from_secs(100),
            },
        ));
        // First submission takes nodes 1+2 (the cut), second takes 3+4.
        let cut = engine.submit(synthetic(2, 20)).unwrap();
        let clear = engine.submit(synthetic(2, 20)).unwrap();
        engine.run_for(SimDuration::from_secs(40));
        assert_eq!(
            engine.scheduler().job(clear).unwrap().state(),
            JobState::Completed
        );
        assert_eq!(
            engine.scheduler().job(cut).unwrap().state(),
            JobState::Running
        );
    }

    #[test]
    fn spurious_trip_requeues_like_a_real_one() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(5),
            FaultKind::SpuriousThermalTrip { node: 0 },
        ));
        let id = engine.submit(synthetic(8, 30)).unwrap();
        engine.run_for(SimDuration::from_secs(10));
        assert!(engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::NodeTripped { node: 0, .. })));
        assert!(engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::JobRequeued { id: v, .. } if *v == id)));
        assert_eq!(engine.failure_count(), 1);
    }

    #[test]
    fn identical_plans_and_seeds_replay_identical_event_streams() {
        let campaign = || {
            let plan = FaultPlan::random_crashes(
                11,
                8,
                SimDuration::from_secs(600),
                30.0,
                SimDuration::from_secs(45),
            );
            let mut engine = SimEngine::new(EngineConfig {
                monitoring: false,
                dt: SimDuration::from_secs(1),
                ..EngineConfig::default()
            })
            .with_fault_plan(plan);
            engine.submit(synthetic(4, 120)).unwrap();
            engine.submit(synthetic(4, 120)).unwrap();
            engine.run_for(SimDuration::from_secs(600));
            (engine.events().to_vec(), engine.total_downtime())
        };
        let (events_a, down_a) = campaign();
        let (events_b, down_b) = campaign();
        assert!(!events_a.is_empty());
        assert_eq!(events_a, events_b);
        assert_eq!(down_a, down_b);
    }

    #[test]
    fn psu_failure_downs_both_blade_nodes_and_requeues_their_job() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new().with(SimTime::from_secs(10), FaultKind::PsuFailure { blade: 0 }),
        );
        // Blade-aware placement packs the 2-node job onto blade 0.
        let id = engine.submit(synthetic(2, 60)).unwrap();
        assert!(engine.run_until_idle(SimDuration::from_secs(600)));
        assert!(engine.node_downtime(0) > SimDuration::ZERO);
        assert!(engine.node_downtime(1) > SimDuration::ZERO);
        assert_eq!(engine.failure_count(), 2, "one fault, two nodes lost");
        assert!(engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::JobRequeued { id: v, .. } if *v == id)));
        // The requeue lands on a healthy blade and finishes.
        let record = &engine.accounting().records()[0];
        assert_eq!(record.state, JobState::Completed);
    }

    #[test]
    fn fan_failure_degrades_its_blade_and_shadows_the_one_above() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(5),
            FaultKind::FanFailure {
                blade: 1,
                span: SimDuration::from_secs(60),
            },
        ));
        engine.run_for(SimDuration::from_secs(10));
        use crate::thermal::AirflowDegradation as A;
        let states: Vec<A> = (0..8)
            .map(|i| engine.thermal().airflow_degradation(i))
            .collect();
        assert_eq!(
            states,
            vec![
                A::None,
                A::None,
                A::Direct,
                A::Direct,
                A::Shadow,
                A::Shadow,
                A::None,
                A::None
            ],
            "blade 1's nodes starve, blade 2 sits in its exhaust shadow"
        );
        // The fan comes back: the enclosure returns to clean airflow.
        engine.run_for(SimDuration::from_secs(60));
        assert!((0..8).all(|i| engine.thermal().airflow_degradation(i) == A::None));
    }

    #[test]
    fn governed_brownout_caps_drains_nothing_and_releases() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(10),
            FaultKind::RailBrownout {
                blade: 0,
                budget_frac: 0.75,
                span: SimDuration::from_secs(120),
            },
        ));
        let id = engine.submit(synthetic(2, 300)).unwrap();
        assert!(engine.run_until_idle(SimDuration::from_secs(3600)));
        let budget = 0.75 * crate::blade::RAIL_RATED_WATTS;
        assert!(engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::BladeCapped { blade: 0, .. })));
        assert!(engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::BladeReleased { blade: 0, .. })));
        let peak = engine.brownout_peak_power(0);
        assert!(
            peak > 0.0 && peak <= budget,
            "peak {peak} W within the {budget} W budget"
        );
        // The capped job was slowed, never evicted.
        assert!(!engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::JobRequeued { .. })));
        assert_eq!(
            engine.scheduler().job(id).unwrap().state(),
            JobState::Completed
        );
        // Once released, the blade takes work again.
        assert!(engine.scheduler().degraded_blades().is_empty());
    }

    #[test]
    fn crash_only_brownout_downs_the_blade_until_the_rail_recovers() {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(1),
            power_cap: None,
            ..EngineConfig::default()
        })
        .with_fault_plan(FaultPlan::new().with(
            SimTime::from_secs(10),
            FaultKind::RailBrownout {
                blade: 0,
                budget_frac: 0.75,
                span: SimDuration::from_secs(60),
            },
        ));
        let id = engine.submit(synthetic(2, 30)).unwrap();
        assert!(engine.run_until_idle(SimDuration::from_secs(600)));
        // Run past the rail recovery so the outage closes.
        engine.run_for(SimDuration::from_secs(120));
        assert!(engine
            .events()
            .iter()
            .any(|e| matches!(e, EngineEvent::JobRequeued { id: v, .. } if *v == id)));
        assert_eq!(engine.failure_count(), 2, "both boards undervolt and crash");
        // Downtime is bounded by the brownout span: recovery is automatic.
        for node in 0..2 {
            let down = engine.node_downtime(node).as_secs_f64();
            assert!(
                (59.0..=62.0).contains(&down),
                "node {node} down {down} s for a 60 s brownout"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn invalid_fault_plans_are_rejected_up_front() {
        let mut engine = SimEngine::new(EngineConfig::default());
        engine.set_fault_plan(
            FaultPlan::new().with(SimTime::from_secs(1), FaultKind::PsuFailure { blade: 9 }),
        );
    }

    #[test]
    fn capped_nodes_heartbeat_slower_without_tripping_a_cap_aware_detector() {
        // A deep brownout clamps blade 0 to the floor OPP: its health
        // daemons run at a third of nominal speed and heartbeat late. The
        // cap-aware detector is told the expected slowdown and stays
        // quiet; the legacy detector reads the silence as death and
        // fences healthy nodes (the false-suspicion regression).
        let run = |cap_aware: bool| {
            let mut recovery = RecoveryConfig::detection_only();
            recovery.cap_aware_suspicion = cap_aware;
            let mut engine = SimEngine::new(EngineConfig {
                monitoring: false,
                dt: SimDuration::from_secs(1),
                recovery: Some(recovery),
                ..EngineConfig::default()
            })
            .with_fault_plan(FaultPlan::new().with(
                SimTime::from_secs(30),
                FaultKind::RailBrownout {
                    blade: 0,
                    budget_frac: 0.58,
                    span: SimDuration::from_secs(300),
                },
            ));
            engine.submit(synthetic(8, 500)).unwrap();
            engine.run_for(SimDuration::from_secs(400));
            engine
        };
        let aware = run(true);
        assert!(
            aware.events().iter().any(
                |e| matches!(e, EngineEvent::BladeCapped { blade: 0, ceiling, .. } if *ceiling == 0)
            ),
            "the 58% budget must clamp blade 0 to the floor OPP"
        );
        assert_eq!(aware.suspicion_count(), 0, "capped is not dead");
        assert_eq!(aware.fence_count(), 0);
        let legacy = run(false);
        assert!(
            legacy.suspicion_count() > 0,
            "without cap awareness the slow heartbeats read as death"
        );
    }
}
