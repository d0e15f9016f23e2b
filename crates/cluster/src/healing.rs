//! The self-healing control plane: heartbeat-driven failure detection,
//! node fencing, and a closed-loop thermal watchdog.
//!
//! With recovery enabled the engine stops telling the scheduler about
//! crashes directly. Instead every node publishes a periodic heartbeat
//! through the ExaMon broker, a [`cimone_monitor::heartbeat::HeartbeatMonitor`]
//! accrues suspicion from the *absence* of arrivals, and the
//! [`ControlPlane`] turns suspicion into actions: fence the node (evicting
//! its jobs through the scheduler's requeue path, where checkpointed work
//! migrates to healthy nodes), and unfence it when the stream resumes.
//! Because detection rides the telemetry path, injected broker message
//! loss and network partitions can fence perfectly healthy nodes — the
//! false-positive cost the phi threshold trades against latency.
//!
//! The thermal watchdog closes the loop the paper had to close by hand
//! during its node-7 runaway: sustained over-temperature first throttles
//! DVFS, and past a hotter line fences the blade before the 107 °C
//! hardware trip fires.

use serde::{Deserialize, Serialize};

use cimone_monitor::broker::Broker;
use cimone_monitor::heartbeat::{HeartbeatMonitor, DEFAULT_PHI_THRESHOLD};
use cimone_soc::units::{Celsius, SimDuration, SimTime};

use crate::checkpoint::CheckpointCostModel;

/// Checkpoint/restart policy for the engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Cadence between checkpoint commits of one job.
    pub interval: SimDuration,
    /// What each commit costs the job.
    pub cost: CheckpointCostModel,
    /// First retry delay when a drained write cannot commit because the
    /// export is offline; each further attempt doubles it.
    pub retry_base: SimDuration,
    /// Ceiling on the exponential backoff between retries.
    pub retry_cap: SimDuration,
    /// Deferred commit attempts allowed before the in-flight write is
    /// abandoned (its pending progress dropped) and the cadence resumes.
    pub max_retries: u32,
    /// Node-local write-behind: while the export is offline a drained
    /// write spills to the job's first allocated node instead of retrying,
    /// and flushes to the export when it recovers. The spilled progress is
    /// a usable restart point *unless* the buffering node itself dies
    /// before the flush.
    pub spill: bool,
}

impl CheckpointConfig {
    /// Checkpoints every `interval` at the default Gigabit-NFS cost, with
    /// the default outage posture: bounded retry (4 s base, 64 s cap,
    /// 5 attempts), no spill buffer.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    pub fn every(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "checkpoint interval must be non-zero");
        CheckpointConfig {
            interval,
            cost: CheckpointCostModel::default(),
            retry_base: SimDuration::from_secs(4),
            retry_cap: SimDuration::from_secs(64),
            max_retries: 5,
            spill: false,
        }
    }

    /// The same policy with the node-local write-behind spill buffer on.
    pub fn with_spill(mut self) -> Self {
        self.spill = true;
        self
    }

    /// The exponential-backoff delay before retry number `retries + 1`:
    /// `retry_base · 2^retries`, capped at `retry_cap`.
    pub fn retry_delay(&self, retries: u32) -> SimDuration {
        let base = self.retry_base.as_secs_f64();
        let cap = self.retry_cap.as_secs_f64();
        SimDuration::from_secs_f64((base * 2f64.powi(retries.min(31) as i32)).min(cap))
    }
}

/// The closed-loop thermal watchdog policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalWatchdog {
    /// Above this, step the node's DVFS down one OPP per tick.
    pub throttle_above: Celsius,
    /// Below this, step back up (hysteresis against oscillation).
    pub release_below: Celsius,
    /// Above this for [`ThermalWatchdog::sustain`], fence the blade.
    pub fence_above: Celsius,
    /// How long over-temperature must persist before fencing.
    pub sustain: SimDuration,
}

impl ThermalWatchdog {
    /// Defaults tuned under the FU740's 107 °C trip: throttle at 95 °C,
    /// release below 85 °C, fence after 30 s sustained above 103 °C.
    pub fn fu740_default() -> Self {
        ThermalWatchdog {
            throttle_above: Celsius::new(95.0),
            release_below: Celsius::new(85.0),
            fence_above: Celsius::new(103.0),
            sustain: SimDuration::from_secs(30),
        }
    }
}

/// Recovery-subsystem configuration (engine-level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Heartbeat publication cadence per node.
    pub heartbeat_interval: SimDuration,
    /// Phi threshold above which a node is suspected (see
    /// [`cimone_monitor::heartbeat`] for the latency/false-positive
    /// tradeoff).
    pub phi_threshold: f64,
    /// Checkpoint/restart policy; `None` restarts evicted jobs from zero.
    pub checkpoint: Option<CheckpointConfig>,
    /// Whether suspicion fences the node (evicting its jobs). Disabling
    /// leaves detection observable but inert.
    pub fence_on_suspicion: bool,
    /// Whether a fenced node returns to service automatically once its
    /// heartbeat stream resumes (covers both real repair and false
    /// suspicion).
    pub auto_unfence: bool,
    /// Optional closed-loop thermal watchdog.
    pub thermal_watchdog: Option<ThermalWatchdog>,
    /// Whether the failure detector is told about DVFS slowdowns. A capped
    /// (or throttled) node runs its health daemon slower and heartbeats
    /// late; with this on, the engine feeds the expected slowdown into the
    /// [`HeartbeatMonitor`] so phi is computed against the scaled cadence
    /// and graceful degradation never trips suspicion fencing. Disabling
    /// it reproduces the false-positive failure mode (for regression
    /// tests).
    pub cap_aware_suspicion: bool,
    /// Whether the control plane distinguishes "everyone went silent at
    /// once" (a rack-level switch outage) from "everyone died": when a
    /// node would be suspected while *no* node in the cluster has
    /// heartbeat recently, the plane enters a `Partitioned` state and
    /// defers all suspicion until connectivity returns, instead of
    /// mass-fencing the machine. Disabling reproduces the legacy
    /// mass-false-suspect behaviour (for regression tests).
    pub partition_aware: bool,
    /// How long the `Partitioned` state may defer suspicion before the
    /// plane concludes the cluster really did die en masse and lets
    /// fencing proceed.
    pub partition_timeout: SimDuration,
}

impl RecoveryConfig {
    /// Detection and self-healing on, checkpointing off: 5 s heartbeats,
    /// phi threshold 8, fence + auto-unfence, no watchdog.
    pub fn detection_only() -> Self {
        RecoveryConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            phi_threshold: DEFAULT_PHI_THRESHOLD,
            checkpoint: None,
            fence_on_suspicion: true,
            auto_unfence: true,
            thermal_watchdog: None,
            cap_aware_suspicion: true,
            partition_aware: true,
            partition_timeout: SimDuration::from_secs(120),
        }
    }

    /// [`RecoveryConfig::detection_only`] plus checkpoints every
    /// `interval`.
    pub fn with_checkpoints(interval: SimDuration) -> Self {
        RecoveryConfig {
            checkpoint: Some(CheckpointConfig::every(interval)),
            ..RecoveryConfig::detection_only()
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::detection_only()
    }
}

/// An action the control plane asks the engine to apply. The control
/// plane never touches the scheduler itself — the engine stays the single
/// writer, so every action is observable and testable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// The failure detector crossed its threshold for this node.
    FenceSuspect {
        /// Node index.
        node: usize,
        /// The phi value at detection.
        phi: f64,
    },
    /// A fenced node's heartbeat stream resumed: return it to service.
    Unfence {
        /// Node index.
        node: usize,
    },
    /// Watchdog: the node is over its throttle line; step DVFS down.
    ThrottleHot {
        /// Node index.
        node: usize,
        /// The temperature observed.
        temperature: Celsius,
    },
    /// Watchdog: the node cooled below the release line; step DVFS up.
    RelaxCool {
        /// Node index.
        node: usize,
    },
    /// Watchdog: sustained over-temperature; fence before the trip.
    FenceHot {
        /// Node index.
        node: usize,
        /// The temperature observed.
        temperature: Celsius,
    },
    /// Every node went silent at once: the plane suspects the shared
    /// switch, not the nodes, and defers all suspicion.
    PartitionSuspected {
        /// Unfenced nodes over the phi threshold at entry.
        silent: usize,
    },
    /// A heartbeat got through again: connectivity is back, deferred
    /// suspicion re-accrues per node from here.
    PartitionHealed,
    /// The partition outlived [`RecoveryConfig::partition_timeout`]: the
    /// plane concludes the cluster really died and lets fencing proceed.
    PartitionTimedOut,
}

/// Heartbeat-fed decision loop over the cluster's nodes.
pub struct ControlPlane {
    monitor: HeartbeatMonitor,
    config: RecoveryConfig,
    /// Each node's detector slot in `monitor`, resolved once.
    slots: Vec<usize>,
    /// Which nodes this control plane has fenced.
    fenced: Vec<bool>,
    /// When each node crossed the watchdog's fence line, if it is over it.
    hot_since: Vec<Option<SimTime>>,
    /// Outstanding watchdog DVFS step-downs per node, so cooling only
    /// relaxes what the watchdog itself throttled.
    throttle_depth: Vec<usize>,
    /// Since when the plane has judged the cluster partitioned (correlated
    /// silence), deferring all suspicion.
    partitioned_since: Option<SimTime>,
}

impl ControlPlane {
    /// Attaches the control plane to `broker`, watching heartbeats of the
    /// given nodes (in index order).
    pub fn new(broker: &Broker, config: RecoveryConfig, hostnames: Vec<String>) -> Self {
        let mut monitor = HeartbeatMonitor::attach(
            broker,
            "org/unibo/cluster/cimone/node/+/plugin/health_pub/chnl/data/heartbeat"
                .parse()
                .expect("valid filter"),
            config.phi_threshold,
        );
        let n = hostnames.len();
        let slots = hostnames.iter().map(|h| monitor.register(h)).collect();
        ControlPlane {
            monitor,
            config,
            slots,
            fenced: vec![false; n],
            hot_since: vec![None; n],
            throttle_depth: vec![0; n],
            partitioned_since: None,
        }
    }

    /// The failure detector (suspicion levels are readable at any time).
    pub fn monitor(&self) -> &HeartbeatMonitor {
        &self.monitor
    }

    /// Ingests queued heartbeat arrivals *without* running the decision
    /// pass; returns how many were ingested. The monitored fast-forward
    /// (DESIGN.md §16) records arrivals at their exact ticks and proves
    /// separately — via [`ControlPlane::is_quiescent`] at span entry and
    /// [`ControlPlane::next_suspicion_due`] over the span — that the
    /// decision pass would act on none of them, so skipping it is exact.
    pub fn pump_arrivals(&mut self) -> usize {
        self.monitor.pump()
    }

    /// Whether this control plane has node `i` fenced.
    pub fn is_fenced(&self, node: usize) -> bool {
        self.fenced[node]
    }

    /// Marks `node` fenced (the engine calls this after applying a fence
    /// action so operator-driven fences stay in sync too).
    pub fn set_fenced(&mut self, node: usize, fenced: bool) {
        self.fenced[node] = fenced;
    }

    /// Tells the failure detector that `node` is expected to heartbeat
    /// `scale`× slower than nominal (a DVFS-capped node's health daemon
    /// runs at the capped clock). A no-op unless
    /// [`RecoveryConfig::cap_aware_suspicion`] is set.
    pub fn set_expected_interval_scale(&mut self, node: usize, scale: f64) {
        if self.config.cap_aware_suspicion {
            self.monitor
                .slot_mut(self.slots[node])
                .set_expected_scale(scale);
        }
    }

    /// Whether any node is currently fenced. A fenced node's unfence
    /// condition decays with wall time (`resumed` compares `now` against
    /// the last arrival), so a due-time clock must evaluate every tick
    /// while a fence is outstanding.
    pub fn any_fenced(&self) -> bool {
        self.fenced.iter().any(|&f| f)
    }

    /// Whether the plane is deferring suspicion because the whole cluster
    /// went silent at once (a suspected shared-switch outage).
    pub fn is_partitioned(&self) -> bool {
        self.partitioned_since.is_some()
    }

    /// Since when the plane has been in the `Partitioned` state, if it is.
    pub fn partitioned_since(&self) -> Option<SimTime> {
        self.partitioned_since
    }

    /// Whether any node's heartbeat *actually* arrived within twice its
    /// (cadence-scaled) heartbeat interval of `now` — the differential
    /// evidence that separates "one node died" (peers still beating) from
    /// "the shared switch died" (nobody beating).
    fn recently_heard_any(&self, now: SimTime) -> bool {
        self.slots.iter().any(|&slot| {
            let d = self.monitor.slot(slot);
            d.last_heard().is_some_and(|t| {
                now.saturating_since(t).as_secs_f64()
                    < self.config.heartbeat_interval.as_secs_f64() * 2.0 * d.expected_scale()
            })
        })
    }

    /// Whether [`ControlPlane::tick`] is provably a pure observation for
    /// ticks where no heartbeat arrives and no phi threshold is crossed:
    /// no node fenced, no armed watchdog sustain clock, no outstanding
    /// watchdog throttle to relax, and (when a watchdog is configured)
    /// every temperature strictly below its throttle and fence lines.
    /// Under these conditions the only state `tick` could mutate is
    /// driven by arrivals or crossings, both of which a due-time clock
    /// schedules explicitly — so skipping the call is exact.
    pub fn is_quiescent(&self, temperatures: impl IntoIterator<Item = Celsius>) -> bool {
        if self.any_fenced() {
            return false;
        }
        // The partitioned state heals on arrivals and expires on a wall
        // clock: both are tick-observed, so the plane stays busy.
        if self.partitioned_since.is_some() {
            return false;
        }
        match self.config.thermal_watchdog {
            None => true,
            Some(w) => {
                self.hot_since.iter().all(Option::is_none)
                    && self.throttle_depth.iter().all(|&d| d == 0)
                    && temperatures
                        .into_iter()
                        .all(|t| t < w.throttle_above && t < w.fence_above)
            }
        }
    }

    /// The first grid tick in `[from, to]` (stepping by `step`) at which
    /// node `i` would cross the suspicion threshold with no further
    /// heartbeats — `None` when suspicion cannot fence (disabled, already
    /// fenced, or the crossing lies beyond `to`).
    pub fn next_suspicion_due(
        &self,
        node: usize,
        from: SimTime,
        to: SimTime,
        step: SimDuration,
    ) -> Option<SimTime> {
        if !self.config.fence_on_suspicion || self.fenced[node] {
            return None;
        }
        self.monitor.slot(self.slots[node]).first_crossing(
            self.config.phi_threshold,
            from,
            to,
            step,
        )
    }

    /// One decision tick: ingest heartbeats, evaluate suspicion for every
    /// node, and run the thermal watchdog over `temperatures`. Returns the
    /// actions for the engine to apply, in node order.
    // The index walks four parallel per-node vectors; iterating any one
    // of them would just obscure that.
    #[allow(clippy::needless_range_loop)]
    pub fn tick(&mut self, now: SimTime, temperatures: &[Celsius]) -> Vec<ControlAction> {
        self.monitor.pump();
        let mut actions = Vec::new();
        if self.config.partition_aware && self.config.fence_on_suspicion {
            let fresh = self.recently_heard_any(now);
            match self.partitioned_since {
                Some(since) => {
                    if fresh {
                        // Connectivity is back. Nodes that resumed carry a
                        // fresh arrival; nodes rebaselined at entry have
                        // been re-accruing silently and — if they really
                        // died — are fenced by the loop below, this tick.
                        self.partitioned_since = None;
                        actions.push(ControlAction::PartitionHealed);
                    } else if now.saturating_since(since) >= self.config.partition_timeout {
                        // Nobody came back: the cluster really died en
                        // masse. Stop deferring and let fencing proceed.
                        self.partitioned_since = None;
                        actions.push(ControlAction::PartitionTimedOut);
                    }
                }
                None => {
                    let silent = (0..self.slots.len())
                        .filter(|&n| {
                            !self.fenced[n]
                                && self.monitor.slot(self.slots[n]).phi(now)
                                    >= self.config.phi_threshold
                        })
                        .count();
                    // Correlated silence is only inferable against peers:
                    // with fewer than two nodes ever heard from there is
                    // no differential evidence, and a lone silent node is
                    // just a dead node.
                    let heard = self
                        .slots
                        .iter()
                        .filter(|&&slot| self.monitor.slot(slot).last_heard().is_some())
                        .count();
                    if silent > 0 && !fresh && heard >= 2 {
                        // A node crossed the line while *nobody* in the
                        // cluster is beating: that is the shared switch,
                        // not the node. Defer everyone's suspicion.
                        self.partitioned_since = Some(now);
                        actions.push(ControlAction::PartitionSuspected { silent });
                        for node in 0..self.slots.len() {
                            if !self.fenced[node] {
                                self.monitor.rebaseline_slot(self.slots[node], now);
                            }
                        }
                    }
                }
            }
        }
        for node in 0..self.slots.len() {
            let detector = self.monitor.slot(self.slots[node]);
            let phi = detector.phi(now);
            if !self.fenced[node] {
                if self.config.fence_on_suspicion
                    && self.partitioned_since.is_none()
                    && phi >= self.config.phi_threshold
                {
                    actions.push(ControlAction::FenceSuspect { node, phi });
                    // Applied optimistically: the engine fences in the same
                    // tick it receives the action.
                    self.fenced[node] = true;
                    continue;
                }
            } else if self.config.auto_unfence {
                // Unfence once the stream has demonstrably resumed: a
                // fresh arrival and suspicion back under half the line.
                // A thermally fenced node keeps heartbeating, so it must
                // additionally have cooled below the release line.
                let resumed = detector
                    .last_heard()
                    .is_some_and(|t| now.saturating_since(t) < self.config.heartbeat_interval * 2);
                let cooled = self
                    .config
                    .thermal_watchdog
                    .is_none_or(|w| temperatures[node] < w.release_below);
                if resumed && cooled && phi < self.config.phi_threshold * 0.5 {
                    actions.push(ControlAction::Unfence { node });
                    self.fenced[node] = false;
                }
            }
            if let Some(watchdog) = self.config.thermal_watchdog {
                if self.fenced[node] {
                    self.hot_since[node] = None;
                    continue;
                }
                let temp = temperatures[node];
                if temp >= watchdog.fence_above {
                    let since = *self.hot_since[node].get_or_insert(now);
                    if now.saturating_since(since) >= watchdog.sustain {
                        actions.push(ControlAction::FenceHot {
                            node,
                            temperature: temp,
                        });
                        self.fenced[node] = true;
                        self.hot_since[node] = None;
                        continue;
                    }
                } else {
                    self.hot_since[node] = None;
                }
                if temp >= watchdog.throttle_above {
                    actions.push(ControlAction::ThrottleHot {
                        node,
                        temperature: temp,
                    });
                    self.throttle_depth[node] += 1;
                } else if temp < watchdog.release_below && self.throttle_depth[node] > 0 {
                    actions.push(ControlAction::RelaxCool { node });
                    self.throttle_depth[node] -= 1;
                }
            }
        }
        actions
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("config", &self.config)
            .field("fenced", &self.fenced)
            .finish_non_exhaustive()
    }
}

/// Power-cap governor policy (engine-level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCapConfig {
    /// Rated power budget of one blade's rail, watts; a brownout's
    /// `budget_frac` scales this.
    pub rail_rated_watts: f64,
    /// Hysteresis between single-OPP ramp-back steps — both once a rail
    /// recovers and while capped under an active budget — so a flapping
    /// rail or a wiggling temperature cannot make the blade's frequency
    /// oscillate.
    pub ramp_interval: SimDuration,
    /// Up-step margin: while a budget is active, the ceiling only rises
    /// to an OPP whose predicted power fits under `budget × (1 − margin)`.
    /// Down-steps ignore the margin (safety is immediate).
    pub up_margin_frac: f64,
}

impl PowerCapConfig {
    /// Defaults for the RV007 blade: the rated rail budget from
    /// [`crate::blade::RAIL_RATED_WATTS`], ramping one OPP per 10 s, with
    /// a 3% up-step margin.
    pub fn rv007_default() -> Self {
        PowerCapConfig {
            rail_rated_watts: crate::blade::RAIL_RATED_WATTS,
            ramp_interval: SimDuration::from_secs(10),
            up_margin_frac: 0.03,
        }
    }
}

impl Default for PowerCapConfig {
    fn default() -> Self {
        PowerCapConfig::rv007_default()
    }
}

/// An action the power-cap governor asks the engine to apply. Like
/// [`ControlAction`], the governor never touches nodes or the scheduler
/// itself — the engine stays the single writer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapAction {
    /// Clamp the blade's nodes to OPP indices `<= ceiling`.
    SetCeiling {
        /// Blade index.
        blade: usize,
        /// Highest admissible OPP index.
        ceiling: usize,
    },
    /// Even the floor OPP exceeds the rail budget: power emergency. The
    /// engine must drain the blade (checkpoint-assisted requeue) and power
    /// its boards off rather than overdraw the rail.
    Emergency {
        /// Blade index.
        blade: usize,
        /// The budget that could not be met, watts.
        budget_watts: f64,
    },
    /// The rail recovered after an emergency: the engine may power the
    /// boards back on and return them to service (the ramp-back then
    /// raises the ceiling step by step).
    RailRecovered {
        /// Blade index.
        blade: usize,
    },
    /// Ramp-back complete: the blade is uncapped again.
    Release {
        /// Blade index.
        blade: usize,
    },
    /// Machine-wide power emergency: even with every blade clamped to its
    /// floor OPP the rack cannot fit under the feed budget. The engine
    /// must checkpoint-drain the whole machine; per-blade
    /// [`CapAction::Emergency`] actions follow with the arbitrated
    /// (infeasible) shares.
    RackEmergency {
        /// The machine-wide budget that could not be met, watts.
        budget_watts: f64,
    },
}

/// Per-blade cap state.
#[derive(Debug, Clone, PartialEq)]
struct BladeCap {
    /// Active brownout budget, watts (None = rail healthy).
    budget_watts: Option<f64>,
    /// When the active brownout ends.
    until: SimTime,
    /// Highest admissible OPP index (opp_count − 1 = uncapped).
    ceiling: usize,
    /// Next ramp-back step, when recovering.
    next_ramp: Option<SimTime>,
    /// Since when the next OPP up has fit under the margined budget
    /// continuously; an up-step needs a full ramp interval of dwell, so a
    /// one-tick power dip (an HPL communication phase) cannot flap the cap.
    up_fit_since: Option<SimTime>,
    /// Whether the budget proved infeasible even at the floor OPP.
    emergency: bool,
}

/// A machine-wide feed budget from a [`FaultKind::MultiRailBrownout`]: the
/// rack arbiter splits it across blades each tick.
#[derive(Debug, Clone, PartialEq)]
struct RackBudget {
    /// The machine-wide budget, watts.
    budget_watts: f64,
    /// When the brownout ends.
    until: SimTime,
    /// Whether the rack-level emergency has already been announced, so the
    /// action stream carries it exactly once per episode.
    emergency_announced: bool,
}

/// The brownout graceful-degradation governor: on a rail brownout it caps
/// the blade's DVFS operating points so the blade's *mean* power never
/// exceeds the reduced budget, instead of letting the boards crash; when
/// the rail recovers it ramps the cap back one OPP per
/// [`PowerCapConfig::ramp_interval`] (hysteresis against rail flap).
///
/// Everything is an exact function of grid-tick inputs, and the governor
/// exposes [`PowerCapGovernor::next_due`] and
/// [`PowerCapGovernor::is_quiescent`] so the event-driven clock can
/// aggregate its obligations — the whole path stays bit-identical across
/// clock modes.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCapGovernor {
    config: PowerCapConfig,
    opp_count: usize,
    blades: Vec<BladeCap>,
    rack: Option<RackBudget>,
}

impl PowerCapGovernor {
    /// A governor over `blade_count` blades whose nodes expose `opp_count`
    /// operating points.
    ///
    /// # Panics
    ///
    /// Panics if `opp_count` is zero.
    pub fn new(config: PowerCapConfig, blade_count: usize, opp_count: usize) -> Self {
        assert!(opp_count > 0, "need at least one operating point");
        PowerCapGovernor {
            config,
            opp_count,
            blades: vec![
                BladeCap {
                    budget_watts: None,
                    until: SimTime::ZERO,
                    ceiling: opp_count - 1,
                    next_ramp: None,
                    up_fit_since: None,
                    emergency: false,
                };
                blade_count
            ],
            rack: None,
        }
    }

    /// The governor's policy.
    pub fn config(&self) -> &PowerCapConfig {
        &self.config
    }

    /// Registers a brownout on `blade`'s rail: `budget_frac` of the rated
    /// budget remains available until `now + span`. The next
    /// [`PowerCapGovernor::evaluate`] picks the cap.
    pub fn begin_brownout(
        &mut self,
        blade: usize,
        budget_frac: f64,
        now: SimTime,
        span: SimDuration,
    ) {
        let cap = &mut self.blades[blade];
        cap.budget_watts = Some(budget_frac * self.config.rail_rated_watts);
        cap.until = now + span;
        cap.next_ramp = None;
        cap.up_fit_since = None;
    }

    /// Registers a machine-wide brownout: `budget_frac` of the rack's total
    /// rated feed (`rail_rated_watts × blade_count`) remains available
    /// until `now + span`. Each [`PowerCapGovernor::evaluate`] while the
    /// budget is live arbitrates per-blade shares by deterministic
    /// water-filling over the blades' measured load curves.
    pub fn begin_rack_brownout(&mut self, budget_frac: f64, now: SimTime, span: SimDuration) {
        let rated = self.config.rail_rated_watts * self.blades.len() as f64;
        self.rack = Some(RackBudget {
            budget_watts: budget_frac * rated,
            until: now + span,
            emergency_announced: false,
        });
    }

    /// The active machine-wide budget, watts, if a multi-rail brownout is
    /// in force.
    pub fn active_rack_budget_watts(&self) -> Option<f64> {
        self.rack.as_ref().map(|rack| rack.budget_watts)
    }

    /// Whether the machine is in a rack-level power emergency: even floor
    /// OPPs on every blade did not fit the machine-wide budget.
    pub fn in_rack_emergency(&self) -> bool {
        self.rack
            .as_ref()
            .is_some_and(|rack| rack.emergency_announced)
    }

    /// Splits the machine-wide budget into per-blade budgets by
    /// deterministic water-filling: every blade starts at its floor OPP,
    /// then whichever blade's next OPP step costs the fewest watts (ties
    /// broken by blade index) is raised, until no step fits. Lightly loaded
    /// blades climb higher — their steps are cheaper — which is exactly
    /// water-filling by load. Leftover headroom is shared equally, so the
    /// per-blade budgets always sum to the machine budget and the rack can
    /// never exceed it. Returns `None` when even the floor OPPs don't fit.
    fn arbitrate_rack(
        &self,
        budget_watts: f64,
        blade_power_at: &impl Fn(usize, usize) -> f64,
    ) -> Option<Vec<f64>> {
        let n = self.blades.len();
        let mut ceilings = vec![0usize; n];
        let mut powers: Vec<f64> = (0..n).map(|b| blade_power_at(b, 0)).collect();
        let mut total: f64 = powers.iter().sum();
        if total > budget_watts {
            return None;
        }
        loop {
            // Raise the blade whose post-step power (its "water level")
            // stays lowest — lightly loaded blades climb first and the
            // levels equalise, which is water-filling by load. Ties break
            // by blade index; both rules are exact f64 compares, so the
            // fill is deterministic.
            let mut best: Option<(usize, f64)> = None;
            for b in 0..n {
                if ceilings[b] + 1 >= self.opp_count {
                    continue;
                }
                let level = blade_power_at(b, ceilings[b] + 1);
                if total + (level - powers[b]) <= budget_watts
                    && best.is_none_or(|(_, best_level)| level < best_level)
                {
                    best = Some((b, level));
                }
            }
            let Some((b, level)) = best else { break };
            ceilings[b] += 1;
            total += level - powers[b];
            powers[b] = level;
        }
        let slack = (budget_watts - total) / n as f64;
        Some(powers.iter().map(|p| p + slack).collect())
    }

    /// One decision tick. `blade_power_at(blade, opp)` must return the
    /// blade's predicted mean power (watts) if every hosted node were
    /// clamped to OPP `opp` under its *current* workload and temperature —
    /// the engine computes this from the calibrated power model, so the
    /// chosen ceiling is exact, not heuristic. Returns actions in blade
    /// order.
    pub fn evaluate(
        &mut self,
        now: SimTime,
        blade_power_at: impl Fn(usize, usize) -> f64,
    ) -> Vec<CapAction> {
        let mut actions = Vec::new();
        // Rack arbitration first: while a machine-wide budget is live every
        // blade's budget is the arbiter's output, re-fitted to the moving
        // load each tick; the per-blade pass below then applies its usual
        // dwell-hysteresis ceiling logic to the arbitrated share.
        if let Some(rack) = self.rack.clone() {
            if now >= rack.until {
                // Blade budgets assigned by the arbiter expire at the rack
                // deadline too, so the per-blade pass below emits the
                // recovery/ramp actions this same tick.
                self.rack = None;
            } else {
                match self.arbitrate_rack(rack.budget_watts, &blade_power_at) {
                    Some(shares) => {
                        for (blade, share) in shares.into_iter().enumerate() {
                            let cap = &mut self.blades[blade];
                            cap.budget_watts = Some(share);
                            cap.until = rack.until;
                            cap.next_ramp = None;
                        }
                    }
                    None => {
                        if !rack.emergency_announced {
                            actions.push(CapAction::RackEmergency {
                                budget_watts: rack.budget_watts,
                            });
                            self.rack = Some(RackBudget {
                                emergency_announced: true,
                                ..rack
                            });
                        }
                        // Infeasible equal shares force every blade's own
                        // pass into emergency below.
                        let n = self.blades.len() as f64;
                        for cap in &mut self.blades {
                            cap.budget_watts = Some(rack.budget_watts / n);
                            cap.until = rack.until;
                            cap.next_ramp = None;
                        }
                    }
                }
            }
        }
        for blade in 0..self.blades.len() {
            let (recovered, was_emergency) = {
                let cap = &mut self.blades[blade];
                if cap.budget_watts.is_some() && now >= cap.until {
                    let was = cap.emergency;
                    cap.budget_watts = None;
                    cap.emergency = false;
                    (true, was)
                } else {
                    (false, false)
                }
            };
            if recovered {
                if was_emergency {
                    actions.push(CapAction::RailRecovered { blade });
                }
                let cap = &mut self.blades[blade];
                cap.up_fit_since = None;
                if cap.ceiling == self.opp_count - 1 {
                    // The in-window up-ramp may have climbed all the way
                    // back to nominal and left its next_ramp armed; clear
                    // it, or the post-recovery ramp below would push the
                    // ceiling past the top of the ladder.
                    cap.next_ramp = None;
                    actions.push(CapAction::Release { blade });
                } else {
                    cap.next_ramp = Some(now + self.config.ramp_interval);
                }
                continue;
            }
            let budget = self.blades[blade].budget_watts;
            if let Some(budget) = budget {
                if self.blades[blade].emergency {
                    // Emergency holds until the rail recovers; the boards
                    // are powered off, so there is nothing to re-evaluate.
                    continue;
                }
                // Largest admissible ceiling: predicted blade power at the
                // uniform clamp must fit under the budget.
                let admissible = (0..self.opp_count)
                    .rev()
                    .find(|&opp| blade_power_at(blade, opp) <= budget);
                let up_budget = budget * (1.0 - self.config.up_margin_frac);
                let cap = &mut self.blades[blade];
                match admissible {
                    // Over budget at the current ceiling: clamp down to the
                    // admissible point immediately, then hold upward moves
                    // for a ramp interval.
                    Some(ceiling) if ceiling < cap.ceiling => {
                        cap.ceiling = ceiling;
                        cap.next_ramp = Some(now + self.config.ramp_interval);
                        cap.up_fit_since = None;
                        actions.push(CapAction::SetCeiling { blade, ceiling });
                    }
                    // Headroom opened up (the blade cooled or its load
                    // dropped): ramp back one OPP per interval, and only
                    // once the next point has fit under the margined
                    // budget for a full interval of dwell — a one-tick
                    // power dip (an HPL communication phase) or a
                    // wiggling temperature at the boundary must not flap
                    // the cap.
                    Some(ceiling) if ceiling > cap.ceiling => {
                        let next = cap.ceiling + 1;
                        if blade_power_at(blade, next) <= up_budget {
                            let since = *cap.up_fit_since.get_or_insert(now);
                            if now >= since + self.config.ramp_interval
                                && cap.next_ramp.is_none_or(|t| now >= t)
                            {
                                cap.ceiling = next;
                                cap.next_ramp = Some(now + self.config.ramp_interval);
                                // Each level earns its own dwell.
                                cap.up_fit_since = None;
                                actions.push(CapAction::SetCeiling {
                                    blade,
                                    ceiling: next,
                                });
                            }
                        } else {
                            cap.up_fit_since = None;
                        }
                    }
                    Some(_) => {
                        cap.up_fit_since = None;
                    }
                    None => {
                        cap.emergency = true;
                        cap.ceiling = 0;
                        cap.up_fit_since = None;
                        actions.push(CapAction::Emergency {
                            blade,
                            budget_watts: budget,
                        });
                    }
                }
                continue;
            }
            let cap = &mut self.blades[blade];
            if let Some(ramp_at) = cap.next_ramp {
                if now >= ramp_at {
                    cap.ceiling += 1;
                    actions.push(CapAction::SetCeiling {
                        blade,
                        ceiling: cap.ceiling,
                    });
                    if cap.ceiling == self.opp_count - 1 {
                        cap.next_ramp = None;
                        actions.push(CapAction::Release { blade });
                    } else {
                        cap.next_ramp = Some(now + self.config.ramp_interval);
                    }
                }
            }
        }
        actions
    }

    /// The blade's current OPP ceiling.
    pub fn ceiling(&self, blade: usize) -> usize {
        self.blades[blade].ceiling
    }

    /// The blade's active budget, watts, if its rail is browned out.
    pub fn active_budget_watts(&self, blade: usize) -> Option<f64> {
        self.blades[blade].budget_watts
    }

    /// Whether the blade is in a power emergency (boards powered off).
    pub fn in_emergency(&self, blade: usize) -> bool {
        self.blades[blade].emergency
    }

    /// Whether the blade is degraded: browned out, mid-ramp, or in
    /// emergency. The scheduler steers new work away from such blades.
    pub fn is_degraded(&self, blade: usize) -> bool {
        let cap = &self.blades[blade];
        cap.budget_watts.is_some() || cap.next_ramp.is_some() || cap.emergency
    }

    /// Number of blades governed.
    pub fn blade_count(&self) -> usize {
        self.blades.len()
    }

    /// The earliest future instant the governor must observe: a rail
    /// recovery or a pending ramp-back step. While a budget is *active*
    /// the governor re-evaluates every tick (workloads move the admissible
    /// ceiling), which [`PowerCapGovernor::is_quiescent`] reports as
    /// non-quiescence — so this is the due-time for the recovering tail,
    /// aggregated by the event-driven clock.
    pub fn next_due(&self) -> Option<SimTime> {
        self.blades
            .iter()
            .flat_map(|cap| {
                let recovery = cap.budget_watts.is_some().then_some(cap.until);
                [recovery, cap.next_ramp]
            })
            .flatten()
            .chain(self.rack.as_ref().map(|rack| rack.until))
            .min()
    }

    /// Whether the governor is provably inert: no active budget, no
    /// pending ramp, no emergency, every ceiling at nominal. Exactly then
    /// may a due-time clock skip its evaluation.
    pub fn is_quiescent(&self) -> bool {
        self.rack.is_none()
            && self.blades.iter().all(|cap| {
                cap.budget_watts.is_none()
                    && cap.next_ramp.is_none()
                    && !cap.emergency
                    && cap.ceiling == self.opp_count - 1
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimone_monitor::payload::Payload;
    use cimone_monitor::topic::Topic;

    fn heartbeat_topic(host: &str) -> Topic {
        Topic::new(
            [
                "org",
                "unibo",
                "cluster",
                "cimone",
                "node",
                host,
                "plugin",
                "health_pub",
                "chnl",
                "data",
                "heartbeat",
            ]
            .map(str::to_owned),
        )
    }

    fn hosts() -> Vec<String> {
        (1..=2).map(|i| format!("mc-node-{i:02}")).collect()
    }

    fn cool() -> Vec<Celsius> {
        vec![Celsius::new(50.0); 2]
    }

    #[test]
    fn silence_fences_and_resumption_unfences() {
        let broker = Broker::new();
        let mut cp = ControlPlane::new(&broker, RecoveryConfig::detection_only(), hosts());
        let topic = heartbeat_topic("mc-node-01");
        for s in (0..60).step_by(5) {
            broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
        }
        assert!(cp.tick(SimTime::from_secs(60), &cool()).is_empty());
        // 30 s of silence: node 0 crosses phi 8 and is fenced.
        let actions = cp.tick(SimTime::from_secs(90), &cool());
        assert!(matches!(
            actions.as_slice(),
            [ControlAction::FenceSuspect { node: 0, phi }] if *phi >= 8.0
        ));
        assert!(cp.is_fenced(0));
        // The stream resumes: the node is unfenced.
        broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(95)));
        let actions = cp.tick(SimTime::from_secs(96), &cool());
        assert_eq!(actions, vec![ControlAction::Unfence { node: 0 }]);
        assert!(!cp.is_fenced(0));
    }

    #[test]
    fn fencing_can_be_disabled() {
        let broker = Broker::new();
        let config = RecoveryConfig {
            fence_on_suspicion: false,
            ..RecoveryConfig::detection_only()
        };
        let mut cp = ControlPlane::new(&broker, config, hosts());
        let topic = heartbeat_topic("mc-node-02");
        for s in (0..60).step_by(5) {
            broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
        }
        assert!(cp.tick(SimTime::from_secs(200), &cool()).is_empty());
        // Suspicion is still observable even though nothing was fenced.
        assert!(cp
            .monitor()
            .is_suspect("mc-node-02", SimTime::from_secs(200)));
    }

    /// Steady 5 s heartbeats for every host until `until_secs`.
    fn beat_all(broker: &Broker, until_secs: u64) {
        for host in hosts() {
            let topic = heartbeat_topic(&host);
            for s in (0..until_secs).step_by(5) {
                broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
            }
        }
    }

    /// Runs the plane tick-by-tick over `[from, to]` seconds, collecting
    /// every action tagged with its tick.
    fn drive(
        cp: &mut ControlPlane,
        from: u64,
        to: u64,
        temps: &[Celsius],
    ) -> Vec<(u64, ControlAction)> {
        let mut seen = Vec::new();
        for s in from..=to {
            for a in cp.tick(SimTime::from_secs(s), temps) {
                seen.push((s, a));
            }
        }
        seen
    }

    #[test]
    fn cluster_wide_silence_partitions_instead_of_mass_fencing() {
        let broker = Broker::new();
        let mut cp = ControlPlane::new(&broker, RecoveryConfig::detection_only(), hosts());
        beat_all(&broker, 60);
        // The switch goes dark after t=55: total silence, both nodes.
        let seen = drive(&mut cp, 56, 140, &cool());
        assert!(
            seen.iter()
                .all(|(_, a)| matches!(a, ControlAction::PartitionSuspected { .. })),
            "only a partition entry is allowed, got {seen:?}"
        );
        assert_eq!(seen.len(), 1, "{seen:?}");
        assert!(matches!(
            seen[0].1,
            ControlAction::PartitionSuspected { silent } if silent >= 1
        ));
        assert!(cp.is_partitioned());
        assert!(!cp.is_fenced(0) && !cp.is_fenced(1), "nobody fenced");
        assert!(!cp.is_quiescent(cool()), "partitioned plane stays busy");
        // The switch comes back: both streams resume, the partition heals,
        // and — the acceptance bar — not one false suspicion ever fires.
        for host in hosts() {
            let topic = heartbeat_topic(&host);
            for s in (141..=200).step_by(5) {
                broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
            }
        }
        let seen = drive(&mut cp, 141, 200, &cool());
        assert_eq!(
            seen.iter()
                .filter(|(_, a)| matches!(a, ControlAction::PartitionHealed))
                .count(),
            1,
            "{seen:?}"
        );
        assert!(
            !seen
                .iter()
                .any(|(_, a)| matches!(a, ControlAction::FenceSuspect { .. })),
            "zero false suspicions across a pure switch outage: {seen:?}"
        );
        assert!(!cp.is_partitioned());
    }

    #[test]
    fn legacy_detector_mass_fences_the_whole_cluster() {
        // The regression baseline: partition awareness off reproduces the
        // historical behaviour — cluster-wide silence fences everyone.
        let broker = Broker::new();
        let config = RecoveryConfig {
            partition_aware: false,
            ..RecoveryConfig::detection_only()
        };
        let mut cp = ControlPlane::new(&broker, config, hosts());
        beat_all(&broker, 60);
        let seen = drive(&mut cp, 56, 140, &cool());
        let fences: Vec<_> = seen
            .iter()
            .filter(|(_, a)| matches!(a, ControlAction::FenceSuspect { .. }))
            .collect();
        assert_eq!(fences.len(), 2, "every node falsely fenced: {seen:?}");
        assert!(cp.is_fenced(0) && cp.is_fenced(1));
    }

    #[test]
    fn a_node_that_died_during_the_outage_is_fenced_on_healing() {
        let broker = Broker::new();
        let mut cp = ControlPlane::new(&broker, RecoveryConfig::detection_only(), hosts());
        beat_all(&broker, 60);
        drive(&mut cp, 56, 140, &cool());
        assert!(cp.is_partitioned());
        // Only node 0 resumes: the partition heals, and node 1 — silent
        // since well before the rebaseline — is fenced at once.
        broker.publish(
            &heartbeat_topic("mc-node-01"),
            Payload::new(1.0, SimTime::from_secs(141)),
        );
        let seen = drive(&mut cp, 141, 160, &cool());
        assert!(
            seen.iter()
                .any(|(_, a)| matches!(a, ControlAction::PartitionHealed)),
            "{seen:?}"
        );
        assert!(
            seen.iter()
                .any(|(_, a)| matches!(a, ControlAction::FenceSuspect { node: 1, .. })),
            "the genuinely dead node must be fenced: {seen:?}"
        );
        assert!(!cp.is_fenced(0), "the survivor is not touched");
    }

    #[test]
    fn partition_timeout_concedes_mass_death() {
        let broker = Broker::new();
        let config = RecoveryConfig {
            partition_timeout: SimDuration::from_secs(60),
            ..RecoveryConfig::detection_only()
        };
        let mut cp = ControlPlane::new(&broker, config, hosts());
        beat_all(&broker, 60);
        // Nobody ever comes back: after the timeout the plane concedes and
        // fences the (really dead) cluster.
        let seen = drive(&mut cp, 56, 300, &cool());
        let timeout_at = seen
            .iter()
            .find(|(_, a)| matches!(a, ControlAction::PartitionTimedOut))
            .map(|(s, _)| *s)
            .expect("the partition must time out");
        let entry_at = seen
            .iter()
            .find(|(_, a)| matches!(a, ControlAction::PartitionSuspected { .. }))
            .map(|(s, _)| *s)
            .expect("partition entry");
        assert_eq!(timeout_at, entry_at + 60);
        let fences: Vec<_> = seen
            .iter()
            .filter(|(s, a)| matches!(a, ControlAction::FenceSuspect { .. }) && *s >= timeout_at)
            .collect();
        assert_eq!(fences.len(), 2, "{seen:?}");
        assert!(!cp.is_partitioned());
    }

    #[test]
    fn watchdog_fences_only_after_sustained_heat() {
        let broker = Broker::new();
        let config = RecoveryConfig {
            thermal_watchdog: Some(ThermalWatchdog {
                throttle_above: Celsius::new(95.0),
                release_below: Celsius::new(85.0),
                fence_above: Celsius::new(103.0),
                sustain: SimDuration::from_secs(30),
            }),
            ..RecoveryConfig::detection_only()
        };
        let mut cp = ControlPlane::new(&broker, config, hosts());
        let hot = vec![Celsius::new(104.0), Celsius::new(50.0)];
        // First sighting: throttle, arm the sustain clock — no fence yet.
        let actions = cp.tick(SimTime::from_secs(10), &hot);
        assert_eq!(
            actions,
            vec![ControlAction::ThrottleHot {
                node: 0,
                temperature: Celsius::new(104.0)
            }]
        );
        // Still hot within the sustain window: throttle again.
        let actions = cp.tick(SimTime::from_secs(30), &hot);
        assert!(matches!(
            actions.as_slice(),
            [ControlAction::ThrottleHot { node: 0, .. }]
        ));
        // Past the sustain window: fence.
        let actions = cp.tick(SimTime::from_secs(40), &hot);
        assert!(matches!(
            actions.as_slice(),
            [ControlAction::FenceHot { node: 0, .. }]
        ));
        assert!(cp.is_fenced(0));
    }

    #[test]
    fn suspicion_due_time_matches_the_tick_by_tick_fence() {
        let broker = Broker::new();
        let mut cp = ControlPlane::new(&broker, RecoveryConfig::detection_only(), hosts());
        let topic = heartbeat_topic("mc-node-01");
        for s in (0..60).step_by(5) {
            broker.publish(&topic, Payload::new(1.0, SimTime::from_secs(s)));
        }
        assert!(cp.tick(SimTime::from_secs(60), &cool()).is_empty());
        assert!(cp.is_quiescent(cool()));
        // Predict the fence tick, then replay tick-by-tick and compare.
        let step = SimDuration::from_secs(1);
        let from = SimTime::from_secs(61);
        let due = cp
            .next_suspicion_due(0, from, SimTime::from_secs(400), step)
            .expect("silence must cross the threshold");
        let mut t = from;
        let fenced_at = loop {
            let actions = cp.tick(t, &cool());
            if actions
                .iter()
                .any(|a| matches!(a, ControlAction::FenceSuspect { node: 0, .. }))
            {
                break t;
            }
            t += step;
            assert!(t <= SimTime::from_secs(400), "never fenced");
        };
        assert_eq!(due, fenced_at);
        // A fence is a standing obligation: no longer quiescent, and the
        // fenced node no longer has a suspicion due-time.
        assert!(!cp.is_quiescent(cool()));
        assert_eq!(
            cp.next_suspicion_due(0, t, SimTime::from_secs(800), step),
            None
        );
    }

    #[test]
    fn watchdog_state_blocks_quiescence() {
        let broker = Broker::new();
        let config = RecoveryConfig {
            thermal_watchdog: Some(ThermalWatchdog::fu740_default()),
            ..RecoveryConfig::detection_only()
        };
        let mut cp = ControlPlane::new(&broker, config, hosts());
        assert!(cp.is_quiescent(cool()));
        // Hot air alone breaks quiescence before any action is taken.
        let hot = vec![Celsius::new(96.0), Celsius::new(50.0)];
        assert!(!cp.is_quiescent(hot.clone()));
        // An outstanding throttle keeps the plane busy even once cool.
        cp.tick(SimTime::from_secs(10), &hot);
        assert!(!cp.is_quiescent(cool()));
        cp.tick(SimTime::from_secs(20), &cool()); // RelaxCool drains it
        assert!(cp.is_quiescent(cool()));
    }

    #[test]
    fn watchdog_cooling_resets_the_sustain_clock() {
        let broker = Broker::new();
        let config = RecoveryConfig {
            thermal_watchdog: Some(ThermalWatchdog::fu740_default()),
            ..RecoveryConfig::detection_only()
        };
        let mut cp = ControlPlane::new(&broker, config, hosts());
        let hot = vec![Celsius::new(104.0), Celsius::new(50.0)];
        let warm = vec![Celsius::new(90.0), Celsius::new(50.0)];
        cp.tick(SimTime::from_secs(0), &hot);
        // Dipping below the fence line resets the sustain clock...
        cp.tick(SimTime::from_secs(20), &warm);
        // ...so heat at t=40 has accrued 0 s, not 40 s.
        let actions = cp.tick(SimTime::from_secs(40), &hot);
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ControlAction::FenceHot { .. })),
            "{actions:?}"
        );
        // Cool air below the release line steps DVFS back up — but only
        // on the node the watchdog actually throttled.
        let cold = vec![Celsius::new(60.0), Celsius::new(50.0)];
        let actions = cp.tick(SimTime::from_secs(60), &cold);
        assert_eq!(actions, vec![ControlAction::RelaxCool { node: 0 }]);
    }

    /// A synthetic power curve: blade power at OPP `opp` is
    /// `6 + 1.5·opp` watts for every blade (floor 6 W, nominal 12 W over a
    /// 5-point ladder).
    fn synth_power(_blade: usize, opp: usize) -> f64 {
        6.0 + 1.5 * opp as f64
    }

    #[test]
    fn governor_caps_to_the_largest_admissible_opp_and_ramps_back() {
        let mut gov = PowerCapGovernor::new(PowerCapConfig::rv007_default(), 4, 5);
        assert!(gov.is_quiescent());
        assert_eq!(gov.next_due(), None);
        // 75 % of 12 W = 9 W: OPP 2 draws exactly 9 W, OPP 3 draws 10.5 W.
        gov.begin_brownout(1, 0.75, SimTime::from_secs(10), SimDuration::from_secs(60));
        assert!(!gov.is_quiescent());
        assert_eq!(gov.next_due(), Some(SimTime::from_secs(70)));
        let actions = gov.evaluate(SimTime::from_secs(10), synth_power);
        assert_eq!(
            actions,
            vec![CapAction::SetCeiling {
                blade: 1,
                ceiling: 2
            }]
        );
        assert_eq!(gov.ceiling(1), 2);
        assert!(gov.is_degraded(1) && !gov.is_degraded(0));
        // Steady state: no repeated actions while nothing changes.
        assert!(gov.evaluate(SimTime::from_secs(20), synth_power).is_empty());
        // Rail recovers at t=70: ramp one OPP per 10 s with hysteresis.
        assert!(gov.evaluate(SimTime::from_secs(70), synth_power).is_empty());
        assert_eq!(gov.next_due(), Some(SimTime::from_secs(80)));
        let actions = gov.evaluate(SimTime::from_secs(80), synth_power);
        assert_eq!(
            actions,
            vec![CapAction::SetCeiling {
                blade: 1,
                ceiling: 3
            }]
        );
        let actions = gov.evaluate(SimTime::from_secs(90), synth_power);
        assert_eq!(
            actions,
            vec![
                CapAction::SetCeiling {
                    blade: 1,
                    ceiling: 4
                },
                CapAction::Release { blade: 1 }
            ]
        );
        assert!(gov.is_quiescent());
        assert_eq!(gov.next_due(), None);
    }

    #[test]
    fn governor_declares_emergency_when_even_the_floor_opp_overdraws() {
        let mut gov = PowerCapGovernor::new(PowerCapConfig::rv007_default(), 4, 5);
        // 25 % of 12 W = 3 W < the 6 W floor.
        gov.begin_brownout(2, 0.25, SimTime::ZERO, SimDuration::from_secs(40));
        let actions = gov.evaluate(SimTime::ZERO, synth_power);
        assert!(matches!(
            actions.as_slice(),
            [CapAction::Emergency { blade: 2, budget_watts }] if (*budget_watts - 3.0).abs() < 1e-12
        ));
        assert!(gov.in_emergency(2));
        // The emergency holds (boards are off) until the rail recovers.
        assert!(gov.evaluate(SimTime::from_secs(20), synth_power).is_empty());
        let actions = gov.evaluate(SimTime::from_secs(40), synth_power);
        assert_eq!(actions, vec![CapAction::RailRecovered { blade: 2 }]);
        assert!(!gov.in_emergency(2));
        // Ramp from the floor: 0 → 1 → 2 → 3 → 4 + release.
        let mut t = SimTime::from_secs(50);
        for expect in 1..=4usize {
            let actions = gov.evaluate(t, synth_power);
            assert!(
                actions.contains(&CapAction::SetCeiling {
                    blade: 2,
                    ceiling: expect
                }),
                "t={t}: {actions:?}"
            );
            t += SimDuration::from_secs(10);
        }
        assert!(gov.is_quiescent());
    }

    #[test]
    fn governor_tracks_load_shifts_under_an_active_budget() {
        let mut gov = PowerCapGovernor::new(PowerCapConfig::rv007_default(), 1, 5);
        gov.begin_brownout(0, 0.75, SimTime::ZERO, SimDuration::from_secs(100));
        // Busy blade: 9 W budget admits OPP 2 on the synthetic curve.
        gov.evaluate(SimTime::ZERO, synth_power);
        assert_eq!(gov.ceiling(0), 2);
        // The blade goes idle (power halves): the whole ladder now fits,
        // but an up-step needs a full ramp interval of sustained fit
        // (dwell) before each single-OPP rise, still within the same
        // brownout.
        let idle = |b: usize, opp: usize| synth_power(b, opp) * 0.5;
        for (t, expect) in [(10u64, None), (20, Some(3usize)), (25, None), (35, Some(4))] {
            let actions = gov.evaluate(SimTime::from_secs(t), idle);
            let expected: Vec<CapAction> = expect
                .map(|ceiling| CapAction::SetCeiling { blade: 0, ceiling })
                .into_iter()
                .collect();
            assert_eq!(actions, expected, "t={t}");
        }
        // Work returns: the clamp-down is immediate, no ramp interval.
        let actions = gov.evaluate(SimTime::from_secs(40), synth_power);
        assert_eq!(
            actions,
            vec![CapAction::SetCeiling {
                blade: 0,
                ceiling: 2
            }]
        );
        // An up-step inside the margin band is refused even with dwell:
        // no flapping at the budget boundary. OPP 3 here sits exactly at
        // the 9 W budget — admissible, but without the up-step margin to
        // spare.
        let boundary = |b: usize, opp: usize| synth_power(b, opp).min(9.0);
        assert!(gov.evaluate(SimTime::from_secs(60), boundary).is_empty());
        assert!(gov.evaluate(SimTime::from_secs(80), boundary).is_empty());
        assert_eq!(gov.ceiling(0), 2);
        // Still degraded throughout — placement keeps steering away.
        assert!(gov.is_degraded(0));
    }

    /// Heterogeneous load: blades 0–1 run hot (full synthetic curve),
    /// blades 2–3 sit half idle.
    fn skewed_power(blade: usize, opp: usize) -> f64 {
        let factor = if blade < 2 { 1.0 } else { 0.5 };
        synth_power(blade, opp) * factor
    }

    #[test]
    fn rack_arbiter_water_fills_the_machine_budget_by_blade_load() {
        let mut gov = PowerCapGovernor::new(PowerCapConfig::rv007_default(), 4, 5);
        // 60 % of the 48 W machine feed = 28.8 W across four blades.
        gov.begin_rack_brownout(0.6, SimTime::ZERO, SimDuration::from_secs(100));
        assert!(!gov.is_quiescent());
        assert_eq!(gov.next_due(), Some(SimTime::from_secs(100)));
        let budget = gov.active_rack_budget_watts().expect("rack budget live");
        assert!((budget - 28.8).abs() < 1e-9, "budget {budget}");
        let actions = gov.evaluate(SimTime::ZERO, skewed_power);
        // Water-filling raises the cheap (idle) blades to nominal and
        // splits what is left between the loaded ones: blade 0 lands on
        // OPP 2, blade 1 on OPP 1, blades 2–3 stay uncapped at OPP 4.
        assert_eq!(
            actions,
            vec![
                CapAction::SetCeiling {
                    blade: 0,
                    ceiling: 2
                },
                CapAction::SetCeiling {
                    blade: 1,
                    ceiling: 1
                },
            ]
        );
        assert_eq!(
            (0..4).map(|b| gov.ceiling(b)).collect::<Vec<_>>(),
            vec![2, 1, 4, 4]
        );
        // The arbitrated shares sum to the machine budget, so actual draw
        // at the chosen ceilings can never exceed it.
        let shares: f64 = (0..4).map(|b| gov.active_budget_watts(b).unwrap()).sum();
        assert!((shares - budget).abs() < 1e-9, "shares sum to {shares}");
        let drawn: f64 = (0..4).map(|b| skewed_power(b, gov.ceiling(b))).sum();
        assert!(drawn <= budget + 1e-9, "rack draws {drawn} W over budget");
        // Every blade is degraded while the machine feed is reduced.
        assert!((0..4).all(|b| gov.is_degraded(b)));
        // Steady state: re-arbitration under unchanged load is silent.
        assert!(gov
            .evaluate(SimTime::from_secs(10), skewed_power)
            .is_empty());
        // Feed recovers at t=100: capped blades ramp back with the usual
        // hysteresis; the uncapped ones release immediately.
        let actions = gov.evaluate(SimTime::from_secs(100), skewed_power);
        assert_eq!(
            actions,
            vec![
                CapAction::Release { blade: 2 },
                CapAction::Release { blade: 3 }
            ]
        );
        let mut t = SimTime::from_secs(110);
        while !gov.is_quiescent() {
            gov.evaluate(t, skewed_power);
            t += SimDuration::from_secs(10);
            assert!(t < SimTime::from_secs(300), "ramp-back never converged");
        }
        assert_eq!(gov.next_due(), None);
    }

    #[test]
    fn rack_emergency_fires_once_when_even_floor_opps_overdraw() {
        let mut gov = PowerCapGovernor::new(PowerCapConfig::rv007_default(), 4, 5);
        // 25 % of 48 W = 12 W < the 24 W sum of floor OPPs.
        gov.begin_rack_brownout(0.25, SimTime::ZERO, SimDuration::from_secs(50));
        let actions = gov.evaluate(SimTime::ZERO, synth_power);
        assert!(matches!(
            actions.first(),
            Some(CapAction::RackEmergency { budget_watts }) if (*budget_watts - 12.0).abs() < 1e-12
        ));
        // Each blade then declares its own emergency on the infeasible
        // equal share, which is what drives the engine's checkpoint-drain.
        let blade_emergencies: Vec<usize> = actions[1..]
            .iter()
            .map(|a| match a {
                CapAction::Emergency {
                    blade,
                    budget_watts,
                } => {
                    assert!((*budget_watts - 3.0).abs() < 1e-12);
                    *blade
                }
                other => panic!("expected Emergency, got {other:?}"),
            })
            .collect();
        assert_eq!(blade_emergencies, vec![0, 1, 2, 3]);
        assert!(gov.in_rack_emergency());
        // The announcement is once-per-episode; the hold is silent.
        assert!(gov.evaluate(SimTime::from_secs(20), synth_power).is_empty());
        // Feed recovery clears the rack and every blade rail.
        let actions = gov.evaluate(SimTime::from_secs(50), synth_power);
        assert_eq!(
            actions,
            (0..4)
                .map(|blade| CapAction::RailRecovered { blade })
                .collect::<Vec<_>>()
        );
        assert!(!gov.in_rack_emergency());
        assert!((0..4).all(|b| !gov.in_emergency(b)));
    }
}
