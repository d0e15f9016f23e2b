//! Sampling plugins: `pmu_pub` (per-core performance counters, 2 Hz) and
//! `stats_pub` (OS statistics, 0.2 Hz), as configured on Monte Cimone
//! (paper §IV-B, Tables II–IV).

use std::collections::BTreeMap;

use cimone_soc::units::{Celsius, SimDuration, SimTime};

use crate::broker::Broker;
use crate::payload::Payload;
use crate::topic::{ExamonSchema, Topic};

/// Cumulative counters for one core, as read through the perf interface.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoreCounters {
    /// The fixed CYCLE counter.
    pub cycles: u64,
    /// The fixed INSTRET counter.
    pub instret: u64,
    /// Programmable counters, by event name (present only with the U-Boot
    /// HPM patch applied).
    pub events: BTreeMap<String, u64>,
}

/// Board temperatures, one per hwmon sensor (paper Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Temperatures {
    /// Motherboard sensor.
    pub mb: Celsius,
    /// SoC sensor.
    pub cpu: Celsius,
    /// NVMe SSD sensor.
    pub nvme: Celsius,
}

/// The `hwmon` sysfs paths of the three sensors (paper Table IV).
pub const HWMON_SYSFS: [(&str, &str); 3] = [
    ("nvme_temp", "/sys/class/hwmon/hwmon0/temp1_input"),
    ("mb_temp", "/sys/class/hwmon/hwmon1/temp1_input"),
    ("cpu_temp", "/sys/class/hwmon/hwmon1/temp2_input"),
];

/// Everything the plugins can observe about one node at one instant.
/// Filled in by the cluster simulator each monitoring tick.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeSnapshot {
    /// Hostname (`mc-node-01` …).
    pub hostname: String,
    /// Snapshot time.
    pub time: SimTime,
    /// Per-core cumulative counters.
    pub cores: Vec<CoreCounters>,
    /// 1/5/15-minute load averages.
    pub load_avg: (f64, f64, f64),
    /// Memory usage, bytes: used/free/buffers/cache.
    pub memory: MemoryUsage,
    /// Pages in/out per second.
    pub paging: (f64, f64),
    /// Running/blocked/new processes.
    pub procs: (f64, f64, f64),
    /// Filesystem I/O read/write bytes per second.
    pub io_total: (f64, f64),
    /// Raw disk read/write bytes per second.
    pub dsk_total: (f64, f64),
    /// Interrupts and context switches per second.
    pub system: (f64, f64),
    /// CPU usage percentages: usr/sys/idl/wai/stl.
    pub cpu_usage: CpuUsage,
    /// Network receive/send bytes per second.
    pub net_total: (f64, f64),
    /// hwmon temperatures.
    pub temperatures: Temperatures,
}

/// Memory usage in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryUsage {
    /// Used.
    pub used: f64,
    /// Free.
    pub free: f64,
    /// Buffers.
    pub buff: f64,
    /// Page cache.
    pub cach: f64,
}

/// CPU usage percentages.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuUsage {
    /// User.
    pub usr: f64,
    /// System.
    pub sys: f64,
    /// Idle.
    pub idl: f64,
    /// I/O wait.
    pub wai: f64,
    /// Steal.
    pub stl: f64,
}

/// A sampling plugin: turns a node snapshot into topic/payload pairs.
pub trait Plugin {
    /// The plugin's name.
    fn name(&self) -> &str;

    /// The sampling period.
    fn period(&self) -> SimDuration;

    /// Produces the messages for one sample.
    fn sample(&mut self, snapshot: &NodeSnapshot) -> Vec<(Topic, Payload)> {
        let mut out = Vec::new();
        self.sample_into(snapshot, &mut out);
        out
    }

    /// Appends the messages for one sample to `out` without allocating a
    /// fresh vector — the hot-loop entry point. `out` keeps its capacity
    /// across ticks, so after warm-up a sample costs zero allocations
    /// (topic strings aside).
    fn sample_into(&mut self, snapshot: &NodeSnapshot, out: &mut Vec<(Topic, Payload)>);
}

/// Interned topics for one core's counters: the fixed pair plus any
/// programmed HPM events seen so far.
#[derive(Debug, Clone)]
struct PmuCoreTopics {
    cycles: Topic,
    instret: Topic,
    /// Sorted by event name, mirroring the snapshot's `BTreeMap` order:
    /// the sampling loop walks both in lockstep, so a steady-state
    /// sample costs one string equality per event instead of a map
    /// lookup.
    events: Vec<(String, Topic)>,
}

/// The `pmu_pub` plugin: per-core CYCLE/INSTRET (and any programmed HPM
/// events), at 2 Hz by default (paper Table II).
///
/// Topics are pre-registered per host/core/metric (eagerly via
/// [`PmuPlugin::for_host`], else on the first sample): the steady-state
/// [`Plugin::sample_into`] emits interned topic handles and performs zero
/// heap allocations.
#[derive(Debug, Clone)]
pub struct PmuPlugin {
    schema: ExamonSchema,
    period: SimDuration,
    /// Host the topic cache below was registered for.
    hostname: String,
    cores: Vec<PmuCoreTopics>,
}

impl PmuPlugin {
    /// Creates the plugin under `schema` at the paper's 2 Hz cadence.
    /// Topics are registered on the first sample; prefer
    /// [`PmuPlugin::for_host`] when the host is known up front.
    pub fn new(schema: ExamonSchema) -> Self {
        PmuPlugin {
            schema,
            period: SimDuration::from_millis(500), // 2 Hz
            hostname: String::new(),
            cores: Vec::new(),
        }
    }

    /// Creates the plugin with its per-core topics pre-registered for
    /// `hostname` — the construction-time interning that makes every
    /// subsequent sample allocation-free.
    pub fn for_host(schema: ExamonSchema, hostname: &str, cores: usize) -> Self {
        let mut plugin = PmuPlugin::new(schema);
        plugin.register_host(hostname, cores);
        plugin
    }

    /// (Re)builds the topic cache for `hostname` with `cores` cores.
    fn register_host(&mut self, hostname: &str, cores: usize) {
        self.hostname.clear();
        self.hostname.push_str(hostname);
        self.cores.clear();
        for core_id in 0..cores {
            self.cores.push(PmuCoreTopics {
                cycles: self.schema.pmu_topic(hostname, core_id, "cycles"),
                instret: self.schema.pmu_topic(hostname, core_id, "instret"),
                events: Vec::new(),
            });
        }
    }

    /// Overrides the sampling period (the paper runs 2 Hz; sweeps and the
    /// monitored fast-forward tests drive coprime, misaligned cadences).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_period(&mut self, period: SimDuration) {
        assert!(!period.is_zero(), "a sampling period must be positive");
        self.period = period;
    }
}

impl Plugin for PmuPlugin {
    fn name(&self) -> &str {
        "pmu_pub"
    }

    fn period(&self) -> SimDuration {
        self.period
    }

    fn sample_into(&mut self, snapshot: &NodeSnapshot, out: &mut Vec<(Topic, Payload)>) {
        if self.hostname != snapshot.hostname {
            // Lazy registration path for plugins built without a host.
            self.register_host(&snapshot.hostname, snapshot.cores.len());
        }
        // More cores than pre-registered: extend the cache (one-time).
        for core_id in self.cores.len()..snapshot.cores.len() {
            self.cores.push(PmuCoreTopics {
                cycles: self.schema.pmu_topic(&self.hostname, core_id, "cycles"),
                instret: self.schema.pmu_topic(&self.hostname, core_id, "instret"),
                events: Vec::new(),
            });
        }
        for (core_id, counters) in snapshot.cores.iter().enumerate() {
            let topics = &mut self.cores[core_id];
            out.push((
                topics.cycles,
                Payload::new(counters.cycles as f64, snapshot.time),
            ));
            out.push((
                topics.instret,
                Payload::new(counters.instret as f64, snapshot.time),
            ));
            // The snapshot's event map iterates in sorted order and the
            // cache is kept sorted, so in steady state (same programmed
            // events every tick) this is a straight lockstep walk.
            let mut cursor = 0usize;
            for (event, value) in &counters.events {
                let topic = loop {
                    match topics.events.get(cursor) {
                        Some((name, topic)) if name == event => {
                            cursor += 1;
                            break *topic;
                        }
                        // A cached event the snapshot no longer reports:
                        // step past it (kept for when it comes back).
                        Some((name, _)) if name.as_str() < event.as_str() => cursor += 1,
                        // First sight of this programmed event (cursor is
                        // at the first cached name sorting after it, or
                        // the end): intern once, keeping the cache sorted.
                        _ => {
                            let topic = self.schema.pmu_topic(&self.hostname, core_id, event);
                            topics.events.insert(cursor, (event.clone(), topic));
                            cursor += 1;
                            break topic;
                        }
                    }
                };
                out.push((topic, Payload::new(*value as f64, snapshot.time)));
            }
        }
    }
}

/// Metric names published by `stats_pub`, exactly the inventory of the
/// paper's Table III.
pub const STATS_METRICS: [&str; 28] = [
    "load_avg.1m",
    "load_avg.5m",
    "load_avg.15m",
    "io_total.read",
    "io_total.writ",
    "procs.run",
    "procs.blk",
    "procs.new",
    "memory_usage.used",
    "memory_usage.free",
    "memory_usage.buff",
    "memory_usage.cach",
    "paging.in",
    "paging.out",
    "dsk_total.read",
    "dsk_total.writ",
    "system.int",
    "system.csw",
    "total_cpu_usage.usr",
    "total_cpu_usage.sys",
    "total_cpu_usage.idl",
    "total_cpu_usage.wai",
    "total_cpu_usage.stl",
    "net_total.recv",
    "net_total.send",
    "temperature.mb_temp",
    "temperature.cpu_temp",
    "temperature.nvme_temp",
];

/// The `stats_pub` plugin: OS statistics and hwmon temperatures, at
/// 0.2 Hz by default (paper Table III).
///
/// Like [`PmuPlugin`], the 28 Table III topics are pre-registered per
/// host ([`StatsPlugin::for_host`], else first sample), so steady-state
/// sampling emits interned handles without allocating.
#[derive(Debug, Clone)]
pub struct StatsPlugin {
    schema: ExamonSchema,
    period: SimDuration,
    /// Host the topic cache below was registered for.
    hostname: String,
    /// One topic per [`STATS_METRICS`] entry, index-aligned.
    topics: Vec<Topic>,
}

impl StatsPlugin {
    /// Creates the plugin under `schema` at the paper's 0.2 Hz cadence.
    /// Topics are registered on the first sample; prefer
    /// [`StatsPlugin::for_host`] when the host is known up front.
    pub fn new(schema: ExamonSchema) -> Self {
        StatsPlugin {
            schema,
            period: SimDuration::from_secs(5), // 0.2 Hz
            hostname: String::new(),
            topics: Vec::new(),
        }
    }

    /// Creates the plugin with all 28 Table III topics pre-registered for
    /// `hostname`.
    pub fn for_host(schema: ExamonSchema, hostname: &str) -> Self {
        let mut plugin = StatsPlugin::new(schema);
        plugin.register_host(hostname);
        plugin
    }

    /// (Re)builds the topic cache for `hostname`.
    fn register_host(&mut self, hostname: &str) {
        self.hostname.clear();
        self.hostname.push_str(hostname);
        self.topics.clear();
        self.topics.extend(
            STATS_METRICS
                .iter()
                .map(|metric| self.schema.stats_topic(hostname, metric)),
        );
    }

    /// Overrides the sampling period (see [`PmuPlugin::set_period`]).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn set_period(&mut self, period: SimDuration) {
        assert!(!period.is_zero(), "a sampling period must be positive");
        self.period = period;
    }

    /// The value of the metric at a [`STATS_METRICS`] position: the hot
    /// sampling path walks the index-aligned topic cache, so the metric
    /// is known by position and no per-metric string match is needed.
    fn metric_value_at(snapshot: &NodeSnapshot, index: usize) -> f64 {
        match index {
            0 => snapshot.load_avg.0,                  // load_avg.1m
            1 => snapshot.load_avg.1,                  // load_avg.5m
            2 => snapshot.load_avg.2,                  // load_avg.15m
            3 => snapshot.io_total.0,                  // io_total.read
            4 => snapshot.io_total.1,                  // io_total.writ
            5 => snapshot.procs.0,                     // procs.run
            6 => snapshot.procs.1,                     // procs.blk
            7 => snapshot.procs.2,                     // procs.new
            8 => snapshot.memory.used,                 // memory_usage.used
            9 => snapshot.memory.free,                 // memory_usage.free
            10 => snapshot.memory.buff,                // memory_usage.buff
            11 => snapshot.memory.cach,                // memory_usage.cach
            12 => snapshot.paging.0,                   // paging.in
            13 => snapshot.paging.1,                   // paging.out
            14 => snapshot.dsk_total.0,                // dsk_total.read
            15 => snapshot.dsk_total.1,                // dsk_total.writ
            16 => snapshot.system.0,                   // system.int
            17 => snapshot.system.1,                   // system.csw
            18 => snapshot.cpu_usage.usr,              // total_cpu_usage.usr
            19 => snapshot.cpu_usage.sys,              // total_cpu_usage.sys
            20 => snapshot.cpu_usage.idl,              // total_cpu_usage.idl
            21 => snapshot.cpu_usage.wai,              // total_cpu_usage.wai
            22 => snapshot.cpu_usage.stl,              // total_cpu_usage.stl
            23 => snapshot.net_total.0,                // net_total.recv
            24 => snapshot.net_total.1,                // net_total.send
            25 => snapshot.temperatures.mb.as_f64(),   // temperature.mb_temp
            26 => snapshot.temperatures.cpu.as_f64(),  // temperature.cpu_temp
            27 => snapshot.temperatures.nvme.as_f64(), // temperature.nvme_temp
            other => unreachable!("stats metric index {other} out of range"),
        }
    }
}

impl Plugin for StatsPlugin {
    fn name(&self) -> &str {
        "stats_pub"
    }

    fn period(&self) -> SimDuration {
        self.period
    }

    fn sample_into(&mut self, snapshot: &NodeSnapshot, out: &mut Vec<(Topic, Payload)>) {
        if self.hostname != snapshot.hostname {
            // Lazy registration path for plugins built without a host.
            self.register_host(&snapshot.hostname);
        }
        out.reserve(STATS_METRICS.len());
        for (index, topic) in self.topics.iter().enumerate() {
            out.push((
                *topic,
                Payload::new(Self::metric_value_at(snapshot, index), snapshot.time),
            ));
        }
    }
}

/// Drives one plugin at its period, publishing to a broker.
#[derive(Debug)]
pub struct PluginRunner<P> {
    plugin: P,
    next_due: SimTime,
}

impl<P: Plugin> PluginRunner<P> {
    /// Wraps `plugin`; the first sample fires at the first `maybe_sample`
    /// call.
    pub fn new(plugin: P) -> Self {
        PluginRunner {
            plugin,
            next_due: SimTime::ZERO,
        }
    }

    /// The wrapped plugin.
    pub fn plugin(&self) -> &P {
        &self.plugin
    }

    /// Mutable access to the wrapped plugin (cadence reconfiguration).
    pub fn plugin_mut(&mut self) -> &mut P {
        &mut self.plugin
    }

    /// Re-anchors the next due time — the phase of the sampling comb.
    /// Subsequent samples keep the plugin's period from `at`.
    pub fn set_next_due(&mut self, at: SimTime) {
        self.next_due = at;
    }

    /// The next time this runner will produce messages. Due-time clocks
    /// use this instead of polling `due_messages` every tick.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Samples if the period has elapsed, returning the messages without
    /// publishing them; `None` when not due. Splitting compute from
    /// publish lets a caller gather every node's messages first and push
    /// them through [`Broker::publish_batch_serial`] as one batch.
    pub fn due_messages(
        &mut self,
        now: SimTime,
        snapshot: &NodeSnapshot,
    ) -> Option<Vec<(Topic, Payload)>> {
        let mut out = Vec::new();
        self.due_messages_into(now, snapshot, &mut out)
            .then_some(out)
    }

    /// Allocation-free variant of [`PluginRunner::due_messages`]: appends
    /// this tick's messages to `out` (a scratch buffer the caller reuses
    /// across ticks) and returns whether the plugin was due.
    pub fn due_messages_into(
        &mut self,
        now: SimTime,
        snapshot: &NodeSnapshot,
        out: &mut Vec<(Topic, Payload)>,
    ) -> bool {
        if now < self.next_due {
            return false;
        }
        self.next_due = now + self.plugin.period();
        self.plugin.sample_into(snapshot, out);
        true
    }

    /// Samples and publishes if the period has elapsed; returns the number
    /// of messages published (0 when not due).
    pub fn maybe_sample(
        &mut self,
        now: SimTime,
        snapshot: &NodeSnapshot,
        broker: &Broker,
    ) -> usize {
        let Some(messages) = self.due_messages(now, snapshot) else {
            return 0;
        };
        let count = messages.len();
        for (topic, payload) in messages {
            broker.publish(&topic, payload);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> NodeSnapshot {
        NodeSnapshot {
            hostname: "mc-node-01".to_owned(),
            time: SimTime::from_secs(10),
            cores: vec![
                CoreCounters {
                    cycles: 1_200_000,
                    instret: 900_000,
                    events: BTreeMap::from([("dcache_miss".to_owned(), 42u64)]),
                },
                CoreCounters::default(),
            ],
            load_avg: (3.5, 2.0, 1.0),
            temperatures: Temperatures {
                mb: Celsius::new(40.0),
                cpu: Celsius::new(55.5),
                nvme: Celsius::new(35.0),
            },
            ..NodeSnapshot::default()
        }
    }

    #[test]
    fn stats_metric_inventory_matches_table_iii() {
        assert_eq!(STATS_METRICS.len(), 28);
        // Spot-check each Table III group is present.
        for probe in [
            "load_avg.15m",
            "io_total.writ",
            "procs.new",
            "memory_usage.cach",
            "paging.out",
            "dsk_total.read",
            "system.csw",
            "total_cpu_usage.stl",
            "net_total.send",
            "temperature.nvme_temp",
        ] {
            assert!(STATS_METRICS.contains(&probe), "missing {probe}");
        }
    }

    #[test]
    fn hwmon_paths_match_table_iv() {
        let map: BTreeMap<&str, &str> = HWMON_SYSFS.into_iter().collect();
        assert_eq!(map["nvme_temp"], "/sys/class/hwmon/hwmon0/temp1_input");
        assert_eq!(map["mb_temp"], "/sys/class/hwmon/hwmon1/temp1_input");
        assert_eq!(map["cpu_temp"], "/sys/class/hwmon/hwmon1/temp2_input");
    }

    #[test]
    fn pmu_plugin_publishes_per_core_counters() {
        let mut plugin = PmuPlugin::new(ExamonSchema::monte_cimone());
        let messages = plugin.sample(&snapshot());
        // Core 0: cycles + instret + 1 event; core 1: cycles + instret.
        assert_eq!(messages.len(), 5);
        let (topic, payload) = &messages[0];
        assert!(topic.to_string().ends_with("core/0/cycles"));
        assert_eq!(payload.value, 1_200_000.0);
        assert_eq!(payload.timestamp, SimTime::from_secs(10));
        assert!(messages
            .iter()
            .any(|(t, p)| t.to_string().ends_with("core/0/dcache_miss") && p.value == 42.0));
    }

    #[test]
    fn stats_plugin_publishes_every_table_iii_metric() {
        let mut plugin = StatsPlugin::new(ExamonSchema::monte_cimone());
        let messages = plugin.sample(&snapshot());
        assert_eq!(messages.len(), STATS_METRICS.len());
        let cpu_temp = messages
            .iter()
            .find(|(t, _)| t.to_string().ends_with("temperature.cpu_temp"))
            .expect("cpu temp published");
        assert_eq!(cpu_temp.1.value, 55.5);
    }

    #[test]
    fn plugin_periods_match_paper_rates() {
        let pmu = PmuPlugin::new(ExamonSchema::monte_cimone());
        let stats = StatsPlugin::new(ExamonSchema::monte_cimone());
        assert_eq!(pmu.period(), SimDuration::from_millis(500));
        assert_eq!(stats.period(), SimDuration::from_secs(5));
    }

    #[test]
    fn runner_respects_the_sampling_period() {
        let broker = Broker::new();
        let sub = broker.subscribe("#".parse().unwrap());
        let mut runner = PluginRunner::new(PmuPlugin::new(ExamonSchema::monte_cimone()));
        let snap = snapshot();
        assert!(runner.maybe_sample(SimTime::ZERO, &snap, &broker) > 0);
        // 100 ms later: not due (2 Hz).
        assert_eq!(
            runner.maybe_sample(SimTime::from_millis(100), &snap, &broker),
            0
        );
        assert!(runner.maybe_sample(SimTime::from_millis(500), &snap, &broker) > 0);
        assert_eq!(sub.drain().len(), 10);
    }
}
