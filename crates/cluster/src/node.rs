//! One Monte Cimone compute node: a HiFive-Unmatched-derived board in the
//! E4 RV007 blade, wrapped with the runtime state the simulator tracks.

use std::collections::BTreeMap;

use cimone_mem::bandwidth::StreamBandwidthModel;
use cimone_net::ib::IbHca;
use cimone_soc::complex::U74McComplex;
use cimone_soc::cpufreq::CpuFreq;
use cimone_soc::hpm::{HpmEvent, HpmUnit, UBootConfig};
use cimone_soc::units::{Bytes, Celsius, SimDuration, SimTime};
use cimone_soc::workload::Workload;

use cimone_monitor::plugins::{CoreCounters, CpuUsage, MemoryUsage, NodeSnapshot, Temperatures};

/// The node-local NVMe drive (1 TB in the paper's nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct NvmeDrive {
    /// Capacity.
    pub capacity: Bytes,
    /// Device model string.
    pub model: String,
}

impl NvmeDrive {
    /// The 1 TB NVMe 2280 module of the RV007 node.
    pub fn rv007_default() -> Self {
        NvmeDrive {
            capacity: Bytes::from_gib(1024),
            model: "NVMe 2280 1TB".to_owned(),
        }
    }
}

/// What a node is doing right now, as set by the simulation engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConditions {
    /// The workload class running (drives power and instruction mixes).
    pub workload: Workload,
    /// Cores actively working (the rest idle).
    pub busy_cores: usize,
    /// Whether the node is inside a communication phase (HPL panel
    /// broadcast): cores fall to the idle mix, NIC counters move.
    pub communicating: bool,
    /// Network receive rate, bytes/s.
    pub net_recv: f64,
    /// Network send rate, bytes/s.
    pub net_send: f64,
    /// Application memory in use, bytes.
    pub mem_used: f64,
}

impl Default for NodeConditions {
    fn default() -> Self {
        NodeConditions {
            workload: Workload::Idle,
            busy_cores: 0,
            communicating: false,
            net_recv: 0.0,
            net_send: 0.0,
            mem_used: 0.0,
        }
    }
}

/// A compute node.
///
/// # Examples
///
/// ```
/// use cimone_cluster::node::ComputeNode;
///
/// let node = ComputeNode::new(0);
/// assert_eq!(node.hostname(), "mc-node-01");
/// assert_eq!(node.soc().spec().application_cores, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeNode {
    index: usize,
    hostname: String,
    soc: U74McComplex,
    cpufreq: CpuFreq,
    bandwidth: StreamBandwidthModel,
    nvme: NvmeDrive,
    ib: Option<IbHca>,
    conditions: NodeConditions,
    temperatures: Temperatures,
    /// Cumulative network byte counters.
    net_recv_total: f64,
    net_send_total: f64,
    /// Load average state (exponentially smoothed busy-core count).
    load_1m: f64,
    load_5m: f64,
    load_15m: f64,
    smoothing: Smoothing,
}

/// The load averages' windows, seconds: the classic 1, 5 and 15 minutes.
const LOAD_WINDOWS: [f64; 3] = [60.0, 300.0, 900.0];

/// The load averages' smoothing factors `1 − exp(−dt/window)` for the
/// last `dt` [`ComputeNode::advance`] saw. The engine advances every node
/// by the same `dt` each tick, so the three `exp` run once per node, not
/// once per tick.
///
/// Purely a cache of a function of `dt`: it compares equal to any other,
/// so derived equality stays semantic.
#[derive(Debug, Clone, Copy, Default)]
struct Smoothing {
    dt: SimDuration,
    /// The factors for `dt`; the default, all zero, is right for a zero
    /// `dt`.
    alpha: [f64; 3],
}

impl Smoothing {
    /// The factors for `dt`, recomputed only when `dt` changed.
    fn alpha(&mut self, dt: SimDuration) -> [f64; 3] {
        if dt != self.dt {
            let secs = dt.as_secs_f64();
            self.alpha = LOAD_WINDOWS.map(|window| 1.0 - (-secs / window).exp());
            self.dt = dt;
        }
        self.alpha
    }
}

impl PartialEq for Smoothing {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl ComputeNode {
    /// Creates node `index` (0-based; hostnames are 1-based) with the
    /// HPM-enabling U-Boot patch applied, as on the real machine, and the
    /// two programmable counters of each hart programmed the way the
    /// paper's pmu_pub deployment uses them: FP retirement and L2 misses.
    pub fn new(index: usize) -> Self {
        let mut soc = U74McComplex::new(UBootConfig::with_hpm_patch());
        for core in soc.cores_mut() {
            core.hpm_mut()
                .program(0, HpmEvent::FpArithRetired)
                .expect("patched firmware unlocks counter 0");
            core.hpm_mut()
                .program(1, HpmEvent::DCacheMiss)
                .expect("patched firmware unlocks counter 1");
        }
        ComputeNode {
            index,
            hostname: format!("mc-node-{:02}", index + 1),
            soc,
            cpufreq: CpuFreq::u740(),
            bandwidth: StreamBandwidthModel::monte_cimone(),
            nvme: NvmeDrive::rv007_default(),
            ib: None,
            conditions: NodeConditions::default(),
            temperatures: Temperatures {
                mb: Celsius::new(30.0),
                cpu: Celsius::new(35.0),
                nvme: Celsius::new(32.0),
            },
            net_recv_total: 0.0,
            net_send_total: 0.0,
            load_1m: 0.0,
            load_5m: 0.0,
            load_15m: 0.0,
            smoothing: Smoothing::default(),
        }
    }

    /// Installs an InfiniBand HCA (the paper equips two nodes).
    pub fn with_infiniband(mut self, hca: IbHca) -> Self {
        self.ib = Some(hca);
        self
    }

    /// Node index (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Hostname (`mc-node-01` …).
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    /// The SoC model.
    pub fn soc(&self) -> &U74McComplex {
        &self.soc
    }

    /// The cpufreq (DVFS) state of the core complex.
    pub fn cpufreq(&self) -> &CpuFreq {
        &self.cpufreq
    }

    /// Mutable cpufreq access (used by the thermal governor).
    pub fn cpufreq_mut(&mut self) -> &mut CpuFreq {
        &mut self.cpufreq
    }

    /// The node's STREAM bandwidth model.
    pub fn bandwidth(&self) -> &StreamBandwidthModel {
        &self.bandwidth
    }

    /// The NVMe drive.
    pub fn nvme(&self) -> &NvmeDrive {
        &self.nvme
    }

    /// The InfiniBand HCA, if installed.
    pub fn infiniband(&self) -> Option<&IbHca> {
        self.ib.as_ref()
    }

    /// Current conditions.
    pub fn conditions(&self) -> &NodeConditions {
        &self.conditions
    }

    /// Sets what the node is doing (called by the engine when jobs start,
    /// phase-change, or end).
    pub fn set_conditions(&mut self, conditions: NodeConditions) {
        self.conditions = conditions;
    }

    /// Updates the hwmon temperatures (called by the thermal model).
    pub fn set_temperatures(&mut self, cpu: Celsius, mb: Celsius, nvme: Celsius) {
        self.temperatures = Temperatures { mb, cpu, nvme };
    }

    /// Current hwmon temperatures.
    pub fn temperatures(&self) -> Temperatures {
        self.temperatures
    }

    /// The virtual `hwmon` sysfs: Table IV paths mapped to millidegree
    /// readings, exactly what `stats_pub` reads on the real node.
    pub fn hwmon_sysfs(&self) -> BTreeMap<String, i64> {
        BTreeMap::from([
            (
                "/sys/class/hwmon/hwmon0/temp1_input".to_owned(),
                self.temperatures.nvme.as_millidegrees(),
            ),
            (
                "/sys/class/hwmon/hwmon1/temp1_input".to_owned(),
                self.temperatures.mb.as_millidegrees(),
            ),
            (
                "/sys/class/hwmon/hwmon1/temp2_input".to_owned(),
                self.temperatures.cpu.as_millidegrees(),
            ),
        ])
    }

    /// The workload the power model should see right now (communication
    /// phases draw near-idle power).
    pub fn effective_power_workload(&self) -> Workload {
        if self.conditions.busy_cores == 0 || self.conditions.communicating {
            Workload::Idle
        } else {
            self.conditions.workload
        }
    }

    /// Advances the node by `dt`: cores retire instructions under the
    /// current conditions, network counters integrate, load averages decay.
    ///
    /// Not batchable: the load averages smooth exponentially and the SoC
    /// counters accumulate per call, so `advance(2·dt)` ≠ two
    /// `advance(dt)` calls bitwise. The §16 sampled-span replay therefore
    /// calls this once per replayed tick, exactly like a full step.
    pub fn advance(&mut self, dt: SimDuration) {
        let busy = if self.conditions.communicating {
            0
        } else {
            self.conditions.busy_cores
        };
        let workload = self.conditions.workload;
        let scale = self.cpufreq.performance_scale();
        self.soc.step_threads_scaled(workload, busy, dt, scale);

        let secs = dt.as_secs_f64();
        self.net_recv_total += self.conditions.net_recv * secs;
        self.net_send_total += self.conditions.net_send * secs;

        // Load averages: exponential smoothing towards the busy-core count
        // (runnable tasks), with the classic 1/5/15-minute constants.
        let target = self.conditions.busy_cores as f64;
        let alpha = self.smoothing.alpha(dt);
        for (load, alpha) in [&mut self.load_1m, &mut self.load_5m, &mut self.load_15m]
            .into_iter()
            .zip(alpha)
        {
            *load += (target - *load) * alpha;
        }
    }

    /// Builds the monitoring snapshot the plugins sample. Pure — reads
    /// state without mutating it — which is what lets the §16 replay
    /// build it only on ticks where a plugin is actually due.
    pub fn snapshot(&self, now: SimTime) -> NodeSnapshot {
        let mut snap = NodeSnapshot::default();
        self.snapshot_into(now, &mut snap);
        snap
    }

    /// In-place form of [`ComputeNode::snapshot`]: refills a reusable
    /// snapshot, so a warm steady-state caller (the §16 sampled-span
    /// replay, which snapshots every due tick) allocates nothing — the
    /// core vector, counter lists and hostname buffer are all recycled.
    pub fn snapshot_into(&self, now: SimTime, snap: &mut NodeSnapshot) {
        if snap.hostname != self.hostname {
            snap.hostname.clone_from(&self.hostname);
        }
        snap.time = now;
        let cores = self.soc.cores();
        snap.cores.resize_with(cores.len(), CoreCounters::default);
        for (out, core) in snap.cores.iter_mut().zip(cores) {
            let hpm = core.hpm();
            out.cycles = hpm.cycle();
            out.instret = hpm.instret();
            // Refresh each slot's counter in place; rebuild the list, in
            // event-name order, only when the programmed set itself
            // changed (HPM slots are reprogrammed at job boundaries, not
            // per tick).
            let mut programmed = 0;
            let mut hit = 0;
            for (event, value) in programmed_counters(hpm) {
                programmed += 1;
                if let Some(entry) = out.events.iter_mut().find(|(e, _)| *e == event) {
                    entry.1 = value;
                    hit += 1;
                }
            }
            if hit != programmed || out.events.len() != programmed {
                out.events.clear();
                out.events.extend(programmed_counters(hpm));
                out.events.sort_by_key(|(event, _)| event.name());
            }
        }

        let total_cores = snap.cores.len() as f64;
        let busy = if self.conditions.communicating {
            0.0
        } else {
            self.conditions.busy_cores as f64
        };
        let usr = busy / total_cores * 100.0;
        let wai = if self.conditions.communicating && self.conditions.busy_cores > 0 {
            40.0
        } else {
            0.0
        };
        let sys = if self.conditions.busy_cores > 0 {
            2.0
        } else {
            0.5
        };
        let idl = (100.0 - usr - sys - wai).max(0.0);

        let total_mem = self.soc.spec().ddr_capacity.as_f64();
        let used = self.conditions.mem_used.min(total_mem * 0.97) + 0.4e9; // + OS
        let cach = (total_mem * 0.05).min(total_mem - used);
        let free = (total_mem - used - cach).max(0.0);

        snap.load_avg = (self.load_1m, self.load_5m, self.load_15m);
        snap.memory = MemoryUsage {
            used,
            free,
            buff: 0.1e9,
            cach,
        };
        snap.paging = (0.0, 0.0);
        snap.procs = (busy, 0.0, 0.1);
        snap.io_total = (0.0, 1e5);
        snap.dsk_total = (0.0, 1e5);
        snap.system = (250.0 + busy * 800.0, 120.0 + busy * 1500.0);
        snap.cpu_usage = CpuUsage {
            usr,
            sys,
            idl,
            wai,
            stl: 0.0,
        };
        snap.net_total = (self.conditions.net_recv, self.conditions.net_send);
        snap.temperatures = self.temperatures;
    }
}

/// The programmed counters of `hpm`, slot by slot: each programmed
/// slot's event and count.
fn programmed_counters(hpm: &HpmUnit) -> impl Iterator<Item = (HpmEvent, u64)> + '_ {
    (0..hpm.programmable_len())
        .filter_map(|slot| Some((hpm.programmed_event(slot)?, hpm.read(slot).ok()?)))
}

#[cfg(test)]
mod tests {
    use cimone_soc::hpm::HpmEvent::{DCacheMiss, FpArithRetired};

    use super::*;

    #[test]
    fn hostnames_are_one_based() {
        assert_eq!(ComputeNode::new(0).hostname(), "mc-node-01");
        assert_eq!(ComputeNode::new(7).hostname(), "mc-node-08");
    }

    #[test]
    fn hwmon_paths_match_table_iv() {
        let mut node = ComputeNode::new(0);
        node.set_temperatures(Celsius::new(55.0), Celsius::new(41.5), Celsius::new(33.0));
        let sysfs = node.hwmon_sysfs();
        assert_eq!(sysfs["/sys/class/hwmon/hwmon1/temp2_input"], 55_000);
        assert_eq!(sysfs["/sys/class/hwmon/hwmon1/temp1_input"], 41_500);
        assert_eq!(sysfs["/sys/class/hwmon/hwmon0/temp1_input"], 33_000);
    }

    #[test]
    fn advance_accumulates_counters_under_load() {
        let mut node = ComputeNode::new(0);
        node.set_conditions(NodeConditions {
            workload: Workload::Hpl,
            busy_cores: 4,
            ..NodeConditions::default()
        });
        node.advance(SimDuration::from_secs(1));
        let snap = node.snapshot(SimTime::from_secs(1));
        let instret: u64 = snap.cores.iter().map(|c| c.instret).sum();
        assert!(instret > 4_000_000_000, "instret {instret}");
        assert!(snap.cpu_usage.usr > 99.0);
        assert!(snap.load_avg.0 > 0.0);
    }

    #[test]
    fn communication_phases_stall_the_cores() {
        let mut node = ComputeNode::new(0);
        node.set_conditions(NodeConditions {
            workload: Workload::Hpl,
            busy_cores: 4,
            communicating: true,
            net_recv: 100e6,
            net_send: 50e6,
            ..NodeConditions::default()
        });
        node.advance(SimDuration::from_secs(1));
        let snap = node.snapshot(SimTime::from_secs(1));
        // During comm phases the cores retire the idle mix (far fewer
        // instructions than 4 busy HPL cores would).
        let instret: u64 = snap.cores.iter().map(|c| c.instret).sum();
        assert!(instret < 3_000_000_000, "instret {instret}");
        assert_eq!(snap.net_total, (100e6, 50e6));
        assert_eq!(node.effective_power_workload(), Workload::Idle);
    }

    #[test]
    fn idle_node_reports_idle_cpu() {
        let mut node = ComputeNode::new(3);
        node.advance(SimDuration::from_secs(5));
        let snap = node.snapshot(SimTime::from_secs(5));
        assert!(snap.cpu_usage.idl > 95.0);
        assert_eq!(node.effective_power_workload(), Workload::Idle);
    }

    #[test]
    fn memory_accounting_stays_within_capacity() {
        let mut node = ComputeNode::new(0);
        node.set_conditions(NodeConditions {
            workload: Workload::Hpl,
            busy_cores: 4,
            mem_used: 100e9, // more than the 16 GB installed
            ..NodeConditions::default()
        });
        let snap = node.snapshot(SimTime::ZERO);
        let total = snap.memory.used + snap.memory.free + snap.memory.cach;
        assert!(total <= node.soc().spec().ddr_capacity.as_f64() * 1.01);
        assert!(snap.memory.free >= 0.0);
    }

    #[test]
    fn programmed_hpm_events_surface_in_snapshots() {
        let mut node = ComputeNode::new(0);
        node.set_conditions(NodeConditions {
            workload: Workload::Hpl,
            busy_cores: 4,
            ..NodeConditions::default()
        });
        node.advance(SimDuration::from_secs(1));
        let snap = node.snapshot(SimTime::from_secs(1));
        for core in &snap.cores {
            let [(DCacheMiss, misses), (FpArithRetired, fp)] = core.events[..] else {
                panic!("two events in name order: {:?}", core.events);
            };
            assert!(fp > 100_000_000, "fp events {fp}");
            assert!(misses > 0, "miss events {misses}");
        }
    }

    /// The snapshot lists counters in event-name order whatever slots
    /// hold them, so a node with its two slots swapped publishes the same
    /// tick batch, message for message.
    #[test]
    fn slot_order_does_not_change_the_tick_batch() {
        use cimone_monitor::plugins::{Plugin, PmuPlugin};
        use cimone_monitor::topic::ExamonSchema;

        // `new` programs fp_arith_retired before dcache_miss: reverse name
        // order. Reprogram one node in name order.
        let mut reverse = ComputeNode::new(0);
        let mut sorted = reverse.clone();
        for core in sorted.soc.cores_mut() {
            core.hpm_mut().program(0, DCacheMiss).expect("patched");
            core.hpm_mut().program(1, FpArithRetired).expect("patched");
        }
        let batches = [&mut reverse, &mut sorted].map(|node| {
            node.set_conditions(NodeConditions {
                workload: Workload::Hpl,
                busy_cores: 3,
                ..NodeConditions::default()
            });
            let mut plugin = PmuPlugin::for_host(ExamonSchema::monte_cimone(), "mc-node-01", 4);
            let mut snap = NodeSnapshot::default();
            let mut batch = Vec::new();
            for tick in 1..=3 {
                node.advance(SimDuration::from_millis(500));
                node.snapshot_into(SimTime::from_millis(500 * tick), &mut snap);
                plugin.sample_into(&snap, &mut batch);
            }
            batch
        });
        assert_eq!(batches[0], batches[1]);
        // Per core: cycles, instret, then dcache_miss before fp_arith_retired.
        let names: Vec<String> = batches[0][..4].iter().map(|(t, _)| t.to_string()).collect();
        assert!(names[2].ends_with("/dcache_miss") && names[3].ends_with("/fp_arith_retired"));
    }

    /// The cached smoothing factors give the load averages of evaluating
    /// `1 − exp(−dt/window)` on every call, bit for bit, however `dt`
    /// alternates.
    #[test]
    fn cached_smoothing_matches_per_call_factors() {
        let mut node = ComputeNode::new(0);
        let mut expected = [0.0f64; 3];
        let steps = [2_000, 500, 500, 2_000, 0, 1_500, 500, 2_000, 2_000];
        for (tick, millis) in steps.into_iter().cycle().take(40).enumerate() {
            let busy_cores = tick % 5;
            node.set_conditions(NodeConditions {
                workload: Workload::Hpl,
                busy_cores,
                ..NodeConditions::default()
            });
            let dt = SimDuration::from_millis(millis);
            node.advance(dt);
            for (load, window) in expected.iter_mut().zip(LOAD_WINDOWS) {
                let alpha = 1.0 - (-dt.as_secs_f64() / window).exp();
                *load += (busy_cores as f64 - *load) * alpha;
            }
            let (a, b, c) = node.snapshot(SimTime::ZERO).load_avg;
            assert_eq!([a, b, c].map(f64::to_bits), expected.map(f64::to_bits));
        }
    }

    #[test]
    fn infiniband_is_optional() {
        use cimone_net::ib::IbCapability;
        let plain = ComputeNode::new(0);
        assert!(plain.infiniband().is_none());
        let equipped = ComputeNode::new(1).with_infiniband(IbHca::connect_x4_fdr_on_riscv());
        let hca = equipped.infiniband().unwrap();
        assert!(hca.supports(IbCapability::Ping));
    }
}
