//! One Monte Cimone compute node: a HiFive-Unmatched-derived board in the
//! E4 RV007 blade, wrapped with the runtime state the simulator tracks.

use std::collections::BTreeMap;

use cimone_mem::bandwidth::StreamBandwidthModel;
use cimone_net::ib::IbHca;
use cimone_soc::complex::U74McComplex;
use cimone_soc::cpufreq::CpuFreq;
use cimone_soc::hpm::{HpmEvent, UBootConfig};
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
        for (load, window) in [
            (&mut self.load_1m, 60.0),
            (&mut self.load_5m, 300.0),
            (&mut self.load_15m, 900.0),
        ] {
            let alpha = 1.0 - (-secs / window).exp();
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
    /// core vector, event maps and hostname buffer are all recycled.
    pub fn snapshot_into(&self, now: SimTime, snap: &mut NodeSnapshot) {
        if snap.hostname != self.hostname {
            snap.hostname.clone_from(&self.hostname);
        }
        snap.time = now;
        let cores = self.soc.cores();
        snap.cores.resize_with(cores.len(), CoreCounters::default);
        for (out, core) in snap.cores.iter_mut().zip(cores) {
            out.cycles = core.hpm().cycle();
            out.instret = core.hpm().instret();
            // Update programmed-event values in place; rebuild the map
            // only when the programmed set itself changed (HPM slots are
            // reprogrammed at job boundaries, not per tick).
            let mut programmed = 0;
            let mut hit = 0;
            for slot in 0..core.hpm().programmable_len() {
                if let (Some(event), Ok(value)) =
                    (core.hpm().programmed_event(slot), core.hpm().read(slot))
                {
                    programmed += 1;
                    if let Some(v) = out.events.get_mut(event.name()) {
                        *v = value;
                        hit += 1;
                    }
                }
            }
            if hit != programmed || out.events.len() != programmed {
                out.events.clear();
                for slot in 0..core.hpm().programmable_len() {
                    if let (Some(event), Ok(value)) =
                        (core.hpm().programmed_event(slot), core.hpm().read(slot))
                    {
                        out.events.insert(event.name().to_owned(), value);
                    }
                }
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

#[cfg(test)]
mod tests {
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
            let fp = core.events.get("fp_arith_retired").copied().unwrap_or(0);
            let misses = core.events.get("dcache_miss").copied().unwrap_or(0);
            assert!(fp > 100_000_000, "fp events {fp}");
            assert!(misses > 0, "miss events {misses}");
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
