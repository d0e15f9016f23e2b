//! Acceptance probe for the zero-allocation telemetry hot path: after a
//! warm-up that compiles broker routes, interns every topic, and sizes
//! the scratch buffers, a steady-state sample→publish→ingest tick must
//! perform **zero** heap allocations.
//!
//! A counting global allocator makes the claim falsifiable. This file
//! holds exactly one `#[test]` so no sibling test thread can allocate
//! inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cimone_monitor::broker::Broker;
use cimone_monitor::collector::Collector;
use cimone_monitor::interner::registration_count;
use cimone_monitor::payload::Payload;
use cimone_monitor::plugins::{CoreCounters, NodeSnapshot, Plugin, PmuPlugin, StatsPlugin};
use cimone_monitor::topic::{ExamonSchema, Topic};
use cimone_monitor::tsdb::TimeSeriesStore;
use cimone_soc::units::{SimDuration, SimTime};

/// Counts every allocation and reallocation served by the system
/// allocator. Frees are not counted: releasing memory is allowed on the
/// hot path (it cannot grow the footprint), acquiring it is not.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn snapshot(cores: usize, at: SimTime) -> NodeSnapshot {
    NodeSnapshot {
        hostname: "mc-node-01".into(),
        time: at,
        cores: (0..cores)
            .map(|i| CoreCounters {
                cycles: 1_000_000 * (i as u64 + 1),
                instret: 700_000 * (i as u64 + 1),
                events: Default::default(),
            })
            .collect(),
        load_avg: (0.5, 0.4, 0.3),
        memory: Default::default(),
        paging: (1.0, 2.0),
        procs: (3.0, 0.0, 1.0),
        io_total: (1e6, 2e6),
        dsk_total: (1e6, 2e6),
        system: (100.0, 200.0),
        cpu_usage: Default::default(),
        net_total: (1e5, 2e5),
        temperatures: Default::default(),
    }
}

/// One monitoring tick, through both of the collector's landing paths:
/// the pmu batch is published with no store lent and waits; lending the
/// store lands it, and the stats batch then lands as it is delivered,
/// before the store is taken back — the engine's lend, moved with
/// `std::mem::take`.
#[allow(clippy::too_many_arguments)]
fn tick(
    at: SimTime,
    snap: &mut NodeSnapshot,
    pmu: &mut PmuPlugin,
    stats: &mut StatsPlugin,
    batch: &mut Vec<(Topic, Payload)>,
    broker: &Broker,
    collector: &mut Collector,
    store: &mut TimeSeriesStore,
) {
    snap.time = at;
    for (i, core) in snap.cores.iter_mut().enumerate() {
        core.cycles += 1_000_000 + i as u64;
        core.instret += 700_000 + i as u64;
    }
    pmu.sample_into(snap, batch);
    broker.publish_batch_serial(batch);
    collector.lend(std::mem::take(store));
    stats.sample_into(snap, batch);
    broker.publish_batch_serial(batch);
    *store = collector.reclaim().expect("lent above");
    assert_eq!(collector.pump(store), 0, "nothing waits after a lend");
}

#[test]
fn steady_state_tick_allocates_nothing() {
    const CORES: usize = 4;
    const WARMUP_TICKS: u64 = 8;
    const MEASURED_TICKS: u64 = 64;

    let schema = ExamonSchema::monte_cimone();
    let mut pmu = PmuPlugin::for_host(schema.clone(), "mc-node-01", CORES);
    let mut stats = StatsPlugin::for_host(schema, "mc-node-01");
    let broker = Broker::new();
    let mut collector = Collector::attach(&broker, "#".parse().expect("valid"));
    let mut store = TimeSeriesStore::new();
    let mut snap = snapshot(CORES, SimTime::ZERO);
    let mut batch: Vec<(Topic, Payload)> = Vec::new();

    let period = SimDuration::from_millis(500);
    let mut now = SimTime::ZERO;
    for _ in 0..WARMUP_TICKS {
        now += period;
        tick(
            now,
            &mut snap,
            &mut pmu,
            &mut stats,
            &mut batch,
            &broker,
            &mut collector,
            &mut store,
        );
    }
    // Warm-up populated every series; give each column room for the
    // whole measured window so the sorted-append fast path never grows.
    store.reserve_points(MEASURED_TICKS as usize + 1);

    let registrations_before = registration_count();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_TICKS {
        now += period;
        tick(
            now,
            &mut snap,
            &mut pmu,
            &mut stats,
            &mut batch,
            &broker,
            &mut collector,
            &mut store,
        );
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    assert!(
        store.point_count() > 0 && broker.stats().delivered > 0,
        "the probe must actually move data (got {} points, {} delivered)",
        store.point_count(),
        broker.stats().delivered,
    );
    assert_eq!(
        registration_count(),
        registrations_before,
        "steady-state ticks must not intern new topics"
    );
    assert_eq!(
        allocs, 0,
        "steady-state ticks must not allocate ({allocs} allocations over {MEASURED_TICKS} ticks)"
    );
}
