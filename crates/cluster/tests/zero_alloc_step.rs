//! Acceptance probe for the allocation-free engine tick: once warm, a
//! full fixed-dt `step` with monitoring on and jobs running performs
//! **zero** heap allocations — job advance, condition refresh, power,
//! thermal, node advance, plugin sampling, the tick's one batch publish
//! and collector ingest included. So does a warm event-driven
//! fast-forward span of a monitored idle machine with recovery on:
//! heartbeats, phi bookkeeping, sensor draws, plugin samples and their
//! ingest on every replayed tick. So does a warm fixed-dt step with recovery on and the
//! same jobs running: heartbeats, the control plane's suspicion and
//! partition checks, and everything a plain step does.
//!
//! A counting global allocator makes the claim falsifiable. This file
//! holds exactly one `#[test]` so no sibling test thread can allocate
//! inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cimone_cluster::engine::{ClockMode, ClusterWorkload, EngineConfig, JobRequest, SimEngine};
use cimone_cluster::healing::RecoveryConfig;
use cimone_monitor::heartbeat::DEFAULT_WINDOW;
use cimone_soc::units::SimDuration;
use cimone_soc::workload::Workload;

/// Counts every allocation and reallocation served by the system
/// allocator. Frees are not counted: releasing memory cannot grow the
/// footprint.
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

/// An engine running the probe's three jobs across all eight nodes.
fn three_jobs(config: EngineConfig) -> SimEngine {
    let mut engine = SimEngine::new(config);
    engine.submit(job("hpl", 4, Workload::Hpl)).unwrap();
    engine
        .submit(job("stream", 2, Workload::StreamDdr))
        .unwrap();
    engine.submit(job("qe", 2, Workload::QeLax)).unwrap();
    engine
}

fn job(name: &str, nodes: usize, workload: Workload) -> JobRequest {
    JobRequest {
        name: name.into(),
        user: "ci".into(),
        nodes,
        workload: ClusterWorkload::Synthetic {
            workload,
            secs: 100_000, // outlives the probe: no job starts or ends in it
        },
    }
}

#[test]
fn warm_monitored_step_allocates_nothing() {
    const WARMUP_STEPS: u64 = 32;
    const MEASURED_STEPS: u64 = 64;

    let mut engine = three_jobs(EngineConfig::default());
    for _ in 0..WARMUP_STEPS {
        engine.step();
    }
    assert_eq!(engine.scheduler().running().len(), 3, "three jobs must run");
    // Warm-up created every series; give each room for the measured
    // window so storing the points never regrows a column.
    engine.reserve_store_points(MEASURED_STEPS as usize);

    let points_before = engine.store().point_count();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_STEPS {
        engine.step();
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    assert!(
        engine.store().point_count() > points_before,
        "the probe must actually ingest telemetry"
    );
    assert_eq!(
        allocs, 0,
        "warm monitored steps must not allocate ({allocs} allocations over {MEASURED_STEPS} steps)"
    );

    // The second probe: one warm hour of an idle, monitored machine with
    // the failure detector on, fast-forwarded by the event clock.
    const SPAN: SimDuration = SimDuration::from_secs(3600);
    let config = EngineConfig {
        dt: SimDuration::from_secs(2),
        clock: ClockMode::EventDriven,
        recovery: Some(RecoveryConfig::detection_only()),
        ..EngineConfig::default()
    };
    let mut engine = SimEngine::new(config);
    engine.run_for(SPAN);
    engine.reserve_store_points((SPAN.as_micros() / config.dt.as_micros()) as usize);

    let points_before = engine.store().point_count();
    let skipped_before = engine.ticks_skipped();
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    engine.run_for(SPAN);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    assert!(
        engine.store().point_count() > points_before,
        "the span must actually ingest telemetry"
    );
    assert!(
        engine.ticks_skipped() > skipped_before,
        "the span must fast-forward"
    );
    assert_eq!(
        allocs, 0,
        "a warm fast-forward span must not allocate ({allocs} allocations over {SPAN})"
    );

    // The third probe: a warm fixed-dt recovery step. Warm-up runs past a
    // full phi window (128 intervals of the 5 s heartbeat at dt 0.5 s),
    // so no detector's window is still growing.
    const RECOVERY_WARMUP_STEPS: u64 = 1_400;
    let mut engine = three_jobs(EngineConfig {
        recovery: Some(RecoveryConfig::detection_only()),
        ..EngineConfig::default()
    });
    for _ in 0..RECOVERY_WARMUP_STEPS {
        engine.step();
    }
    assert_eq!(engine.scheduler().running().len(), 3, "three jobs must run");
    let monitor = engine.control_plane().expect("recovery is on").monitor();
    assert!(
        monitor
            .nodes()
            .iter()
            .all(|node| monitor.detector(node).unwrap().samples() == DEFAULT_WINDOW + 1),
        "warm-up must fill every phi window"
    );
    engine.reserve_store_points(MEASURED_STEPS as usize);

    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED_STEPS {
        engine.step();
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    assert_eq!(engine.fence_count(), 0, "no node may be fenced");
    assert_eq!(
        allocs, 0,
        "warm recovery steps must not allocate ({allocs} allocations over {MEASURED_STEPS} steps)"
    );
}
