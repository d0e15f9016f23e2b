//! Heap probe for the TSDB's coded pages: a monitored idle machine's
//! counters advance by exact steps and its stats repeat, so most sealed
//! pages code as a few value runs and the store holds far less than the
//! 8 bytes per point a raw `f64` column costs.
//!
//! A live-bytes counting allocator makes the claim falsifiable. This
//! file holds exactly one `#[test]` so no sibling test thread can
//! allocate inside the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use cimone_cluster::engine::{ClockMode, EngineConfig, SimEngine};
use cimone_cluster::healing::RecoveryConfig;
use cimone_soc::units::SimDuration;

/// Tracks the bytes currently allocated through the system allocator.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

#[test]
fn an_idle_store_holds_under_four_bytes_per_point() {
    // store_slack.rs's engine: seven monitored idle hours with the
    // failure detector on, pmu on every 2 s tick, stats every third.
    let before = LIVE.load(Ordering::Relaxed);
    let mut engine = SimEngine::new(EngineConfig {
        dt: SimDuration::from_secs(2),
        clock: ClockMode::EventDriven,
        recovery: Some(RecoveryConfig::detection_only()),
        ..EngineConfig::default()
    });
    engine.run_for(SimDuration::from_secs(8_400));
    let held = LIVE.load(Ordering::Relaxed) - before;
    let points = engine.store().point_count();
    let per_point = held as f64 / points as f64;
    eprintln!("engine heap {held} bytes for {points} stored points: {per_point:.2} B per point");
    assert!(
        per_point <= 4.0,
        "{held} bytes of engine heap for {points} points: {per_point:.2} B per point"
    );
}
