//! Heap probe for an unmonitored engine with recovery on: every
//! heartbeat the nodes publish must be consumed by the one subscriber
//! that reads it, the control plane's failure detector. An ingestion
//! collector attached with no store lent to it would queue every beat
//! forever, so the live heap would grow with simulated time.
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
fn unmonitored_recovery_heap_stays_flat_over_a_simulated_day() {
    for clock in [ClockMode::FixedDt, ClockMode::EventDriven] {
        let mut engine = SimEngine::new(EngineConfig {
            monitoring: false,
            dt: SimDuration::from_secs(2),
            recovery: Some(RecoveryConfig::detection_only()),
            clock,
            ..EngineConfig::default()
        });
        // Warm-up: every detector has a full interval window.
        engine.run_for(SimDuration::from_secs(3600));
        let before = LIVE.load(Ordering::Relaxed);
        engine.run_for(SimDuration::from_secs(24 * 3600));
        let grown = LIVE.load(Ordering::Relaxed) - before;
        assert!(
            grown <= 0,
            "{clock:?}: live heap grew {grown} bytes ({} KiB) over 24 simulated hours",
            grown / 1024
        );
    }
}
