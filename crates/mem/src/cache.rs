//! A functional set-associative cache simulator with LRU replacement.
//!
//! Used to validate the L2-vs-DDR residency story behind Table V: replaying
//! a STREAM-shaped address trace against a 2 MiB, 16-way model of the
//! FU740's L2 shows the hit-rate cliff between the paper's two working-set
//! sizes.

use std::fmt;

use cimone_soc::units::Bytes;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity.
    pub capacity: Bytes,
    /// Line size.
    pub line: Bytes,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// The FU740's shared L2: 2 MiB, 16-way, 64 B lines.
    pub fn fu740_l2() -> Self {
        CacheConfig {
            capacity: Bytes::from_mib(2),
            line: Bytes::new(64),
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways` lines per set, or any parameter zero).
    pub fn sets(&self) -> usize {
        let line = self.line.as_u64() as usize;
        assert!(
            line > 0 && self.ways > 0,
            "line size and ways must be positive"
        );
        let lines = self.capacity.as_u64() as usize / line;
        assert!(
            lines > 0 && lines.is_multiple_of(self.ways),
            "inconsistent cache geometry"
        );
        lines / self.ways
    }
}

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (allocating, write-back).
    Write,
}

/// Outcome of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was fetched; no dirty eviction.
    Miss,
    /// The line was fetched and a dirty line was written back.
    MissWithWriteback,
}

impl AccessOutcome {
    /// Whether the access missed.
    pub fn is_miss(self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// Running statistics of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.1}% hits, {} writebacks",
            self.accesses,
            self.hit_rate() * 100.0,
            self.writebacks
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineState {
    tag: u64,
    dirty: bool,
}

/// The simulator: a set-associative, write-back, write-allocate cache with
/// true LRU replacement.
///
/// # Examples
///
/// ```
/// use cimone_mem::cache::{AccessKind, CacheConfig, SetAssocCache};
///
/// let mut l2 = SetAssocCache::new(CacheConfig::fu740_l2());
/// // Stream 1 MiB twice: second pass hits because it fits in 2 MiB.
/// for pass in 0..2 {
///     for addr in (0..(1 << 20)).step_by(64) {
///         l2.access(addr, AccessKind::Read);
///     }
///     let _ = pass;
/// }
/// assert!(l2.stats().hit_rate() > 0.49);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Per set: resident lines ordered most-recently-used first.
    sets: Vec<Vec<LineState>>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        SetAssocCache {
            config,
            sets: vec![Vec::with_capacity(config.ways); sets],
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics but keeps cache contents (for warm-up/measure
    /// protocols).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Simulates one byte-address access.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        let line = addr / self.config.line.as_u64();
        let set_count = self.sets.len() as u64;
        let set_idx = (line % set_count) as usize;
        let tag = line / set_count;
        let set = &mut self.sets[set_idx];
        self.stats.accesses += 1;

        if let Some(pos) = set.iter().position(|l| l.tag == tag) {
            let mut entry = set.remove(pos);
            if kind == AccessKind::Write {
                entry.dirty = true;
            }
            set.insert(0, entry);
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        let mut outcome = AccessOutcome::Miss;
        if set.len() == self.config.ways {
            let victim = set.pop().expect("full set has a victim");
            if victim.dirty {
                self.stats.writebacks += 1;
                outcome = AccessOutcome::MissWithWriteback;
            }
        }
        set.insert(
            0,
            LineState {
                tag,
                dirty: kind == AccessKind::Write,
            },
        );
        outcome
    }

    /// Streams over `[base, base + bytes)` at line granularity with the
    /// given kind, returning the miss count for the sweep.
    pub fn stream(&mut self, base: u64, bytes: u64, kind: AccessKind) -> u64 {
        let line = self.config.line.as_u64();
        let mut misses = 0;
        let mut addr = base;
        while addr < base + bytes {
            if self.access(addr, kind).is_miss() {
                misses += 1;
            }
            addr += line;
        }
        misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        SetAssocCache::new(CacheConfig {
            capacity: Bytes::new(512),
            line: Bytes::new(64),
            ways: 2,
        })
    }

    #[test]
    fn fu740_l2_geometry() {
        let cfg = CacheConfig::fu740_l2();
        assert_eq!(cfg.sets(), 2048);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert!(c.access(0, AccessKind::Read).is_miss());
        assert_eq!(c.access(0, AccessKind::Read), AccessOutcome::Hit);
        assert_eq!(c.access(63, AccessKind::Read), AccessOutcome::Hit); // same line
        assert!(c.access(64, AccessKind::Read).is_miss()); // next line
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        c.access(0, AccessKind::Read);
        c.access(4 * 64, AccessKind::Read);
        // Touch line 0 again so line 4 becomes LRU.
        c.access(0, AccessKind::Read);
        c.access(8 * 64, AccessKind::Read); // evicts line 4
        assert_eq!(c.access(0, AccessKind::Read), AccessOutcome::Hit);
        assert!(c.access(4 * 64, AccessKind::Read).is_miss());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0, AccessKind::Write);
        c.access(4 * 64, AccessKind::Read);
        let outcome = c.access(8 * 64, AccessKind::Read); // evicts dirty line 0
        assert_eq!(outcome, AccessOutcome::MissWithWriteback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn working_set_within_capacity_hits_on_repass() {
        let mut l2 = SetAssocCache::new(CacheConfig::fu740_l2());
        let ws = 1 << 20; // 1 MiB < 2 MiB
        l2.stream(0, ws, AccessKind::Read);
        l2.reset_stats();
        let misses = l2.stream(0, ws, AccessKind::Read);
        assert_eq!(misses, 0);
        assert_eq!(l2.stats().hit_rate(), 1.0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut l2 = SetAssocCache::new(CacheConfig::fu740_l2());
        let ws = 8 << 20; // 8 MiB > 2 MiB: LRU streaming pathology
        l2.stream(0, ws, AccessKind::Read);
        l2.reset_stats();
        let misses = l2.stream(0, ws, AccessKind::Read);
        assert_eq!(misses, ws / 64); // every line misses again
    }

    #[test]
    fn stats_are_conserved() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(i * 17, AccessKind::Read);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
    }

    #[test]
    #[should_panic(expected = "inconsistent cache geometry")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(CacheConfig {
            capacity: Bytes::new(100),
            line: Bytes::new(64),
            ways: 3,
        });
    }
}
