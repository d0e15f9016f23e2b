//! The L2 stream prefetcher model.
//!
//! The U74 core complex can track up to eight prefetch streams per core.
//! The paper observes that, despite STREAM's perfectly sequential access
//! patterns, the attained DDR bandwidth suggests the prefetcher is barely
//! helping — and flags understanding why as future work. This module
//! provides both a functional detector (replayable against address traces)
//! and the scalar *effectiveness* knob the bandwidth model and the ablation
//! bench expose.

/// Configuration of the stream prefetcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetcherConfig {
    /// Concurrent streams trackable per core (U74: 8).
    pub streams_per_core: usize,
    /// Lines fetched ahead once a stream locks.
    pub depth: usize,
    /// Sequential line accesses required before a stream locks.
    pub training_threshold: usize,
    /// Fraction of ideally-prefetchable traffic the hardware actually
    /// covers. The paper's measurements imply a value near zero on the
    /// FU740 with the upstream stack; the ablation sweeps this to 1.
    pub effectiveness: f64,
}

impl PrefetcherConfig {
    /// The U74 prefetcher as observed by the paper: 8 streams, but with
    /// effectiveness near zero under the upstream software stack.
    pub fn u74_observed() -> Self {
        PrefetcherConfig {
            streams_per_core: 8,
            depth: 4,
            training_threshold: 2,
            effectiveness: 0.0,
        }
    }

    /// The same hardware with the prefetcher working as designed — the
    /// counterfactual the paper's discussion points at.
    pub fn u74_ideal() -> Self {
        PrefetcherConfig {
            effectiveness: 1.0,
            ..PrefetcherConfig::u74_observed()
        }
    }

    /// Overrides the effectiveness knob.
    ///
    /// # Panics
    ///
    /// Panics if `effectiveness` is outside `[0, 1]`.
    pub fn with_effectiveness(mut self, effectiveness: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&effectiveness),
            "effectiveness must be in [0, 1], got {effectiveness}"
        );
        self.effectiveness = effectiveness;
        self
    }

    /// Fraction of a kernel's streams the per-core slots can track.
    ///
    /// With 8 slots even triad's 3 streams fit easily, so slot pressure is
    /// never the FU740's limiter — the effectiveness knob is.
    pub fn stream_coverage(&self, kernel_streams: usize) -> f64 {
        if kernel_streams == 0 {
            return 1.0;
        }
        (self.streams_per_core as f64 / kernel_streams as f64).min(1.0)
    }
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        PrefetcherConfig::u74_observed()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamSlot {
    next_line: u64,
    confidence: usize,
    /// Lines already issued ahead of the demand stream.
    prefetched_until: u64,
}

/// Statistics from replaying a trace through the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchStats {
    /// Demand accesses observed.
    pub accesses: u64,
    /// Accesses that hit a line the prefetcher had already issued.
    pub covered: u64,
    /// Prefetch requests issued.
    pub issued: u64,
}

impl PrefetchStats {
    /// Fraction of demand accesses covered by prefetches.
    pub fn coverage(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.covered as f64 / self.accesses as f64
        }
    }
}

/// A functional next-line stream detector, replayable against traces.
///
/// # Examples
///
/// ```
/// use cimone_mem::prefetch::{PrefetcherConfig, StreamPrefetcher};
///
/// let mut pf = StreamPrefetcher::new(PrefetcherConfig::u74_ideal(), 64);
/// for addr in (0..64 * 1000u64).step_by(64) {
///     pf.observe(addr);
/// }
/// assert!(pf.stats().coverage() > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPrefetcher {
    config: PrefetcherConfig,
    line: u64,
    slots: Vec<StreamSlot>,
    stats: PrefetchStats,
}

impl StreamPrefetcher {
    /// Creates a detector with `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn new(config: PrefetcherConfig, line_bytes: u64) -> Self {
        assert!(line_bytes > 0, "line size must be positive");
        StreamPrefetcher {
            config,
            line: line_bytes,
            slots: Vec::with_capacity(config.streams_per_core),
            stats: PrefetchStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PrefetcherConfig {
        &self.config
    }

    /// Replay statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Observes one demand access and returns whether a prefetch had
    /// already covered it.
    pub fn observe(&mut self, addr: u64) -> bool {
        let line = addr / self.line;
        self.stats.accesses += 1;

        if let Some(idx) = self.slots.iter().position(|s| {
            line == s.next_line
                || (s.confidence >= self.config.training_threshold
                    && line < s.prefetched_until
                    && line >= s.next_line.saturating_sub(self.config.depth as u64))
        }) {
            let slot = &mut self.slots[idx];
            let covered =
                slot.confidence >= self.config.training_threshold && line < slot.prefetched_until;
            slot.confidence += 1;
            slot.next_line = line + 1;
            if slot.confidence >= self.config.training_threshold {
                let target = line + 1 + self.config.depth as u64;
                if target > slot.prefetched_until {
                    self.stats.issued += target - slot.prefetched_until.max(line + 1);
                    slot.prefetched_until = target;
                }
            }
            if covered {
                self.stats.covered += 1;
            }
            return covered;
        }

        // New candidate stream; evict the least confident slot if full.
        if self.slots.len() == self.config.streams_per_core {
            let weakest = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.confidence)
                .map(|(i, _)| i)
                .expect("non-empty slots");
            self.slots.remove(weakest);
        }
        self.slots.push(StreamSlot {
            next_line: line + 1,
            confidence: 1,
            prefetched_until: line + 1,
        });
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sequential_stream_gets_high_coverage() {
        let mut pf = StreamPrefetcher::new(PrefetcherConfig::u74_ideal(), 64);
        for addr in (0..64 * 10_000u64).step_by(64) {
            pf.observe(addr);
        }
        assert!(
            pf.stats().coverage() > 0.95,
            "coverage {}",
            pf.stats().coverage()
        );
    }

    #[test]
    fn random_accesses_get_no_coverage() {
        let mut pf = StreamPrefetcher::new(PrefetcherConfig::u74_ideal(), 64);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10_000 {
            pf.observe(rng.gen_range(0..1u64 << 32));
        }
        assert!(
            pf.stats().coverage() < 0.02,
            "coverage {}",
            pf.stats().coverage()
        );
    }

    #[test]
    fn three_interleaved_streams_fit_in_eight_slots() {
        let mut pf = StreamPrefetcher::new(PrefetcherConfig::u74_ideal(), 64);
        let bases = [0u64, 1 << 30, 2 << 30];
        for i in 0..10_000u64 {
            for base in bases {
                pf.observe(base + i * 64);
            }
        }
        assert!(
            pf.stats().coverage() > 0.9,
            "coverage {}",
            pf.stats().coverage()
        );
    }

    #[test]
    fn more_streams_than_slots_degrades_coverage() {
        let config = PrefetcherConfig {
            streams_per_core: 2,
            ..PrefetcherConfig::u74_ideal()
        };
        let mut pf = StreamPrefetcher::new(config, 64);
        let bases: Vec<u64> = (0..6).map(|i| (i as u64) << 30).collect();
        for i in 0..5_000u64 {
            for &base in &bases {
                pf.observe(base + i * 64);
            }
        }
        assert!(
            pf.stats().coverage() < 0.5,
            "coverage {}",
            pf.stats().coverage()
        );
    }

    #[test]
    fn stream_coverage_helper() {
        let cfg = PrefetcherConfig::u74_observed();
        assert_eq!(cfg.stream_coverage(3), 1.0);
        assert_eq!(cfg.stream_coverage(16), 0.5);
        assert_eq!(cfg.stream_coverage(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "effectiveness")]
    fn invalid_effectiveness_panics() {
        let _ = PrefetcherConfig::u74_observed().with_effectiveness(1.5);
    }
}
