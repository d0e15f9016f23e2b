//! The DDR4 memory-controller model.
//!
//! Monte Cimone nodes carry 16 GB of DDR4-1866 behind the FU740's
//! integrated controller. The paper quotes 7760 MB/s as the attainable
//! peak; the raw pin bandwidth (1866 MT/s × 8 B) is roughly twice that —
//! the controller, not the DRAM bus, is the ceiling.

use cimone_soc::units::Bytes;

/// Static configuration of the DDR subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrConfig {
    /// Installed capacity.
    pub capacity: Bytes,
    /// Transfer rate, MT/s.
    pub mt_per_s: u32,
    /// Data bus width in bytes.
    pub bus_bytes: u32,
    /// Attainable peak bandwidth in bytes/s (paper: 7760 MB/s).
    pub attainable_peak: f64,
    /// Average loaded memory latency in nanoseconds.
    pub latency_ns: f64,
}

impl DdrConfig {
    /// The Monte Cimone node configuration.
    pub fn monte_cimone() -> Self {
        DdrConfig {
            capacity: Bytes::from_gib(16),
            mt_per_s: 1866,
            bus_bytes: 8,
            attainable_peak: 7760.0e6,
            latency_ns: 135.0,
        }
    }

    /// Raw pin bandwidth in bytes/s (`MT/s × bus width`).
    pub fn pin_bandwidth(&self) -> f64 {
        self.mt_per_s as f64 * 1e6 * self.bus_bytes as f64
    }

    /// Latency-bound bandwidth for a requester sustaining
    /// `lines_in_flight` cache lines of `line_bytes` each (Little's law).
    pub fn latency_bound_bandwidth(&self, lines_in_flight: f64, line_bytes: f64) -> f64 {
        (lines_in_flight * line_bytes / (self.latency_ns * 1e-9)).min(self.attainable_peak)
    }

    /// Fair-share bandwidth when `requesters` nodes of demand contend
    /// (intra-node: the four cores share one controller).
    ///
    /// # Panics
    ///
    /// Panics if `requesters` is zero.
    pub fn fair_share(&self, requesters: usize) -> f64 {
        assert!(requesters > 0, "need at least one requester");
        self.attainable_peak / requesters as f64
    }
}

impl Default for DdrConfig {
    fn default() -> Self {
        DdrConfig::monte_cimone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_bandwidth_exceeds_attainable_peak() {
        let ddr = DdrConfig::monte_cimone();
        assert!((ddr.pin_bandwidth() - 14.928e9).abs() < 1e6);
        assert!(ddr.pin_bandwidth() > ddr.attainable_peak);
    }

    #[test]
    fn latency_bound_bandwidth_follows_littles_law() {
        let ddr = DdrConfig::monte_cimone();
        // 2.5 lines * 64 B / 135 ns ≈ 1185 MB/s — the regime Table V shows.
        let bw = ddr.latency_bound_bandwidth(2.5, 64.0);
        assert!((bw - 1.185e9).abs() < 5e6, "bw {bw}");
    }

    #[test]
    fn latency_bound_bandwidth_saturates_at_peak() {
        let ddr = DdrConfig::monte_cimone();
        let bw = ddr.latency_bound_bandwidth(1000.0, 64.0);
        assert_eq!(bw, ddr.attainable_peak);
    }

    #[test]
    fn fair_share_splits_evenly() {
        let ddr = DdrConfig::monte_cimone();
        assert_eq!(ddr.fair_share(4), ddr.attainable_peak / 4.0);
    }
}
