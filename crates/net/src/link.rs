//! Point-to-point link models (α–β: latency plus inverse bandwidth).

use cimone_soc::units::{Bytes, SimDuration};

/// A full-duplex link characterised by latency and bandwidth.
///
/// # Examples
///
/// ```
/// use cimone_net::link::LinkModel;
/// use cimone_soc::units::Bytes;
///
/// let gbe = LinkModel::gigabit_ethernet();
/// let t = gbe.transfer_time(Bytes::from_mib(1));
/// // 1 MiB over 125 MB/s ≈ 8.4 ms plus 50 µs latency.
/// assert!((t.as_secs_f64() - 0.00844).abs() < 0.0005);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    latency: SimDuration,
    bandwidth_bytes_per_s: f64,
}

impl LinkModel {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn new(latency: SimDuration, bandwidth_bytes_per_s: f64) -> Self {
        assert!(
            bandwidth_bytes_per_s > 0.0,
            "bandwidth must be positive, got {bandwidth_bytes_per_s}"
        );
        LinkModel {
            latency,
            bandwidth_bytes_per_s,
        }
    }

    /// The on-board Microsemi VSC8541 Gigabit Ethernet path used by Monte
    /// Cimone today: 1 Gb/s with TCP/kernel latency around 50 µs.
    pub fn gigabit_ethernet() -> Self {
        LinkModel::new(SimDuration::from_micros(50), 125.0e6)
    }

    /// The InfiniBand FDR (56 Gb/s) fabric the Mellanox ConnectX-4 HCAs
    /// would provide once RDMA works: ~1.5 µs latency.
    pub fn infiniband_fdr() -> Self {
        LinkModel::new(SimDuration::from_micros(2), 7.0e9)
    }

    /// One-way latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bytes_per_s
    }

    /// Time to move `bytes` across the link (α + n·β).
    pub fn transfer_time(&self, bytes: Bytes) -> SimDuration {
        let serialisation = bytes.as_f64() / self.bandwidth_bytes_per_s;
        self.latency + SimDuration::from_secs_f64(serialisation)
    }

    /// Round-trip time for a small ping.
    pub fn ping_rtt(&self) -> SimDuration {
        self.latency * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbe_serialisation_dominates_large_transfers() {
        let gbe = LinkModel::gigabit_ethernet();
        let t = gbe.transfer_time(Bytes::from_mib(100));
        // 100 MiB / 125 MB/s ≈ 0.839 s.
        assert!((t.as_secs_f64() - 0.8389).abs() < 0.001);
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let gbe = LinkModel::gigabit_ethernet();
        let t = gbe.transfer_time(Bytes::new(64));
        assert!((t.as_secs_f64() - 50.5e-6).abs() < 1e-6);
    }

    #[test]
    fn infiniband_is_much_faster_than_ethernet() {
        let payload = Bytes::from_mib(10);
        let gbe = LinkModel::gigabit_ethernet().transfer_time(payload);
        let ib = LinkModel::infiniband_fdr().transfer_time(payload);
        let speedup = gbe.as_secs_f64() / ib.as_secs_f64();
        assert!(speedup > 40.0, "speedup {speedup}");
    }

    #[test]
    fn ping_is_twice_the_latency() {
        let ib = LinkModel::infiniband_fdr();
        assert_eq!(ib.ping_rtt(), SimDuration::from_micros(4));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = LinkModel::new(SimDuration::ZERO, 0.0);
    }
}
