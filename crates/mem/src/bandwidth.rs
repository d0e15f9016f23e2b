//! The sustained STREAM bandwidth model, calibrated to Table V.
//!
//! Two regimes govern the measured numbers:
//!
//! * **DDR-resident** working sets are *latency bound*: with the L2
//!   prefetcher not helping (the paper's observation), each core only keeps
//!   a couple of cache lines in flight, and Little's law caps throughput at
//!   `lines · 64 B / 135 ns` — around 1.0–1.2 GB/s for four threads, i.e.
//!   **15.5 %** of the 7760 MB/s peak. Turning the prefetcher effectiveness
//!   up (the ablation) multiplies the in-flight lines and drives the same
//!   formula towards peak.
//! * **L2-resident** working sets are *issue bound*: throughput follows
//!   `threads · clock · bytes-per-element / cycles-per-element`, with the
//!   per-kernel cycle costs calibrated from Table V (copy streams through
//!   the pipe twice as fast as scale, which pays an FP multiply per
//!   element on the single FP pipe).

use cimone_kernels::stream::StreamKernel;
use cimone_soc::noise::GaussianNoise;
use cimone_soc::units::Bytes;
use rand::Rng;

use crate::ddr::DdrConfig;
use crate::prefetch::PrefetcherConfig;

/// Where a working set lives in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Residency {
    /// Fits comfortably in the shared L2.
    L2,
    /// Streams from DDR.
    Ddr,
    /// Straddles the capacity boundary; the field is the fraction of
    /// traffic served from DDR.
    Mixed(f64),
}

/// Per-kernel calibration constants derived from Table V (4 threads).
#[derive(Debug, Clone, Copy, PartialEq)]
struct KernelCalibration {
    /// Cache lines in flight across 4 threads with the prefetcher
    /// ineffective (back-solved from the measured DDR rates).
    ddr_lines_in_flight_4t: f64,
    /// Core cycles per element when L2-resident (back-solved from the
    /// measured L2 rates at 4 threads × 1.2 GHz).
    l2_cycles_per_element: f64,
    /// Measured standard deviation of the DDR rate, MB/s.
    ddr_sigma_mbps: f64,
    /// Measured standard deviation of the L2 rate, MB/s.
    l2_sigma_mbps: f64,
}

fn calibration(kernel: StreamKernel) -> KernelCalibration {
    match kernel {
        StreamKernel::Copy => KernelCalibration {
            ddr_lines_in_flight_4t: 2.5439,
            l2_cycles_per_element: 10.849,
            ddr_sigma_mbps: 3.26,
            l2_sigma_mbps: 2.11,
        },
        StreamKernel::Scale => KernelCalibration {
            ddr_lines_in_flight_4t: 2.1621,
            l2_cycles_per_element: 21.585,
            ddr_sigma_mbps: 4.94,
            l2_sigma_mbps: 3.72,
        },
        StreamKernel::Add => KernelCalibration {
            ddr_lines_in_flight_4t: 2.3709,
            l2_cycles_per_element: 26.301,
            ddr_sigma_mbps: 4.93,
            l2_sigma_mbps: 3.72,
        },
        StreamKernel::Triad => KernelCalibration {
            ddr_lines_in_flight_4t: 2.3667,
            l2_cycles_per_element: 26.392,
            ddr_sigma_mbps: 5.63,
            l2_sigma_mbps: 3.56,
        },
    }
}

/// Extra memory-level parallelism a fully effective prefetcher adds per
/// demand line (depth-4 prefetching across the kernel's streams easily
/// saturates the controller, so the exact value only matters off-peak).
const PREFETCH_MLP_BOOST: f64 = 8.0;

/// The node-level STREAM bandwidth model.
///
/// # Examples
///
/// ```
/// use cimone_kernels::stream::StreamKernel;
/// use cimone_mem::bandwidth::StreamBandwidthModel;
/// use cimone_soc::units::Bytes;
///
/// let model = StreamBandwidthModel::monte_cimone();
/// // The paper's DDR-resident copy: 1206 MB/s, 15.5 % of the 7760 MB/s peak.
/// let bw = model.mean_bandwidth(StreamKernel::Copy, Bytes::from_mib(1946), 4);
/// assert!((bw / 1e6 - 1206.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBandwidthModel {
    ddr: DdrConfig,
    prefetcher: PrefetcherConfig,
    l2_capacity: Bytes,
    line_bytes: f64,
    clock_hz: f64,
    threads_reference: usize,
}

impl StreamBandwidthModel {
    /// The model calibrated to the Monte Cimone node.
    pub fn monte_cimone() -> Self {
        StreamBandwidthModel {
            ddr: DdrConfig::monte_cimone(),
            prefetcher: PrefetcherConfig::u74_observed(),
            l2_capacity: Bytes::from_mib(2),
            line_bytes: 64.0,
            clock_hz: 1.2e9,
            threads_reference: 4,
        }
    }

    /// Replaces the prefetcher configuration (ablation hook).
    pub fn with_prefetcher(mut self, prefetcher: PrefetcherConfig) -> Self {
        self.prefetcher = prefetcher;
        self
    }

    /// The DDR configuration.
    pub fn ddr(&self) -> &DdrConfig {
        &self.ddr
    }

    /// The prefetcher configuration.
    pub fn prefetcher(&self) -> &PrefetcherConfig {
        &self.prefetcher
    }

    /// Classifies a working set.
    pub fn residency(&self, working_set: Bytes) -> Residency {
        let ws = working_set.as_f64();
        let cap = self.l2_capacity.as_f64();
        if ws <= 0.9 * cap {
            Residency::L2
        } else if ws >= 2.0 * cap {
            Residency::Ddr
        } else {
            Residency::Mixed((ws - 0.9 * cap) / (1.1 * cap))
        }
    }

    /// Sustained bandwidth in bytes/s for `kernel` over `working_set` with
    /// `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn mean_bandwidth(&self, kernel: StreamKernel, working_set: Bytes, threads: usize) -> f64 {
        assert!(threads > 0, "need at least one thread");
        match self.residency(working_set) {
            Residency::L2 => self.l2_bandwidth(kernel, threads),
            Residency::Ddr => self.ddr_bandwidth(kernel, threads),
            Residency::Mixed(ddr_frac) => {
                let bw_l2 = self.l2_bandwidth(kernel, threads);
                let bw_ddr = self.ddr_bandwidth(kernel, threads);
                // Time-weighted harmonic blend.
                1.0 / (ddr_frac / bw_ddr + (1.0 - ddr_frac) / bw_l2)
            }
        }
    }

    /// The latency-bound DDR regime.
    pub fn ddr_bandwidth(&self, kernel: StreamKernel, threads: usize) -> f64 {
        let cal = calibration(kernel);
        let thread_scale = threads as f64 / self.threads_reference as f64;
        let coverage = self.prefetcher.stream_coverage(kernel.stream_count());
        let mlp = cal.ddr_lines_in_flight_4t
            * thread_scale
            * (1.0 + self.prefetcher.effectiveness * coverage * PREFETCH_MLP_BOOST);
        self.ddr.latency_bound_bandwidth(mlp, self.line_bytes)
    }

    /// The issue-bound L2 regime.
    pub fn l2_bandwidth(&self, kernel: StreamKernel, threads: usize) -> f64 {
        let cal = calibration(kernel);
        threads as f64 * self.clock_hz * kernel.bytes_per_element() as f64
            / cal.l2_cycles_per_element
    }

    /// Draws one noisy measurement in bytes/s, with the per-kernel sensor
    /// noise observed in Table V.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        kernel: StreamKernel,
        working_set: Bytes,
        threads: usize,
        rng: &mut R,
    ) -> f64 {
        let mean = self.mean_bandwidth(kernel, working_set, threads);
        let cal = calibration(kernel);
        let sigma = match self.residency(working_set) {
            Residency::L2 => cal.l2_sigma_mbps,
            Residency::Ddr => cal.ddr_sigma_mbps,
            Residency::Mixed(f) => cal.l2_sigma_mbps * (1.0 - f) + cal.ddr_sigma_mbps * f,
        };
        let mut noise = GaussianNoise::new(sigma * 1e6);
        (mean + noise.sample(rng)).max(0.0)
    }

    /// Best-of-`reps` measurement, matching STREAM's reporting convention.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero.
    pub fn measure_best<R: Rng + ?Sized>(
        &self,
        kernel: StreamKernel,
        working_set: Bytes,
        threads: usize,
        reps: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(reps > 0, "need at least one repetition");
        (0..reps)
            .map(|_| self.measure(kernel, working_set, threads, rng))
            .fold(0.0, f64::max)
    }

    /// Fraction of the attainable DDR peak a measurement represents.
    pub fn efficiency(&self, bandwidth: f64) -> f64 {
        bandwidth / self.ddr.attainable_peak
    }
}

impl Default for StreamBandwidthModel {
    fn default() -> Self {
        StreamBandwidthModel::monte_cimone()
    }
}

/// The two working-set sizes Table V reports.
pub mod table_v_sizes {
    use cimone_soc::units::Bytes;

    /// The DDR-resident size: 1945.5 MiB.
    pub fn ddr() -> Bytes {
        Bytes::new((1945.5 * 1024.0 * 1024.0) as u64)
    }

    /// The L2-resident size: 1.1 MiB.
    pub fn l2() -> Bytes {
        Bytes::new((1.1 * 1024.0 * 1024.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TABLE_V_DDR: [(StreamKernel, f64); 4] = [
        (StreamKernel::Copy, 1206.0),
        (StreamKernel::Scale, 1025.0),
        (StreamKernel::Add, 1124.0),
        (StreamKernel::Triad, 1122.0),
    ];

    const TABLE_V_L2: [(StreamKernel, f64); 4] = [
        (StreamKernel::Copy, 7079.0),
        (StreamKernel::Scale, 3558.0),
        (StreamKernel::Add, 4380.0),
        (StreamKernel::Triad, 4365.0),
    ];

    #[test]
    fn ddr_rates_match_table_v() {
        let model = StreamBandwidthModel::monte_cimone();
        for (kernel, expected) in TABLE_V_DDR {
            let bw = model.mean_bandwidth(kernel, table_v_sizes::ddr(), 4) / 1e6;
            assert!((bw - expected).abs() < 1.5, "{kernel}: {bw} vs {expected}");
        }
    }

    #[test]
    fn l2_rates_match_table_v() {
        let model = StreamBandwidthModel::monte_cimone();
        for (kernel, expected) in TABLE_V_L2 {
            let bw = model.mean_bandwidth(kernel, table_v_sizes::l2(), 4) / 1e6;
            assert!((bw - expected).abs() < 5.0, "{kernel}: {bw} vs {expected}");
        }
    }

    #[test]
    fn ddr_efficiency_peaks_at_paper_headline() {
        // Paper: "no more than 15.5 % of the available peak bandwidth".
        let model = StreamBandwidthModel::monte_cimone();
        let best = TABLE_V_DDR
            .iter()
            .map(|(k, _)| model.mean_bandwidth(*k, table_v_sizes::ddr(), 4))
            .fold(0.0, f64::max);
        let eff = model.efficiency(best);
        assert!((eff - 0.155).abs() < 0.005, "efficiency {eff}");
    }

    #[test]
    fn ideal_prefetcher_reaches_near_peak() {
        let model =
            StreamBandwidthModel::monte_cimone().with_prefetcher(PrefetcherConfig::u74_ideal());
        for (kernel, _) in TABLE_V_DDR {
            let bw = model.mean_bandwidth(kernel, table_v_sizes::ddr(), 4);
            assert!(
                model.efficiency(bw) > 0.9,
                "{kernel}: only {:.1}% with ideal prefetcher",
                model.efficiency(bw) * 100.0
            );
        }
    }

    #[test]
    fn effectiveness_sweep_is_monotonic() {
        let mut last = 0.0;
        for step in 0..=10 {
            let e = step as f64 / 10.0;
            let model = StreamBandwidthModel::monte_cimone()
                .with_prefetcher(PrefetcherConfig::u74_observed().with_effectiveness(e));
            let bw = model.mean_bandwidth(StreamKernel::Triad, table_v_sizes::ddr(), 4);
            assert!(bw >= last, "bandwidth decreased at e={e}");
            last = bw;
        }
    }

    #[test]
    fn residency_classification() {
        let model = StreamBandwidthModel::monte_cimone();
        assert_eq!(model.residency(table_v_sizes::l2()), Residency::L2);
        assert_eq!(model.residency(table_v_sizes::ddr()), Residency::Ddr);
        match model.residency(Bytes::from_mib(3)) {
            Residency::Mixed(f) => assert!(f > 0.0 && f < 1.0),
            other => panic!("expected mixed residency, got {other:?}"),
        }
    }

    #[test]
    fn mixed_bandwidth_lies_between_regimes() {
        let model = StreamBandwidthModel::monte_cimone();
        let l2 = model.mean_bandwidth(StreamKernel::Copy, table_v_sizes::l2(), 4);
        let ddr = model.mean_bandwidth(StreamKernel::Copy, table_v_sizes::ddr(), 4);
        let mid = model.mean_bandwidth(StreamKernel::Copy, Bytes::from_mib(3), 4);
        assert!(
            mid < l2 && mid > ddr,
            "mid {mid} not between {ddr} and {l2}"
        );
    }

    #[test]
    fn bandwidth_scales_with_threads_in_ddr_regime() {
        let model = StreamBandwidthModel::monte_cimone();
        let one = model.mean_bandwidth(StreamKernel::Copy, table_v_sizes::ddr(), 1);
        let four = model.mean_bandwidth(StreamKernel::Copy, table_v_sizes::ddr(), 4);
        assert!((four / one - 4.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_noise_matches_table_v_sigma() {
        let model = StreamBandwidthModel::monte_cimone();
        let mut rng = StdRng::seed_from_u64(31);
        let samples: Vec<f64> = (0..5000)
            .map(|_| model.measure(StreamKernel::Triad, table_v_sizes::ddr(), 4, &mut rng) / 1e6)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let sd =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        assert!((mean - 1122.0).abs() < 1.0, "mean {mean}");
        assert!((sd - 5.63).abs() < 0.5, "sd {sd}");
    }

    #[test]
    fn measure_best_is_at_least_a_single_measurement() {
        let model = StreamBandwidthModel::monte_cimone();
        let mut rng = StdRng::seed_from_u64(5);
        let single = model.measure(StreamKernel::Add, table_v_sizes::l2(), 4, &mut rng);
        let mut rng = StdRng::seed_from_u64(5);
        let best = model.measure_best(StreamKernel::Add, table_v_sizes::l2(), 4, 10, &mut rng);
        assert!(best >= single);
    }
}
