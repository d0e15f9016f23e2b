//! Table V: STREAM at 4 threads, DDR-resident vs L2-resident, plus the
//! §V-A cross-ISA bandwidth-efficiency comparison.

use cimone_kernels::stream::StreamKernel;
use cimone_mem::bandwidth::{table_v_sizes, StreamBandwidthModel};
use cimone_soc::units::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::reference::ReferenceNode;
use crate::report::{render_table, Stats};

/// One Table V row.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRow {
    /// The kernel.
    pub kernel: String,
    /// DDR-resident rate, MB/s.
    pub ddr: Stats,
    /// L2-resident rate, MB/s.
    pub l2: Stats,
}

/// The full experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTableResult {
    /// Threads used (paper: 4, one per physical core).
    pub threads: usize,
    /// DDR working set.
    pub ddr_working_set: Bytes,
    /// L2 working set.
    pub l2_working_set: Bytes,
    /// The four kernel rows.
    pub rows: Vec<StreamRow>,
    /// Best DDR rate as a fraction of the 7760 MB/s peak.
    pub peak_efficiency: f64,
    /// The cross-ISA comparison.
    pub comparison: Vec<ReferenceNode>,
}

/// Runs the experiment with `repetitions` measurements per cell.
///
/// # Panics
///
/// Panics if `repetitions` is zero.
///
/// # Examples
///
/// ```
/// use cimone_cluster::experiments::stream_table;
///
/// let result = stream_table::run(5, 42);
/// assert!((result.rows[0].ddr.mean - 1206.0).abs() < 10.0);
/// assert!((result.peak_efficiency - 0.155).abs() < 0.01);
/// ```
pub fn run(repetitions: usize, seed: u64) -> StreamTableResult {
    assert!(repetitions > 0, "need at least one repetition");
    let model = StreamBandwidthModel::monte_cimone();
    let mut rng = StdRng::seed_from_u64(seed);
    let threads = 4;

    let mut rows = Vec::new();
    let mut best_ddr: f64 = 0.0;
    for kernel in StreamKernel::ALL {
        let ddr_samples: Vec<f64> = (0..repetitions)
            .map(|_| model.measure(kernel, table_v_sizes::ddr(), threads, &mut rng) / 1e6)
            .collect();
        let l2_samples: Vec<f64> = (0..repetitions)
            .map(|_| model.measure(kernel, table_v_sizes::l2(), threads, &mut rng) / 1e6)
            .collect();
        let ddr = Stats::from_samples(&ddr_samples);
        best_ddr = best_ddr.max(ddr.mean);
        rows.push(StreamRow {
            kernel: kernel.name().to_owned(),
            ddr,
            l2: Stats::from_samples(&l2_samples),
        });
    }

    StreamTableResult {
        threads,
        ddr_working_set: table_v_sizes::ddr(),
        l2_working_set: table_v_sizes::l2(),
        rows,
        peak_efficiency: best_ddr * 1e6 / model.ddr().attainable_peak,
        comparison: ReferenceNode::comparison_set(),
    }
}

impl StreamTableResult {
    /// Renders Table V plus the comparison block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Table V — STREAM, {} threads ({} DDR-resident / {} L2-resident)\n",
            self.threads, self.ddr_working_set, self.l2_working_set
        );
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| vec![r.kernel.clone(), r.ddr.format(0), r.l2.format(0)])
            .collect();
        out.push_str(&render_table(
            &["Test", "STREAM.DDR [MB/s]", "STREAM.L2 [MB/s]"],
            &rows,
        ));
        out.push_str(&format!(
            "\nBest DDR rate = {:.1}% of the {:.0} MB/s attainable peak\n",
            self.peak_efficiency * 100.0,
            7760.0
        ));
        out.push_str("\nSTREAM bandwidth efficiency, upstream stack (§V-A):\n");
        let rows: Vec<Vec<String>> = self
            .comparison
            .iter()
            .map(|n| {
                vec![
                    n.system.clone(),
                    n.cpu.clone(),
                    format!("{:.2}%", n.stream_efficiency * 100.0),
                ]
            })
            .collect();
        out.push_str(&render_table(&["System", "CPU", "BW efficiency"], &rows));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_means_are_reproduced() {
        let result = run(10, 2022);
        let expected_ddr = [1206.0, 1025.0, 1124.0, 1122.0];
        let expected_l2 = [7079.0, 3558.0, 4380.0, 4365.0];
        for (i, row) in result.rows.iter().enumerate() {
            assert!(
                (row.ddr.mean - expected_ddr[i]).abs() < 10.0,
                "{}: ddr {:?}",
                row.kernel,
                row.ddr
            );
            assert!(
                (row.l2.mean - expected_l2[i]).abs() < 15.0,
                "{}: l2 {:?}",
                row.kernel,
                row.l2
            );
        }
    }

    #[test]
    fn std_devs_are_small_like_the_paper() {
        let result = run(10, 7);
        for row in &result.rows {
            assert!(row.ddr.std_dev < 12.0, "{}: {:?}", row.kernel, row.ddr);
            assert!(row.l2.std_dev < 10.0, "{}: {:?}", row.kernel, row.l2);
        }
    }

    #[test]
    fn headline_efficiency_is_15_5_percent() {
        let result = run(10, 3);
        assert!((result.peak_efficiency - 0.155).abs() < 0.005);
    }

    #[test]
    fn render_mentions_the_comparison_systems() {
        let text = run(3, 1).render();
        assert!(text.contains("Table V"));
        assert!(text.contains("48.20%") || text.contains("48.2"));
        assert!(text.contains("63.21%"));
    }
}
