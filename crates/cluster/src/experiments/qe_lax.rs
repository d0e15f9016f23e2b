//! The §V-A QuantumESPRESSO LAX data point: blocked diagonalisation of a
//! 512² matrix, 1.44 ± 0.05 GFLOP/s (36 % FPU efficiency), 37.40 ± 0.14 s.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::perf::LaxModel;
use crate::report::Stats;

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct QeLaxResult {
    /// Matrix order.
    pub matrix_n: usize,
    /// Sustained GFLOP/s.
    pub gflops: Stats,
    /// Run time, seconds.
    pub seconds: Stats,
    /// FPU utilisation fraction.
    pub fpu_utilisation: f64,
}

/// Runs the LAX driver `repetitions` times.
///
/// # Panics
///
/// Panics if `repetitions` is zero.
///
/// # Examples
///
/// ```
/// use cimone_cluster::experiments::qe_lax;
///
/// let result = qe_lax::run(5, 42);
/// assert!((result.gflops.mean - 1.44).abs() < 0.05);
/// ```
pub fn run(repetitions: usize, seed: u64) -> QeLaxResult {
    assert!(repetitions > 0, "need at least one repetition");
    let model = LaxModel::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let runs: Vec<(f64, f64)> = (0..repetitions)
        .map(|_| model.simulate_run(&mut rng))
        .collect();
    QeLaxResult {
        matrix_n: model.matrix_n,
        seconds: Stats::from_samples(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
        gflops: Stats::from_samples(&runs.iter().map(|r| r.1).collect::<Vec<_>>()),
        fpu_utilisation: model.fpu_utilisation(),
    }
}

impl QeLaxResult {
    /// Renders the data point.
    pub fn render(&self) -> String {
        format!(
            "QE LAX driver, {n}x{n} blocked diagonalisation (1 node, 4 ranks)\n\
             sustained: {gflops} GFLOP/s ({util:.0}% of FPU peak)\n\
             duration:  {secs} s\n",
            n = self.matrix_n,
            gflops = self.gflops.format(2),
            util = self.fpu_utilisation * 100.0,
            secs = self.seconds.format(2),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_paper_data_point() {
        let result = run(20, 2022);
        assert!(
            (result.gflops.mean - 1.44).abs() < 0.02,
            "{:?}",
            result.gflops
        );
        assert!(
            (result.seconds.mean - 37.40).abs() < 0.6,
            "{:?}",
            result.seconds
        );
        assert!(result.seconds.std_dev < 0.3);
        assert!((result.fpu_utilisation - 0.36).abs() < 0.005);
    }

    #[test]
    fn render_reports_the_three_quantities() {
        let text = run(3, 5).render();
        assert!(text.contains("512x512"));
        assert!(text.contains("GFLOP/s"));
        assert!(text.contains("36% of FPU peak"));
    }
}
