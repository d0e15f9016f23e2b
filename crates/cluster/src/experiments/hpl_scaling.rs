//! Fig. 2: HPL strong scaling on 1/2/4/8 nodes, 10 repetitions each, plus
//! the §V-A single-node cross-ISA efficiency comparison.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::perf::{HplModel, HplProblem};
use crate::reference::ReferenceNode;
use crate::report::{render_table, Stats};

/// One point of the scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Node count.
    pub nodes: usize,
    /// Sustained GFLOP/s over the repetitions.
    pub gflops: Stats,
    /// Wall time, seconds.
    pub seconds: Stats,
    /// Speedup relative to one node (mean-based).
    pub speedup: f64,
    /// Efficiency versus linear scaling.
    pub efficiency: f64,
    /// Fraction of the machine's theoretical peak.
    pub peak_utilisation: f64,
}

/// The full experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct HplScalingResult {
    /// The problem configuration (paper: N = 40704, NB = 192).
    pub problem: HplProblem,
    /// Repetitions per point (paper: 10).
    pub repetitions: usize,
    /// The curve, ascending node count.
    pub points: Vec<ScalingPoint>,
    /// The §V-A cross-ISA comparison rows.
    pub comparison: Vec<ReferenceNode>,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if `repetitions` is zero.
///
/// # Examples
///
/// ```
/// use cimone_cluster::experiments::hpl_scaling;
/// use cimone_cluster::perf::HplProblem;
///
/// let result = hpl_scaling::run(HplProblem::paper(), 3, 42);
/// assert_eq!(result.points.len(), 4);
/// assert!((result.points[0].gflops.mean - 1.86).abs() < 0.1);
/// ```
pub fn run(problem: HplProblem, repetitions: usize, seed: u64) -> HplScalingResult {
    assert!(repetitions > 0, "need at least one repetition");
    let model = HplModel::monte_cimone(problem);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut points = Vec::new();
    let mut single_node_mean = 0.0;
    for nodes in [1usize, 2, 4, 8] {
        let runs: Vec<_> = (0..repetitions)
            .map(|_| model.simulate_run(nodes, &mut rng))
            .collect();
        let gflops = Stats::from_samples(&runs.iter().map(|r| r.gflops).collect::<Vec<_>>());
        let seconds = Stats::from_samples(&runs.iter().map(|r| r.seconds).collect::<Vec<_>>());
        if nodes == 1 {
            single_node_mean = gflops.mean;
        }
        points.push(ScalingPoint {
            nodes,
            speedup: gflops.mean / single_node_mean,
            efficiency: gflops.mean / (single_node_mean * nodes as f64),
            peak_utilisation: gflops.mean * 1e9 / (nodes as f64 * 4.0e9),
            gflops,
            seconds,
        });
    }

    HplScalingResult {
        problem,
        repetitions,
        points,
        comparison: ReferenceNode::comparison_set(),
    }
}

impl HplScalingResult {
    /// Renders the figure data and the comparison block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fig. 2 — HPL strong scaling (N={}, NB={}, {} repetitions)\n",
            self.problem.n, self.problem.nb, self.repetitions
        );
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.nodes.to_string(),
                    p.gflops.format(2),
                    p.seconds.format(0),
                    format!("{:.2}x", p.speedup),
                    format!("{:.1}%", p.efficiency * 100.0),
                    format!("{:.1}%", p.peak_utilisation * 100.0),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "Nodes",
                "GFLOP/s",
                "Runtime [s]",
                "Speedup",
                "Eff. vs linear",
                "of peak",
            ],
            &rows,
        ));

        out.push_str("\nSingle-node FPU utilisation, upstream stack (§V-A):\n");
        let rows: Vec<Vec<String>> = self
            .comparison
            .iter()
            .map(|n| {
                vec![
                    n.system.clone(),
                    n.cpu.clone(),
                    n.isa.clone(),
                    format!("{:.2}%", n.hpl_efficiency * 100.0),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["System", "CPU", "ISA", "HPL FPU util."],
            &rows,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_problem_reproduces_headline_numbers() {
        let result = run(HplProblem::paper(), 10, 2022);
        let single = &result.points[0];
        assert!(
            (single.gflops.mean - 1.86).abs() < 0.04,
            "{:?}",
            single.gflops
        );
        assert!(single.gflops.std_dev < 0.08);
        let full = &result.points[3];
        assert_eq!(full.nodes, 8);
        assert!((full.gflops.mean - 12.65).abs() < 0.6, "{:?}", full.gflops);
        assert!((full.efficiency - 0.85).abs() < 0.04);
        assert!((full.peak_utilisation - 0.395).abs() < 0.02);
    }

    #[test]
    fn speedups_are_monotonic_and_sublinear() {
        let result = run(HplProblem::paper(), 5, 7);
        for pair in result.points.windows(2) {
            assert!(pair[1].speedup > pair[0].speedup);
            assert!(pair[1].speedup <= pair[1].nodes as f64);
        }
    }

    #[test]
    fn render_contains_the_key_rows() {
        let result = run(HplProblem::paper(), 3, 1);
        let text = result.render();
        assert!(text.contains("Fig. 2"));
        assert!(text.contains("Marconi100"));
        assert!(text.contains("Armida"));
        assert!(text.contains("65.79%"));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run(HplProblem::paper(), 3, 9);
        let b = run(HplProblem::paper(), 3, 9);
        assert_eq!(a, b);
    }
}
