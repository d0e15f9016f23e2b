//! Small statistics and table-formatting helpers shared by the
//! experiment harnesses.

/// Mean and standard deviation of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for single samples).
    pub std_dev: f64,
    /// Sample count.
    pub n: usize,
}

impl Stats {
    /// Computes statistics over samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n > 1 {
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Stats { mean, std_dev, n }
    }

    /// Renders as `mean ± std` with the given precision.
    pub fn format(&self, precision: usize) -> String {
        format!("{:.precision$} ± {:.precision$}", self.mean, self.std_dev)
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.format(2))
    }
}

/// Renders rows as a fixed-width text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let parts: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        format!("| {} |\n", parts.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&format!("|-{}-|\n", rule.join("-|-")));
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_samples() {
        let s = Stats::from_samples(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn stats_match_hand_computation() {
        let s = Stats::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.std_dev - 1.2909944).abs() < 1e-6);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Stats::from_samples(&[5.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.format(1), "5.0 ± 0.0");
    }

    #[test]
    fn table_columns_align() {
        let text = render_table(
            &["Test", "MB/s"],
            &[
                vec!["copy".into(), "1206".into()],
                vec!["scale".into(), "1025".into()],
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = Stats::from_samples(&[]);
    }
}
