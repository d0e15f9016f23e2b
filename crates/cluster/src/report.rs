//! Small statistics and table-formatting helpers shared by the
//! experiment harnesses, and the one [`Report`] shape of the fault
//! campaigns.

use cimone_monitor::json::JsonValue;

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

/// A fault campaign's typed result. Its one mapping onto a [`Report`]
/// feeds the printed tables, the `BENCH_*.json` and the gates; the
/// harness runs it under both clocks and compares the results with `==`.
pub trait Campaign: PartialEq {
    /// The report of this result.
    fn report(&self) -> Report;
}

/// What a fault campaign reports.
#[derive(Debug, PartialEq)]
pub struct Report {
    /// Run parameters, written to JSON only, under `config`.
    pub config: Vec<Cell>,
    /// Printed in order; written as arrays of row objects.
    pub tables: Vec<Table>,
    /// Printed after the tables; written as objects.
    pub notes: Vec<Note>,
    /// Written as top-level pass flags.
    pub gates: Vec<Gate>,
}

/// A table printed under its caption line, keyed by `key` in JSON.
#[derive(Debug, PartialEq)]
pub struct Table {
    /// JSON key.
    pub key: &'static str,
    /// The line printed above the table.
    pub caption: String,
    /// One row per measured point, all with the same cells.
    pub rows: Vec<Vec<Cell>>,
}

/// A printed line and the values it quotes, keyed by `key` in JSON.
#[derive(Debug, PartialEq)]
pub struct Note {
    /// JSON key.
    pub key: &'static str,
    /// The printed line.
    pub text: String,
    /// The quoted values.
    pub cells: Vec<Cell>,
}

/// A pass/fail check, keyed by `key` in JSON.
#[derive(Debug, PartialEq)]
pub struct Gate {
    /// JSON key.
    pub key: &'static str,
    /// One message per offender; empty when the check passes.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate failing with each of `failures` (an `Option` for a single
    /// condition).
    pub fn new(key: &'static str, failures: impl IntoIterator<Item = String>) -> Gate {
        let failures = failures.into_iter().collect();
        Gate { key, failures }
    }
}

/// One value: written to JSON as `key: value`, and shown in its table
/// under a header unless it is JSON-only.
#[derive(Debug, PartialEq)]
pub struct Cell {
    /// JSON key.
    pub key: &'static str,
    /// JSON value.
    pub value: JsonValue,
    /// Header and table text; `None` for a JSON-only value.
    pub shown: Option<(&'static str, String)>,
}

impl Cell {
    /// A value shown as `text` under `header`.
    pub fn new(
        header: &'static str,
        key: &'static str,
        value: impl Into<JsonValue>,
        text: impl Into<String>,
    ) -> Cell {
        Cell {
            shown: Some((header, text.into())),
            ..Cell::json(key, value)
        }
    }

    /// A value written to JSON only.
    pub fn json(key: &'static str, value: impl Into<JsonValue>) -> Cell {
        Cell {
            key,
            value: value.into(),
            shown: None,
        }
    }

    /// A count, shown in full.
    pub fn count(header: &'static str, key: &'static str, n: usize) -> Cell {
        Cell::new(header, key, n, n.to_string())
    }

    /// A value shown to `precision` decimals; `-` (JSON `null`) when
    /// absent.
    pub fn fixed(
        header: &'static str,
        key: &'static str,
        v: impl Into<Option<f64>>,
        precision: usize,
    ) -> Cell {
        let v = v.into();
        let text = v.map_or("-".to_owned(), |v| format!("{v:.precision$}"));
        Cell::new(header, key, v, text)
    }

    /// A fraction shown as a percentage to `precision` decimals.
    pub fn percent(header: &'static str, key: &'static str, frac: f64, precision: usize) -> Cell {
        Cell::new(header, key, frac, format!("{:.precision$}%", frac * 100.0))
    }

    /// Repeated measurements shown as `mean ± std` to two decimals; `-`
    /// (JSON `null`) when there are none.
    pub fn stats(header: &'static str, key: &'static str, stats: Option<&Stats>) -> Cell {
        let text = stats.map_or("-".to_owned(), |s| s.format(2));
        let value = stats.map(|s| {
            let (mean, std_dev, n) = (s.mean.into(), s.std_dev.into(), s.n.into());
            JsonValue::object([("mean", mean), ("std_dev", std_dev), ("n", n)])
        });
        Cell::new(header, key, value, text)
    }
}

impl Report {
    /// The text: each table under its caption, then the notes, with a
    /// blank line between blocks.
    pub fn render(&self) -> String {
        let mut blocks = Vec::new();
        for table in &self.tables {
            let shown = |row: &Vec<Cell>| -> Vec<_> {
                row.iter().filter_map(|c| c.shown.clone()).collect()
            };
            let (headers, texts): (Vec<Vec<&str>>, Vec<Vec<String>>) = table
                .rows
                .iter()
                .map(|row| shown(row).into_iter().unzip())
                .unzip();
            let headers = headers.first().map_or(&[][..], Vec::as_slice);
            blocks.push(format!(
                "{}\n{}",
                table.caption,
                render_table(headers, &texts)
            ));
        }
        if !self.notes.is_empty() {
            blocks.push(
                self.notes
                    .iter()
                    .map(|note| format!("{}\n", note.text))
                    .collect(),
            );
        }
        blocks.join("\n")
    }

    /// The JSON document: `config`, each table's rows, each note's
    /// values and each gate's pass flag.
    pub fn to_json(&self) -> JsonValue {
        let object =
            |cells: &[Cell]| JsonValue::object(cells.iter().map(|c| (c.key, c.value.clone())));
        let mut fields = vec![("config", object(&self.config))];
        for table in &self.tables {
            let rows = table.rows.iter().map(|row| object(row)).collect();
            fields.push((table.key, JsonValue::Array(rows)));
        }
        for note in &self.notes {
            fields.push((note.key, object(&note.cells)));
        }
        for gate in &self.gates {
            fields.push((gate.key, gate.failures.is_empty().into()));
        }
        JsonValue::object(fields)
    }
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
