//! Text dashboards (the Grafana role): heatmaps over nodes × time, and
//! sparkline strips for single series. Fig. 5 of the paper is a heatmap of
//! instructions/s, network traffic and memory usage across the eight nodes
//! during an HPL run — [`Heatmap`] renders exactly that from the store.
//! Both read borrowed [`SeriesView`](crate::tsdb::SeriesView)s and bin
//! each series in one pass over its points.

use cimone_soc::units::{SimDuration, SimTime};

use crate::topic::TopicFilter;
use crate::tsdb::{Aggregation, TimeSeriesStore};

/// Shade ramp used for heat cells, low to high.
const SHADES: [char; 5] = [' ', '░', '▒', '▓', '█'];

/// A rendered heatmap: one labelled row per series, binned over time.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Dashboard title.
    pub title: String,
    /// Row labels (e.g. hostnames).
    pub rows: Vec<String>,
    /// Cell values: `values[row][bin]`, `None` for empty bins.
    pub values: Vec<Vec<Option<f64>>>,
    /// Bin width.
    pub bin: SimDuration,
    /// Start of the rendered range.
    pub from: SimTime,
}

impl Heatmap {
    /// Builds a heatmap from every series matching `filter` with a point
    /// in `[from, to)`, labelling rows with `label_of(series_name)` and
    /// merging series that map to the same label (e.g. per-core series
    /// summed per node).
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or the range is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn from_store(
        title: impl Into<String>,
        store: &TimeSeriesStore,
        filter: &TopicFilter,
        from: SimTime,
        to: SimTime,
        bins: usize,
        aggregation: Aggregation,
        label_of: impl Fn(&str) -> String,
    ) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(to > from, "empty time range");
        let bin = (to - from) / bins as u64;
        let bin = if bin.is_zero() {
            SimDuration::from_micros(1)
        } else {
            bin
        };

        // The bins cover [from, end): `to` rounded down to whole bins, or
        // past it when the bin was widened to one microsecond.
        let end = from + bin * bins as u64;
        let mut rows: Vec<String> = Vec::new();
        let mut values: Vec<Vec<Option<f64>>> = Vec::new();
        for (topic, _) in store.query_filter(filter, from, to) {
            let label = label_of(topic.as_str());
            let row_idx = match rows.iter().position(|r| *r == label) {
                Some(i) => i,
                None => {
                    rows.push(label);
                    values.push(vec![None; bins]);
                    rows.len() - 1
                }
            };
            let row = &mut values[row_idx];
            store.query(topic.as_str(), from, end).downsample(
                from,
                bin,
                aggregation,
                |index, v| {
                    let slot = &mut row[index as usize];
                    *slot = Some(slot.unwrap_or(0.0) + v);
                },
            );
        }
        Heatmap {
            title: title.into(),
            rows,
            values,
            bin,
            from,
        }
    }

    /// Number of time bins.
    pub fn bins(&self) -> usize {
        self.values.first().map_or(0, Vec::len)
    }

    /// Renders to a shaded text block.
    pub fn render(&self) -> String {
        let max = self
            .values
            .iter()
            .flatten()
            .flatten()
            .fold(f64::MIN_POSITIVE, |a, &b| a.max(b));
        let label_width = self.rows.iter().map(String::len).max().unwrap_or(4).max(4);
        let mut out = format!("== {} ==\n", self.title);
        for (label, row) in self.rows.iter().zip(&self.values) {
            out.push_str(&format!("{label:>label_width$} |"));
            for cell in row {
                let ch = match cell {
                    None => SHADES[0],
                    Some(v) => {
                        let idx = ((v / max) * (SHADES.len() - 1) as f64).round() as usize;
                        SHADES[idx.min(SHADES.len() - 1)]
                    }
                };
                out.push(ch);
            }
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "{:>label_width$} +{}+ ({} per cell)\n",
            "",
            "-".repeat(self.bins()),
            self.bin
        ));
        out
    }
}

/// Renders a single series as a one-line unicode sparkline.
pub fn sparkline(
    store: &TimeSeriesStore,
    series: &str,
    from: SimTime,
    to: SimTime,
    bins: usize,
) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    assert!(bins > 0, "need at least one bin");
    assert!(to > from, "empty time range");
    let bin = (to - from) / bins as u64;
    let bin = if bin.is_zero() {
        SimDuration::from_micros(1)
    } else {
        bin
    };
    let points = store.downsample(series, from, to, bin, Aggregation::Mean);
    if points.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, v) in &points {
        lo = lo.min(*v);
        hi = hi.max(*v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    points
        .iter()
        .map(|(_, v)| {
            let idx = ((v - lo) / span * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::topic::Topic;

    fn store() -> TimeSeriesStore {
        let mut db = TimeSeriesStore::new();
        for node in 1..=3u64 {
            let topic: Topic = format!("node/mc-{node:02}/instret").parse().unwrap();
            for t in 0..30u64 {
                // Node 3 works three times as hard.
                let v = node as f64 * (t as f64 + 1.0);
                db.insert(&topic, Payload::new(v, SimTime::from_secs(t)));
            }
        }
        db
    }

    #[test]
    fn heatmap_shapes_follow_the_query() {
        let db = store();
        let hm = Heatmap::from_store(
            "Instructions/s",
            &db,
            &"node/+/instret".parse().unwrap(),
            SimTime::ZERO,
            SimTime::from_secs(30),
            10,
            Aggregation::Mean,
            |name| name.split('/').nth(1).unwrap_or("?").to_owned(),
        );
        assert_eq!(hm.rows, vec!["mc-01", "mc-02", "mc-03"]);
        assert_eq!(hm.bins(), 10);
        assert!(hm.values[2][9] > hm.values[0][9], "node 3 should be hotter");
    }

    #[test]
    fn render_produces_one_line_per_row_plus_frame() {
        let db = store();
        let hm = Heatmap::from_store(
            "test",
            &db,
            &"node/+/instret".parse().unwrap(),
            SimTime::ZERO,
            SimTime::from_secs(30),
            8,
            Aggregation::Mean,
            |n| n.to_owned(),
        );
        let text = hm.render();
        assert_eq!(text.lines().count(), 1 + 3 + 1);
        assert!(text.contains('█'), "max cell should be full shade:\n{text}");
    }

    #[test]
    fn merged_labels_sum_series() {
        let mut db = TimeSeriesStore::new();
        for core in 0..2 {
            let topic: Topic = format!("n/a/core/{core}/instret").parse().unwrap();
            db.insert(&topic, Payload::new(10.0, SimTime::from_secs(1)));
        }
        let hm = Heatmap::from_store(
            "merged",
            &db,
            &"n/+/core/+/instret".parse().unwrap(),
            SimTime::ZERO,
            SimTime::from_secs(2),
            1,
            Aggregation::Mean,
            |_| "node-a".to_owned(),
        );
        assert_eq!(hm.rows, vec!["node-a"]);
        assert_eq!(hm.values[0][0], Some(20.0));
    }

    #[test]
    fn sparkline_reflects_the_trend() {
        let db = store();
        let line = sparkline(
            &db,
            "node/mc-01/instret",
            SimTime::ZERO,
            SimTime::from_secs(30),
            10,
        );
        assert_eq!(line.chars().count(), 10);
        assert_eq!(line.chars().next(), Some('▁'));
        assert_eq!(line.chars().last(), Some('█'));
    }

    #[test]
    fn sparkline_of_missing_series_is_empty() {
        let db = TimeSeriesStore::new();
        assert!(sparkline(&db, "nope", SimTime::ZERO, SimTime::from_secs(1), 5).is_empty());
    }
}
