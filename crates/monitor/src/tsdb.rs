//! The time-series storage backend (ExaMon's KairosDB role).

use std::collections::BTreeMap;
use std::fmt;

use cimone_soc::units::{SimDuration, SimTime};

use crate::payload::Payload;
use crate::topic::{Topic, TopicFilter};

/// One stored data point.
pub type Point = (SimTime, f64);

/// Aggregation functions for range queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregation {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sum.
    Sum,
    /// Point count.
    Count,
    /// Last value in the range.
    Last,
}

impl Aggregation {
    fn apply(self, points: &[Point]) -> Option<f64> {
        if points.is_empty() {
            return None;
        }
        let values = points.iter().map(|(_, v)| *v);
        Some(match self {
            Aggregation::Mean => values.sum::<f64>() / points.len() as f64,
            Aggregation::Min => values.fold(f64::INFINITY, f64::min),
            Aggregation::Max => values.fold(f64::NEG_INFINITY, f64::max),
            Aggregation::Sum => values.sum(),
            Aggregation::Count => points.len() as f64,
            Aggregation::Last => points.last().map(|(_, v)| *v).expect("non-empty"),
        })
    }
}

impl fmt::Display for Aggregation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Aggregation::Mean => "mean",
            Aggregation::Min => "min",
            Aggregation::Max => "max",
            Aggregation::Sum => "sum",
            Aggregation::Count => "count",
            Aggregation::Last => "last",
        };
        f.write_str(s)
    }
}

/// An in-memory, per-topic time-series store.
///
/// Points are kept time-sorted per series; out-of-order inserts are placed
/// correctly.
///
/// Storage is columnar: each series is one point column, and interned
/// [`TopicId`](crate::interner::TopicId)s map to column handles through a
/// dense index vector. The steady-state ingest path,
/// [`TimeSeriesStore::extend_series`] (one call per topic run from
/// [`Collector::pump`](crate::collector::Collector::pump)), is one O(1)
/// handle lookup per run plus a column extension, and a single
/// [`TimeSeriesStore::insert`] is a lookup plus a push — no string
/// rendering, hashing or tree walk per sample. Names are kept in a sorted
/// side index for the query paths.
///
/// # Examples
///
/// ```
/// use cimone_monitor::tsdb::{Aggregation, TimeSeriesStore};
/// use cimone_monitor::payload::Payload;
/// use cimone_soc::units::SimTime;
///
/// let mut db = TimeSeriesStore::new();
/// let topic = "sensors/temp".parse()?;
/// for i in 0..10u64 {
///     db.insert(&topic, Payload::new(i as f64, SimTime::from_secs(i)));
/// }
/// let mean = db
///     .aggregate("sensors/temp", SimTime::ZERO, SimTime::from_secs(100), Aggregation::Mean)
///     .unwrap();
/// assert_eq!(mean, 4.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesStore {
    /// Sorted series-name index → column handle.
    names: BTreeMap<String, u32>,
    /// Point columns, handle-indexed. Evicted columns are recycled via
    /// `free` (their capacity retained), never removed, so handles held in
    /// `by_topic` stay dense.
    columns: Vec<Column>,
    /// `TopicId::index()` → column handle, `NO_COLUMN` when unbound.
    by_topic: Vec<u32>,
    /// Recycled column handles of fully evicted series.
    free: Vec<u32>,
}

#[derive(Debug, Clone)]
struct Column {
    name: String,
    /// The bound `TopicId` raw value, `NO_TOPIC` when unknown (series
    /// restored from serialization and not yet touched by an insert).
    topic: u32,
    points: Vec<Point>,
}

const NO_COLUMN: u32 = u32::MAX;
const NO_TOPIC: u32 = u32::MAX;

/// Sorted insert preserving the time order (fast path: append).
fn place(points: &mut Vec<Point>, payload: Payload) {
    let point = (payload.timestamp, payload.value);
    match points.last() {
        Some((last, _)) if *last > payload.timestamp => {
            // Out-of-order arrival: binary-search the slot.
            let idx = points.partition_point(|(t, _)| *t <= payload.timestamp);
            points.insert(idx, point);
        }
        _ => points.push(point),
    }
}

impl TimeSeriesStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TimeSeriesStore::default()
    }

    /// Resolves (binding or creating as needed) the column handle for
    /// `topic`. Steady state this is one dense-vector load.
    fn handle(&mut self, topic: &Topic) -> usize {
        let idx = topic.id().index();
        if let Some(&column) = self.by_topic.get(idx) {
            if column != NO_COLUMN {
                return column as usize;
            }
        }
        self.handle_slow(topic, idx)
    }

    /// First sight of this topic: bind an existing same-named series
    /// (deserialized, or re-created after eviction) or open a new column.
    fn handle_slow(&mut self, topic: &Topic, idx: usize) -> usize {
        if self.by_topic.len() <= idx {
            self.by_topic.resize(idx + 1, NO_COLUMN);
        }
        let column = match self.names.get(topic.as_str()) {
            Some(&column) => column,
            None => {
                let column = match self.free.pop() {
                    Some(recycled) => recycled,
                    None => {
                        self.columns.push(Column {
                            name: String::new(),
                            topic: NO_TOPIC,
                            points: Vec::new(),
                        });
                        (self.columns.len() - 1) as u32
                    }
                };
                let slot = &mut self.columns[column as usize];
                slot.name.clear();
                slot.name.push_str(topic.as_str());
                slot.points.clear();
                self.names.insert(topic.as_str().to_owned(), column);
                column
            }
        };
        self.columns[column as usize].topic = topic.id().as_u32();
        self.by_topic[idx] = column;
        column as usize
    }

    /// Inserts one sample under `topic`.
    pub fn insert(&mut self, topic: &Topic, payload: Payload) {
        let column = self.handle(topic);
        place(&mut self.columns[column].points, payload);
    }

    /// Bulk-appends points of a single series: one handle resolution for
    /// the whole run, and a straight `memcpy`-style column extension when
    /// the run is internally time-sorted and starts at or after the column
    /// tail (the steady-state shape — the collector stages its deliveries
    /// per topic and lands each run with one call). Out-of-order runs fall back to
    /// per-point sorted insertion; the stored column is identical to
    /// calling [`TimeSeriesStore::insert`] once per point in order.
    pub fn extend_series(&mut self, topic: &Topic, points: &[Point]) {
        if points.is_empty() {
            return;
        }
        let column = self.handle(topic);
        let col = &mut self.columns[column].points;
        let sorted = points.windows(2).all(|w| w[0].0 <= w[1].0);
        if sorted && col.last().is_none_or(|(t, _)| *t <= points[0].0) {
            col.extend_from_slice(points);
        } else {
            for &(t, v) in points {
                place(col, Payload::new(v, t));
            }
        }
    }

    /// Reserves room for `additional` further points on every series —
    /// lets a steady-state ingest loop run allocation-free over a known
    /// horizon (the zero-allocation probe uses this).
    pub fn reserve_points(&mut self, additional: usize) {
        for column in &mut self.columns {
            column.points.reserve(additional);
        }
    }

    /// Series names, sorted.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.names.keys().map(String::as_str)
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.names.len()
    }

    /// Total stored points.
    pub fn point_count(&self) -> usize {
        self.names
            .values()
            .map(|&c| self.columns[c as usize].points.len())
            .sum()
    }

    /// Whether the store has no data.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn points_of(&self, series: &str) -> Option<&Vec<Point>> {
        self.names
            .get(series)
            .map(|&c| &self.columns[c as usize].points)
    }

    /// Points of `series` in `[from, to)`.
    pub fn query(&self, series: &str, from: SimTime, to: SimTime) -> &[Point] {
        match self.points_of(series) {
            None => &[],
            Some(points) => {
                let lo = points.partition_point(|(t, _)| *t < from);
                let hi = points.partition_point(|(t, _)| *t < to);
                &points[lo..hi]
            }
        }
    }

    /// The latest point of `series`.
    pub fn latest(&self, series: &str) -> Option<Point> {
        self.points_of(series).and_then(|p| p.last().copied())
    }

    /// Aggregates `series` over `[from, to)`.
    pub fn aggregate(
        &self,
        series: &str,
        from: SimTime,
        to: SimTime,
        aggregation: Aggregation,
    ) -> Option<f64> {
        aggregation.apply(self.query(series, from, to))
    }

    /// Downsamples `series` over `[from, to)` into fixed `bin`s, applying
    /// `aggregation` per bin. Empty bins are omitted.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn downsample(
        &self,
        series: &str,
        from: SimTime,
        to: SimTime,
        bin: SimDuration,
        aggregation: Aggregation,
    ) -> Vec<Point> {
        assert!(!bin.is_zero(), "bin width must be non-zero");
        let mut out = Vec::new();
        let mut bin_start = from;
        while bin_start < to {
            let bin_end = (bin_start + bin).min(to);
            if let Some(v) = self.aggregate(series, bin_start, bin_end, aggregation) {
                out.push((bin_start, v));
            }
            bin_start = bin_end;
        }
        out
    }

    /// Drops every point older than `cutoff` (retention policy: the
    /// paper's ODA deployments cap storage by age). Series left empty are
    /// removed entirely (their columns recycled). Returns the number of
    /// points evicted.
    pub fn evict_before(&mut self, cutoff: SimTime) -> usize {
        let mut evicted = 0;
        let columns = &mut self.columns;
        let by_topic = &mut self.by_topic;
        let free = &mut self.free;
        self.names.retain(|_, &mut column| {
            let slot = &mut columns[column as usize];
            let keep_from = slot.points.partition_point(|(t, _)| *t < cutoff);
            evicted += keep_from;
            slot.points.drain(..keep_from);
            if slot.points.is_empty() {
                // Unbind and recycle the column (capacity retained).
                if slot.topic != NO_TOPIC {
                    by_topic[slot.topic as usize] = NO_COLUMN;
                    slot.topic = NO_TOPIC;
                }
                slot.name.clear();
                free.push(column);
                false
            } else {
                true
            }
        });
        evicted
    }

    /// Keeps only the trailing `window` of data relative to `now`.
    pub fn retain_window(&mut self, now: SimTime, window: SimDuration) -> usize {
        let cutoff = if now.as_micros() >= window.as_micros() {
            now - window
        } else {
            SimTime::ZERO
        };
        self.evict_before(cutoff)
    }

    /// All series whose name (as a topic) matches `filter`, with their
    /// points in `[from, to)`; series with no points in range are omitted.
    pub fn query_filter(
        &self,
        filter: &TopicFilter,
        from: SimTime,
        to: SimTime,
    ) -> BTreeMap<String, Vec<Point>> {
        let mut out = BTreeMap::new();
        for name in self.names.keys() {
            let Ok(topic) = name.parse::<Topic>() else {
                continue;
            };
            if filter.matches(&topic) {
                let points = self.query(name, from, to);
                if !points.is_empty() {
                    out.insert(name.clone(), points.to_vec());
                }
            }
        }
        out
    }
}

/// Stores compare by content: same series names with the same point runs,
/// regardless of column layout, topic bindings or recycled slots.
impl PartialEq for TimeSeriesStore {
    fn eq(&self, other: &Self) -> bool {
        self.names.len() == other.names.len()
            && self.names.iter().zip(other.names.iter()).all(
                |((a_name, &a_col), (b_name, &b_col))| {
                    a_name == b_name
                        && self.columns[a_col as usize].points
                            == other.columns[b_col as usize].points
                },
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(series: &str, points: &[(u64, f64)]) -> TimeSeriesStore {
        let mut db = TimeSeriesStore::new();
        let topic: Topic = series.parse().unwrap();
        for (t, v) in points {
            db.insert(&topic, Payload::new(*v, SimTime::from_secs(*t)));
        }
        db
    }

    #[test]
    fn range_queries_are_half_open() {
        let db = store_with("s", &[(0, 1.0), (5, 2.0), (10, 3.0)]);
        let pts = db.query("s", SimTime::from_secs(0), SimTime::from_secs(10));
        assert_eq!(pts.len(), 2);
        let all = db.query("s", SimTime::ZERO, SimTime::from_secs(11));
        assert_eq!(all.len(), 3);
        assert!(db
            .query("missing", SimTime::ZERO, SimTime::from_secs(1))
            .is_empty());
    }

    #[test]
    fn out_of_order_inserts_are_sorted() {
        let db = store_with("s", &[(10, 3.0), (0, 1.0), (5, 2.0)]);
        let pts = db.query("s", SimTime::ZERO, SimTime::from_secs(100));
        let times: Vec<u64> = pts.iter().map(|(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![0, 5_000_000, 10_000_000]);
    }

    #[test]
    fn aggregations() {
        let db = store_with("s", &[(0, 1.0), (1, 5.0), (2, 3.0)]);
        let range = (SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(
            db.aggregate("s", range.0, range.1, Aggregation::Mean),
            Some(3.0)
        );
        assert_eq!(
            db.aggregate("s", range.0, range.1, Aggregation::Min),
            Some(1.0)
        );
        assert_eq!(
            db.aggregate("s", range.0, range.1, Aggregation::Max),
            Some(5.0)
        );
        assert_eq!(
            db.aggregate("s", range.0, range.1, Aggregation::Sum),
            Some(9.0)
        );
        assert_eq!(
            db.aggregate("s", range.0, range.1, Aggregation::Count),
            Some(3.0)
        );
        assert_eq!(
            db.aggregate("s", range.0, range.1, Aggregation::Last),
            Some(3.0)
        );
        assert_eq!(db.aggregate("s", range.1, range.1, Aggregation::Mean), None);
    }

    #[test]
    fn downsampling_bins_correctly() {
        let db = store_with("s", &[(0, 2.0), (1, 4.0), (10, 10.0), (11, 20.0)]);
        let bins = db.downsample(
            "s",
            SimTime::ZERO,
            SimTime::from_secs(20),
            SimDuration::from_secs(10),
            Aggregation::Mean,
        );
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0], (SimTime::ZERO, 3.0));
        assert_eq!(bins[1], (SimTime::from_secs(10), 15.0));
    }

    #[test]
    fn filter_queries_group_series() {
        let mut db = TimeSeriesStore::new();
        for node in ["a", "b"] {
            let topic: Topic = format!("node/{node}/temp").parse().unwrap();
            db.insert(&topic, Payload::new(40.0, SimTime::from_secs(1)));
        }
        let other: Topic = "node/a/power".parse().unwrap();
        db.insert(&other, Payload::new(5.0, SimTime::from_secs(1)));
        let filter: TopicFilter = "node/+/temp".parse().unwrap();
        let grouped = db.query_filter(&filter, SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(grouped.len(), 2);
        assert!(grouped.contains_key("node/a/temp"));
        assert!(grouped.contains_key("node/b/temp"));
    }

    #[test]
    fn retention_evicts_old_points_and_empty_series() {
        let mut db = store_with("old", &[(0, 1.0), (5, 2.0)]);
        let topic: Topic = "fresh".parse().unwrap();
        db.insert(&topic, Payload::new(9.0, SimTime::from_secs(100)));
        let evicted = db.evict_before(SimTime::from_secs(50));
        assert_eq!(evicted, 2);
        assert_eq!(db.series_count(), 1, "empty series removed");
        assert!(db.latest("fresh").is_some());
        assert!(db
            .query("old", SimTime::ZERO, SimTime::from_secs(1000))
            .is_empty());
    }

    #[test]
    fn retain_window_keeps_the_trailing_span() {
        let mut db = store_with("s", &[(0, 1.0), (50, 2.0), (99, 3.0)]);
        db.retain_window(SimTime::from_secs(100), SimDuration::from_secs(60));
        let points = db.query("s", SimTime::ZERO, SimTime::from_secs(1000));
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].0, SimTime::from_secs(50));
        // A window larger than the history evicts nothing.
        assert_eq!(
            db.retain_window(SimTime::from_secs(100), SimDuration::from_secs(9999)),
            0
        );
    }

    #[test]
    fn latest_returns_newest_point() {
        let db = store_with("s", &[(3, 1.0), (7, 9.0)]);
        assert_eq!(db.latest("s"), Some((SimTime::from_secs(7), 9.0)));
        assert_eq!(db.latest("missing"), None);
    }

    /// `extend_series` must store exactly what per-point `insert` would,
    /// through both its paths: the sorted tail-append fast path and the
    /// out-of-order fallback (runs that are internally unsorted, or start
    /// before the existing column tail).
    #[test]
    fn extend_series_matches_per_point_inserts() {
        let topic: Topic = "ext/equiv".parse().unwrap();
        let runs: [&[(u64, f64)]; 4] = [
            &[(0, 1.0), (5, 2.0), (10, 3.0)],   // sorted, fresh column
            &[(10, 4.0), (20, 5.0)],            // sorted, starts at the tail
            &[(30, 8.0), (25, 7.0), (40, 9.0)], // internally unsorted
            &[(15, 6.0)],                       // starts before the tail
        ];
        let mut bulk = TimeSeriesStore::new();
        let mut reference = TimeSeriesStore::new();
        for run in runs {
            let points: Vec<Point> = run
                .iter()
                .map(|&(t, v)| (SimTime::from_secs(t), v))
                .collect();
            bulk.extend_series(&topic, &points);
            for &(t, v) in &points {
                reference.insert(&topic, Payload::new(v, t));
            }
        }
        let all = (SimTime::ZERO, SimTime::from_secs(1000));
        assert_eq!(
            bulk.query("ext/equiv", all.0, all.1),
            reference.query("ext/equiv", all.0, all.1),
        );
    }

    #[test]
    fn extend_series_with_empty_run_creates_nothing() {
        let mut db = TimeSeriesStore::new();
        let topic: Topic = "ext/empty".parse().unwrap();
        db.extend_series(&topic, &[]);
        assert_eq!(db.series_count(), 0);
    }

    /// Fully evicting a series frees its column for recycling; a new
    /// series then reuses the slot, and the evicted topic rebinds to a
    /// fresh column if it comes back — with no stale points either way.
    #[test]
    fn evicted_columns_are_recycled_and_rebind_cleanly() {
        let mut db = store_with("dead", &[(0, 1.0), (1, 2.0)]);
        db.evict_before(SimTime::from_secs(50));
        assert_eq!(db.series_count(), 0);

        // A different topic takes over the recycled column slot.
        let newcomer: Topic = "alive".parse().unwrap();
        db.insert(&newcomer, Payload::new(7.0, SimTime::from_secs(60)));
        assert_eq!(db.series_count(), 1);
        assert_eq!(
            db.query("alive", SimTime::ZERO, SimTime::from_secs(1000)),
            &[(SimTime::from_secs(60), 7.0)],
        );

        // The evicted topic returns: it must not see the newcomer's
        // points or its own evicted history.
        let revenant: Topic = "dead".parse().unwrap();
        db.insert(&revenant, Payload::new(9.0, SimTime::from_secs(70)));
        assert_eq!(db.series_count(), 2);
        assert_eq!(
            db.query("dead", SimTime::ZERO, SimTime::from_secs(1000)),
            &[(SimTime::from_secs(70), 9.0)],
        );
        assert_eq!(
            db.query("alive", SimTime::ZERO, SimTime::from_secs(1000)),
            &[(SimTime::from_secs(60), 7.0)],
        );
    }
}
