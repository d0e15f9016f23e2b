//! The time-series storage backend (ExaMon's KairosDB role).
//!
//! Each series is two columns: its values, one `f64` per point, and its
//! point times as *time runs*. A time run is a maximal arithmetic
//! progression of integer-microsecond timestamps, `{start, step, first,
//! len}`. The engine samples every series on a fixed tick comb, so a
//! series holds one run per regular stretch, and a point costs 8 bytes
//! instead of a 16-byte `(SimTime, f64)` pair. The values sit in fixed
//! 4 KiB pages, so a growing series never copies a value and holds less
//! than one page of slack. Reads never copy: a range query returns a
//! [`SeriesView`] that borrows the pages and decodes times from the runs
//! as it is read, and downsampling cuts its bins with the run arithmetic
//! in one pass over the range.

use std::collections::BTreeMap;
use std::fmt;

use cimone_soc::units::{SimDuration, SimTime};

use crate::payload::Payload;
use crate::topic::{Topic, TopicFilter};

/// One data point: a sample time and its value.
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
    /// Folds `values` in order (a sequential sum, never pairwise), so a
    /// result is bit-identical however the range was cut or paged.
    fn apply(self, values: Values<'_>) -> Option<f64> {
        let last = values.last()?;
        let count = values.len();
        let values = values.iter();
        Some(match self {
            Aggregation::Mean => values.sum::<f64>() / count as f64,
            Aggregation::Min => values.fold(f64::INFINITY, f64::min),
            Aggregation::Max => values.fold(f64::NEG_INFINITY, f64::max),
            Aggregation::Sum => values.sum(),
            Aggregation::Count => count as f64,
            Aggregation::Last => last,
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

/// `len` point times from `start`, `step` µs apart, for the values at
/// column indices `first..first + len`. A one-point run's `step` is not
/// yet fixed: the next in-order point joins it and sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimeRun {
    start: u64,
    step: u64,
    first: usize,
    len: usize,
}

impl TimeRun {
    /// Time of the run's last point.
    fn last(&self) -> u64 {
        self.start + self.step * (self.len - 1) as u64
    }

    /// Column index one past the run's last point.
    fn end(&self) -> usize {
        self.first + self.len
    }

    /// Time of the point at column index `at`, which the run holds.
    fn time_at(&self, at: usize) -> u64 {
        self.start + self.step * (at - self.first) as u64
    }

    /// How many of the run's points are timed before `t`.
    fn count_before(&self, t: u64) -> usize {
        if t <= self.start {
            0
        } else if self.step == 0 {
            self.len
        } else {
            ((t - self.start).div_ceil(self.step) as usize).min(self.len)
        }
    }
}

/// Appends time `t`, at or after the last run's end, for the value at
/// column index `at`: the last run takes it if `t` continues its
/// progression, and a new run opens otherwise.
#[inline]
fn push_time(runs: &mut Vec<TimeRun>, t: u64, at: usize) {
    if let Some(run) = runs.last_mut() {
        let gap = t - run.last();
        if run.len == 1 {
            run.step = gap;
        }
        if gap == run.step {
            run.len += 1;
            return;
        }
    }
    runs.push(TimeRun {
        start: t,
        step: 0,
        first: at,
        len: 1,
    });
}

/// The times of the points `runs` hold at column index `from` and after,
/// in order.
fn times(runs: &[TimeRun], from: usize) -> impl Iterator<Item = u64> + '_ {
    runs.iter()
        .flat_map(move |run| (run.first.max(from)..run.end()).map(move |at| run.time_at(at)))
}

/// Values per page: 512 `f64`s, 4 KiB.
const PAGE: usize = 512;

/// One series' values in fixed pages. Full pages are boxed arrays; the
/// open page, which takes the appends, is a `Vec` held inline. The first
/// open page grows like a `Vec` (4, 8, … 512 values), so a short series
/// costs what a `Vec` would; a full open page is sealed into a box
/// without a copy, and the next one opens at a whole page. Growth never
/// moves a value, and the slack stays under one page (plus whatever
/// [`Pages::reserve`] set aside).
#[derive(Debug, Clone, Default)]
struct Pages {
    full: Vec<Box<[f64; PAGE]>>,
    /// The values after the full pages: at most `PAGE`, and at least one
    /// while there is a full page. Its capacity never exceeds `PAGE`.
    open: Vec<f64>,
    /// Empty pages set aside by `reserve`, taken as the open page fills.
    spare: Vec<Vec<f64>>,
}

impl Pages {
    fn len(&self) -> usize {
        self.full.len() * PAGE + self.open.len()
    }

    fn is_empty(&self) -> bool {
        self.full.is_empty() && self.open.is_empty()
    }

    /// Values the pages hold room for, reserved pages included.
    fn capacity(&self) -> usize {
        (self.full.len() + self.spare.len()) * PAGE + self.open.capacity()
    }

    /// The values at column indices `start..end`.
    fn range(&self, start: usize, end: usize) -> Values<'_> {
        debug_assert!(start <= end && end <= self.len());
        Values {
            full: &self.full,
            open: &self.open,
            start,
            end,
        }
    }

    fn all(&self) -> Values<'_> {
        self.range(0, self.len())
    }

    #[inline]
    fn push(&mut self, v: f64) {
        if self.open.len() == self.open.capacity() {
            self.grow();
        }
        self.open.push(v);
    }

    /// Makes room for one more value: doubles a short first page (up to a
    /// page), or seals a full open page and opens the next, a reserved
    /// one if there is one.
    #[cold]
    fn grow(&mut self) {
        let len = self.open.len();
        if len < PAGE {
            self.open.reserve_exact((2 * len).clamp(4, PAGE) - len);
            return;
        }
        let next = self.spare.pop().unwrap_or_else(|| Vec::with_capacity(PAGE));
        // A `Vec` whose length is its capacity boxes without a copy.
        let sealed = std::mem::replace(&mut self.open, next).into_boxed_slice();
        self.full
            .push(sealed.try_into().expect("a sealed page holds PAGE values"));
    }

    /// Reserves room for `additional` more values, so that many pushes
    /// allocate nothing.
    fn reserve(&mut self, additional: usize) {
        let room = self.open.len() + additional;
        self.open
            .reserve_exact(room.min(PAGE).saturating_sub(self.open.len()));
        let seals = room.saturating_sub(1) / PAGE;
        self.full.reserve(seals);
        if self.spare.len() < seals {
            self.spare.resize_with(seals, || Vec::with_capacity(PAGE));
        }
    }

    /// Inserts `v` at index `at`, moving every later value up one slot.
    fn insert(&mut self, at: usize, mut v: f64) {
        let split = self.full.len() * PAGE;
        if at < split {
            for (i, page) in self.full[at / PAGE..].iter_mut().enumerate() {
                let from = if i == 0 { at % PAGE } else { 0 };
                page[from..].rotate_right(1);
                std::mem::swap(&mut page[from], &mut v);
            }
        }
        let from = at.saturating_sub(split);
        if from < self.open.len() {
            self.open[from..].rotate_right(1);
            std::mem::swap(&mut self.open[from], &mut v);
        }
        self.push(v);
    }

    /// Drops the first `n` values, moving the rest down: whole pages go
    /// at once, and the values left shift by the remainder page by page.
    fn drain_front(&mut self, n: usize) {
        let len = self.len();
        if n >= len {
            return self.truncate(0);
        }
        // `n < len`, so at most every full page goes.
        self.full.drain(..n / PAGE);
        let shift = n % PAGE;
        if shift > 0 {
            for i in 0..self.full.len() {
                let (page, later) = self.full[i..].split_first_mut().expect("in range");
                page.copy_within(shift.., 0);
                let next = match later.first() {
                    Some(next) => &next[..shift],
                    None => &self.open[..shift.min(self.open.len())],
                };
                page[PAGE - shift..][..next.len()].copy_from_slice(next);
            }
            self.open.drain(..shift.min(self.open.len()));
        }
        self.truncate(len - n);
    }

    /// Keeps the first `len` values, at most as many as there are, and
    /// frees the pages after them; the last page kept becomes the open
    /// page.
    fn truncate(&mut self, len: usize) {
        let pages = len.div_ceil(PAGE);
        if pages <= self.full.len() {
            self.full.truncate(pages);
            self.open = self.full.pop().map_or_else(Vec::new, |page| {
                let page: Box<[f64]> = page;
                page.into_vec()
            });
        }
        self.open.truncate(len - self.full.len() * PAGE);
    }
}

/// One series: its topic, its values and the time runs that time them.
#[derive(Debug, Clone)]
struct Column {
    /// The series' topic. A freed column keeps its last topic until a
    /// new series takes the slot.
    topic: Topic,
    values: Pages,
    runs: Vec<TimeRun>,
}

impl Column {
    fn last_time(&self) -> Option<u64> {
        self.runs.last().map(TimeRun::last)
    }

    /// Column index of the first point timed at or after `t`.
    fn index_of(&self, t: u64) -> usize {
        let k = self.runs.partition_point(|run| run.last() < t);
        self.runs
            .get(k)
            .map_or(self.values.len(), |run| run.first + run.count_before(t))
    }

    /// The points in `[from, to)`.
    fn view(&self, from: SimTime, to: SimTime) -> SeriesView<'_> {
        let lo = self.index_of(from.as_micros());
        let hi = self.index_of(to.as_micros()).max(lo);
        let a = self.runs.partition_point(|run| run.end() <= lo);
        let b = self.runs.partition_point(|run| run.first < hi).max(a);
        SeriesView {
            runs: &self.runs[a..b],
            values: self.values.range(lo, hi),
        }
    }

    /// Inserts one point after every point timed at or before it. The
    /// steady-state point continues the last run's comb: one compare.
    #[inline]
    fn place(&mut self, (t, v): Point) {
        let t = t.as_micros();
        let comb = |run: &&mut TimeRun| run.len > 1 && t.checked_sub(run.last()) == Some(run.step);
        if let Some(run) = self.runs.last_mut().filter(comb) {
            run.len += 1;
        } else if self.last_time().is_some_and(|last| last > t) {
            return self.place_out_of_order(t, v);
        } else {
            push_time(&mut self.runs, t, self.values.len());
        }
        self.values.push(v);
    }

    /// Decodes the runs from the one holding the slot of `t`, inserts the
    /// point there, and encodes them again.
    #[cold]
    fn place_out_of_order(&mut self, t: u64, v: f64) {
        let at = self.index_of(t + 1);
        let k = self.runs.partition_point(|run| run.end() <= at);
        let first = self.runs[k].first;
        let mut times: Vec<u64> = times(&self.runs[k..], 0).collect();
        times.insert(at - first, t);
        self.values.insert(at, v);
        self.runs.truncate(k);
        for (i, time) in times.into_iter().enumerate() {
            push_time(&mut self.runs, time, first + i);
        }
    }

    /// Drops the points timed before `cutoff`; returns how many.
    fn evict_before(&mut self, cutoff: u64) -> usize {
        let evicted = self.index_of(cutoff);
        let k = self.runs.partition_point(|run| run.end() <= evicted);
        self.runs.drain(..k);
        if let Some(run) = self.runs.first_mut() {
            let skip = evicted - run.first;
            run.start += run.step * skip as u64;
            run.first = evicted;
            run.len -= skip;
        }
        for run in &mut self.runs {
            run.first -= evicted;
        }
        self.values.drain_front(evicted);
        evicted
    }

    /// The same values (by `==`) at the same times, however the runs
    /// split them.
    fn same_points(&self, other: &Column) -> bool {
        let (ours, theirs) = (self.values.all(), other.values.all());
        // Both ranges start at index 0, so their pages line up.
        ours.len() == theirs.len()
            && ours.chunks().eq(theirs.chunks())
            && (self.runs == other.runs || times(&self.runs, 0).eq(times(&other.runs, 0)))
    }
}

/// A borrowed range of one series' values, in time order, read page by
/// page: [`Values::chunks`] yields one slice per page the range touches.
///
/// Returned by [`SeriesView::values`]; it copies nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Values<'a> {
    full: &'a [Box<[f64; PAGE]>],
    open: &'a [f64],
    /// The range's column indices, `start..end`.
    start: usize,
    end: usize,
}

impl<'a> Values<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range holds no value.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The values as contiguous slices, one per page the range touches,
    /// in order; none is empty.
    pub fn chunks(&self) -> impl Iterator<Item = &'a [f64]> + 'a {
        let Values {
            full,
            open,
            start,
            end,
        } = *self;
        let pages = if start < end {
            start / PAGE..(end - 1) / PAGE + 1
        } else {
            0..0
        };
        pages.map(move |p| {
            let page = full.get(p).map_or(open, |page| &page[..]);
            let base = p * PAGE;
            &page[start.max(base) - base..end.min(base + PAGE) - base]
        })
    }

    /// The values, in order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.chunks().flatten().copied()
    }

    /// The last value.
    pub fn last(&self) -> Option<f64> {
        let at = self.end.checked_sub(1).filter(|&at| at >= self.start)?;
        Some(match self.full.get(at / PAGE) {
            Some(page) => page[at % PAGE],
            None => self.open[at - self.full.len() * PAGE],
        })
    }

    /// The values, copied out.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// The values at column indices `start..end`, within this range.
    fn slice(&self, start: usize, end: usize) -> Values<'a> {
        debug_assert!(self.start <= start && start <= end && end <= self.end);
        Values {
            start,
            end,
            ..*self
        }
    }
}

/// A borrowed range of one series, in time order: its values, read page
/// by page, and its times decoded from the time runs as they are read.
///
/// Returned by [`TimeSeriesStore::query`] and
/// [`TimeSeriesStore::query_filter`]; it copies nothing.
///
/// # Examples
///
/// ```
/// use cimone_monitor::payload::Payload;
/// use cimone_monitor::tsdb::TimeSeriesStore;
/// use cimone_soc::units::SimTime;
///
/// let mut db = TimeSeriesStore::new();
/// let topic = "sensors/temp".parse()?;
/// for i in 0..10u64 {
///     db.insert(&topic, Payload::new(i as f64, SimTime::from_secs(i)));
/// }
/// let view = db.query("sensors/temp", SimTime::from_secs(2), SimTime::from_secs(5));
/// assert_eq!(view.values().to_vec(), [2.0, 3.0, 4.0]);
/// assert_eq!(view.values().last(), Some(4.0));
/// assert_eq!(view.iter().next(), Some((SimTime::from_secs(2), 2.0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SeriesView<'a> {
    /// The runs holding the view's points; the first and last may hold
    /// points outside it.
    runs: &'a [TimeRun],
    values: Values<'a>,
}

impl<'a> SeriesView<'a> {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the view holds no point.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values, in time order.
    pub fn values(&self) -> Values<'a> {
        self.values
    }

    /// The points, in time order.
    pub fn iter(&self) -> impl Iterator<Item = Point> + 'a {
        // The last run may time points past the view: the values end it.
        times(self.runs, self.values.start)
            .zip(self.values.iter())
            .map(|(t, v)| (SimTime::from_micros(t), v))
    }

    /// The points, copied out.
    pub fn to_vec(&self) -> Vec<Point> {
        self.iter().collect()
    }

    /// Aggregates the points into bins of `bin` aligned on `origin` (at or
    /// before the view's first point), calling `emit(index, value)` for
    /// every non-empty bin `[origin + index·bin, origin + (index + 1)·bin)`
    /// in order. One pass: each bin's end is found with the run
    /// arithmetic, and the walk stops when the points run out.
    pub(crate) fn downsample(
        &self,
        origin: SimTime,
        bin: SimDuration,
        aggregation: Aggregation,
        mut emit: impl FnMut(u64, f64),
    ) {
        let (origin, bin) = (origin.as_micros(), bin.as_micros());
        let end = self.values.end;
        let mut at = self.values.start;
        // The run holding `at`.
        let mut r = 0;
        while at < end {
            let index = (self.runs[r].time_at(at) - origin) / bin;
            let bin_end = (origin + index * bin).saturating_add(bin);
            while r + 1 < self.runs.len() && self.runs[r].last() < bin_end {
                r += 1;
            }
            let run = &self.runs[r];
            let stop = (run.first + run.count_before(bin_end)).min(end);
            let values = self.values.slice(at, stop);
            emit(
                index,
                aggregation.apply(values).expect("a bin holds a point"),
            );
            at = stop;
        }
    }
}

/// An in-memory, per-topic time-series store.
///
/// Points are kept time-sorted per series; out-of-order inserts are placed
/// after every point with an equal or earlier timestamp.
///
/// Storage is columnar: each series is a value column plus its time runs
/// (see the [module docs](self)), and interned
/// [`TopicId`](crate::interner::TopicId)s map to column handles through a
/// dense index vector. The steady-state ingest path,
/// [`TimeSeriesStore::insert`] (one call per sample from the
/// [`Collector`](crate::collector::Collector)), is an O(1) handle lookup
/// plus a push — no string rendering, hashing or tree walk per sample.
/// Names are kept in a sorted side index for the query paths.
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
    /// Columns, handle-indexed. Evicted columns are recycled via `free`,
    /// never removed, so handles held in `by_topic` stay dense.
    columns: Vec<Column>,
    /// `TopicId::index()` → column handle, `NO_COLUMN` when unbound.
    by_topic: Vec<u32>,
    /// Recycled column handles of fully evicted series.
    free: Vec<u32>,
}

const NO_COLUMN: u32 = u32::MAX;

impl TimeSeriesStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TimeSeriesStore::default()
    }

    /// Resolves (opening one as needed) the column of `topic`. Steady
    /// state this is one dense-vector load.
    fn column_mut(&mut self, topic: &Topic) -> &mut Column {
        let column = match self.by_topic.get(topic.id().index()) {
            Some(&column) if column != NO_COLUMN => column,
            _ => self.open(topic),
        };
        &mut self.columns[column as usize]
    }

    /// First sight of `topic` (or its return after eviction): binds it to
    /// a recycled or new column.
    #[cold]
    fn open(&mut self, topic: &Topic) -> u32 {
        let idx = topic.id().index();
        if self.by_topic.len() <= idx {
            self.by_topic.resize(idx + 1, NO_COLUMN);
        }
        let column = match self.free.pop() {
            Some(recycled) => {
                self.columns[recycled as usize].topic = *topic;
                recycled
            }
            None => {
                self.columns.push(Column {
                    topic: *topic,
                    values: Pages::default(),
                    runs: Vec::new(),
                });
                (self.columns.len() - 1) as u32
            }
        };
        self.names.insert(topic.as_str().to_owned(), column);
        self.by_topic[idx] = column;
        column
    }

    /// Inserts one sample under `topic`.
    #[inline]
    pub fn insert(&mut self, topic: &Topic, payload: Payload) {
        self.column_mut(topic)
            .place((payload.timestamp, payload.value));
    }

    /// Reserves room for `additional` further points on every series (the
    /// pages they will fill, allocated now), and for one more time run (a
    /// gap in a regular comb opens one) — lets a steady-state ingest loop
    /// run allocation-free over a known horizon (the zero-allocation
    /// probes use this).
    pub fn reserve_points(&mut self, additional: usize) {
        for column in &mut self.columns {
            column.values.reserve(additional);
            column.runs.reserve(1);
        }
    }

    /// How many values `series`' pages hold room for: its points, the
    /// rest of its open page, and any pages [`reserve_points`] set aside
    /// (0 for an unknown series). A diagnostic of the paged layout: a
    /// series grown by inserts alone holds less than one page of slack.
    ///
    /// [`reserve_points`]: TimeSeriesStore::reserve_points
    pub fn value_capacity(&self, series: &str) -> usize {
        self.column(series)
            .map_or(0, |column| column.values.capacity())
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
            .map(|&c| self.columns[c as usize].values.len())
            .sum()
    }

    /// Whether the store has no data.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn column(&self, series: &str) -> Option<&Column> {
        self.names.get(series).map(|&c| &self.columns[c as usize])
    }

    /// Points of `series` in `[from, to)` (empty for an unknown series).
    pub fn query(&self, series: &str, from: SimTime, to: SimTime) -> SeriesView<'_> {
        self.column(series)
            .map_or_else(SeriesView::default, |column| column.view(from, to))
    }

    /// The latest point of `series`.
    pub fn latest(&self, series: &str) -> Option<Point> {
        let column = self.column(series)?;
        Some((
            SimTime::from_micros(column.last_time()?),
            column.values.all().last()?,
        ))
    }

    /// Aggregates `series` over `[from, to)`.
    pub fn aggregate(
        &self,
        series: &str,
        from: SimTime,
        to: SimTime,
        aggregation: Aggregation,
    ) -> Option<f64> {
        aggregation.apply(self.query(series, from, to).values())
    }

    /// Downsamples `series` over `[from, to)` into fixed `bin`s starting
    /// at `from`, applying `aggregation` per bin. Empty bins are omitted.
    /// The cost follows the points in range, not the range's length.
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
        self.query(series, from, to)
            .downsample(from, bin, aggregation, |index, v| {
                out.push((from + bin * index, v));
            });
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
            evicted += slot.evict_before(cutoff.as_micros());
            if slot.values.is_empty() {
                // Unbind and recycle the column (its pages are freed).
                by_topic[slot.topic.id().index()] = NO_COLUMN;
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

    /// Every series whose topic matches `filter`, with its points in
    /// `[from, to)`, in name order; series with no points in range are
    /// omitted. The topic's name is [`Topic::as_str`].
    pub fn query_filter<'a>(
        &'a self,
        filter: &'a TopicFilter,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = (Topic, SeriesView<'a>)> + 'a {
        self.names.values().filter_map(move |&c| {
            let column = &self.columns[c as usize];
            if !filter.matches(&column.topic) {
                return None;
            }
            let view = column.view(from, to);
            (!view.is_empty()).then_some((column.topic, view))
        })
    }
}

/// Stores compare by content: the same series names with the same values
/// (by `==`) at the same times, regardless of column layout, how the time
/// runs split the points, topic bindings or recycled slots.
impl PartialEq for TimeSeriesStore {
    fn eq(&self, other: &Self) -> bool {
        self.names.len() == other.names.len()
            && self.names.iter().zip(other.names.iter()).all(
                |((a_name, &a_col), (b_name, &b_col))| {
                    a_name == b_name
                        && self.columns[a_col as usize].same_points(&other.columns[b_col as usize])
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

    fn secs(points: &[(u64, f64)]) -> Vec<Point> {
        points
            .iter()
            .map(|&(t, v)| (SimTime::from_secs(t), v))
            .collect()
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

    /// Bins cut inside a run, across run boundaries and over duplicate
    /// timestamps hold exactly the points a per-bin range query holds.
    #[test]
    fn downsampling_cuts_bins_across_runs() {
        // Runs: 0,3,6,9 | 20,20,20 | 21,22 | 40.
        let db = store_with(
            "s",
            &[
                (0, 1.0),
                (3, 2.0),
                (6, 3.0),
                (9, 4.0),
                (20, 5.0),
                (20, 6.0),
                (20, 7.0),
                (21, 8.0),
                (22, 9.0),
                (40, 10.0),
            ],
        );
        for (from, to, bin) in [(0, 50, 4), (1, 41, 7), (3, 22, 1), (0, 100, 20), (5, 6, 3)] {
            let (from, to, bin) = (
                SimTime::from_secs(from),
                SimTime::from_secs(to),
                SimDuration::from_secs(bin),
            );
            let mut expected = Vec::new();
            let mut start = from;
            while start < to {
                let end = (start + bin).min(to);
                if let Some(v) = db.aggregate("s", start, end, Aggregation::Sum) {
                    expected.push((start, v));
                }
                start = end;
            }
            assert_eq!(
                db.downsample("s", from, to, bin, Aggregation::Sum),
                expected
            );
        }
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
        let names: Vec<String> = db
            .query_filter(&filter, SimTime::ZERO, SimTime::from_secs(10))
            .map(|(topic, _)| topic.to_string())
            .collect();
        assert_eq!(names, ["node/a/temp", "node/b/temp"]);
        assert_eq!(
            db.query_filter(&filter, SimTime::from_secs(2), SimTime::from_secs(10))
                .count(),
            0,
            "series with no point in range are omitted"
        );
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
        assert_eq!(points.to_vec(), secs(&[(50, 2.0), (99, 3.0)]));
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

    /// A regular comb is one time run, a gap opens one more, and trimming
    /// the front of a run keeps the rest of its progression.
    #[test]
    fn time_runs_follow_the_comb() {
        let topic: Topic = "runs/comb".parse().unwrap();
        let mut db = TimeSeriesStore::new();
        for i in 0..100u64 {
            db.insert(
                &topic,
                Payload::new(i as f64, SimTime::from_millis(500 * i)),
            );
        }
        let runs = |db: &TimeSeriesStore| db.column("runs/comb").unwrap().runs.clone();
        assert_eq!(
            runs(&db),
            [TimeRun {
                start: 0,
                step: 500_000,
                first: 0,
                len: 100
            }]
        );
        db.insert(&topic, Payload::new(7.0, SimTime::from_secs(60)));
        db.insert(&topic, Payload::new(8.0, SimTime::from_millis(60_500)));
        assert_eq!(runs(&db).len(), 2);
        assert_eq!(db.evict_before(SimTime::from_millis(1_200)), 3);
        assert_eq!(runs(&db)[0].start, 1_500_000);
        assert_eq!(
            db.query("runs/comb", SimTime::ZERO, SimTime::from_secs(1))
                .len(),
            0
        );
        assert_eq!(
            db.latest("runs/comb"),
            Some((SimTime::from_millis(60_500), 8.0))
        );
    }

    /// An open page whose capacity is no power of two (a clone's, or one
    /// sized by `reserve_points`) still grows to exactly one page, so it
    /// seals without a copy and the slack stays under a page.
    #[test]
    fn odd_capacity_pages_grow_to_one_page() {
        let points: Vec<(u64, f64)> = (0..300).map(|i| (i, i as f64)).collect();
        let cloned = store_with("s", &points).clone();
        let mut reserved = cloned.clone();
        reserved.reserve_points(20);
        let topic: Topic = "s".parse().unwrap();
        for mut db in [cloned, reserved] {
            for i in 300..1_500u64 {
                db.insert(&topic, Payload::new(i as f64, SimTime::from_secs(i)));
            }
            let pages = &db.column("s").unwrap().values;
            assert!(pages.open.capacity() <= PAGE);
            assert!(pages.capacity() < 1_500 + PAGE);
            let values = db
                .query("s", SimTime::ZERO, SimTime::from_secs(1_500))
                .values();
            assert!(values.to_vec().into_iter().eq((0..1_500).map(f64::from)));
        }
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
        let all = (SimTime::ZERO, SimTime::from_secs(1000));
        assert_eq!(db.query("alive", all.0, all.1).to_vec(), secs(&[(60, 7.0)]));

        // The evicted topic returns: it must not see the newcomer's
        // points or its own evicted history.
        let revenant: Topic = "dead".parse().unwrap();
        db.insert(&revenant, Payload::new(9.0, SimTime::from_secs(70)));
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.query("dead", all.0, all.1).to_vec(), secs(&[(70, 9.0)]));
        assert_eq!(db.query("alive", all.0, all.1).to_vec(), secs(&[(60, 7.0)]));
    }

    /// The reference model: one `Vec<Point>` per series, kept sorted by the
    /// rule the store implements — an out-of-order point goes after every
    /// point with an equal or earlier time.
    mod model {
        use std::collections::BTreeMap;

        use cimone_soc::units::SimTime;

        use crate::tsdb::{Aggregation, Point};

        pub(super) type Model = BTreeMap<&'static str, Vec<Point>>;

        pub(super) fn place(points: &mut Vec<Point>, point: Point) {
            match points.last() {
                Some(&(last, _)) if last > point.0 => {
                    let idx = points.partition_point(|&(t, _)| t <= point.0);
                    points.insert(idx, point);
                }
                _ => points.push(point),
            }
        }

        pub(super) fn query(points: &[Point], from: SimTime, to: SimTime) -> &[Point] {
            let lo = points.partition_point(|&(t, _)| t < from);
            let hi = points.partition_point(|&(t, _)| t < to).max(lo);
            &points[lo..hi]
        }

        pub(super) fn aggregate(points: &[Point], aggregation: Aggregation) -> Option<f64> {
            if points.is_empty() {
                return None;
            }
            let values = points.iter().map(|&(_, v)| v);
            Some(match aggregation {
                Aggregation::Mean => values.sum::<f64>() / points.len() as f64,
                Aggregation::Min => values.fold(f64::INFINITY, f64::min),
                Aggregation::Max => values.fold(f64::NEG_INFINITY, f64::max),
                Aggregation::Sum => values.sum(),
                Aggregation::Count => points.len() as f64,
                Aggregation::Last => points[points.len() - 1].1,
            })
        }

        /// Bin by bin, each a range query, as the store once did.
        pub(super) fn downsample(
            points: &[Point],
            from: SimTime,
            to: SimTime,
            bin: u64,
            aggregation: Aggregation,
        ) -> Vec<Point> {
            let mut out = Vec::new();
            let mut start = from;
            while start < to {
                let end = SimTime::from_micros(start.as_micros() + bin).min(to);
                if let Some(v) = aggregate(query(points, start, end), aggregation) {
                    out.push((start, v));
                }
                start = end;
            }
            out
        }
    }

    mod runs_against_the_model {
        use proptest::prelude::*;

        use super::model::{self, Model};
        use super::*;

        const SERIES: [&str; 3] = ["model/a", "model/b", "model/c"];
        const AGGREGATIONS: [Aggregation; 6] = [
            Aggregation::Mean,
            Aggregation::Min,
            Aggregation::Max,
            Aggregation::Sum,
            Aggregation::Count,
            Aggregation::Last,
        ];

        #[derive(Debug, Clone)]
        enum Step {
            /// `count` points `step` µs apart, starting `offset` µs after
            /// the series' last point (0 repeats it), every `dup`-th point
            /// twice. One comb in five is long enough to cross page
            /// boundaries on its own.
            Comb {
                series: usize,
                offset: u64,
                step: u64,
                count: usize,
                dup: usize,
            },
            /// A run of inserts at arbitrary times, sorted or not.
            Run {
                series: usize,
                times: Vec<u64>,
                sorted: bool,
            },
            /// One insert at an arbitrary time, usually out of order.
            Insert {
                series: usize,
                t: u64,
            },
            Evict {
                cutoff: u64,
            },
        }

        fn step() -> impl Strategy<Value = Step> {
            (
                (0u32..10, 0usize..SERIES.len()),
                (
                    0u64..4,
                    prop::sample::select(vec![1u64, 3, 7, 40]),
                    (0u32..5, 1usize..40, 600usize..1_600),
                    0usize..5,
                ),
                any::<bool>(),
                prop::collection::vec(0u64..2_500, 0..12),
                0u64..2_500,
            )
                .prop_map(
                    |(
                        (kind, series),
                        (offset, step, (long, short, long_count), dup),
                        flag,
                        times,
                        t,
                    )| match kind {
                        0..=4 => Step::Comb {
                            series,
                            // Continue the comb, repeat the last time, or
                            // open a gap.
                            offset: [step, 0, 2 * step + 1, 5 * step][offset as usize],
                            step,
                            count: if long == 0 { long_count } else { short },
                            dup,
                        },
                        5..=6 => Step::Run {
                            series,
                            times,
                            sorted: flag,
                        },
                        7..=8 => Step::Insert { series, t },
                        _ => Step::Evict { cutoff: t },
                    },
                )
        }

        /// Applies `step` to the store and the model alike. `next_value`
        /// numbers the points, so a misplaced value cannot go unseen.
        fn apply(step: &Step, db: &mut TimeSeriesStore, model: &mut Model, next_value: &mut f64) {
            let mut value = || {
                *next_value += 0.37;
                *next_value
            };
            let at = SimTime::from_micros;
            match *step {
                Step::Comb {
                    series,
                    offset,
                    step,
                    count,
                    dup,
                } => {
                    let name = SERIES[series];
                    let tail = model.get(name).and_then(|p| p.last()).map(|&(t, _)| t);
                    let start = tail.map_or(0, |t| t.as_micros() + offset);
                    let mut points = Vec::new();
                    for i in 0..count as u64 {
                        let t = at(start + i * step);
                        points.push((t, value()));
                        if dup > 0 && (i as usize).is_multiple_of(dup) {
                            points.push((t, value()));
                        }
                    }
                    land(db, model, name, &points);
                }
                Step::Run {
                    series,
                    ref times,
                    sorted,
                } => {
                    let mut times = times.clone();
                    if sorted {
                        times.sort_unstable();
                    }
                    let points: Vec<Point> = times.iter().map(|&t| (at(t), value())).collect();
                    land(db, model, SERIES[series], &points);
                }
                Step::Insert { series, t } => {
                    land(db, model, SERIES[series], &[(at(t), value())]);
                }
                Step::Evict { cutoff } => {
                    let evicted = db.evict_before(at(cutoff));
                    let mut expected = 0;
                    model.retain(|_, points| {
                        let keep = points.partition_point(|&(t, _)| t < at(cutoff));
                        expected += keep;
                        points.drain(..keep);
                        !points.is_empty()
                    });
                    assert_eq!(evicted, expected);
                }
            }
        }

        fn land(db: &mut TimeSeriesStore, model: &mut Model, name: &'static str, points: &[Point]) {
            let topic: Topic = name.parse().expect("valid");
            for &(t, v) in points {
                db.insert(&topic, Payload::new(v, t));
            }
            if !points.is_empty() {
                let column = model.entry(name).or_default();
                for &point in points {
                    model::place(column, point);
                }
            }
        }

        fn bits(points: impl IntoIterator<Item = Point>) -> Vec<(u64, u64)> {
            points
                .into_iter()
                .map(|(t, v)| (t.as_micros(), v.to_bits()))
                .collect()
        }

        /// The runs time every value exactly once, in order, and the
        /// pages hold the values with less than one page of slack.
        fn well_formed(column: &Column) -> bool {
            let mut end = 0;
            let mut last = 0;
            let pages = &column.values;
            column.runs.iter().all(|run| {
                let ok = run.len > 0 && run.first == end && run.start >= last;
                (end, last) = (run.end(), run.last());
                ok
            }) && end == pages.len()
                && pages.open.capacity() <= PAGE
                && (pages.full.is_empty() || !pages.open.is_empty())
                && pages.capacity() < pages.len() + PAGE
        }

        fn agrees(
            db: &TimeSeriesStore,
            model: &Model,
            probes: &[(u64, u64, u64)],
        ) -> TestCaseResult {
            prop_assert_eq!(
                db.series_names().collect::<Vec<_>>(),
                model.keys().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(
                db.point_count(),
                model.values().map(Vec::len).sum::<usize>()
            );
            for (&name, points) in model {
                let column = db.column(name).expect("modelled series is stored");
                prop_assert!(well_formed(column), "{:?}", column.runs);
                prop_assert_eq!(db.latest(name), points.last().copied());
                let everything = [(0, u64::MAX, 1_000)];
                for &(a, b, bin) in probes.iter().chain(&everything) {
                    let (from, to) = (SimTime::from_micros(a), SimTime::from_micros(b));
                    let expected = model::query(points, from, to);
                    let view = db.query(name, from, to);
                    prop_assert_eq!(bits(view.iter()), bits(expected.iter().copied()));
                    let values = view.values();
                    let chunks: Vec<&[f64]> = values.chunks().collect();
                    prop_assert!(chunks.iter().all(|c| !c.is_empty() && c.len() <= PAGE));
                    let expected_bits: Vec<u64> =
                        expected.iter().map(|(_, v)| v.to_bits()).collect();
                    for copied in [values.iter().collect(), values.to_vec(), chunks.concat()] {
                        let copied: Vec<u64> = copied.into_iter().map(f64::to_bits).collect();
                        prop_assert_eq!(&copied, &expected_bits);
                    }
                    prop_assert_eq!(values.len(), expected.len());
                    prop_assert_eq!(
                        values.last().map(f64::to_bits),
                        expected_bits.last().copied()
                    );
                    for aggregation in AGGREGATIONS {
                        prop_assert_eq!(
                            db.aggregate(name, from, to, aggregation).map(f64::to_bits),
                            model::aggregate(expected, aggregation).map(f64::to_bits)
                        );
                        if b.saturating_sub(a) <= 10_000 {
                            prop_assert_eq!(
                                bits(db.downsample(
                                    name,
                                    from,
                                    to,
                                    SimDuration::from_micros(bin),
                                    aggregation
                                )),
                                bits(model::downsample(points, from, to, bin, aggregation)),
                                "{} [{}, {}) by {}",
                                aggregation,
                                a,
                                b,
                                bin
                            );
                        }
                    }
                }
            }
            // Equal content compares equal however it was encoded, and a
            // moved time or a changed value does not.
            let mut rebuilt = TimeSeriesStore::new();
            for (&name, points) in model {
                let topic: Topic = name.parse().expect("valid");
                for &(t, v) in points {
                    rebuilt.insert(&topic, Payload::new(v, t));
                }
            }
            prop_assert!(*db == rebuilt);
            if let Some((&name, points)) = model.iter().next() {
                let topic: Topic = name.parse().expect("valid");
                let (t, v) = points[points.len() - 1];
                let mut moved = rebuilt.clone();
                moved.insert(
                    &topic,
                    Payload::new(v, SimTime::from_micros(t.as_micros() + 1)),
                );
                let mut changed = rebuilt.clone();
                changed.insert(&topic, Payload::new(v + 1.0, t));
                let mut longer = rebuilt;
                longer.insert(&topic, Payload::new(v, t));
                prop_assert!(moved != longer && changed != longer && *db != longer);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The run-encoded, paged store against per-series
            /// `Vec<Point>`s: after every step, queries (times, and values
            /// whole and page by page), all six aggregations,
            /// downsampling, `latest`, `point_count` and `PartialEq` agree
            /// bit for bit. Long combs take series across several pages,
            /// where out-of-order inserts and evictions straddle page
            /// boundaries.
            #[test]
            fn run_encoded_store_matches_the_point_model(
                steps in prop::collection::vec(step(), 1..24),
                probes in prop::collection::vec((0u64..2_600, 0u64..2_600, 1u64..300), 1..4),
            ) {
                let mut db = TimeSeriesStore::new();
                let mut model = Model::new();
                let mut next_value = -3.0;
                for step in &steps {
                    apply(step, &mut db, &mut model, &mut next_value);
                    agrees(&db, &model, &probes)?;
                }
            }

            /// A gap-free series sampled on every tick is one time run,
            /// however other series' samples interleave with its own.
            #[test]
            fn an_every_tick_series_is_one_time_run(
                start in 0u64..1_000_000_000,
                tick in 1u64..2_000_000,
                chunk in 1usize..600,
            ) {
                let topic: Topic = "model/every-tick".parse().expect("valid");
                let points: Vec<Point> = (0..10_000u64)
                    .map(|i| (SimTime::from_micros(start + i * tick), i as f64))
                    .collect();
                let other: Topic = "model/other".parse().expect("valid");
                let mut db = TimeSeriesStore::new();
                for (i, run) in points.chunks(chunk).enumerate() {
                    for &(t, v) in run {
                        db.insert(&topic, Payload::new(v, t));
                    }
                    db.insert(&other, Payload::new(i as f64, run[0].0));
                }
                let column = db.column("model/every-tick").expect("stored");
                prop_assert_eq!(column.values.len(), 10_000);
                prop_assert_eq!(
                    &column.runs,
                    &vec![TimeRun { start, step: tick, first: 0, len: 10_000 }]
                );
            }
        }
    }
}
