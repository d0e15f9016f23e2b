//! The span recorder behind `--trace 1`.
//!
//! Every call the benchmark makes into a layer is bracketed by
//! [`Tracer::begin`] / [`Tracer::end`]. The pair always returns the
//! call's wall time; when recording, it also keeps a [`Span`] in memory.
//! Spans are written out once, at exit, as Chrome trace JSON (load it in
//! `chrome://tracing` or Perfetto). A span's layer is its name up to the
//! first `/`.

use std::collections::BTreeMap;
use std::time::Instant;

use cimone_monitor::json::JsonValue;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer/call`.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('/').next().unwrap_or(self.name)
    }

    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A started span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<usize>,
}

/// Times layer calls and, when recording, keeps them as spans.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    op: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `recording` is set.
    pub fn new(recording: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            recording,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags the spans that follow with `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Starts a span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.open.last().copied(),
                start: (start - self.origin).as_secs_f64(),
                end: f64::NAN,
            });
            self.open.push(index);
            index
        });
        Open { start, index }
    }

    /// Ends a span and returns its wall time in seconds. Spans still open
    /// inside it (left behind by a panic) end with it.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            let at = (now - self.origin).as_secs_f64();
            while let Some(inner) = self.open.pop() {
                self.spans[inner].end = at;
                if inner == index {
                    break;
                }
            }
        }
        (now - open.start).as_secs_f64()
    }

    /// Ends every open span (after a panic unwound past them).
    pub fn close_all(&mut self) {
        let at = self.origin.elapsed().as_secs_f64();
        for index in self.open.drain(..) {
            self.spans[index].end = at;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and wall
    /// time in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (duration minus the part its children cover) of every
    /// span whose outermost ancestor is named `root`, summed per layer.
    /// The roots themselves are included.
    pub fn self_time_by_layer(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let children = self.children();
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if self.root_of(i).name == root {
                *out.entry(span.layer()).or_insert(0.0) += self_time(span, &children[i]);
            }
        }
        out
    }

    /// Summed durations of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// The share of the time in top-level spans named `root` that their
    /// child spans account for.
    pub fn coverage(&self, root: &str) -> f64 {
        let children = self.children();
        let (mut covered, mut total) = (0.0, 0.0);
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() && span.name == root {
                covered += span.duration() - self_time(span, &children[i]);
                total += span.duration();
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// The spans as a Chrome trace document: one complete (`"X"`) event
    /// per span, with its op, id and parent id in `args`.
    pub fn chrome_json(&self) -> String {
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            JsonValue::object([
                ("name".to_owned(), JsonValue::String(s.name.to_owned())),
                ("cat".to_owned(), JsonValue::String(s.layer().to_owned())),
                ("ph".to_owned(), JsonValue::String("X".to_owned())),
                ("ts".to_owned(), JsonValue::Number(s.start * 1e6)),
                ("dur".to_owned(), JsonValue::Number(s.duration() * 1e6)),
                ("pid".to_owned(), JsonValue::Number(1.0)),
                ("tid".to_owned(), JsonValue::Number(1.0)),
                (
                    "args".to_owned(),
                    JsonValue::object([
                        ("op".to_owned(), JsonValue::Number(s.op as f64)),
                        ("id".to_owned(), JsonValue::Number(id as f64)),
                        (
                            "parent".to_owned(),
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                        ),
                    ]),
                ),
            ])
        });
        JsonValue::object([
            ("traceEvents".to_owned(), JsonValue::Array(events.collect())),
            (
                "displayTimeUnit".to_owned(),
                JsonValue::String("ms".to_owned()),
            ),
        ])
        .to_string()
    }

    fn children(&self) -> Vec<Vec<&Span>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push(span);
            }
        }
        children
    }

    fn root_of(&self, mut i: usize) -> &Span {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        &self.spans[i]
    }
}

/// `span`'s duration minus the part of it that `children` cover. Children
/// may overlap one another (work fanned out to a pool) or stick out of
/// the parent; each instant counts once, and only inside the parent.
pub fn self_time(span: &Span, children: &[&Span]) -> f64 {
    let mut intervals: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = span.start;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64) -> Span {
        Span {
            name: "layer/call",
            op: 0,
            parent: None,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = span(0.0, 10.0);
        let (a, b) = (span(1.0, 3.0), span(5.0, 6.0));
        assert_eq!(self_time(&parent, &[&a, &b]), 7.0);
        assert_eq!(self_time(&parent, &[]), 10.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = span(0.0, 10.0);
        let (a, b, c) = (span(1.0, 5.0), span(2.0, 4.0), span(3.0, 7.0));
        assert_eq!(self_time(&parent, &[&a, &b, &c]), 4.0);
        // Children listed out of order, and one sticking out of the parent.
        let (d, e) = (span(8.0, 12.0), span(-1.0, 1.0));
        assert_eq!(self_time(&parent, &[&d, &a, &e]), 10.0 - 4.0 - 2.0 - 1.0);
    }

    #[test]
    fn recorder_nests_spans_and_closes_abandoned_ones() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let op = t.begin("op");
        let ((), _) = t.time("monitor/query", || ());
        let _abandoned = t.begin("kernels/factor");
        let secs = t.end(op);
        assert!(secs >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3 && s.end >= s.start));
        assert_eq!(spans[2].layer(), "kernels");
        let layers = t.self_time_by_layer("op");
        assert_eq!(layers.len(), 3);
        let doc = JsonValue::parse(&t.chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn a_tracer_that_is_not_recording_still_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("kernels/solve", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage("op"), 0.0);
    }
}
