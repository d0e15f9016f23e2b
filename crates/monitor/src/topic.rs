//! MQTT-style topics and wildcard filters, plus the ExaMon topic schema of
//! the paper's Table II.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::interner::{self, TopicData, TopicId};

/// A concrete (wildcard-free) topic such as
/// `org/unibo/cluster/cimone/node/mc-node-01/plugin/pmu_pub/chnl/data/core/2/instret`.
///
/// Topics are interned: the segment strings live in a process-wide
/// registry ([`crate::interner`]) whose records are never evicted, so a
/// topic is a plain `Copy` handle to a `&'static` record carrying a
/// stable small-integer [`TopicId`]. Cloning is free (a pointer copy, no
/// reference counting), equality/hashing are integer operations, and the
/// `Display`/parse round-trip is lossless (`/`-joined segments, exactly as
/// before interning), so the telemetry wire bytes are unchanged.
///
/// # Examples
///
/// ```
/// use cimone_monitor::topic::Topic;
///
/// let t: Topic = "a/b/c".parse()?;
/// assert_eq!(t.segments().len(), 3);
/// assert_eq!(Topic::from_id(t.id()), Some(t.clone()));
/// # Ok::<(), cimone_monitor::topic::TopicParseError>(())
/// ```
#[derive(Clone, Copy)]
pub struct Topic {
    data: &'static TopicData,
}

impl Topic {
    /// Builds a topic from segments, interning it (allocation-free when
    /// the topic is already registered apart from collecting `segments`).
    ///
    /// # Panics
    ///
    /// Panics if any segment is empty, contains `/`, or contains a
    /// wildcard character.
    pub fn new(segments: impl IntoIterator<Item = String>) -> Self {
        let segments: Vec<String> = segments.into_iter().collect();
        assert!(!segments.is_empty(), "topic needs at least one segment");
        for s in &segments {
            assert!(
                !s.is_empty() && !s.contains(['/', '+', '#']),
                "invalid topic segment {s:?}"
            );
        }
        Topic {
            data: interner::intern(segments),
        }
    }

    /// The segments.
    pub fn segments(&self) -> &[String] {
        &self.data.segments
    }

    /// The stable interned id.
    pub fn id(&self) -> TopicId {
        self.data.id
    }

    /// The rendered `/`-joined form, without allocating.
    pub fn as_str(&self) -> &str {
        &self.data.display
    }

    /// Resolves an id back to its topic; `None` if the id was never
    /// handed out by the interner.
    pub fn from_id(id: TopicId) -> Option<Self> {
        interner::get(id).map(|data| Topic { data })
    }
}

impl PartialEq for Topic {
    fn eq(&self, other: &Self) -> bool {
        // Interning makes ids bijective with segment vectors.
        self.data.id == other.data.id
    }
}

impl Eq for Topic {}

impl Hash for Topic {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.id.hash(state);
    }
}

impl PartialOrd for Topic {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Topic {
    fn cmp(&self, other: &Self) -> Ordering {
        // Segment-wise lexicographic order, exactly as the pre-interning
        // derive produced (id order is registration order, not name order).
        self.data.segments.cmp(&other.data.segments)
    }
}

impl fmt::Debug for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topic")
            .field("segments", &self.data.segments)
            .finish()
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.data.display)
    }
}

/// A malformed topic or filter string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicParseError {
    input: String,
    reason: &'static str,
}

impl fmt::Display for TopicParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topic {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for TopicParseError {}

impl FromStr for Topic {
    type Err = TopicParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Already-interned topics parse without allocating: anything in
        // the registry passed validation when it was first registered.
        if let Some(data) = interner::lookup_display(s) {
            return Ok(Topic { data });
        }
        if s.is_empty() {
            return Err(TopicParseError {
                input: s.to_owned(),
                reason: "empty topic",
            });
        }
        let segments: Vec<String> = s.split('/').map(str::to_owned).collect();
        for seg in &segments {
            if seg.is_empty() {
                return Err(TopicParseError {
                    input: s.to_owned(),
                    reason: "empty segment",
                });
            }
            if seg.contains(['+', '#']) {
                return Err(TopicParseError {
                    input: s.to_owned(),
                    reason: "wildcards are only valid in filters",
                });
            }
        }
        Ok(Topic {
            data: interner::intern(segments),
        })
    }
}

/// A subscription filter with MQTT semantics: `+` matches one segment, `#`
/// (final segment only) matches any suffix.
///
/// # Examples
///
/// ```
/// use cimone_monitor::topic::{Topic, TopicFilter};
///
/// let f: TopicFilter = "org/+/cluster/+/node/#".parse()?;
/// let t: Topic = "org/unibo/cluster/cimone/node/mc-node-01/plugin/x".parse()?;
/// assert!(f.matches(&t));
/// # Ok::<(), cimone_monitor::topic::TopicParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicFilter {
    segments: Vec<FilterSegment>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FilterSegment {
    Literal(String),
    SingleLevel,
    MultiLevel,
}

impl TopicFilter {
    /// Whether the filter matches `topic`.
    pub fn matches(&self, topic: &Topic) -> bool {
        let mut ti = 0;
        for (fi, seg) in self.segments.iter().enumerate() {
            match seg {
                FilterSegment::MultiLevel => {
                    // '#' must be last (enforced at parse); matches the rest
                    // including zero segments only if something remains per
                    // MQTT: '#' also matches the parent level; we adopt
                    // "zero or more remaining segments".
                    debug_assert_eq!(fi, self.segments.len() - 1);
                    return true;
                }
                FilterSegment::SingleLevel => {
                    if ti >= topic.segments().len() {
                        return false;
                    }
                    ti += 1;
                }
                FilterSegment::Literal(lit) => {
                    if topic.segments().get(ti) != Some(lit) {
                        return false;
                    }
                    ti += 1;
                }
            }
        }
        ti == topic.segments().len()
    }
}

impl fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<&str> = self
            .segments
            .iter()
            .map(|s| match s {
                FilterSegment::Literal(l) => l.as_str(),
                FilterSegment::SingleLevel => "+",
                FilterSegment::MultiLevel => "#",
            })
            .collect();
        f.write_str(&parts.join("/"))
    }
}

impl FromStr for TopicFilter {
    type Err = TopicParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(TopicParseError {
                input: s.to_owned(),
                reason: "empty filter",
            });
        }
        let raw: Vec<&str> = s.split('/').collect();
        let mut segments = Vec::with_capacity(raw.len());
        for (i, seg) in raw.iter().enumerate() {
            let parsed = match *seg {
                "" => {
                    return Err(TopicParseError {
                        input: s.to_owned(),
                        reason: "empty segment",
                    })
                }
                "+" => FilterSegment::SingleLevel,
                "#" => {
                    if i != raw.len() - 1 {
                        return Err(TopicParseError {
                            input: s.to_owned(),
                            reason: "'#' must be the final segment",
                        });
                    }
                    FilterSegment::MultiLevel
                }
                lit => {
                    if lit.contains(['+', '#']) {
                        return Err(TopicParseError {
                            input: s.to_owned(),
                            reason: "wildcards must occupy a whole segment",
                        });
                    }
                    FilterSegment::Literal(lit.to_owned())
                }
            };
            segments.push(parsed);
        }
        Ok(TopicFilter { segments })
    }
}

/// The ExaMon topic schema (paper Table II).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExamonSchema {
    /// Organisation segment value.
    pub org: String,
    /// Cluster segment value.
    pub cluster: String,
}

impl ExamonSchema {
    /// The schema for the Monte Cimone deployment.
    pub fn monte_cimone() -> Self {
        ExamonSchema {
            org: "unibo".to_owned(),
            cluster: "cimone".to_owned(),
        }
    }

    /// Table II, row 1: pmu_pub per-core metric topic:
    /// `org/<org>/cluster/<cluster>/node/<hostname>/plugin/pmu_pub/chnl/data/core/<id>/<metric>`.
    pub fn pmu_topic(&self, hostname: &str, core: usize, metric: &str) -> Topic {
        Topic::new(
            [
                "org",
                &self.org,
                "cluster",
                &self.cluster,
                "node",
                hostname,
                "plugin",
                "pmu_pub",
                "chnl",
                "data",
                "core",
                &core.to_string(),
                metric,
            ]
            .map(str::to_owned),
        )
    }

    /// Table II, row 2: stats_pub node metric topic (the plugin publishes
    /// under the `dstat_pub` name, exactly as in the paper):
    /// `org/<org>/cluster/<cluster>/node/<hostname>/plugin/dstat_pub/chnl/data/<metric>`.
    ///
    /// Dotted metric names (`load_avg.1m`) stay one segment.
    pub fn stats_topic(&self, hostname: &str, metric: &str) -> Topic {
        Topic::new(
            [
                "org",
                &self.org,
                "cluster",
                &self.cluster,
                "node",
                hostname,
                "plugin",
                "dstat_pub",
                "chnl",
                "data",
                metric,
            ]
            .map(str::to_owned),
        )
    }

    /// A filter matching every metric of one node.
    pub fn node_filter(&self, hostname: &str) -> TopicFilter {
        format!(
            "org/{}/cluster/{}/node/{hostname}/#",
            self.org, self.cluster
        )
        .parse()
        .expect("schema filters are well-formed")
    }

    /// A filter matching one pmu metric across all nodes and cores.
    pub fn pmu_metric_filter(&self, metric: &str) -> TopicFilter {
        format!(
            "org/{}/cluster/{}/node/+/plugin/pmu_pub/chnl/data/core/+/{metric}",
            self.org, self.cluster
        )
        .parse()
        .expect("schema filters are well-formed")
    }

    /// A filter matching one stats metric across all nodes.
    pub fn stats_metric_filter(&self, metric: &str) -> TopicFilter {
        format!(
            "org/{}/cluster/{}/node/+/plugin/dstat_pub/chnl/data/{metric}",
            self.org, self.cluster
        )
        .parse()
        .expect("schema filters are well-formed")
    }

    /// Extracts the hostname segment from a schema-conforming topic.
    pub fn hostname_of(topic: &Topic) -> Option<&str> {
        let segs = topic.segments();
        segs.iter()
            .position(|s| s == "node")
            .and_then(|i| segs.get(i + 1))
            .map(String::as_str)
    }

    /// Extracts the trailing metric name.
    pub fn metric_of(topic: &Topic) -> Option<&str> {
        topic.segments().last().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmu_topic_matches_table_ii_shape() {
        let schema = ExamonSchema::monte_cimone();
        let t = schema.pmu_topic("mc-node-01", 2, "instret");
        assert_eq!(
            t.to_string(),
            "org/unibo/cluster/cimone/node/mc-node-01/plugin/pmu_pub/chnl/data/core/2/instret"
        );
    }

    #[test]
    fn stats_topic_uses_dstat_pub_plugin_segment() {
        let schema = ExamonSchema::monte_cimone();
        let t = schema.stats_topic("mc-node-05", "load_avg.1m");
        assert_eq!(
            t.to_string(),
            "org/unibo/cluster/cimone/node/mc-node-05/plugin/dstat_pub/chnl/data/load_avg.1m"
        );
    }

    #[test]
    fn single_level_wildcard_matches_exactly_one_segment() {
        let f: TopicFilter = "a/+/c".parse().unwrap();
        assert!(f.matches(&"a/b/c".parse().unwrap()));
        assert!(!f.matches(&"a/b/b/c".parse().unwrap()));
        assert!(!f.matches(&"a/b".parse().unwrap()));
    }

    #[test]
    fn multi_level_wildcard_matches_any_suffix() {
        let f: TopicFilter = "a/#".parse().unwrap();
        assert!(f.matches(&"a/b".parse().unwrap()));
        assert!(f.matches(&"a/b/c/d".parse().unwrap()));
        assert!(f.matches(&"a".parse().unwrap()));
        assert!(!f.matches(&"b/a".parse().unwrap()));
    }

    #[test]
    fn literal_filters_require_equality() {
        let f: TopicFilter = "a/b".parse().unwrap();
        assert!(f.matches(&"a/b".parse().unwrap()));
        assert!(!f.matches(&"a/c".parse().unwrap()));
    }

    #[test]
    fn schema_filters_route_correctly() {
        let schema = ExamonSchema::monte_cimone();
        let pmu = schema.pmu_topic("mc-node-03", 1, "cycles");
        let stats = schema.stats_topic("mc-node-03", "temperature.cpu_temp");
        assert!(schema.node_filter("mc-node-03").matches(&pmu));
        assert!(schema.node_filter("mc-node-03").matches(&stats));
        assert!(!schema.node_filter("mc-node-04").matches(&pmu));
        assert!(schema.pmu_metric_filter("cycles").matches(&pmu));
        assert!(!schema.pmu_metric_filter("instret").matches(&pmu));
        assert!(schema
            .stats_metric_filter("temperature.cpu_temp")
            .matches(&stats));
    }

    #[test]
    fn hostname_and_metric_extraction() {
        let schema = ExamonSchema::monte_cimone();
        let t = schema.pmu_topic("mc-node-07", 0, "instret");
        assert_eq!(ExamonSchema::hostname_of(&t), Some("mc-node-07"));
        assert_eq!(ExamonSchema::metric_of(&t), Some("instret"));
    }

    #[test]
    fn invalid_filters_are_rejected() {
        assert!("a/#/b".parse::<TopicFilter>().is_err());
        assert!("a//b".parse::<TopicFilter>().is_err());
        assert!("a/b+".parse::<TopicFilter>().is_err());
        assert!("a/+b".parse::<TopicFilter>().is_err());
    }

    #[test]
    fn topics_reject_wildcards() {
        assert!("a/+/c".parse::<Topic>().is_err());
        assert!("a/#".parse::<Topic>().is_err());
    }

    #[test]
    fn interned_topics_share_one_id() {
        let a: Topic = "topic/intern/shared".parse().unwrap();
        let b = Topic::new(["topic", "intern", "shared"].map(str::to_owned));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        let c: Topic = "topic/intern/other".parse().unwrap();
        assert_ne!(a.id(), c.id());
        assert_ne!(a, c);
    }

    #[test]
    fn id_round_trip_is_lossless() {
        let t: Topic = "topic/roundtrip/a.b/42".parse().unwrap();
        let back = Topic::from_id(t.id()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.segments(), t.segments());
        assert_eq!(back.to_string(), "topic/roundtrip/a.b/42");
        assert_eq!(back.as_str(), "topic/roundtrip/a.b/42");
    }

    #[test]
    fn topic_ordering_follows_segments_not_ids() {
        // Register in reverse name order so id order and name order differ.
        let z: Topic = "topic/order/z".parse().unwrap();
        let a: Topic = "topic/order/a".parse().unwrap();
        assert!(a < z, "ordering must stay segment-lexicographic");
        // "a/b" vs "a-c": segment-wise, ["a","b"] < ["a-c"].
        let ab = Topic::new(["a", "b"].map(str::to_owned));
        let ac = Topic::new(["a-c".to_owned()]);
        assert!(ab < ac);
    }
}
