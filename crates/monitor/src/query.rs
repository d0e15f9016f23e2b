//! The RESTful-style query interface (ExaMon exposes its store over HTTP
//! with JSON; batch analysis scripts consume it). Requests and responses
//! are JSON-serialisable structures evaluated directly against the store:
//! each matching series is read through a borrowed
//! [`SeriesView`](crate::tsdb::SeriesView) and binned in one pass, and a
//! response is written straight into one string with the JSON module's
//! number and string formatters.

use std::fmt;

use cimone_soc::units::{SimDuration, SimTime};

use crate::json::{self, JsonValue};
use crate::topic::TopicFilter;
use crate::tsdb::{Aggregation, TimeSeriesStore};

/// A query over the store.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Topic filter selecting series (MQTT wildcard syntax).
    pub filter: String,
    /// Range start, seconds.
    pub from_secs: f64,
    /// Range end (exclusive), seconds.
    pub to_secs: f64,
    /// Optional downsampling bin, seconds (`None` returns raw points).
    pub bin_secs: Option<f64>,
    /// Aggregation for downsampling (default mean).
    pub aggregation: Option<Aggregation>,
}

/// One series in a response.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesData {
    /// Series (topic) name.
    pub name: String,
    /// `[seconds, value]` pairs.
    pub points: Vec<(f64, f64)>,
}

/// A query response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Matched series.
    pub series: Vec<SeriesData>,
}

/// Query evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The filter string failed to parse.
    BadFilter(String),
    /// `to <= from` or a non-finite bound.
    BadRange,
    /// A `bin_secs` that is zero, negative or NaN, or rounds to less
    /// than the store's one-microsecond resolution.
    BadBin(f64),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::BadFilter(s) => write!(f, "bad filter: {s}"),
            QueryError::BadRange => write!(f, "range must be finite with to > from >= 0"),
            QueryError::BadBin(secs) => {
                write!(f, "bin_secs {secs} is not a bin of one microsecond or more")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Evaluates `request` against `store`.
///
/// # Errors
///
/// Fails for malformed filters or ranges, and for a bin that is not at
/// least one microsecond (zero, negative and NaN included).
///
/// # Examples
///
/// ```
/// use cimone_monitor::payload::Payload;
/// use cimone_monitor::query::{evaluate, QueryRequest};
/// use cimone_monitor::tsdb::TimeSeriesStore;
/// use cimone_soc::units::SimTime;
///
/// let mut db = TimeSeriesStore::new();
/// db.insert(&"a/b".parse()?, Payload::new(7.0, SimTime::from_secs(3)));
/// let resp = evaluate(
///     &db,
///     &QueryRequest {
///         filter: "a/#".to_owned(),
///         from_secs: 0.0,
///         to_secs: 10.0,
///         bin_secs: None,
///         aggregation: None,
///     },
/// )?;
/// assert_eq!(resp.series[0].points, vec![(3.0, 7.0)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate(
    store: &TimeSeriesStore,
    request: &QueryRequest,
) -> Result<QueryResponse, QueryError> {
    let filter: TopicFilter = request
        .filter
        .parse()
        .map_err(|e| QueryError::BadFilter(format!("{e}")))?;
    if !request.from_secs.is_finite()
        || !request.to_secs.is_finite()
        || request.from_secs < 0.0
        || request.to_secs <= request.from_secs
    {
        return Err(QueryError::BadRange);
    }
    let from = SimTime::from_micros((request.from_secs * 1e6) as u64);
    let to = SimTime::from_micros((request.to_secs * 1e6) as u64);
    // `from_secs_f64` maps zero, negative and NaN seconds to zero too.
    let bin = request
        .bin_secs
        .map(|secs| match SimDuration::from_secs_f64(secs) {
            bin if bin.is_zero() => Err(QueryError::BadBin(secs)),
            bin => Ok(bin),
        })
        .transpose()?;
    let aggregation = request.aggregation.unwrap_or(Aggregation::Mean);

    let series = store
        .query_filter(&filter, from, to)
        .map(|(topic, view)| {
            let points = match bin {
                Some(bin) => {
                    let mut points = Vec::new();
                    view.downsample(from, bin, aggregation, |index, v| {
                        points.push(((from + bin * index).as_secs_f64(), v));
                    });
                    points
                }
                None => view.iter().map(|(t, v)| (t.as_secs_f64(), v)).collect(),
            };
            SeriesData {
                name: topic.as_str().to_owned(),
                points,
            }
        })
        .collect();
    Ok(QueryResponse { series })
}

fn aggregation_name(aggregation: Aggregation) -> &'static str {
    match aggregation {
        Aggregation::Mean => "Mean",
        Aggregation::Min => "Min",
        Aggregation::Max => "Max",
        Aggregation::Sum => "Sum",
        Aggregation::Count => "Count",
        Aggregation::Last => "Last",
    }
}

fn aggregation_from_name(name: &str) -> Option<Aggregation> {
    match name {
        "Mean" => Some(Aggregation::Mean),
        "Min" => Some(Aggregation::Min),
        "Max" => Some(Aggregation::Max),
        "Sum" => Some(Aggregation::Sum),
        "Count" => Some(Aggregation::Count),
        "Last" => Some(Aggregation::Last),
        _ => None,
    }
}

impl QueryRequest {
    /// Serialises the request to its wire (JSON) form.
    pub fn to_json(&self) -> String {
        JsonValue::object([
            ("filter".to_owned(), JsonValue::String(self.filter.clone())),
            ("from_secs".to_owned(), JsonValue::Number(self.from_secs)),
            ("to_secs".to_owned(), JsonValue::Number(self.to_secs)),
            (
                "bin_secs".to_owned(),
                self.bin_secs.map_or(JsonValue::Null, JsonValue::Number),
            ),
            (
                "aggregation".to_owned(),
                self.aggregation.map_or(JsonValue::Null, |a| {
                    JsonValue::String(aggregation_name(a).to_owned())
                }),
            ),
        ])
        .to_string()
    }

    /// Parses a request from its wire (JSON) form.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, missing required fields, or unknown
    /// aggregation names.
    pub fn from_json(json: &str) -> Result<QueryRequest, String> {
        let value = JsonValue::parse(json).map_err(|e| e.to_string())?;
        let filter = value
            .get("filter")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field 'filter'")?
            .to_owned();
        let from_secs = value
            .get("from_secs")
            .and_then(JsonValue::as_f64)
            .ok_or("missing number field 'from_secs'")?;
        let to_secs = value
            .get("to_secs")
            .and_then(JsonValue::as_f64)
            .ok_or("missing number field 'to_secs'")?;
        let bin_secs = match value.get("bin_secs") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(v.as_f64().ok_or("field 'bin_secs' must be a number")?),
        };
        let aggregation = match value.get("aggregation") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => {
                let name = v.as_str().ok_or("field 'aggregation' must be a string")?;
                Some(
                    aggregation_from_name(name)
                        .ok_or_else(|| format!("unknown aggregation '{name}'"))?,
                )
            }
        };
        Ok(QueryRequest {
            filter,
            from_secs,
            to_secs,
            bin_secs,
            aggregation,
        })
    }
}

impl QueryResponse {
    /// Serialises the response to its wire (JSON) form: the canonical
    /// rendering of the equivalent [`JsonValue`] tree, written straight
    /// into one string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out)
            .expect("formatting into a String cannot fail");
        out
    }

    fn write_json(&self, out: &mut String) -> fmt::Result {
        out.push_str("{\"series\":[");
        for (i, series) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(out, &series.name)?;
            out.push_str(",\"points\":[");
            for (j, &(t, v)) in series.points.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                json::write_number(out, t)?;
                out.push(',');
                json::write_number(out, v)?;
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        Ok(())
    }

    /// Parses a response from its wire (JSON) form.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a structure that does not match
    /// [`QueryResponse::to_json`].
    pub fn from_json(json: &str) -> Result<QueryResponse, String> {
        let value = JsonValue::parse(json).map_err(|e| e.to_string())?;
        let mut series = Vec::new();
        for item in value
            .get("series")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field 'series'")?
        {
            let name = item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("series missing string field 'name'")?
                .to_owned();
            let mut points = Vec::new();
            for pair in item
                .get("points")
                .and_then(JsonValue::as_array)
                .ok_or("series missing array field 'points'")?
            {
                let pair = pair.as_array().ok_or("point must be a [t, v] pair")?;
                if pair.len() != 2 {
                    return Err("point must be a [t, v] pair".to_owned());
                }
                let t = pair[0].as_f64().ok_or("point time must be a number")?;
                let v = pair[1].as_f64().ok_or("point value must be a number")?;
                points.push((t, v));
            }
            series.push(SeriesData { name, points });
        }
        Ok(QueryResponse { series })
    }
}

/// Evaluates a JSON request and returns a JSON response — the full
/// REST-over-HTTP round trip minus the socket.
///
/// # Errors
///
/// Returns a JSON error object string, `{"error":"..."}`, for malformed
/// input.
pub fn evaluate_json(store: &TimeSeriesStore, request_json: &str) -> Result<String, String> {
    let response = QueryRequest::from_json(request_json)
        .and_then(|request| evaluate(store, &request).map_err(|e| e.to_string()));
    response.map(|r| r.to_json()).map_err(|message| {
        let mut out = String::from("{\"error\":");
        json::write_string(&mut out, &message).expect("formatting into a String cannot fail");
        out.push('}');
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    fn db() -> TimeSeriesStore {
        let mut db = TimeSeriesStore::new();
        for t in 0..10u64 {
            db.insert(
                &"node/a/power".parse().unwrap(),
                Payload::new(t as f64, SimTime::from_secs(t)),
            );
        }
        db
    }

    #[test]
    fn raw_queries_return_points_in_range() {
        let resp = evaluate(
            &db(),
            &QueryRequest {
                filter: "node/+/power".to_owned(),
                from_secs: 2.0,
                to_secs: 5.0,
                bin_secs: None,
                aggregation: None,
            },
        )
        .unwrap();
        assert_eq!(resp.series.len(), 1);
        assert_eq!(resp.series[0].points.len(), 3);
    }

    #[test]
    fn binned_queries_downsample() {
        let resp = evaluate(
            &db(),
            &QueryRequest {
                filter: "node/a/power".to_owned(),
                from_secs: 0.0,
                to_secs: 10.0,
                bin_secs: Some(5.0),
                aggregation: Some(Aggregation::Max),
            },
        )
        .unwrap();
        assert_eq!(resp.series[0].points, vec![(0.0, 4.0), (5.0, 9.0)]);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let store = db();
        assert!(matches!(
            evaluate(
                &store,
                &QueryRequest {
                    filter: "a//b".to_owned(),
                    from_secs: 0.0,
                    to_secs: 1.0,
                    bin_secs: None,
                    aggregation: None,
                }
            ),
            Err(QueryError::BadFilter(_))
        ));
        assert!(matches!(
            evaluate(
                &store,
                &QueryRequest {
                    filter: "#".to_owned(),
                    from_secs: 5.0,
                    to_secs: 5.0,
                    bin_secs: None,
                    aggregation: None,
                }
            ),
            Err(QueryError::BadRange)
        ));
    }

    /// A positive bin that rounds to 0 µs is refused with a `QueryError`,
    /// reported by `evaluate_json` as its JSON error object, instead of
    /// reaching `downsample`'s non-zero assertion.
    #[test]
    fn sub_microsecond_bins_are_rejected() {
        let request = QueryRequest {
            filter: "#".to_owned(),
            from_secs: 0.0,
            to_secs: 10.0,
            bin_secs: Some(1e-7),
            aggregation: None,
        };
        assert_eq!(evaluate(&db(), &request), Err(QueryError::BadBin(1e-7)));
        let error = evaluate_json(&db(), &request.to_json()).unwrap_err();
        let message = JsonValue::parse(&error).unwrap();
        assert_eq!(
            message.get("error").and_then(JsonValue::as_str),
            Some("bin_secs 0.0000001 is not a bin of one microsecond or more"),
        );
        // One microsecond is the finest bin.
        let finest = QueryRequest {
            bin_secs: Some(1e-6),
            ..request
        };
        assert_eq!(evaluate(&db(), &finest).unwrap().series[0].points.len(), 10);
    }

    /// Zero, negative and NaN bins are refused too, instead of falling
    /// back to the raw points of every series in range; `null` still
    /// means raw.
    #[test]
    fn non_positive_and_nan_bins_are_rejected() {
        let request = |bin_secs| QueryRequest {
            filter: "#".to_owned(),
            from_secs: 0.0,
            to_secs: 10.0,
            bin_secs,
            aggregation: None,
        };
        for secs in [0.0, -0.0, -3.0, f64::NEG_INFINITY] {
            assert_eq!(
                evaluate(&db(), &request(Some(secs))),
                Err(QueryError::BadBin(secs))
            );
        }
        assert!(matches!(
            evaluate(&db(), &request(Some(f64::NAN))),
            Err(QueryError::BadBin(secs)) if secs.is_nan()
        ));
        let raw = evaluate(&db(), &request(None)).unwrap();
        assert_eq!(raw.series[0].points.len(), 10);
        let json = |bin: &str| {
            evaluate_json(
                &db(),
                &format!(
                    r##"{{"filter":"#","from_secs":0,"to_secs":10,"bin_secs":{bin},"aggregation":null}}"##
                ),
            )
        };
        let error = JsonValue::parse(&json("0").unwrap_err()).unwrap();
        assert_eq!(
            error.get("error").and_then(JsonValue::as_str),
            Some("bin_secs 0 is not a bin of one microsecond or more"),
        );
        assert_eq!(json("null").unwrap(), raw.to_json());
    }

    /// Error objects are valid JSON even when the message quotes the
    /// offending input.
    #[test]
    fn error_objects_escape_their_message() {
        let error = evaluate_json(
            &db(),
            r#"{"filter":"a//b","from_secs":0,"to_secs":1,"bin_secs":null,"aggregation":null}"#,
        )
        .unwrap_err();
        let message = JsonValue::parse(&error).unwrap();
        assert_eq!(
            message.get("error").and_then(JsonValue::as_str),
            Some(r#"bad filter: invalid topic "a//b": empty segment"#),
        );
    }

    /// Downsampling costs what the data costs: a range that runs a
    /// billion seconds past the last point, in 1 s bins over every
    /// series, returns exactly the bins of the range that ends at it.
    #[test]
    fn far_ranges_bin_like_the_data_they_cover() {
        let mut store = db();
        for t in 0..100u64 {
            store.insert(
                &"node/b/power".parse().unwrap(),
                Payload::new(t as f64 * 0.5, SimTime::from_millis(250 * t)),
            );
        }
        for aggregation in ["Mean", "Sum", "Count", "Last"] {
            let request = |to_secs: f64| {
                format!(
                    r##"{{"filter":"#","from_secs":0,"to_secs":{to_secs},"bin_secs":1,"aggregation":"{aggregation}"}}"##
                )
            };
            let near = evaluate_json(&store, &request(25.0)).unwrap();
            assert!(near.contains(r#""name":"node/b/power""#), "{near}");
            assert_eq!(evaluate_json(&store, &request(1e9)).unwrap(), near);
        }
    }

    #[test]
    fn json_round_trip() {
        let json = r#"{"filter":"node/a/power","from_secs":0,"to_secs":3,"bin_secs":null,"aggregation":null}"#;
        let out = evaluate_json(&db(), json).unwrap();
        let parsed = QueryResponse::from_json(&out).unwrap();
        assert_eq!(parsed.series[0].points.len(), 3);
        assert!(evaluate_json(&db(), "not json").is_err());
    }

    /// The direct writer renders exactly what the equivalent `JsonValue`
    /// tree renders: escapes, integral and fractional numbers alike.
    #[test]
    fn response_json_matches_the_value_tree() {
        let response = QueryResponse {
            series: vec![
                SeriesData {
                    name: "node/\"a\"\\b\n\u{1}é".to_owned(),
                    points: vec![(0.0, -2.0), (1.5, 1e15), (2.0, 0.1 + 0.2)],
                },
                SeriesData {
                    name: "empty".to_owned(),
                    points: vec![],
                },
            ],
        };
        let tree = JsonValue::object([(
            "series".to_owned(),
            JsonValue::Array(
                response
                    .series
                    .iter()
                    .map(|s| {
                        let points = s.points.iter().map(|&(t, v)| {
                            JsonValue::Array(vec![JsonValue::Number(t), JsonValue::Number(v)])
                        });
                        JsonValue::object([
                            ("name".to_owned(), JsonValue::String(s.name.clone())),
                            ("points".to_owned(), JsonValue::Array(points.collect())),
                        ])
                    })
                    .collect(),
            ),
        )]);
        assert_eq!(response.to_json(), tree.to_string());
        assert_eq!(QueryResponse::from_json(&response.to_json()), Ok(response));
    }

    #[test]
    fn request_json_round_trip_preserves_fields() {
        let request = QueryRequest {
            filter: "node/+/power".to_owned(),
            from_secs: 1.5,
            to_secs: 9.0,
            bin_secs: Some(2.0),
            aggregation: Some(Aggregation::Max),
        };
        let parsed = QueryRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(parsed, request);
        assert!(QueryRequest::from_json(r#"{"filter":"a"}"#).is_err());
        assert!(QueryRequest::from_json(
            r#"{"filter":"a","from_secs":0,"to_secs":1,"aggregation":"Median"}"#
        )
        .is_err());
    }
}
