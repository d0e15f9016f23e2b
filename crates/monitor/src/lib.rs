//! An ExaMon-like Operational Data Analytics (ODA) stack for the Monte
//! Cimone reproduction.
//!
//! The paper ports the ExaMon framework to the RISC-V cluster: sampling
//! plugins publish over MQTT to a broker, a storage backend ingests the
//! streams, and dashboards/batch queries sit on top. This crate rebuilds
//! the whole pipeline:
//!
//! * [`topic`] / [`payload`] — the exact topic schema and
//!   `value;timestamp` payload format of Table II;
//! * [`broker`] — a single-threaded MQTT-style pub/sub broker (QoS 0);
//! * [`plugins`] — `pmu_pub` (per-core counters, 2 Hz) and `stats_pub`
//!   (Table III's 28 OS metrics incl. the Table IV hwmon temperatures,
//!   0.2 Hz);
//! * [`collector`] / [`tsdb`] — ingestion into a time-series store of
//!   value columns and run-length timestamps, with borrowed range
//!   queries, aggregation and one-pass downsampling;
//! * [`query`] — the REST/JSON-style batch interface;
//! * [`dashboard`] — Grafana-role text heatmaps (Fig. 5) and sparklines;
//! * [`anomaly`] — threshold and rate-of-rise detection, including the
//!   thermal-runaway detector motivated by the paper's node-7 incident;
//! * [`heartbeat`] — per-node heartbeats and a phi-accrual failure
//!   detector, so crash detection rides the telemetry path instead of an
//!   oracle.
//!
//! # Examples
//!
//! ```
//! use cimone_monitor::broker::Broker;
//! use cimone_monitor::collector::Collector;
//! use cimone_monitor::payload::Payload;
//! use cimone_monitor::topic::ExamonSchema;
//! use cimone_monitor::tsdb::TimeSeriesStore;
//! use cimone_soc::units::SimTime;
//!
//! let schema = ExamonSchema::monte_cimone();
//! let broker = Broker::new();
//! let mut collector = Collector::attach(&broker, schema.node_filter("mc-node-01"));
//! broker.publish(
//!     &schema.stats_topic("mc-node-01", "temperature.cpu_temp"),
//!     Payload::new(48.5, SimTime::from_secs(1)),
//! );
//! let mut db = TimeSeriesStore::new();
//! assert_eq!(collector.pump(&mut db), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anomaly;
pub mod broker;
pub mod collector;
pub mod dashboard;
pub mod heartbeat;
pub mod interner;
pub mod json;
pub mod payload;
pub mod plugins;
pub mod query;
pub mod scrub;
pub mod topic;
pub mod tsdb;

pub use anomaly::{Alarm, Severity, ThermalRunawayDetector};
pub use broker::{Broker, PublishedMessage, Subscription};
pub use collector::Collector;
pub use dashboard::Heatmap;
pub use heartbeat::{HeartbeatMonitor, PhiAccrualDetector};
pub use interner::TopicId;
pub use payload::Payload;
pub use plugins::{NodeSnapshot, Plugin, PluginRunner, PmuPlugin, StatsPlugin};
pub use scrub::ScrubPolicy;
pub use topic::{ExamonSchema, Topic, TopicFilter};
pub use tsdb::{Aggregation, TimeSeriesStore};
