//! Fig. 5: ExaMon heatmaps during a full-machine HPL run — instructions
//! per second, network traffic and memory usage across the eight nodes.
//!
//! The run goes through the whole production path: the job is submitted to
//! the scheduler, executes on all nodes with alternating compute /
//! panel-broadcast phases, `pmu_pub` and `stats_pub` sample each node, the
//! broker routes to the collector, and the heatmaps are rendered from the
//! time-series store — exactly the pipeline the paper describes.

use cimone_monitor::dashboard::Heatmap;
use cimone_monitor::payload::Payload;
use cimone_monitor::topic::{ExamonSchema, Topic, TopicFilter};
use cimone_monitor::tsdb::{Aggregation, TimeSeriesStore};
use cimone_soc::units::{SimDuration, SimTime};

use crate::engine::{ClusterWorkload, EngineConfig, JobRequest, SimEngine};
use crate::perf::HplProblem;

/// The experiment result.
#[derive(Debug)]
pub struct MonitoredHplResult {
    /// When the run started.
    pub from: SimTime,
    /// When the machine drained.
    pub to: SimTime,
    /// Instructions/s heatmap (derived from the cumulative INSTRET
    /// counters).
    pub instructions: Heatmap,
    /// Network receive-rate heatmap.
    pub network: Heatmap,
    /// Memory-usage heatmap.
    pub memory: Heatmap,
    /// The full ExaMon store of the run, for further batch queries.
    pub store: TimeSeriesStore,
}

/// Differentiates cumulative counter series into rates (per second),
/// keeping series names.
pub fn rate_store(store: &TimeSeriesStore, filter: &TopicFilter) -> TimeSeriesStore {
    let mut out = TimeSeriesStore::new();
    for (topic, points) in store.query_filter(
        filter,
        SimTime::ZERO,
        SimTime::from_secs(u64::MAX / 2_000_000),
    ) {
        for ((t0, v0), (t1, v1)) in points.iter().zip(points.iter().skip(1)) {
            let dt = (t1 - t0).as_secs_f64();
            if dt > 0.0 {
                let rate = (v1 - v0) / dt;
                out.insert(&topic, Payload::new(rate.max(0.0), t1));
            }
        }
    }
    out
}

/// Runs a monitored full-machine HPL (scaled-down problem so the run fits
/// a simulation budget) and renders the Fig. 5 heatmaps with `bins` time
/// columns.
///
/// # Panics
///
/// Panics if `bins` is zero.
///
/// # Examples
///
/// ```
/// use cimone_cluster::experiments::monitored_hpl;
///
/// let result = monitored_hpl::run(4096, 24, 42);
/// assert_eq!(result.instructions.rows.len(), 8);
/// ```
pub fn run(problem_n: usize, bins: usize, seed: u64) -> MonitoredHplResult {
    assert!(bins > 0, "need at least one bin");
    let mut engine = SimEngine::new(EngineConfig {
        seed,
        ..EngineConfig::default()
    });
    let from = engine.now();
    engine
        .submit(JobRequest {
            name: "hpl-full-machine".into(),
            user: "bench".into(),
            nodes: 8,
            workload: ClusterWorkload::Hpl(HplProblem::new(problem_n, 192)),
        })
        .expect("8-node job fits the machine");
    let drained = engine.run_until_idle(SimDuration::from_secs(3600));
    assert!(drained, "HPL run should finish inside the budget");
    let to = engine.now();

    let schema = engine.schema().clone();
    let label_of = |name: &str| {
        name.parse::<Topic>()
            .ok()
            .and_then(|t| ExamonSchema::hostname_of(&t).map(str::to_owned))
            .unwrap_or_else(|| "?".to_owned())
    };

    let instret_filter = schema.pmu_metric_filter("instret");
    let rates = rate_store(engine.store(), &instret_filter);
    let instructions = Heatmap::from_store(
        "Instructions/s",
        &rates,
        &instret_filter,
        from,
        to,
        bins,
        Aggregation::Mean,
        label_of,
    );
    let network = Heatmap::from_store(
        "Network traffic (recv B/s)",
        engine.store(),
        &schema.stats_metric_filter("net_total.recv"),
        from,
        to,
        bins,
        Aggregation::Mean,
        label_of,
    );
    let memory = Heatmap::from_store(
        "Memory usage (bytes)",
        engine.store(),
        &schema.stats_metric_filter("memory_usage.used"),
        from,
        to,
        bins,
        Aggregation::Mean,
        label_of,
    );

    MonitoredHplResult {
        from,
        to,
        instructions,
        network,
        memory,
        store: engine.store().clone(),
    }
}

impl MonitoredHplResult {
    /// Renders the three panels.
    pub fn render(&self) -> String {
        format!(
            "Fig. 5 — ExaMon heatmaps during HPL ({}..{})\n\n{}\n{}\n{}",
            self.from,
            self.to,
            self.instructions.render(),
            self.network.render(),
            self.memory.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmaps_cover_all_eight_nodes() {
        let result = run(3072, 16, 2022);
        for hm in [&result.instructions, &result.network, &result.memory] {
            assert_eq!(hm.rows.len(), 8, "{}: {:?}", hm.title, hm.rows);
            assert_eq!(hm.bins(), 16);
        }
        assert!(result.instructions.rows[0].starts_with("mc-node-"));
    }

    #[test]
    fn instruction_rates_are_high_while_the_job_runs() {
        let result = run(3072, 8, 7);
        // Find the peak instructions/s cell: 4 busy cores retire > 1 Ginstr/s.
        let peak = result
            .instructions
            .values
            .iter()
            .flatten()
            .flatten()
            .fold(0.0f64, |a, &b| a.max(b));
        assert!(peak > 1.0e9, "peak rate {peak}");
    }

    #[test]
    fn network_heatmap_shows_traffic_during_the_run() {
        let result = run(3072, 8, 9);
        let any_traffic = result
            .network
            .values
            .iter()
            .flatten()
            .flatten()
            .any(|&v| v > 1e6);
        assert!(any_traffic, "multi-node HPL must move bytes");
    }

    #[test]
    fn render_contains_all_three_panels() {
        let text = run(2048, 8, 3).render();
        assert!(text.contains("Instructions/s"));
        assert!(text.contains("Network traffic"));
        assert!(text.contains("Memory usage"));
    }
}
