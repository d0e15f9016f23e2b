//! Fig. 6: the thermal-runaway incident and its mitigation.
//!
//! With the original lid-on enclosure, a full-machine HPL run drives node
//! 7 past the FU740's 107 °C trip point: the node shuts down mid-run and
//! the scheduler requeues the job — precisely the incident the paper's
//! monitoring caught. Removing the lid and spacing the blades (the paper's
//! fix) drops the hot node from ≈71 °C to ≈39 °C.

use cimone_monitor::anomaly::{Alarm, ThermalRunawayDetector};
use cimone_soc::units::{SimDuration, SimTime};

use crate::engine::{ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine};
use crate::perf::HplProblem;
use crate::thermal::AirflowConfig;

/// The experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalRunawayResult {
    /// The tripped node index (paper: node 7 → index 6).
    pub tripped_node: usize,
    /// Trip time.
    pub tripped_at: SimTime,
    /// Temperature at the trip, °C.
    pub trip_temperature: f64,
    /// Whether the victim job was requeued by the scheduler.
    pub job_requeued: bool,
    /// Alarms the ExaMon detector raises on node 7's temperature series.
    pub alarms: Vec<Alarm>,
    /// Hottest surviving node's temperature before the fix, °C (paper ≈71).
    pub pre_fix_hot_temp: f64,
    /// The same node's steady temperature after the fix, °C (paper ≈39).
    pub post_fix_temp: f64,
    /// The monitored temperature series of node 7, for plotting.
    pub node7_series: Vec<(f64, f64)>,
}

/// Runs the incident and the mitigation.
///
/// # Examples
///
/// ```no_run
/// use cimone_cluster::experiments::thermal_runaway;
///
/// let result = thermal_runaway::run(42);
/// assert_eq!(result.tripped_node, 6);
/// assert!(result.job_requeued);
/// ```
pub fn run(seed: u64) -> ThermalRunawayResult {
    let mut engine = SimEngine::new(EngineConfig {
        airflow: AirflowConfig::LidOnTightStack,
        dt: SimDuration::from_secs(1),
        seed,
        monitoring: true,
        governor: None,
        recovery: None,
        ..EngineConfig::default()
    });
    engine
        .submit(JobRequest {
            name: "hpl-full-machine".into(),
            user: "bench".into(),
            nodes: 8,
            workload: ClusterWorkload::Hpl(HplProblem::paper()),
        })
        .expect("job fits the machine");

    // Phase 1: run with the lid on until the trip (the paper's incident).
    let deadline = engine.now() + SimDuration::from_secs(2500);
    let mut trip: Option<(usize, SimTime, f64)> = None;
    while engine.now() < deadline && trip.is_none() {
        engine.step();
        trip = engine.events().iter().find_map(|e| match e {
            EngineEvent::NodeTripped {
                node,
                at,
                temperature,
            } => Some((*node, *at, temperature.as_f64())),
            _ => None,
        });
    }
    let (tripped_node, tripped_at, trip_temperature) =
        trip.expect("lid-on HPL must trip a node within the budget");
    let job_requeued = engine
        .events()
        .iter()
        .any(|e| matches!(e, EngineEvent::JobRequeued { .. }));

    // Hottest *surviving* node before the fix.
    let pre_fix_hot_temp = (0..8)
        .filter(|i| *i != tripped_node)
        .map(|i| engine.thermal().temperature(i).as_f64())
        .fold(f64::MIN, f64::max);

    // The ExaMon view: scan node 7's published temperature series.
    let series_name = format!(
        "org/unibo/cluster/cimone/node/mc-node-{:02}/plugin/dstat_pub/chnl/data/temperature.cpu_temp",
        tripped_node + 1
    );
    let detector = ThermalRunawayDetector::fu740_default();
    let alarms = detector.scan(engine.store(), &series_name, SimTime::ZERO, engine.now());
    let node7_series: Vec<(f64, f64)> = engine
        .store()
        .query(&series_name, SimTime::ZERO, engine.now())
        .iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();

    // Phase 2: the mitigation — lid off, spacing added, node restored.
    engine.set_airflow(AirflowConfig::LidOffSpaced);
    engine.resume_node(tripped_node);
    engine.run_for(SimDuration::from_secs(1500));
    let hot_index = (0..8)
        .filter(|i| *i != tripped_node)
        .map(|i| (i, engine.thermal().temperature(i).as_f64()))
        .fold(
            (0, f64::MIN),
            |best, cur| if cur.1 > best.1 { cur } else { best },
        )
        .0;
    let post_fix_temp = engine.thermal().temperature(hot_index).as_f64();

    ThermalRunawayResult {
        tripped_node,
        tripped_at,
        trip_temperature,
        job_requeued,
        alarms,
        pre_fix_hot_temp,
        post_fix_temp,
        node7_series,
    }
}

impl ThermalRunawayResult {
    /// Renders the incident report.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 6 — Thermal runaway during HPL (lid-on enclosure)\n");
        out.push_str(&format!(
            "node {} tripped at {} ({:.1} °C); job requeued: {}\n",
            self.tripped_node + 1,
            self.tripped_at,
            self.trip_temperature,
            self.job_requeued
        ));
        out.push_str(&format!(
            "hottest surviving node before fix: {:.1} °C; after lid removal + spacing: {:.1} °C\n",
            self.pre_fix_hot_temp, self.post_fix_temp
        ));
        out.push_str("\nExaMon alarms on node 7's cpu_temp series:\n");
        for alarm in &self.alarms {
            out.push_str(&format!(
                "  [{}] {} at {}\n",
                alarm.severity, alarm.message, alarm.at
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_incident_reproduces_end_to_end() {
        let result = run(2022);
        // Node 7 (index 6) trips at 107 °C.
        assert_eq!(result.tripped_node, 6);
        assert!(
            (result.trip_temperature - 107.0).abs() < 1.5,
            "{}",
            result.trip_temperature
        );
        // Slurm requeues the victim job.
        assert!(result.job_requeued);
        // ExaMon raises a critical alarm from the published series.
        assert!(result
            .alarms
            .iter()
            .any(|a| a.severity == cimone_monitor::anomaly::Severity::Critical));
        // Pre-fix hot node ≈71 °C, post-fix ≈39 °C (the paper's numbers).
        assert!(
            (result.pre_fix_hot_temp - 71.0).abs() < 4.0,
            "{}",
            result.pre_fix_hot_temp
        );
        assert!(
            (result.post_fix_temp - 39.0).abs() < 3.0,
            "{}",
            result.post_fix_temp
        );
        // The published series actually climbed.
        let first = result.node7_series.first().unwrap().1;
        let last = result.node7_series.last().unwrap().1;
        assert!(last > first + 40.0, "series climbed {first} -> {last}");
    }

    #[test]
    fn render_reads_like_an_incident_report() {
        let text = run(5).render();
        assert!(text.contains("node 7 tripped"));
        assert!(text.contains("job requeued: true"));
        assert!(text.contains("CRITICAL"));
    }
}
