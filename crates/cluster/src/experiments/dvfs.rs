//! Extension experiment — dynamic power and thermal management (the
//! paper's future-work item ii).
//!
//! The same hazardous configuration that produces the Fig. 6 runaway
//! (lid-on enclosure, full-machine HPL) is run again with a per-node
//! thermal DVFS governor enabled. Instead of node 7 dying at 107 °C and
//! the job being requeued, the governor steps the hot node down the OPP
//! ladder: the run finishes — slower, because HPL is bulk-synchronous and
//! the throttled node gates everyone — but without ever reaching the trip
//! point. This is exactly the trade a production machine wants, and it
//! quantifies what the paper's "dynamic power and thermal management"
//! future work is worth.

use cimone_soc::units::{SimDuration, SimTime};

use crate::dpm::ThermalGovernor;
use crate::engine::{ClusterWorkload, EngineConfig, EngineEvent, JobRequest, SimEngine};
use crate::perf::HplProblem;
use crate::thermal::AirflowConfig;

/// The comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsResult {
    /// Without the governor: when (and how hot) node 7 tripped.
    pub ungoverned_trip: (SimTime, f64),
    /// With the governor: the hottest temperature any node ever reached.
    pub governed_max_temp: f64,
    /// With the governor: the lowest OPP index node 7 was throttled to
    /// (0 = the 400 MHz deep-throttle point).
    pub governed_min_opp: usize,
    /// Whether the governed run completed without any trip or requeue.
    pub governed_completed_cleanly: bool,
    /// Elapsed time of the governed run.
    pub governed_elapsed: SimDuration,
    /// Reference: the same job's elapsed time in the healthy (lid-off,
    /// nominal-frequency) configuration.
    pub healthy_elapsed: SimDuration,
}

/// Runs the three configurations: lid-on ungoverned (trips), lid-on
/// governed (throttles and completes), lid-off nominal (reference).
///
/// # Examples
///
/// ```no_run
/// use cimone_cluster::experiments::dvfs;
///
/// let result = dvfs::run(42);
/// assert!(result.governed_completed_cleanly);
/// assert!(result.governed_max_temp < 107.0);
/// ```
pub fn run(seed: u64) -> DvfsResult {
    let job = || JobRequest {
        name: "hpl-full-machine".into(),
        user: "bench".into(),
        nodes: 8,
        workload: ClusterWorkload::Hpl(HplProblem::paper()),
    };

    // 1. Ungoverned lid-on baseline: run until node 7 trips.
    let mut baseline = SimEngine::new(EngineConfig {
        airflow: AirflowConfig::LidOnTightStack,
        dt: SimDuration::from_secs(2),
        seed,
        monitoring: false,
        governor: None,
        recovery: None,
        ..EngineConfig::default()
    });
    baseline.submit(job()).expect("fits");
    let deadline = baseline.now() + SimDuration::from_secs(2500);
    let mut trip = None;
    while baseline.now() < deadline && trip.is_none() {
        baseline.step();
        trip = baseline.events().iter().find_map(|e| match e {
            EngineEvent::NodeTripped {
                at, temperature, ..
            } => Some((*at, temperature.as_f64())),
            _ => None,
        });
    }
    let ungoverned_trip = trip.expect("the ungoverned lid-on run must trip");

    // 2. Governed lid-on run: same machine, same job, governor on.
    let mut governed = SimEngine::new(EngineConfig {
        airflow: AirflowConfig::LidOnTightStack,
        dt: SimDuration::from_secs(2),
        seed,
        monitoring: false,
        governor: Some(ThermalGovernor::fu740_default()),
        recovery: None,
        ..EngineConfig::default()
    });
    governed.submit(job()).expect("fits");
    let mut governed_max_temp = 0.0f64;
    let mut governed_min_opp = usize::MAX;
    let deadline = governed.now() + SimDuration::from_secs(16_000);
    while governed.now() < deadline {
        governed.step();
        for i in 0..8 {
            governed_max_temp = governed_max_temp.max(governed.thermal().temperature(i).as_f64());
        }
        governed_min_opp = governed_min_opp.min(governed.nodes()[6].cpufreq().current_index());
        if governed.accounting().len() == 1 {
            break;
        }
    }
    let governed_completed_cleanly = governed.accounting().len() == 1
        && !governed.events().iter().any(|e| {
            matches!(
                e,
                EngineEvent::NodeTripped { .. } | EngineEvent::JobRequeued { .. }
            )
        });
    let governed_elapsed = governed
        .accounting()
        .records()
        .first()
        .map(|r| r.elapsed)
        .unwrap_or(SimDuration::ZERO);

    // 3. Healthy reference: lid-off at nominal frequency.
    let mut healthy = SimEngine::new(EngineConfig {
        airflow: AirflowConfig::LidOffSpaced,
        dt: SimDuration::from_secs(2),
        seed,
        monitoring: false,
        governor: None,
        recovery: None,
        ..EngineConfig::default()
    });
    healthy.submit(job()).expect("fits");
    healthy.run_until_idle(SimDuration::from_secs(12_000));
    let healthy_elapsed = healthy
        .accounting()
        .records()
        .first()
        .map(|r| r.elapsed)
        .unwrap_or(SimDuration::ZERO);

    DvfsResult {
        ungoverned_trip,
        governed_max_temp,
        governed_min_opp,
        governed_completed_cleanly,
        governed_elapsed,
        healthy_elapsed,
    }
}

impl DvfsResult {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "Dynamic thermal management (paper future work ii) — lid-on HPL, full machine\n\
             \n\
             ungoverned: node 7 trips at {:.1} °C ({}), job requeued — the Fig. 6 incident\n\
             governed:   max temp {:.1} °C (trip point 107 °C), node 7 throttled to OPP {} (400 MHz = 0),\n\
             \u{20}           run completes cleanly in {} ({:+.0}% vs the healthy lid-off run's {})\n",
            self.ungoverned_trip.1,
            self.ungoverned_trip.0,
            self.governed_max_temp,
            self.governed_min_opp,
            self.governed_elapsed,
            (self.governed_elapsed.as_secs_f64() / self.healthy_elapsed.as_secs_f64() - 1.0)
                * 100.0,
            self.healthy_elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_converts_the_trip_into_throttling() {
        let result = run(2022);
        // Without the governor the machine dies (Fig. 6)...
        assert!((result.ungoverned_trip.1 - 107.0).abs() < 2.0);
        // ...with it, the run completes below the trip point.
        assert!(result.governed_completed_cleanly, "{result:?}");
        assert!(
            result.governed_max_temp < 106.0,
            "max temp {}",
            result.governed_max_temp
        );
        // Node 7 really was throttled.
        assert!(
            result.governed_min_opp < 4,
            "opp {}",
            result.governed_min_opp
        );
        // Throttling costs time: slower than healthy, but the job finishes.
        assert!(result.governed_elapsed > result.healthy_elapsed);
        assert!(
            result.governed_elapsed.as_secs_f64() < result.healthy_elapsed.as_secs_f64() * 4.0,
            "governed run unreasonably slow: {}",
            result.governed_elapsed
        );
    }

    #[test]
    fn render_summarises_the_trade() {
        let text = run(7).render();
        assert!(text.contains("ungoverned: node 7 trips"));
        assert!(text.contains("run completes cleanly"));
    }
}
