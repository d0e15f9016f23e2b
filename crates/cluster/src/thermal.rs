//! The enclosure thermal model behind Fig. 6.
//!
//! Each node's SoC temperature follows a lumped RC model
//!
//! ```text
//! C · dT/dt = P_soc − (T − T_env,i) / R_i
//! ```
//!
//! where the node's effective environment `T_env,i = T_ambient + ΔT_i`
//! bundles the heat recirculated from the blade PSUs and neighbouring
//! blades, and both `ΔT_i` and the thermal resistance `R_i` depend on the
//! [`AirflowConfig`]. With the original lid-on enclosure the centre blades
//! run hot and node 7's position (directly downstream of its PSU, worst
//! airflow) puts its equilibrium *above* the FU740's 107 °C trip point —
//! reproducing the paper's runaway. Removing the lid and spacing the
//! blades drops the same node to ≈39 °C, the paper's post-fix figure.

use cimone_soc::units::{Celsius, Power, SimDuration};

/// The FU740 thermal trip point observed in the paper.
pub const TRIP_POINT: Celsius = Celsius::new(107.0);

/// Enclosure airflow configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AirflowConfig {
    /// The original 1U case: lid on, blades tightly stacked, PSU exhaust
    /// recirculating (the paper's initial, hazardous configuration).
    LidOnTightStack,
    /// The paper's mitigation: lid removed, vertical spacing added.
    LidOffSpaced,
}

/// Per-node thermal parameters under one airflow config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeThermalParams {
    /// Thermal resistance, °C per watt of SoC power.
    pub resistance: f64,
    /// Environment offset over ambient, °C (PSU + neighbour recirculation).
    pub env_offset: f64,
    /// Heat capacity, joules per °C.
    pub capacity: f64,
}

/// The eight-node thermal model.
///
/// # Examples
///
/// ```
/// use cimone_cluster::thermal::{AirflowConfig, ThermalModel};
/// use cimone_soc::units::{Celsius, Power, SimDuration};
///
/// let mut model = ThermalModel::monte_cimone(AirflowConfig::LidOffSpaced);
/// let hpl = [Power::from_watts(5.935); 8];
/// for _ in 0..5000 {
///     model.step(&hpl, SimDuration::from_secs(1));
/// }
/// // Paper: ≈39 °C steady state after the mitigation.
/// assert!(model.temperature(6).as_f64() < 45.0);
/// ```
/// How badly a node's airflow is degraded by a dead blade fan.
///
/// The multipliers stack on top of the [`AirflowConfig`] baseline: a
/// direct hit (the node's own blade fan) roughly doubles the thermal
/// resistance and raises the local environment sharply; the blade in the
/// exhaust shadow sees a milder version of both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AirflowDegradation {
    /// Normal airflow.
    None,
    /// The node's own blade fan is dead.
    Direct,
    /// The node sits in a dead fan's exhaust shadow (the blade above).
    Shadow,
}

impl AirflowDegradation {
    /// `(resistance multiplier, env-offset delta °C)` for this state.
    fn factors(self) -> (f64, f64) {
        match self {
            AirflowDegradation::None => (1.0, 0.0),
            AirflowDegradation::Direct => (1.8, 12.0),
            AirflowDegradation::Shadow => (1.2, 5.0),
        }
    }
}

/// Lumped-capacitance thermal model of the enclosure: per-node heat-up,
/// airflow coupling (including dead-fan degradation), and trip latches.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    config: AirflowConfig,
    ambient: Celsius,
    params: Vec<NodeThermalParams>,
    temperatures: Vec<f64>,
    tripped: Vec<bool>,
    /// Exponential leakage feedback: extra SoC watts per °C above 45 °C.
    leakage_feedback_w_per_deg: f64,
    /// Per-node fan-failure airflow state (default all `None`).
    airflow_degradation: Vec<AirflowDegradation>,
}

impl ThermalModel {
    /// The calibrated Monte Cimone model (8 nodes, 25 °C machine room).
    ///
    /// Calibration anchors (paper §V-C): under the lid-on config during
    /// HPL, edge nodes settle in the 60s °C, centre nodes around 71 °C and
    /// node 7 diverges past the 107 °C trip; lid-off all nodes settle near
    /// 39 °C.
    pub fn monte_cimone(config: AirflowConfig) -> Self {
        let ambient = Celsius::new(25.0);
        let params = (0..8)
            .map(|i| match config {
                AirflowConfig::LidOnTightStack => {
                    // Node 7 (index 6) sits directly downstream of its PSU:
                    // worst airflow in the stack.
                    let (resistance, env_offset) = match i {
                        6 => (6.2, 48.0),
                        2..=5 => (2.6, 31.0),
                        _ => (2.5, 25.0),
                    };
                    NodeThermalParams {
                        resistance,
                        env_offset,
                        capacity: 60.0,
                    }
                }
                AirflowConfig::LidOffSpaced => NodeThermalParams {
                    resistance: 2.0,
                    env_offset: 1.8,
                    capacity: 60.0,
                },
            })
            .collect();
        ThermalModel {
            config,
            ambient,
            temperatures: vec![ambient.as_f64() + 8.0; 8],
            tripped: vec![false; 8],
            params,
            leakage_feedback_w_per_deg: 0.012,
            airflow_degradation: vec![AirflowDegradation::None; 8],
        }
    }

    /// Overrides the internal leakage-feedback coefficient (watts of extra
    /// SoC power per °C above 45 °C). The simulation engine sets this to
    /// zero because its power samples already carry temperature-dependent
    /// leakage — leaving both on would double-count the feedback loop.
    pub fn with_leakage_feedback(mut self, w_per_deg: f64) -> Self {
        assert!(w_per_deg >= 0.0, "feedback must be non-negative");
        self.leakage_feedback_w_per_deg = w_per_deg;
        self
    }

    /// The active airflow configuration.
    pub fn config(&self) -> AirflowConfig {
        self.config
    }

    /// Switches airflow config in place (the paper's mitigation), keeping
    /// current temperatures.
    pub fn set_config(&mut self, config: AirflowConfig) {
        let fresh = ThermalModel::monte_cimone(config);
        self.config = config;
        self.params = fresh.params;
        // The feedback coefficient is a property of this instance (the
        // engine zeroes it), not of the airflow config: keep it.
    }

    /// Machine-room ambient.
    pub fn ambient(&self) -> Celsius {
        self.ambient
    }

    /// Number of nodes modelled.
    pub fn node_count(&self) -> usize {
        self.temperatures.len()
    }

    /// Current SoC temperature of node `i`.
    pub fn temperature(&self, i: usize) -> Celsius {
        Celsius::new(self.temperatures[i])
    }

    /// Motherboard temperature estimate (tracks the SoC loosely).
    pub fn mb_temperature(&self, i: usize) -> Celsius {
        Celsius::new(self.ambient.as_f64() + (self.temperatures[i] - self.ambient.as_f64()) * 0.4)
    }

    /// NVMe temperature estimate.
    pub fn nvme_temperature(&self, i: usize) -> Celsius {
        Celsius::new(
            self.ambient.as_f64() + (self.temperatures[i] - self.ambient.as_f64()) * 0.3 + 4.0,
        )
    }

    /// Sets node `i`'s fan-failure airflow state (the engine drives this
    /// from [`crate::faults::FaultKind::FanFailure`] spans).
    pub fn set_airflow_degradation(&mut self, i: usize, state: AirflowDegradation) {
        self.airflow_degradation[i] = state;
    }

    /// Node `i`'s current fan-failure airflow state.
    pub fn airflow_degradation(&self, i: usize) -> AirflowDegradation {
        self.airflow_degradation[i]
    }

    /// The node's effective `(resistance, env_offset)` with any airflow
    /// degradation applied on top of the baseline config.
    fn effective_params(&self, i: usize) -> (f64, f64) {
        let prm = &self.params[i];
        let (r_mul, off_delta) = self.airflow_degradation[i].factors();
        (prm.resistance * r_mul, prm.env_offset + off_delta)
    }

    /// Whether node `i` has hit the trip point.
    pub fn is_tripped(&self, i: usize) -> bool {
        self.tripped[i]
    }

    /// Clears a trip latch (node restarted after cooling).
    pub fn clear_trip(&mut self, i: usize) {
        self.tripped[i] = false;
    }

    /// Steady-state temperature of node `i` at SoC power `p` (ignoring the
    /// leakage feedback).
    pub fn equilibrium(&self, i: usize, p: Power) -> Celsius {
        let (resistance, env_offset) = self.effective_params(i);
        Celsius::new(self.ambient.as_f64() + env_offset + resistance * p.as_watts())
    }

    /// Advances the model by `dt` under the given per-node SoC powers.
    /// Returns the indices of nodes that crossed the trip point during
    /// this step.
    ///
    /// The RC update is a pure function of (temperatures, powers, dt),
    /// so once a step leaves every temperature bitwise unchanged under
    /// constant powers, all further steps are no-ops — the fixed-point
    /// argument behind the §13 equilibrium jump and the frozen-thermal
    /// phase of the §16 sampled-span replay.
    ///
    /// # Panics
    ///
    /// Panics if `powers` does not cover every node.
    pub fn step(&mut self, powers: &[Power], dt: SimDuration) -> Vec<usize> {
        assert_eq!(
            powers.len(),
            self.temperatures.len(),
            "one power sample per node required"
        );
        let mut newly_tripped = Vec::new();
        let secs = dt.as_secs_f64();
        #[allow(clippy::needless_range_loop)] // index drives four parallel per-node arrays
        for i in 0..self.temperatures.len() {
            let (resistance, env_offset) = self.effective_params(i);
            let capacity = self.params[i].capacity;
            let temp = self.temperatures[i];
            // Leakage rises with temperature, closing the runaway loop.
            let feedback = self.leakage_feedback_w_per_deg * (temp - 45.0).max(0.0);
            let p = powers[i].as_watts() + feedback;
            let env = self.ambient.as_f64() + env_offset;
            let d_temp = (p - (temp - env) / resistance) / capacity * secs;
            let updated = temp + d_temp;
            self.temperatures[i] = updated;
            if updated >= TRIP_POINT.as_f64() && !self.tripped[i] {
                self.tripped[i] = true;
                newly_tripped.push(i);
            }
        }
        newly_tripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_steady(model: &mut ThermalModel, powers: &[Power; 8], secs: u64) {
        for _ in 0..secs {
            model.step(powers, SimDuration::from_secs(1));
        }
    }

    #[test]
    fn lid_off_settles_near_the_paper_value() {
        let mut model = ThermalModel::monte_cimone(AirflowConfig::LidOffSpaced);
        let hpl = [Power::from_watts(5.935); 8];
        run_to_steady(&mut model, &hpl, 3000);
        for i in 0..8 {
            let t = model.temperature(i).as_f64();
            assert!((36.0..42.0).contains(&t), "node {i}: {t} °C");
            assert!(!model.is_tripped(i));
        }
    }

    #[test]
    fn lid_on_makes_centre_nodes_hotter_and_node7_run_away() {
        let mut model = ThermalModel::monte_cimone(AirflowConfig::LidOnTightStack);
        let hpl = [Power::from_watts(5.935); 8];
        let mut tripped = Vec::new();
        for _ in 0..4000 {
            tripped.extend(model.step(&hpl, SimDuration::from_secs(1)));
        }
        // Node 7 (index 6) trips at 107 °C, as in the paper.
        assert_eq!(tripped, vec![6]);
        assert!(model.temperature(6).as_f64() >= 107.0);
        // Centre nodes are significantly hotter than edge nodes (~71 vs ~60s).
        let centre = model.temperature(3).as_f64();
        let edge = model.temperature(0).as_f64();
        assert!(centre > edge + 4.0, "centre {centre}, edge {edge}");
        assert!((67.0..76.0).contains(&centre), "centre {centre}");
    }

    #[test]
    fn mitigation_cools_the_hot_node_from_71_to_39() {
        // Paper: after removing the lid, the hotter (surviving) node went
        // from 71 °C to 39 °C.
        let mut model = ThermalModel::monte_cimone(AirflowConfig::LidOnTightStack);
        let hpl = [Power::from_watts(5.935); 8];
        run_to_steady(&mut model, &hpl, 2500);
        let before = model.temperature(3).as_f64();
        assert!((before - 71.0).abs() < 3.0, "pre-fix {before}");
        model.set_config(AirflowConfig::LidOffSpaced);
        run_to_steady(&mut model, &hpl, 2500);
        let after = model.temperature(3).as_f64();
        assert!((after - 39.0).abs() < 3.0, "post-fix {after}");
    }

    #[test]
    fn idle_machine_stays_cool_in_both_configs() {
        for config in [AirflowConfig::LidOnTightStack, AirflowConfig::LidOffSpaced] {
            let mut model = ThermalModel::monte_cimone(config);
            let idle = [Power::from_watts(4.81); 8];
            run_to_steady(&mut model, &idle, 3000);
            for i in 0..6 {
                assert!(
                    model.temperature(i).as_f64() < 70.0,
                    "{config:?} node {i}: {}",
                    model.temperature(i)
                );
            }
        }
    }

    #[test]
    fn higher_resistance_means_higher_equilibrium() {
        let model = ThermalModel::monte_cimone(AirflowConfig::LidOnTightStack);
        let p = Power::from_watts(5.0);
        assert!(model.equilibrium(6, p) > model.equilibrium(0, p));
    }

    #[test]
    fn trip_latch_fires_once_and_can_be_cleared() {
        let mut model = ThermalModel::monte_cimone(AirflowConfig::LidOnTightStack);
        let hot = [Power::from_watts(35.0); 8];
        let mut all: Vec<usize> = Vec::new();
        for _ in 0..5000 {
            all.extend(model.step(&hot, SimDuration::from_secs(1)));
        }
        // Every node trips exactly once at 20 W.
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "trip events must not repeat");
        assert!(model.is_tripped(0));
        model.clear_trip(0);
        assert!(!model.is_tripped(0));
    }

    #[test]
    fn fan_failure_raises_equilibrium_and_shadow_raises_it_less() {
        let mut model = ThermalModel::monte_cimone(AirflowConfig::LidOffSpaced);
        let p = Power::from_watts(5.935);
        let healthy = model.equilibrium(0, p).as_f64();
        model.set_airflow_degradation(0, AirflowDegradation::Direct);
        model.set_airflow_degradation(2, AirflowDegradation::Shadow);
        let direct = model.equilibrium(0, p).as_f64();
        let shadow = model.equilibrium(2, p).as_f64();
        assert!(
            direct > shadow && shadow > healthy,
            "{direct} {shadow} {healthy}"
        );
        // Lid-off, a dead fan degrades but does not trip (the node lands
        // around 60 °C, well under the 107 °C point).
        assert!(direct < TRIP_POINT.as_f64());
        // Clearing the fault restores the baseline exactly.
        model.set_airflow_degradation(0, AirflowDegradation::None);
        assert_eq!(model.equilibrium(0, p).as_f64(), healthy);
    }

    #[test]
    fn fan_failure_compounds_the_lid_on_runaway() {
        // With the original enclosure, losing node 7's blade fan pushes its
        // already-pathological equilibrium far past the trip point — the
        // correlated version of the Fig. 6 incident.
        let mut model = ThermalModel::monte_cimone(AirflowConfig::LidOnTightStack);
        let p = Power::from_watts(5.935);
        let before = model.equilibrium(6, p).as_f64();
        model.set_airflow_degradation(6, AirflowDegradation::Direct);
        assert!(model.equilibrium(6, p).as_f64() > before + 30.0);
    }

    #[test]
    fn sensor_estimates_track_the_soc() {
        let model = ThermalModel::monte_cimone(AirflowConfig::LidOffSpaced);
        let cpu = model.temperature(0).as_f64();
        assert!(model.mb_temperature(0).as_f64() < cpu);
        assert!(model.nvme_temperature(0).as_f64() < cpu);
    }
}
