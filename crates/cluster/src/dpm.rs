//! Dynamic power and thermal management — the paper's future-work item
//! (ii), implemented as a per-node thermal DVFS governor.
//!
//! The governor watches each node's SoC temperature and steps the core
//! complex down the OPP ladder when it approaches the trip point, stepping
//! back up once the silicon cools. With the paper's hazardous lid-on
//! enclosure this converts the Fig. 6 thermal *shutdown* into graceful
//! *throttling*: node 7 completes the HPL run slower instead of dying at
//! 107 °C (see `experiments::dvfs`).

use cimone_soc::units::Celsius;

/// What the governor wants done with a node's OPP this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorAction {
    /// Step one OPP down (throttle).
    StepDown,
    /// Step one OPP up (recover).
    StepUp,
    /// Stay put.
    Hold,
}

/// A hysteretic thermal governor.
///
/// # Examples
///
/// ```
/// use cimone_cluster::dpm::{GovernorAction, ThermalGovernor};
/// use cimone_soc::units::Celsius;
///
/// let governor = ThermalGovernor::fu740_default();
/// assert_eq!(governor.decide(Celsius::new(99.0)), GovernorAction::StepDown);
/// assert_eq!(governor.decide(Celsius::new(90.0)), GovernorAction::Hold);
/// assert_eq!(governor.decide(Celsius::new(60.0)), GovernorAction::StepUp);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalGovernor {
    /// Throttle when the SoC exceeds this temperature.
    pub throttle_above: Celsius,
    /// Recover (step up) only below this temperature; the gap is the
    /// hysteresis band that prevents OPP oscillation.
    pub release_below: Celsius,
}

impl ThermalGovernor {
    /// Defaults for the FU740: throttle above 95 °C (12 °C of margin to
    /// the 107 °C trip), recover below 85 °C.
    pub fn fu740_default() -> Self {
        ThermalGovernor {
            throttle_above: Celsius::new(95.0),
            release_below: Celsius::new(85.0),
        }
    }

    /// Creates a governor.
    ///
    /// # Panics
    ///
    /// Panics unless `release_below < throttle_above`.
    pub fn new(throttle_above: Celsius, release_below: Celsius) -> Self {
        assert!(
            release_below < throttle_above,
            "hysteresis requires release ({release_below}) < throttle ({throttle_above})"
        );
        ThermalGovernor {
            throttle_above,
            release_below,
        }
    }

    /// The action for a node at `temperature`.
    pub fn decide(&self, temperature: Celsius) -> GovernorAction {
        if temperature > self.throttle_above {
            GovernorAction::StepDown
        } else if temperature < self.release_below {
            GovernorAction::StepUp
        } else {
            GovernorAction::Hold
        }
    }
}

impl Default for ThermalGovernor {
    fn default() -> Self {
        ThermalGovernor::fu740_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimone_soc::cpufreq::CpuFreq;

    #[test]
    fn hysteresis_band_holds() {
        let g = ThermalGovernor::fu740_default();
        assert_eq!(g.decide(Celsius::new(96.0)), GovernorAction::StepDown);
        assert_eq!(g.decide(Celsius::new(95.0)), GovernorAction::Hold);
        assert_eq!(g.decide(Celsius::new(85.0)), GovernorAction::Hold);
        assert_eq!(g.decide(Celsius::new(84.9)), GovernorAction::StepUp);
    }

    #[test]
    fn driving_a_cpufreq_ladder_converges_not_oscillates() {
        // A node whose equilibrium sits between release and throttle ends
        // up holding a fixed OPP rather than bouncing.
        let g = ThermalGovernor::fu740_default();
        let mut cpufreq = CpuFreq::u740();
        // Simulated temperatures: hot at nominal, cooler per step down.
        let temp_at = |idx: usize| Celsius::new(75.0 + idx as f64 * 8.0);
        let mut history = Vec::new();
        for _ in 0..20 {
            match g.decide(temp_at(cpufreq.current_index())) {
                GovernorAction::StepDown => {
                    cpufreq.step_down();
                }
                GovernorAction::StepUp => {
                    cpufreq.step_up();
                }
                GovernorAction::Hold => {}
            }
            history.push(cpufreq.current_index());
        }
        // Settles: the last ten decisions do not change the OPP.
        let settled = history[history.len() - 10..]
            .windows(2)
            .all(|w| w[0] == w[1]);
        assert!(settled, "OPP history {history:?}");
    }

    #[test]
    #[should_panic(expected = "hysteresis requires")]
    fn inverted_band_panics() {
        let _ = ThermalGovernor::new(Celsius::new(80.0), Celsius::new(90.0));
    }
}
