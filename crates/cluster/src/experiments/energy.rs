//! Extension experiment — energy to solution across the OPP ladder.
//!
//! With per-rail power telemetry and DVFS in hand, the natural operations
//! question is: *should Monte Cimone run HPL slower to save energy?* This
//! study computes time-to-solution, average power, energy-to-solution and
//! energy-delay product for a single-node HPL run at every fixed operating
//! point.
//!
//! The answer on this machine is **race-to-idle**: the PCIe + DDR floor
//! (the paper measures ~1.08 W of PCIe draw with nothing attached, plus
//! the DDR subsystem) is frequency-independent, so stretching the run at a
//! lower clock buys less dynamic energy than it pays in static energy.
//! The nominal 1.2 GHz point minimises both time *and* energy — which is
//! itself a useful characterisation result for this class of low-power
//! SoC.

use cimone_soc::cpufreq::CpuFreq;
use cimone_soc::power::PowerModel;
use cimone_soc::rails::Rail;
use cimone_soc::units::{Celsius, Energy, Power};
use cimone_soc::workload::Workload;

use crate::perf::{HplModel, HplProblem};
use crate::report::render_table;

/// One OPP's row.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyPoint {
    /// OPP index (0 = slowest).
    pub opp_index: usize,
    /// Human-readable OPP label.
    pub opp: String,
    /// Time to solution, seconds.
    pub seconds: f64,
    /// Average node power, watts.
    pub watts: f64,
    /// Energy to solution.
    pub energy: Energy,
    /// Energy-delay product, joule-seconds.
    pub edp: f64,
}

/// The study result.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyResult {
    /// The problem studied.
    pub problem: HplProblem,
    /// One row per OPP, ascending frequency.
    pub points: Vec<EnergyPoint>,
    /// Index of the energy-optimal OPP.
    pub energy_optimal: usize,
    /// Index of the time-optimal OPP.
    pub time_optimal: usize,
}

/// Computes the study for a single-node HPL run at 45 °C silicon.
///
/// # Examples
///
/// ```
/// use cimone_cluster::experiments::energy;
/// use cimone_cluster::perf::HplProblem;
///
/// let result = energy::run(HplProblem::paper());
/// // Race-to-idle: the nominal point wins on both axes.
/// assert_eq!(result.energy_optimal, result.time_optimal);
/// ```
pub fn run(problem: HplProblem) -> EnergyResult {
    let power = PowerModel::u740();
    let hpl = HplModel::monte_cimone(problem);
    let cpufreq = CpuFreq::u740();
    let nominal_seconds = hpl.run_time(1);
    let temp = Celsius::new(45.0);

    let mut points = Vec::new();
    for (i, opp) in cpufreq.opps().iter().enumerate() {
        let nominal = cpufreq.nominal();
        let perf = opp.performance_scale(nominal);
        let seconds = nominal_seconds / perf;
        // Node power at this OPP: the core rail scales, the rest do not.
        let node_power: Power = Rail::ALL
            .into_iter()
            .map(|rail| {
                let mean = power.leakage_at(rail, temp)
                    * if rail == Rail::Core {
                        opp.leakage_scale(nominal)
                    } else {
                        1.0
                    }
                    + power.rail(rail).dynamic_full()
                        * (power.rail(rail).activity(Workload::Hpl)
                            * if rail == Rail::Core {
                                opp.dynamic_scale(nominal)
                            } else {
                                1.0
                            });
                mean
            })
            .sum();
        let energy = Energy::from_joules(node_power.as_watts() * seconds);
        points.push(EnergyPoint {
            opp_index: i,
            opp: opp.to_string(),
            seconds,
            watts: node_power.as_watts(),
            edp: energy.as_joules() * seconds,
            energy,
        });
    }

    let argmin = |key: fn(&EnergyPoint) -> f64| {
        points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| key(a).total_cmp(&key(b)))
            .map(|(i, _)| i)
            .expect("non-empty OPP table")
    };
    EnergyResult {
        problem,
        energy_optimal: argmin(|p| p.energy.as_joules()),
        time_optimal: argmin(|p| p.seconds),
        points,
    }
}

impl EnergyResult {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Energy to solution — single-node HPL (N={}) across the OPP ladder\n",
            self.problem.n
        );
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.opp.clone(),
                    format!("{:.0}", p.seconds),
                    format!("{:.2}", p.watts),
                    format!("{:.0}", p.energy.as_joules() / 1000.0),
                    format!("{:.0}", p.edp / 1e6),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["OPP", "Time [s]", "Power [W]", "Energy [kJ]", "EDP [MJ·s]"],
            &rows,
        ));
        out.push_str(&format!(
            "\nenergy-optimal: {} | time-optimal: {} — {}\n",
            self.points[self.energy_optimal].opp,
            self.points[self.time_optimal].opp,
            if self.energy_optimal == self.time_optimal {
                "race-to-idle: the static PCIe/DDR floor makes slow runs cost MORE energy"
            } else {
                "an energy/performance trade-off exists"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn race_to_idle_holds_on_this_machine() {
        let result = run(HplProblem::paper());
        assert_eq!(result.points.len(), 5);
        // Nominal (last OPP) is both fastest and most energy-efficient.
        assert_eq!(result.time_optimal, 4);
        assert_eq!(result.energy_optimal, 4);
        // Energy decreases monotonically with frequency.
        for pair in result.points.windows(2) {
            assert!(
                pair[1].energy.as_joules() < pair[0].energy.as_joules(),
                "{} vs {}",
                pair[0].opp,
                pair[1].opp
            );
        }
    }

    #[test]
    fn nominal_numbers_are_consistent_with_the_paper() {
        let result = run(HplProblem::paper());
        let nominal = result.points.last().unwrap();
        // 5.935 W for 24105 s ≈ 143 kJ per node per run.
        assert!((nominal.watts - 5.935).abs() < 0.01, "{}", nominal.watts);
        assert!((nominal.seconds - 24105.0).abs() < 600.0);
        assert!((nominal.energy.as_joules() / 1000.0 - 143.0).abs() < 5.0);
    }

    #[test]
    fn power_decreases_down_the_ladder_even_though_energy_rises() {
        let result = run(HplProblem::paper());
        for pair in result.points.windows(2) {
            assert!(pair[0].watts < pair[1].watts, "power must grow with f");
        }
        let slowest = &result.points[0];
        let nominal = result.points.last().unwrap();
        assert!(slowest.watts < nominal.watts * 0.75);
        assert!(slowest.energy.as_joules() > nominal.energy.as_joules() * 1.2);
    }

    #[test]
    fn render_names_the_conclusion() {
        let text = run(HplProblem::paper()).render();
        assert!(text.contains("race-to-idle"), "{text}");
        assert!(text.contains("1.200 GHz"));
    }
}
