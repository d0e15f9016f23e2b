//! CPU frequency/voltage scaling (DVFS) for the U74 core complex.
//!
//! The paper's future work list includes "implement dynamic power and
//! thermal management" — this module provides the hardware half: a table
//! of operating performance points (OPPs) and the scaling laws that map an
//! OPP to performance, dynamic power (`∝ f·V²`) and leakage (`∝ V`)
//! relative to the nominal 1.2 GHz point the rest of the model is
//! calibrated at. The policy half (a thermal governor) lives in
//! `cimone-cluster::dpm`.

use std::fmt;

use crate::units::Frequency;

/// One operating performance point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core clock.
    pub frequency: Frequency,
    /// Supply voltage, volts.
    pub voltage: f64,
}

impl OperatingPoint {
    /// Creates an OPP.
    ///
    /// # Panics
    ///
    /// Panics for non-positive frequency or voltage.
    pub fn new(frequency: Frequency, voltage: f64) -> Self {
        assert!(frequency.as_hz() > 0.0, "frequency must be positive");
        assert!(voltage > 0.0, "voltage must be positive");
        OperatingPoint { frequency, voltage }
    }

    /// Throughput relative to `nominal` (`f/f₀` — the in-order pipeline's
    /// IPC is frequency independent).
    pub fn performance_scale(&self, nominal: &OperatingPoint) -> f64 {
        self.frequency.as_hz() / nominal.frequency.as_hz()
    }

    /// Dynamic-power factor relative to `nominal` (`(f/f₀)·(V/V₀)²`).
    pub fn dynamic_scale(&self, nominal: &OperatingPoint) -> f64 {
        self.performance_scale(nominal) * (self.voltage / nominal.voltage).powi(2)
    }

    /// Leakage factor relative to `nominal` (`V/V₀`, first order).
    pub fn leakage_scale(&self, nominal: &OperatingPoint) -> f64 {
        self.voltage / nominal.voltage
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.2} V", self.frequency, self.voltage)
    }
}

/// The scaling factors the power model applies to the core rail for the
/// currently selected OPP (both 1.0 at nominal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsScale {
    /// Multiplier on the dynamic power component.
    pub dynamic: f64,
    /// Multiplier on the leakage component.
    pub leakage: f64,
}

impl Default for DvfsScale {
    fn default() -> Self {
        DvfsScale {
            dynamic: 1.0,
            leakage: 1.0,
        }
    }
}

/// The per-hart-complex cpufreq state: an OPP table plus the selected
/// index.
///
/// # Examples
///
/// ```
/// use cimone_soc::cpufreq::CpuFreq;
///
/// let mut cpufreq = CpuFreq::u740();
/// assert_eq!(cpufreq.performance_scale(), 1.0); // boots at nominal
/// cpufreq.step_down();
/// assert!(cpufreq.performance_scale() < 1.0);
/// assert!(cpufreq.scale().dynamic < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuFreq {
    /// Available OPPs, ascending frequency; the last is nominal.
    opps: Vec<OperatingPoint>,
    current: usize,
}

impl CpuFreq {
    /// The U740 OPP table used by this reproduction:
    /// 400/600/800/1000/1200 MHz with a conservative voltage ladder,
    /// booting at the nominal 1.2 GHz point. The 400 MHz point is the
    /// deep-throttle state a thermal governor needs for a node with
    /// pathological airflow (Fig. 6's node 7).
    pub fn u740() -> Self {
        let opps = vec![
            OperatingPoint::new(Frequency::from_mhz(400.0), 0.80),
            OperatingPoint::new(Frequency::from_mhz(600.0), 0.85),
            OperatingPoint::new(Frequency::from_mhz(800.0), 0.90),
            OperatingPoint::new(Frequency::from_mhz(1000.0), 0.95),
            OperatingPoint::new(Frequency::from_mhz(1200.0), 1.00),
        ];
        let current = opps.len() - 1;
        CpuFreq { opps, current }
    }

    /// Creates a custom table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or not sorted by ascending frequency.
    pub fn new(opps: Vec<OperatingPoint>) -> Self {
        assert!(!opps.is_empty(), "need at least one OPP");
        assert!(
            opps.windows(2)
                .all(|w| w[0].frequency.as_hz() < w[1].frequency.as_hz()),
            "OPPs must be sorted by ascending frequency"
        );
        let current = opps.len() - 1;
        CpuFreq { opps, current }
    }

    /// The available OPPs, ascending.
    pub fn opps(&self) -> &[OperatingPoint] {
        &self.opps
    }

    /// The nominal (highest) OPP the models are calibrated at.
    pub fn nominal(&self) -> &OperatingPoint {
        self.opps.last().expect("non-empty by construction")
    }

    /// The selected OPP.
    pub fn current(&self) -> &OperatingPoint {
        &self.opps[self.current]
    }

    /// The selected index (0 = slowest).
    pub fn current_index(&self) -> usize {
        self.current
    }

    /// Whether the complex runs at the nominal point.
    pub fn is_nominal(&self) -> bool {
        self.current == self.opps.len() - 1
    }

    /// Selects an OPP by index.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn set_index(&mut self, index: usize) {
        assert!(index < self.opps.len(), "OPP index {index} out of range");
        self.current = index;
    }

    /// Steps one OPP down (towards lower frequency); returns whether the
    /// state changed.
    pub fn step_down(&mut self) -> bool {
        if self.current > 0 {
            self.current -= 1;
            true
        } else {
            false
        }
    }

    /// Steps one OPP up (towards nominal); returns whether the state
    /// changed.
    pub fn step_up(&mut self) -> bool {
        if self.current + 1 < self.opps.len() {
            self.current += 1;
            true
        } else {
            false
        }
    }

    /// Throughput factor relative to nominal.
    pub fn performance_scale(&self) -> f64 {
        self.current().performance_scale(self.nominal())
    }

    /// The power-model scaling factors for the core rail.
    pub fn scale(&self) -> DvfsScale {
        DvfsScale {
            dynamic: self.current().dynamic_scale(self.nominal()),
            leakage: self.current().leakage_scale(self.nominal()),
        }
    }

    /// The scaling factors the complex *would* have at OPP `index` —
    /// what-if power prediction for cap governors, without changing state.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn scale_at(&self, index: usize) -> DvfsScale {
        let opp = &self.opps[index];
        DvfsScale {
            dynamic: opp.dynamic_scale(self.nominal()),
            leakage: opp.leakage_scale(self.nominal()),
        }
    }
}

impl Default for CpuFreq {
    fn default() -> Self {
        CpuFreq::u740()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u740_table_boots_nominal() {
        let cpufreq = CpuFreq::u740();
        assert_eq!(cpufreq.opps().len(), 5);
        assert!(cpufreq.is_nominal());
        assert_eq!(cpufreq.performance_scale(), 1.0);
        assert_eq!(cpufreq.scale().dynamic, 1.0);
        assert_eq!(cpufreq.scale().leakage, 1.0);
    }

    #[test]
    fn stepping_down_trades_performance_for_power_superlinearly() {
        let mut cpufreq = CpuFreq::u740();
        let mut last_perf = 1.0;
        let mut last_dyn = 1.0;
        while cpufreq.step_down() {
            let perf = cpufreq.performance_scale();
            let scale = cpufreq.scale();
            assert!(perf < last_perf);
            assert!(scale.dynamic < last_dyn);
            // f·V² shrinks faster than f: that is the point of DVFS.
            assert!(scale.dynamic < perf, "{} !< {perf}", scale.dynamic);
            assert!(scale.leakage <= 1.0);
            last_perf = perf;
            last_dyn = scale.dynamic;
        }
        // Bottom of the ladder: 400 MHz = one third of nominal throughput...
        assert!((cpufreq.performance_scale() - 1.0 / 3.0).abs() < 1e-12);
        // ...at ~21 % of the nominal dynamic power.
        assert!((cpufreq.scale().dynamic - 0.8f64.powi(2) / 3.0).abs() < 1e-12);
        assert!(!cpufreq.step_down(), "cannot go below the lowest OPP");
    }

    #[test]
    fn scale_at_predicts_without_mutating() {
        let cpufreq = CpuFreq::u740();
        let predicted = cpufreq.scale_at(0);
        assert!((predicted.dynamic - 0.8f64.powi(2) / 3.0).abs() < 1e-12);
        assert!((predicted.leakage - 0.8).abs() < 1e-12);
        assert!(cpufreq.is_nominal(), "prediction must not change state");
        assert_eq!(cpufreq.scale_at(4), cpufreq.scale());
    }

    #[test]
    fn stepping_up_returns_to_nominal() {
        let mut cpufreq = CpuFreq::u740();
        cpufreq.set_index(0);
        while cpufreq.step_up() {}
        assert!(cpufreq.is_nominal());
        assert!(!cpufreq.step_up());
    }

    #[test]
    #[should_panic(expected = "sorted by ascending frequency")]
    fn unsorted_tables_panic() {
        let _ = CpuFreq::new(vec![
            OperatingPoint::new(Frequency::from_mhz(1200.0), 1.0),
            OperatingPoint::new(Frequency::from_mhz(600.0), 0.85),
        ]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let mut cpufreq = CpuFreq::u740();
        cpufreq.set_index(9);
    }
}
