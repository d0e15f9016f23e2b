//! The FU740 power-rail inventory and shunt-resistor sensing model.
//!
//! The HiFive Unmatched board routes each SoC supply through a dedicated
//! shunt resistor (paper §III), giving nine independently measurable rails.
//! Table VI of the paper reports per-rail power for every characterised
//! workload; [`Rail`] enumerates those rails in the table's order.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::units::Power;

/// One of the nine independently sensed FU740/board power rails.
///
/// Order matches Table VI of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rail {
    /// The U74-MC core complex supply.
    Core,
    /// DDR controller logic inside the SoC.
    DdrSoc,
    /// General purpose I/O supply.
    Io,
    /// SoC PLL supply.
    Pll,
    /// PCIe VP rail.
    PcieVp,
    /// PCIe VPH rail.
    PcieVph,
    /// On-board DDR4 memory devices.
    DdrMem,
    /// DDR PLL supply.
    DdrPll,
    /// DDR VPP (activation) supply.
    DdrVpp,
}

impl Rail {
    /// All rails in Table VI order.
    pub const ALL: [Rail; 9] = [
        Rail::Core,
        Rail::DdrSoc,
        Rail::Io,
        Rail::Pll,
        Rail::PcieVp,
        Rail::PcieVph,
        Rail::DdrMem,
        Rail::DdrPll,
        Rail::DdrVpp,
    ];

    /// The rail's name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Rail::Core => "core",
            Rail::DdrSoc => "ddr_soc",
            Rail::Io => "io",
            Rail::Pll => "pll",
            Rail::PcieVp => "pcievp",
            Rail::PcieVph => "pcievph",
            Rail::DdrMem => "ddr_mem",
            Rail::DdrPll => "ddr_pll",
            Rail::DdrVpp => "ddr_vpp",
        }
    }

    /// Index of the rail in [`Rail::ALL`].
    pub fn index(self) -> usize {
        Rail::ALL
            .iter()
            .position(|r| r == &self)
            .expect("rail in ALL")
    }

    /// The subsystem the rail belongs to, used for grouped trace plots
    /// (paper Fig. 3 groups core / DDR / PCIe+PLL+IO).
    pub fn subsystem(self) -> Subsystem {
        match self {
            Rail::Core => Subsystem::Core,
            Rail::DdrSoc | Rail::DdrMem | Rail::DdrPll | Rail::DdrVpp => Subsystem::Ddr,
            Rail::Io | Rail::Pll | Rail::PcieVp | Rail::PcieVph => Subsystem::Other,
        }
    }
}

impl fmt::Display for Rail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Grouping of rails used by the paper's trace figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The core complex.
    Core,
    /// Everything DDR-related (controller, devices, PLL, VPP).
    Ddr,
    /// PCIe, SoC PLL and IO.
    Other,
}

impl Subsystem {
    /// All subsystems in Fig. 3 order (top to bottom).
    pub const ALL: [Subsystem; 3] = [Subsystem::Core, Subsystem::Ddr, Subsystem::Other];

    /// Rails belonging to this subsystem.
    pub fn rails(self) -> impl Iterator<Item = Rail> {
        Rail::ALL.into_iter().filter(move |r| r.subsystem() == self)
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Subsystem::Core => "core",
            Subsystem::Ddr => "ddr",
            Subsystem::Other => "pcie+pll+io",
        };
        f.write_str(s)
    }
}

/// A per-rail vector of power readings — one full sample of the board's
/// telemetry.
///
/// # Examples
///
/// ```
/// use cimone_soc::rails::{Rail, RailPowers};
/// use cimone_soc::units::Power;
///
/// let mut sample = RailPowers::default();
/// sample[Rail::Core] = Power::from_milliwatts(3075.0);
/// assert_eq!(sample.total(), Power::from_milliwatts(3075.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RailPowers {
    values: [Power; 9],
}

impl RailPowers {
    /// Builds a sample from a closure evaluated per rail.
    pub fn from_fn(mut f: impl FnMut(Rail) -> Power) -> Self {
        let mut values = [Power::ZERO; 9];
        for rail in Rail::ALL {
            values[rail.index()] = f(rail);
        }
        RailPowers { values }
    }

    /// Sum over all rails (the paper's "Total" row).
    pub fn total(&self) -> Power {
        self.values.iter().copied().sum()
    }

    /// Sum over the rails of one subsystem.
    pub fn subsystem_total(&self, subsystem: Subsystem) -> Power {
        subsystem.rails().map(|r| self[r]).sum()
    }

    /// Iterates over `(rail, power)` pairs in Table VI order.
    pub fn iter(&self) -> impl Iterator<Item = (Rail, Power)> + '_ {
        Rail::ALL.into_iter().map(move |r| (r, self[r]))
    }

    /// The share of total power drawn by `rail`, in percent.
    ///
    /// Returns 0 when the total is zero.
    pub fn percent_of_total(&self, rail: Rail) -> f64 {
        let total = self.total().as_milliwatts();
        if total == 0.0 {
            0.0
        } else {
            self[rail].as_milliwatts() / total * 100.0
        }
    }
}

impl Index<Rail> for RailPowers {
    type Output = Power;
    fn index(&self, rail: Rail) -> &Power {
        &self.values[rail.index()]
    }
}

impl IndexMut<Rail> for RailPowers {
    fn index_mut(&mut self, rail: Rail) -> &mut Power {
        &mut self.values[rail.index()]
    }
}

/// The shunt-resistor current-sense front end for one rail.
///
/// Senses a "true" power value and returns what the ADC would report:
/// quantised to its LSB and clamped to non-negative.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuntSensor {
    rail: Rail,
    shunt_milliohm: f64,
    lsb_milliwatt: f64,
}

impl ShuntSensor {
    /// Creates a sensor for `rail` with the given shunt value and ADC
    /// resolution.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive.
    pub fn new(rail: Rail, shunt_milliohm: f64, lsb_milliwatt: f64) -> Self {
        assert!(shunt_milliohm > 0.0, "shunt must be positive");
        assert!(lsb_milliwatt > 0.0, "ADC LSB must be positive");
        ShuntSensor {
            rail,
            shunt_milliohm,
            lsb_milliwatt,
        }
    }

    /// A sensor with the board's typical 10 mΩ shunt and 1 mW resolution.
    pub fn board_default(rail: Rail) -> Self {
        ShuntSensor::new(rail, 10.0, 1.0)
    }

    /// The rail this sensor is attached to.
    pub fn rail(&self) -> Rail {
        self.rail
    }

    /// The shunt resistance in milliohms.
    pub fn shunt_milliohm(&self) -> f64 {
        self.shunt_milliohm
    }

    /// Quantises a true power value to what the telemetry reports.
    pub fn read(&self, true_power: Power) -> Power {
        let mw = true_power.clamp_non_negative().as_milliwatts();
        let quantised = (mw / self.lsb_milliwatt).round() * self.lsb_milliwatt;
        Power::from_milliwatts(quantised)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_names_match_paper_table() {
        let names: Vec<&str> = Rail::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "core", "ddr_soc", "io", "pll", "pcievp", "pcievph", "ddr_mem", "ddr_pll",
                "ddr_vpp"
            ]
        );
    }

    #[test]
    fn subsystems_partition_the_rails() {
        let count: usize = Subsystem::ALL.iter().map(|s| s.rails().count()).sum();
        assert_eq!(count, Rail::ALL.len());
        assert_eq!(Subsystem::Ddr.rails().count(), 4);
    }

    #[test]
    fn rail_powers_total_and_percent() {
        let sample = RailPowers::from_fn(|r| match r {
            Rail::Core => Power::from_milliwatts(3075.0),
            Rail::PcieVp => Power::from_milliwatts(521.0),
            Rail::PcieVph => Power::from_milliwatts(555.0),
            _ => Power::ZERO,
        });
        assert_eq!(sample.total(), Power::from_milliwatts(4151.0));
        let pcie = sample.subsystem_total(Subsystem::Other);
        assert_eq!(pcie, Power::from_milliwatts(1076.0));
        assert!((sample.percent_of_total(Rail::Core) - 74.08).abs() < 0.1);
    }

    #[test]
    fn percent_of_total_is_zero_for_empty_sample() {
        let sample = RailPowers::default();
        assert_eq!(sample.percent_of_total(Rail::Core), 0.0);
    }

    #[test]
    fn sensor_quantises_and_clamps() {
        let s = ShuntSensor::board_default(Rail::Core);
        assert_eq!(
            s.read(Power::from_milliwatts(3074.6)),
            Power::from_milliwatts(3075.0)
        );
        assert_eq!(s.read(Power::from_milliwatts(-5.0)), Power::ZERO);
    }

    #[test]
    fn rail_index_round_trips() {
        for (i, rail) in Rail::ALL.into_iter().enumerate() {
            assert_eq!(rail.index(), i);
        }
    }
}
