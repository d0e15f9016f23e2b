//! The boot-sequence power model (paper Fig. 4 and §V-B).
//!
//! Booting the FU740 exposes three power regions the paper uses to
//! decompose core power without lab equipment:
//!
//! * **R1** — supply on, clock gated: pure leakage (0.984 W core).
//! * **R2** — PLL active, bootloader running, DDR training: leakage plus
//!   clock tree and dynamic power (2.561 W core).
//! * **R3** — OS idle (≈ the Idle column of Table VI).
//!
//! The decomposition follows the paper: leakage = R1 (32 % of core idle),
//! dynamic + clock tree = R2 − R1 (51 %), OS = Idle − R2 (17 %).

use rand::Rng;

use crate::noise::GaussianNoise;
use crate::power::{BootColumn, PowerModel, PowerTrace};
use crate::rails::{Rail, RailPowers};
use crate::units::{Power, SimDuration, SimTime};
use crate::workload::Workload;

/// The phase of the boot process at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootRegion {
    /// Board not yet powered.
    Off,
    /// Power applied, clock gated: leakage only.
    R1,
    /// PLL active, bootloader and DDR training running.
    R2,
    /// Operating system idle.
    R3,
}

impl BootRegion {
    /// The paper's label for the region.
    pub fn name(self) -> &'static str {
        match self {
            BootRegion::Off => "off",
            BootRegion::R1 => "R1",
            BootRegion::R2 => "R2",
            BootRegion::R3 => "R3",
        }
    }
}

impl std::fmt::Display for BootRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The timed boot sequence of one node.
///
/// # Examples
///
/// ```
/// use cimone_soc::boot::{BootRegion, BootSequence};
/// use cimone_soc::units::SimTime;
///
/// let boot = BootSequence::u740_default();
/// assert_eq!(boot.region_at(SimTime::from_secs(6)), BootRegion::R1);
/// assert_eq!(boot.region_at(SimTime::from_secs(20)), BootRegion::R2);
/// assert_eq!(boot.region_at(SimTime::from_secs(60)), BootRegion::R3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BootSequence {
    power_on: SimTime,
    pll_activation: SimTime,
    os_ready: SimTime,
    os_boot_ramp: SimDuration,
}

impl BootSequence {
    /// The timing observed on the FU740 (Fig. 4): power-on at 4 s, PLL
    /// activation at 10 s, OS ready at 40 s, with power ramping towards the
    /// idle level over the last 10 s of R2 as the kernel boots.
    pub fn u740_default() -> Self {
        BootSequence {
            power_on: SimTime::from_secs(4),
            pll_activation: SimTime::from_secs(10),
            os_ready: SimTime::from_secs(40),
            os_boot_ramp: SimDuration::from_secs(10),
        }
    }

    /// Creates a custom sequence.
    ///
    /// # Panics
    ///
    /// Panics unless `power_on < pll_activation < os_ready` and the ramp
    /// fits inside R2.
    pub fn new(
        power_on: SimTime,
        pll_activation: SimTime,
        os_ready: SimTime,
        os_boot_ramp: SimDuration,
    ) -> Self {
        assert!(
            power_on < pll_activation,
            "power-on must precede PLL activation"
        );
        assert!(
            pll_activation < os_ready,
            "PLL activation must precede OS ready"
        );
        assert!(
            pll_activation + os_boot_ramp <= os_ready,
            "OS boot ramp must fit inside region R2"
        );
        BootSequence {
            power_on,
            pll_activation,
            os_ready,
            os_boot_ramp,
        }
    }

    /// Instant the supply turns on (R1 begins).
    pub fn power_on(&self) -> SimTime {
        self.power_on
    }

    /// Instant the PLL activates (R2 begins).
    pub fn pll_activation(&self) -> SimTime {
        self.pll_activation
    }

    /// Instant the OS reaches idle (R3 begins).
    pub fn os_ready(&self) -> SimTime {
        self.os_ready
    }

    /// The boot region at instant `t`.
    pub fn region_at(&self, t: SimTime) -> BootRegion {
        if t < self.power_on {
            BootRegion::Off
        } else if t < self.pll_activation {
            BootRegion::R1
        } else if t < self.os_ready {
            BootRegion::R2
        } else {
            BootRegion::R3
        }
    }

    /// Noise-free mean power of `rail` at instant `t`, interpolating the
    /// R2 → R3 ramp while the kernel boots.
    pub fn mean_power_at(&self, model: &PowerModel, rail: Rail, t: SimTime) -> Power {
        match self.region_at(t) {
            BootRegion::Off => Power::ZERO,
            BootRegion::R1 => model.mean_boot_power(rail, BootColumn::R1),
            BootRegion::R2 => {
                let r2 = model.mean_boot_power(rail, BootColumn::R2);
                let ramp_start = self.os_ready - self.os_boot_ramp;
                if t < ramp_start {
                    r2
                } else {
                    let r3 = model.mean_power(rail, Workload::Idle);
                    let frac = (t - ramp_start).as_secs_f64() / self.os_boot_ramp.as_secs_f64();
                    Power::from_milliwatts(
                        r2.as_milliwatts() + (r3.as_milliwatts() - r2.as_milliwatts()) * frac,
                    )
                }
            }
            BootRegion::R3 => model.mean_power(rail, Workload::Idle),
        }
    }

    /// Records a noisy boot power trace (Fig. 4 uses ~80 s).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn trace<R: Rng + ?Sized>(
        &self,
        model: &PowerModel,
        duration: SimDuration,
        window: SimDuration,
        rng: &mut R,
    ) -> PowerTrace {
        assert!(!window.is_zero(), "trace window must be non-zero");
        let n = (duration.as_micros() / window.as_micros()) as usize;
        let samples: Vec<RailPowers> = (0..n)
            .map(|i| {
                let t = SimTime::ZERO + window * i as u64;
                RailPowers::from_fn(|rail| {
                    let mean = self.mean_power_at(model, rail, t);
                    if self.region_at(t) == BootRegion::Off {
                        return Power::ZERO;
                    }
                    let sigma = model.rail(rail).noise_sigma_mw();
                    let mut noise = GaussianNoise::new(sigma);
                    (mean + Power::from_milliwatts(noise.sample(rng))).clamp_non_negative()
                })
            })
            .collect();
        PowerTrace::from_samples(window, samples)
    }

    /// The paper's three-way decomposition of one rail's idle power.
    pub fn decompose(&self, model: &PowerModel, rail: Rail) -> PowerDecomposition {
        let r1 = model.mean_boot_power(rail, BootColumn::R1);
        let r2 = model.mean_boot_power(rail, BootColumn::R2);
        let idle = model.mean_power(rail, Workload::Idle);
        PowerDecomposition {
            rail,
            leakage: r1,
            dynamic_and_clock_tree: r2 - r1,
            os: idle - r2,
            idle_total: idle,
        }
    }
}

impl Default for BootSequence {
    fn default() -> Self {
        BootSequence::u740_default()
    }
}

/// The boot-derived decomposition of a rail's idle power.
///
/// For the core rail the paper reports leakage 32 %, dynamic + clock tree
/// 51 %, OS 17 %. For DDR-like rails the "OS" component may be negative
/// (boot-time DDR training draws more than OS idle); the paper only quotes
/// the leakage fraction (68 %) for `ddr_mem`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDecomposition {
    rail: Rail,
    leakage: Power,
    dynamic_and_clock_tree: Power,
    os: Power,
    idle_total: Power,
}

impl PowerDecomposition {
    /// The rail decomposed.
    pub fn rail(&self) -> Rail {
        self.rail
    }

    /// Leakage power (region R1).
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Dynamic plus clock-tree power (R2 − R1).
    pub fn dynamic_and_clock_tree(&self) -> Power {
        self.dynamic_and_clock_tree
    }

    /// Operating-system power (Idle − R2).
    pub fn os(&self) -> Power {
        self.os
    }

    /// The rail's idle power the components sum to.
    pub fn idle_total(&self) -> Power {
        self.idle_total
    }

    /// Leakage as a percentage of idle power.
    pub fn leakage_percent(&self) -> f64 {
        self.fraction(self.leakage)
    }

    /// Dynamic + clock tree as a percentage of idle power.
    pub fn dynamic_percent(&self) -> f64 {
        self.fraction(self.dynamic_and_clock_tree)
    }

    /// OS power as a percentage of idle power.
    pub fn os_percent(&self) -> f64 {
        self.fraction(self.os)
    }

    fn fraction(&self, p: Power) -> f64 {
        if self.idle_total.as_milliwatts() == 0.0 {
            0.0
        } else {
            p.as_milliwatts() / self.idle_total.as_milliwatts() * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regions_follow_the_figure_timeline() {
        let boot = BootSequence::u740_default();
        assert_eq!(boot.region_at(SimTime::from_secs(0)), BootRegion::Off);
        assert_eq!(boot.region_at(SimTime::from_secs(4)), BootRegion::R1);
        assert_eq!(boot.region_at(SimTime::from_secs(9)), BootRegion::R1);
        assert_eq!(boot.region_at(SimTime::from_secs(10)), BootRegion::R2);
        assert_eq!(boot.region_at(SimTime::from_secs(39)), BootRegion::R2);
        assert_eq!(boot.region_at(SimTime::from_secs(40)), BootRegion::R3);
    }

    #[test]
    fn core_decomposition_matches_paper_percentages() {
        let boot = BootSequence::u740_default();
        let model = PowerModel::u740();
        let d = boot.decompose(&model, Rail::Core);
        // Paper: 0.984 W leakage (32 %), 1.577 W dynamic+clock (51 %),
        // 0.514 W OS (17 %) of 3.075 W core idle.
        assert!((d.leakage().as_milliwatts() - 984.0).abs() < 1e-9);
        assert!((d.dynamic_and_clock_tree().as_milliwatts() - 1577.0).abs() < 1e-9);
        assert!((d.os().as_milliwatts() - 514.0).abs() < 1e-9);
        assert!((d.leakage_percent() - 32.0).abs() < 0.5);
        assert!((d.dynamic_percent() - 51.0).abs() < 0.5);
        assert!((d.os_percent() - 17.0).abs() < 0.5);
    }

    #[test]
    fn ddr_mem_leakage_fraction_matches_paper() {
        let boot = BootSequence::u740_default();
        let model = PowerModel::u740();
        let d = boot.decompose(&model, Rail::DdrMem);
        // Paper: 0.275 W leakage = 68 % of the rail's 0.404 W idle power.
        assert!((d.leakage_percent() - 68.0).abs() < 0.5);
        // Boot-time DDR training draws more than OS idle: OS component < 0.
        assert!(d.os().as_milliwatts() < 0.0);
    }

    #[test]
    fn mean_power_is_zero_before_power_on() {
        let boot = BootSequence::u740_default();
        let model = PowerModel::u740();
        for rail in Rail::ALL {
            assert_eq!(
                boot.mean_power_at(&model, rail, SimTime::from_secs(1)),
                Power::ZERO
            );
        }
    }

    #[test]
    fn ramp_interpolates_between_r2_and_idle() {
        let boot = BootSequence::u740_default();
        let model = PowerModel::u740();
        // Ramp spans 30 s..40 s; at 35 s core power is halfway 2561 -> 3075.
        let mid = boot.mean_power_at(&model, Rail::Core, SimTime::from_secs(35));
        assert!((mid.as_milliwatts() - 2818.0).abs() < 1.0, "mid {mid}");
    }

    #[test]
    fn pll_rail_steps_at_activation() {
        let boot = BootSequence::u740_default();
        let model = PowerModel::u740();
        let before = boot.mean_power_at(&model, Rail::Pll, SimTime::from_secs(9));
        let after = boot.mean_power_at(&model, Rail::Pll, SimTime::from_secs(11));
        assert_eq!(before, Power::ZERO);
        assert!((after.as_milliwatts() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn boot_trace_has_the_figure_shape() {
        let boot = BootSequence::u740_default();
        let model = PowerModel::u740();
        let mut rng = StdRng::seed_from_u64(4);
        let trace = boot.trace(
            &model,
            SimDuration::from_secs(80),
            SimDuration::from_millis(100),
            &mut rng,
        );
        assert_eq!(trace.len(), 800);
        let core = trace.rail_series(Rail::Core);
        // Off region is exactly zero.
        assert!(core[..39].iter().all(|p| *p == Power::ZERO));
        // R1 sits near 984 mW.
        let r1_mean: f64 = core[45..95].iter().map(|p| p.as_milliwatts()).sum::<f64>() / 50.0;
        assert!((r1_mean - 984.0).abs() < 15.0, "R1 mean {r1_mean}");
        // R3 sits near idle.
        let r3_mean: f64 = core[450..].iter().map(|p| p.as_milliwatts()).sum::<f64>() / 350.0;
        assert!((r3_mean - 3075.0).abs() < 15.0, "R3 mean {r3_mean}");
    }

    #[test]
    #[should_panic(expected = "power-on must precede")]
    fn invalid_sequence_order_panics() {
        let _ = BootSequence::new(
            SimTime::from_secs(10),
            SimTime::from_secs(4),
            SimTime::from_secs(40),
            SimDuration::ZERO,
        );
    }
}
