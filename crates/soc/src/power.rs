//! The per-rail power model, calibrated against the paper's Table VI.
//!
//! Each rail's power is decomposed as
//!
//! ```text
//! P_rail(w, T) = leak_rail(T) + act_rail(w) · dyn_rail + ε
//! ```
//!
//! where `leak_rail` is the leakage measured in boot region R1 (clock
//! gated, no OS — the paper's trick for isolating leakage without lab
//! equipment), `dyn_rail` is the full-activity dynamic power, `act_rail(w)`
//! the per-workload activity factor, and ε Gaussian sensor noise. The
//! activity factors are calibrated so that the model's mean per-rail power
//! reproduces Table VI exactly.

use rand::Rng;

use crate::noise::GaussianNoise;
use crate::rails::{Rail, RailPowers, Subsystem};
use crate::units::{Celsius, Power, SimDuration, SimTime};
use crate::workload::Workload;

/// Table VI of the paper, in milliwatts: means for the five steady
/// workloads plus the two boot regions, for each of the nine rails.
///
/// Row order follows [`Rail::ALL`]; workload column order follows
/// [`Workload::ALL`], then `Boot R1`, `Boot R2`.
pub const TABLE_VI_MILLIWATTS: [[f64; 7]; 9] = [
    // Idle,  HPL, S.L2, S.DDR,  QE,   R1,   R2
    [3075.0, 4097.0, 3714.0, 3287.0, 3825.0, 984.0, 2561.0], // core
    [139.0, 177.0, 170.0, 232.0, 176.0, 59.0, 197.0],        // ddr_soc
    [20.0, 20.0, 20.0, 20.0, 20.0, 5.0, 20.0],               // io
    [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0],                     // pll
    [521.0, 527.0, 524.0, 522.0, 530.0, 12.0, 231.0],        // pcievp
    [555.0, 554.0, 554.0, 555.0, 561.0, 1.0, 395.0],         // pcievph
    [404.0, 440.0, 401.0, 592.0, 434.0, 275.0, 467.0],       // ddr_mem
    [28.0, 28.0, 28.0, 28.0, 28.0, 0.0, 29.0],               // ddr_pll
    [67.0, 90.0, 73.0, 98.0, 95.0, 49.0, 122.0],             // ddr_vpp
];

/// Looks up the paper's measured mean for `(rail, workload)`.
pub fn table_vi_mean(rail: Rail, workload: Workload) -> Power {
    let col = Workload::ALL
        .iter()
        .position(|w| *w == workload)
        .expect("workload in ALL");
    Power::from_milliwatts(TABLE_VI_MILLIWATTS[rail.index()][col])
}

/// Looks up the paper's measured mean for `(rail, boot region)`.
///
/// Only regions R1 and R2 appear in Table VI; R3 is taken to coincide with
/// the Idle column, as the paper notes R3 power is "comparable with idle".
pub fn table_vi_boot_mean(rail: Rail, region: BootColumn) -> Power {
    let col = match region {
        BootColumn::R1 => 5,
        BootColumn::R2 => 6,
    };
    Power::from_milliwatts(TABLE_VI_MILLIWATTS[rail.index()][col])
}

/// The two boot columns of Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BootColumn {
    /// Power applied, clock gated: leakage only.
    R1,
    /// Bootloader running: leakage + clock tree + dynamic.
    R2,
}

/// The calibrated decomposition of one rail's power.
#[derive(Debug, Clone, PartialEq)]
pub struct RailModel {
    rail: Rail,
    leakage: Power,
    dynamic_full: Power,
    /// Activity factor per workload, `Workload::ALL` order.
    activity: [f64; 5],
    /// Activity factor during boot region R2 (may exceed the workload range:
    /// memory training drives some DDR rails harder than any OS workload).
    boot_r2_activity: f64,
    noise_sigma_mw: f64,
}

impl RailModel {
    /// Calibrates the rail's decomposition from its Table VI row.
    fn calibrated(rail: Rail) -> Self {
        let row = TABLE_VI_MILLIWATTS[rail.index()];
        let leak = row[5];
        let max_mean = row[..5].iter().copied().fold(f64::MIN, f64::max);
        // Rails whose power never moves (io, pll) get a degenerate dynamic
        // term of whatever headroom exists, with activity 1.
        let dyn_full = (max_mean - leak).max(1e-9);
        let mut activity = [0.0; 5];
        for (i, slot) in activity.iter_mut().enumerate() {
            *slot = (row[i] - leak) / dyn_full;
        }
        let boot_r2_activity = (row[6] - leak) / dyn_full;
        RailModel {
            rail,
            leakage: Power::from_milliwatts(leak),
            dynamic_full: Power::from_milliwatts(dyn_full),
            activity,
            boot_r2_activity,
            noise_sigma_mw: 1.0 + 0.008 * dyn_full,
        }
    }

    /// The rail this model describes.
    pub fn rail(&self) -> Rail {
        self.rail
    }

    /// Leakage power at the calibration temperature.
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Full-activity dynamic power.
    pub fn dynamic_full(&self) -> Power {
        self.dynamic_full
    }

    /// The activity factor for a workload.
    pub fn activity(&self, workload: Workload) -> f64 {
        let i = Workload::ALL
            .iter()
            .position(|w| *w == workload)
            .expect("workload in ALL");
        self.activity[i]
    }

    /// The activity factor during boot region R2.
    pub fn boot_r2_activity(&self) -> f64 {
        self.boot_r2_activity
    }

    /// Standard deviation of the modelled sensor noise, in milliwatts.
    pub fn noise_sigma_mw(&self) -> f64 {
        self.noise_sigma_mw
    }
}

/// The full nine-rail power model of one FU740 node.
///
/// # Examples
///
/// ```
/// use cimone_soc::power::PowerModel;
/// use cimone_soc::rails::Rail;
/// use cimone_soc::workload::Workload;
///
/// let model = PowerModel::u740();
/// let idle = model.mean_total(Workload::Idle);
/// assert!((idle.as_watts() - 4.810).abs() < 1e-9);
/// let hpl_core = model.mean_power(Rail::Core, Workload::Hpl);
/// assert!((hpl_core.as_milliwatts() - 4097.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    rails: Vec<RailModel>,
    leak_alpha_per_deg: f64,
    leak_reference: Celsius,
}

impl PowerModel {
    /// The model calibrated to the paper's FU740 measurements, with
    /// temperature-independent leakage (exact Table VI reproduction).
    pub fn u740() -> Self {
        PowerModel {
            rails: Rail::ALL.into_iter().map(RailModel::calibrated).collect(),
            leak_alpha_per_deg: 0.0,
            leak_reference: Celsius::new(45.0),
        }
    }

    /// Enables exponential leakage growth with temperature:
    /// `leak(T) = leak_ref · exp(alpha · (T − T_ref))`.
    ///
    /// Used by the thermal-runaway experiment, where rising temperature and
    /// rising leakage reinforce each other.
    ///
    /// # Panics
    ///
    /// Panics if `alpha_per_deg` is negative.
    pub fn with_thermal_leakage(mut self, alpha_per_deg: f64, reference: Celsius) -> Self {
        assert!(alpha_per_deg >= 0.0, "leakage coefficient must be >= 0");
        self.leak_alpha_per_deg = alpha_per_deg;
        self.leak_reference = reference;
        self
    }

    /// The per-rail calibrated decomposition.
    pub fn rail(&self, rail: Rail) -> &RailModel {
        &self.rails[rail.index()]
    }

    /// Leakage of `rail` at temperature `t`.
    pub fn leakage_at(&self, rail: Rail, t: Celsius) -> Power {
        self.rail(rail).leakage * self.leak_scale(t)
    }

    /// The thermal leakage multiplier at temperature `t`. The coefficient
    /// and reference are model-wide, so full-board paths evaluate this
    /// exponential once and share it across every rail.
    fn leak_scale(&self, t: Celsius) -> f64 {
        (self.leak_alpha_per_deg * (t - self.leak_reference)).exp()
    }

    /// Noise-free mean power of `rail` under `workload` at the calibration
    /// temperature (reproduces Table VI).
    pub fn mean_power(&self, rail: Rail, workload: Workload) -> Power {
        let m = self.rail(rail);
        m.leakage + m.dynamic_full * m.activity(workload)
    }

    /// Noise-free mean total power under `workload` (Table VI's bottom row).
    pub fn mean_total(&self, workload: Workload) -> Power {
        Rail::ALL
            .into_iter()
            .map(|r| self.mean_power(r, workload))
            .sum()
    }

    /// Mean power of `rail` during boot region R1 or R2.
    pub fn mean_boot_power(&self, rail: Rail, region: BootColumn) -> Power {
        let m = self.rail(rail);
        match region {
            BootColumn::R1 => m.leakage,
            BootColumn::R2 => m.leakage + m.dynamic_full * m.boot_r2_activity,
        }
    }

    /// Draws one noisy telemetry sample for `rail`.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        rail: Rail,
        workload: Workload,
        t: Celsius,
        rng: &mut R,
    ) -> Power {
        self.sample_scaled(rail, workload, t, crate::cpufreq::DvfsScale::default(), rng)
    }

    /// Draws one noisy telemetry sample for `rail` with DVFS scaling
    /// applied to its dynamic and leakage components (used for the core
    /// rail when the complex runs below its nominal operating point).
    pub fn sample_scaled<R: Rng + ?Sized>(
        &self,
        rail: Rail,
        workload: Workload,
        t: Celsius,
        scale: crate::cpufreq::DvfsScale,
        rng: &mut R,
    ) -> Power {
        let m = self.rail(rail);
        let mean = self.mean_scaled(rail, workload, t, scale);
        let mut noise = GaussianNoise::new(m.noise_sigma_mw);
        (mean + Power::from_milliwatts(noise.sample(rng))).clamp_non_negative()
    }

    /// Noise-free mean power of `rail` at temperature `t` with DVFS
    /// scaling — the deterministic physical power that `sample_scaled`
    /// dresses with sensor noise. The simulation engine feeds this into
    /// the thermal and energy integrators so that sensor noise stays a
    /// measurement artefact (noise on an ammeter does not heat a chip),
    /// and so that idle spans consume no RNG draws and can be
    /// fast-forwarded bit-identically.
    pub fn mean_scaled(
        &self,
        rail: Rail,
        workload: Workload,
        t: Celsius,
        scale: crate::cpufreq::DvfsScale,
    ) -> Power {
        self.mean_scaled_with(rail, workload, self.leak_scale(t), scale)
    }

    /// [`PowerModel::mean_scaled`] with the thermal leakage multiplier
    /// precomputed — the shared core of the full-board paths, which pay
    /// for the exponential once per board sample rather than per rail.
    fn mean_scaled_with(
        &self,
        rail: Rail,
        workload: Workload,
        leak_scale: f64,
        scale: crate::cpufreq::DvfsScale,
    ) -> Power {
        let m = self.rail(rail);
        m.leakage * leak_scale * scale.leakage
            + m.dynamic_full * (m.activity(workload) * scale.dynamic)
    }

    /// Noise-free full-board mean at temperature `t` with DVFS scaling on
    /// the core rail — the deterministic counterpart of
    /// [`PowerModel::sample_all_dvfs`].
    pub fn mean_all_dvfs(
        &self,
        workload: Workload,
        t: Celsius,
        core_scale: crate::cpufreq::DvfsScale,
    ) -> RailPowers {
        let leak_scale = self.leak_scale(t);
        RailPowers::from_fn(|rail| {
            let scale = if rail == Rail::Core {
                core_scale
            } else {
                crate::cpufreq::DvfsScale::default()
            };
            self.mean_scaled_with(rail, workload, leak_scale, scale)
        })
    }

    /// Draws one noisy full-board sample.
    pub fn sample_all<R: Rng + ?Sized>(
        &self,
        workload: Workload,
        t: Celsius,
        rng: &mut R,
    ) -> RailPowers {
        self.sample_all_dvfs(workload, t, crate::cpufreq::DvfsScale::default(), rng)
    }

    /// Draws one noisy full-board sample with DVFS scaling on the core
    /// rail (DDR, PCIe and IO rails are outside the core voltage/clock
    /// domain and stay at their calibrated levels).
    pub fn sample_all_dvfs<R: Rng + ?Sized>(
        &self,
        workload: Workload,
        t: Celsius,
        core_scale: crate::cpufreq::DvfsScale,
        rng: &mut R,
    ) -> RailPowers {
        let leak_scale = self.leak_scale(t);
        RailPowers::from_fn(|rail| {
            let scale = if rail == Rail::Core {
                core_scale
            } else {
                crate::cpufreq::DvfsScale::default()
            };
            let m = self.rail(rail);
            let mean = self.mean_scaled_with(rail, workload, leak_scale, scale);
            let mut noise = GaussianNoise::new(m.noise_sigma_mw);
            (mean + Power::from_milliwatts(noise.sample(rng))).clamp_non_negative()
        })
    }

    /// Records a power trace under a steady workload, one sample per
    /// `window` (the paper's Fig. 3 uses 1 ms windows over 8 s).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn trace<R: Rng + ?Sized>(
        &self,
        workload: Workload,
        duration: SimDuration,
        window: SimDuration,
        t: Celsius,
        rng: &mut R,
    ) -> PowerTrace {
        assert!(!window.is_zero(), "trace window must be non-zero");
        let n = (duration.as_micros() / window.as_micros()) as usize;
        let samples = (0..n).map(|_| self.sample_all(workload, t, rng)).collect();
        PowerTrace { window, samples }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::u740()
    }
}

/// A fixed-window sequence of full-board power samples.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    window: SimDuration,
    samples: Vec<RailPowers>,
}

impl PowerTrace {
    /// Builds a trace from pre-computed samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn from_samples(window: SimDuration, samples: Vec<RailPowers>) -> Self {
        assert!(!window.is_zero(), "trace window must be non-zero");
        PowerTrace { window, samples }
    }

    /// The sampling window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples in order.
    pub fn samples(&self) -> &[RailPowers] {
        &self.samples
    }

    /// The timestamp of sample `i` (window midpoints are not used; samples
    /// are stamped at window start, matching ExaMon's convention).
    pub fn time_of(&self, i: usize) -> SimTime {
        SimTime::ZERO + self.window * i as u64
    }

    /// Per-sample totals for one rail.
    pub fn rail_series(&self, rail: Rail) -> Vec<Power> {
        self.samples.iter().map(|s| s[rail]).collect()
    }

    /// Per-sample totals for a subsystem group (Fig. 3's panels).
    pub fn subsystem_series(&self, subsystem: Subsystem) -> Vec<Power> {
        self.samples
            .iter()
            .map(|s| s.subsystem_total(subsystem))
            .collect()
    }

    /// Mean power of one rail over the whole trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn rail_mean(&self, rail: Rail) -> Power {
        assert!(!self.is_empty(), "cannot average an empty trace");
        let sum: Power = self.samples.iter().map(|s| s[rail]).sum();
        Power::from_milliwatts(sum.as_milliwatts() / self.len() as f64)
    }

    /// Mean total board power over the whole trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn total_mean(&self) -> Power {
        assert!(!self.is_empty(), "cannot average an empty trace");
        let sum: Power = self.samples.iter().map(|s| s.total()).sum();
        Power::from_milliwatts(sum.as_milliwatts() / self.len() as f64)
    }

    /// Appends another trace recorded with the same window.
    ///
    /// # Panics
    ///
    /// Panics if the windows differ.
    pub fn extend(&mut self, other: PowerTrace) {
        assert_eq!(
            self.window, other.window,
            "cannot join traces with different windows"
        );
        self.samples.extend(other.samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn model_reproduces_table_vi_means_exactly() {
        let model = PowerModel::u740();
        for rail in Rail::ALL {
            for workload in Workload::ALL {
                let modelled = model.mean_power(rail, workload).as_milliwatts();
                let paper = table_vi_mean(rail, workload).as_milliwatts();
                assert!(
                    (modelled - paper).abs() < 1e-9,
                    "{rail}/{workload}: model {modelled} vs paper {paper}"
                );
            }
        }
    }

    #[test]
    fn model_reproduces_table_vi_totals() {
        let model = PowerModel::u740();
        let expected = [4810.0, 5935.0, 5486.0, 5336.0, 5670.0];
        for (w, exp) in Workload::ALL.into_iter().zip(expected) {
            let total = model.mean_total(w).as_milliwatts();
            // The paper's printed Total row disagrees with the sum of its
            // own rounded rows by up to 1 mW (HPL, STREAM columns).
            assert!((total - exp).abs() <= 1.0, "{w}: total {total} vs {exp}");
        }
    }

    #[test]
    fn mean_scaled_is_the_noise_free_centre_of_sample_scaled() {
        // At the leakage calibration temperature and nominal DVFS, the
        // mean collapses to the Table VI figure; and averaging many noisy
        // samples converges on the mean at any temperature.
        let model = PowerModel::u740();
        let scale = crate::cpufreq::DvfsScale::default();
        for rail in Rail::ALL {
            for workload in Workload::ALL {
                let at_ref = model
                    .mean_scaled(rail, workload, Celsius::new(36.5), scale)
                    .as_milliwatts();
                let table = model.mean_power(rail, workload).as_milliwatts();
                assert!((at_ref - table).abs() < 1e-9, "{rail}/{workload}");
            }
        }
        let mut rng = StdRng::seed_from_u64(7);
        let t = Celsius::new(58.0);
        let mean = model.mean_scaled(Rail::Core, Workload::Hpl, t, scale);
        let avg: f64 = (0..20_000)
            .map(|_| {
                model
                    .sample_scaled(Rail::Core, Workload::Hpl, t, scale, &mut rng)
                    .as_milliwatts()
            })
            .sum::<f64>()
            / 20_000.0;
        assert!(
            (avg - mean.as_milliwatts()).abs() < 1.0,
            "avg {avg} vs mean {mean}"
        );
    }

    #[test]
    fn mean_all_dvfs_scales_only_the_core_rail() {
        let model = PowerModel::u740();
        let half = crate::cpufreq::DvfsScale {
            dynamic: 0.5,
            leakage: 0.8,
        };
        let t = Celsius::new(40.0);
        let scaled = model.mean_all_dvfs(Workload::Hpl, t, half);
        let nominal = model.mean_all_dvfs(Workload::Hpl, t, crate::cpufreq::DvfsScale::default());
        assert!(scaled[Rail::Core] < nominal[Rail::Core]);
        for rail in Rail::ALL.into_iter().filter(|&r| r != Rail::Core) {
            assert_eq!(
                scaled[rail].as_milliwatts(),
                nominal[rail].as_milliwatts(),
                "{rail} is outside the core DVFS domain"
            );
        }
    }

    #[test]
    fn boot_region_means_match_table_vi() {
        let model = PowerModel::u740();
        for rail in Rail::ALL {
            for region in [BootColumn::R1, BootColumn::R2] {
                let modelled = model.mean_boot_power(rail, region).as_milliwatts();
                let paper = table_vi_boot_mean(rail, region).as_milliwatts();
                assert!(
                    (modelled - paper).abs() < 1e-9,
                    "{rail}/{region:?}: model {modelled} vs paper {paper}"
                );
            }
        }
    }

    #[test]
    fn idle_power_shares_match_paper_headline() {
        // Paper: 4.81 W idle, 64 % core, 13 % DDR-related, 23 % PCIe(+io+pll).
        let model = PowerModel::u740();
        let mut sample = RailPowers::default();
        for rail in Rail::ALL {
            sample[rail] = model.mean_power(rail, Workload::Idle);
        }
        let total = sample.total().as_watts();
        assert!((total - 4.810).abs() < 1e-9);
        let core_pct = sample.percent_of_total(Rail::Core);
        assert!((core_pct - 64.0).abs() < 1.0, "core share {core_pct}");
        let ddr_pct =
            sample.subsystem_total(Subsystem::Ddr).as_milliwatts() / (total * 1000.0) * 100.0;
        assert!((ddr_pct - 13.0).abs() < 1.0, "ddr share {ddr_pct}");
    }

    #[test]
    fn activity_factors_are_within_unit_range_for_workloads() {
        let model = PowerModel::u740();
        for rail in Rail::ALL {
            for w in Workload::ALL {
                let a = model.rail(rail).activity(w);
                assert!(
                    (-1e-12..=1.0 + 1e-12).contains(&a),
                    "{rail}/{w}: activity {a}"
                );
            }
        }
    }

    #[test]
    fn sampling_is_unbiased_around_the_mean() {
        let model = PowerModel::u740();
        let mut rng = StdRng::seed_from_u64(11);
        let t = Celsius::new(45.0);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| {
                model
                    .sample(Rail::Core, Workload::Hpl, t, &mut rng)
                    .as_milliwatts()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 4097.0).abs() < 1.0, "sampled mean {mean}");
    }

    #[test]
    fn thermal_leakage_grows_with_temperature() {
        let model = PowerModel::u740().with_thermal_leakage(0.01, Celsius::new(45.0));
        let cold = model.leakage_at(Rail::Core, Celsius::new(45.0));
        let hot = model.leakage_at(Rail::Core, Celsius::new(105.0));
        assert!((cold.as_milliwatts() - 984.0).abs() < 1e-9);
        assert!(hot > cold);
        // exp(0.01 * 60) ≈ 1.822
        assert!((hot.as_milliwatts() / cold.as_milliwatts() - 1.822).abs() < 0.01);
    }

    #[test]
    fn trace_has_expected_sample_count_and_mean() {
        let model = PowerModel::u740();
        let mut rng = StdRng::seed_from_u64(3);
        let trace = model.trace(
            Workload::StreamDdr,
            SimDuration::from_secs(8),
            SimDuration::from_millis(1),
            Celsius::new(45.0),
            &mut rng,
        );
        assert_eq!(trace.len(), 8000);
        let mean = trace.total_mean().as_milliwatts();
        assert!((mean - 5336.0).abs() < 10.0, "trace mean {mean}");
        assert_eq!(trace.time_of(1000), SimTime::from_secs(1));
    }

    #[test]
    fn trace_extend_rejects_mismatched_windows() {
        let model = PowerModel::u740();
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = model.trace(
            Workload::Idle,
            SimDuration::from_millis(10),
            SimDuration::from_millis(1),
            Celsius::new(45.0),
            &mut rng,
        );
        let b = model.trace(
            Workload::Idle,
            SimDuration::from_millis(10),
            SimDuration::from_millis(2),
            Celsius::new(45.0),
            &mut rng,
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.extend(b);
        }));
        assert!(result.is_err());
    }
}
