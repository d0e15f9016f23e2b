//! Strongly-typed physical and simulation units.
//!
//! Every quantity that crosses a module boundary in the Monte Cimone
//! workspace is wrapped in a newtype so that watts cannot be confused with
//! milliwatts, or simulated time with wall-clock time. The simulation clock
//! is an integer number of microseconds, which keeps experiments perfectly
//! deterministic and free of floating-point drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point on the simulation clock, in microseconds since simulation start.
///
/// `SimTime` is an absolute instant; the corresponding span type is
/// [`SimDuration`]. Arithmetic between the two behaves like
/// `std::time::Instant`/`Duration`.
///
/// # Examples
///
/// ```
/// use cimone_soc::units::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_micros(), 2_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use cimone_soc::units::SimDuration;
///
/// let d = SimDuration::from_millis(1500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span from a float number of seconds, rounding to the
    /// nearest microsecond and saturating below at zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e6).round() as u64)
    }

    /// The span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

/// Electrical power, stored in milliwatts.
///
/// The paper reports rail power in milliwatts (Table VI), so that is the
/// native resolution here; [`Power::as_watts`] is provided for display.
///
/// # Examples
///
/// ```
/// use cimone_soc::units::Power;
///
/// let idle = Power::from_milliwatts(4810.0);
/// assert!((idle.as_watts() - 4.81).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from milliwatts.
    pub const fn from_milliwatts(mw: f64) -> Self {
        Power(mw)
    }

    /// Creates a power from watts.
    pub fn from_watts(w: f64) -> Self {
        Power(w * 1e3)
    }

    /// The power in milliwatts.
    pub const fn as_milliwatts(self) -> f64 {
        self.0
    }

    /// The power in watts.
    pub fn as_watts(self) -> f64 {
        self.0 / 1e3
    }

    /// Multiplies by a duration to yield energy.
    pub fn energy_over(self, d: SimDuration) -> Energy {
        Energy::from_joules(self.as_watts() * d.as_secs_f64())
    }

    /// Clamps negative readings (possible after noise injection) to zero.
    pub fn clamp_non_negative(self) -> Power {
        Power(self.0.max(0.0))
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1000.0 {
            write!(f, "{:.3} W", self.as_watts())
        } else {
            write!(f, "{:.1} mW", self.0)
        }
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Self {
        Power(iter.map(|p| p.0).sum())
    }
}

/// Energy, stored in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    pub const fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// The energy in joules.
    pub const fn as_joules(self) -> f64 {
        self.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} J", self.0)
    }
}

/// Temperature in degrees Celsius.
///
/// # Examples
///
/// ```
/// use cimone_soc::units::Celsius;
///
/// let trip = Celsius::new(107.0);
/// assert!(trip > Celsius::new(39.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a temperature.
    pub const fn new(deg: f64) -> Self {
        Celsius(deg)
    }

    /// Degrees Celsius as a float.
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Millidegrees, the unit used by Linux `hwmon` sysfs files.
    pub fn as_millidegrees(self) -> i64 {
        (self.0 * 1000.0).round() as i64
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} °C", self.0)
    }
}

impl Add<f64> for Celsius {
    type Output = Celsius;
    fn add(self, rhs: f64) -> Celsius {
        Celsius(self.0 + rhs)
    }
}

impl Sub for Celsius {
    type Output = f64;
    fn sub(self, rhs: Celsius) -> f64 {
        self.0 - rhs.0
    }
}

/// Clock frequency in hertz.
///
/// # Examples
///
/// ```
/// use cimone_soc::units::Frequency;
///
/// let f = Frequency::from_mhz(1200.0);
/// assert_eq!(f.as_hz(), 1_200_000_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from hertz.
    pub const fn from_hz(hz: f64) -> Self {
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Frequency(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency(ghz * 1e9)
    }

    /// The frequency in hertz.
    pub const fn as_hz(self) -> f64 {
        self.0
    }

    /// The frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Number of cycles elapsed over `d` at this frequency.
    pub fn cycles_over(self, d: SimDuration) -> u64 {
        (self.0 * d.as_secs_f64()).round() as u64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GHz", self.as_ghz())
    }
}

/// A byte count (sizes, transfer volumes).
///
/// # Examples
///
/// ```
/// use cimone_soc::units::Bytes;
///
/// assert_eq!(Bytes::from_mib(2).as_u64(), 2 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Creates a byte count from kibibytes.
    pub const fn from_kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a byte count from mebibytes.
    pub const fn from_mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Creates a byte count from gibibytes.
    pub const fn from_gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// The raw count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The count as a float (for rate computations).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", b / (1024.0 * 1024.0))
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Self {
        Bytes(iter.map(|b| b.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_arithmetic_round_trips() {
        let t0 = SimTime::from_secs(10);
        let d = SimDuration::from_millis(2500);
        let t1 = t0 + d;
        assert_eq!(t1.as_micros(), 12_500_000);
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn sim_time_saturating_since_does_not_underflow() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
    }

    #[test]
    fn duration_from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-6).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn power_conversions_are_consistent() {
        let p = Power::from_watts(5.935);
        assert!((p.as_milliwatts() - 5935.0).abs() < 1e-9);
        assert_eq!(
            Power::from_milliwatts(-3.0).clamp_non_negative(),
            Power::ZERO
        );
    }

    #[test]
    fn energy_integrates_power_over_time() {
        let e = Power::from_watts(2.0).energy_over(SimDuration::from_secs(3));
        assert!((e.as_joules() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn celsius_millidegrees_matches_hwmon_convention() {
        assert_eq!(Celsius::new(48.5).as_millidegrees(), 48_500);
    }

    #[test]
    fn frequency_cycle_count_at_u740_clock() {
        let f = Frequency::from_ghz(1.2);
        assert_eq!(f.cycles_over(SimDuration::from_secs(1)), 1_200_000_000);
    }

    #[test]
    fn bytes_display_picks_sensible_unit() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::from_mib(1).to_string(), "1.00 MiB");
        assert_eq!(Bytes::from_gib(16).to_string(), "16.00 GiB");
    }

    #[test]
    fn sums_work_for_quantities() {
        let total: Power = [1.0, 2.0, 3.5].iter().map(|&w| Power::from_watts(w)).sum();
        assert!((total.as_watts() - 6.5).abs() < 1e-12);
        let d: SimDuration = (0..4).map(|_| SimDuration::from_millis(250)).sum();
        assert_eq!(d, SimDuration::from_secs(1));
    }
}
