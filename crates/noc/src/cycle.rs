//! Simulation time: network-clock cycles and frequency conversions.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in network-clock cycles.
///
/// `Cycle` is a transparent newtype over `u64`; arithmetic that would be
/// meaningless on times (e.g. multiplying two cycles) is deliberately not
/// provided.
///
/// # Example
///
/// ```
/// use pearl_noc::Cycle;
/// let start = Cycle(100);
/// let end = start + 42;
/// assert_eq!(end - start, 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the raw cycle count.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts this time point to seconds under the given clock.
    ///
    /// ```
    /// use pearl_noc::{Cycle, Frequency};
    /// let t = Cycle(2).to_seconds(Frequency::from_ghz(2.0));
    /// assert!((t - 1e-9).abs() < 1e-18); // two cycles @2 GHz = 1 ns
    /// ```
    #[inline]
    pub fn to_seconds(self, clock: Frequency) -> f64 {
        self.0 as f64 / clock.as_hz()
    }

    /// Saturating subtraction, returning the number of elapsed cycles.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// True when this cycle lies on a boundary of `window`-sized epochs.
    ///
    /// Used by the reservation-window logic of Algorithm 1 step 6
    /// (`Current_Cycle mod RW == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[inline]
    pub fn is_window_boundary(self, window: u64) -> bool {
        assert!(window > 0, "reservation window must be non-zero");
        self.0.is_multiple_of(window)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0.checked_sub(rhs.0).expect("cycle subtraction underflow: rhs is later than lhs")
    }
}

impl From<u64> for Cycle {
    #[inline]
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

/// A clock frequency.
///
/// The PEARL network runs at 2 GHz, CPUs at 4 GHz and GPU compute units at
/// 2 GHz (Table I of the paper).
///
/// # Example
///
/// ```
/// use pearl_noc::Frequency;
/// let network = Frequency::from_ghz(2.0);
/// assert!((network.cycle_time_ns() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from a value in gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn from_ghz(ghz: f64) -> Frequency {
        assert!(
            ghz.is_finite() && ghz > 0.0,
            "frequency must be positive and finite, got {ghz} GHz"
        );
        Frequency(ghz * 1e9)
    }

    /// Returns the frequency in hertz.
    #[inline]
    pub fn as_hz(self) -> f64 {
        self.0
    }

    /// Returns the frequency in gigahertz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Duration of one clock period in nanoseconds.
    #[inline]
    pub fn cycle_time_ns(self) -> f64 {
        1e9 / self.0
    }

    /// Number of whole cycles needed to cover `ns` nanoseconds (rounds up).
    ///
    /// Used to convert laser turn-on latencies (2–32 ns in the paper's
    /// sensitivity study) into network cycles.
    ///
    /// ```
    /// use pearl_noc::Frequency;
    /// // 2 ns turn-on at 2 GHz (0.5 ns/cycle) = 4 cycles.
    /// assert_eq!(Frequency::from_ghz(2.0).cycles_for_ns(2.0), 4);
    /// ```
    pub fn cycles_for_ns(self, ns: f64) -> u64 {
        assert!(ns >= 0.0, "duration must be non-negative, got {ns} ns");
        (ns / self.cycle_time_ns()).ceil() as u64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} GHz", self.as_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic_round_trips() {
        let c = Cycle(10);
        assert_eq!((c + 5) - c, 5);
        assert_eq!(c.as_u64(), 10);
        assert_eq!(Cycle::from(3), Cycle(3));
    }

    #[test]
    fn cycle_display_is_nonempty() {
        assert_eq!(Cycle(7).to_string(), "cycle 7");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cycle_subtraction_underflow_panics() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn window_boundary_matches_modulo() {
        assert!(Cycle(0).is_window_boundary(500));
        assert!(Cycle(500).is_window_boundary(500));
        assert!(!Cycle(499).is_window_boundary(500));
        assert!(Cycle(4000).is_window_boundary(2000));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let _ = Cycle(0).is_window_boundary(0);
    }

    #[test]
    fn network_clock_period() {
        let f = Frequency::from_ghz(2.0);
        assert!((f.cycle_time_ns() - 0.5).abs() < 1e-12);
        assert!((f.as_ghz() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn turn_on_delay_cycles_match_paper() {
        let network = Frequency::from_ghz(2.0);
        // Sensitivity sweep of Fig. 11: 2, 4, 16 and 32 ns.
        assert_eq!(network.cycles_for_ns(2.0), 4);
        assert_eq!(network.cycles_for_ns(4.0), 8);
        assert_eq!(network.cycles_for_ns(16.0), 32);
        assert_eq!(network.cycles_for_ns(32.0), 64);
    }

    #[test]
    fn fractional_durations_round_up() {
        let network = Frequency::from_ghz(2.0);
        assert_eq!(network.cycles_for_ns(0.1), 1);
        assert_eq!(network.cycles_for_ns(0.0), 0);
    }

    #[test]
    fn seconds_conversion() {
        let t = Cycle(4).to_seconds(Frequency::from_ghz(2.0));
        assert!((t - 2e-9).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_frequency_rejected() {
        let _ = Frequency::from_ghz(0.0);
    }
}
