//! Per-window time series of throughput and laser state.
//!
//! The paper's figures report run-level aggregates; watching the same
//! quantities *over time* shows the reconfiguration machinery at work —
//! bandwidth splits tracking GPU bursts, wavelength states tracking
//! phases. [`Timeline`] samples both at a fixed cadence, from outside
//! the network: it steps a [`PearlNetwork`] and reads it after every
//! cycle that closes a window, so the network carries no timeline state.

use crate::ml_scaling::ScalingMode;
use crate::network::PearlNetwork;
use pearl_photonics::WavelengthState;

/// One degradation-ladder mode change (see
/// [`crate::ml_scaling::DegradationLadder`]): the cycle at which the
/// network moved between ML-proactive, reactive and static-full-power
/// scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeTransition {
    /// Cycle of the change.
    pub at: u64,
    /// Mode in force before the change.
    pub from: ScalingMode,
    /// Mode in force after the change.
    pub to: ScalingMode,
}

/// One sample of network state at the end of a timeline window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Cycle at the end of the window.
    pub at: u64,
    /// Flits delivered during the window.
    pub flits: u64,
    /// Mean powered wavelengths across all routers at the sample instant.
    pub mean_wavelengths: f64,
    /// Packets stalled at issue during the window.
    pub stalls: u64,
    /// Retransmissions issued during the window — recovery bursts show
    /// up here before they show in run-level aggregates.
    pub retransmissions: u64,
    /// Packets that arrived corrupted (CRC mismatch) during the window.
    pub corruptions: u64,
}

/// A fixed-cadence recorder of [`TimelinePoint`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    window: u64,
    points: Vec<TimelinePoint>,
    last_flits: u64,
    last_stalls: u64,
    last_retransmissions: u64,
    last_corruptions: u64,
}

impl Timeline {
    /// Creates a timeline sampling every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Timeline {
        assert!(window > 0, "timeline window must be non-zero");
        Timeline {
            window,
            points: Vec::new(),
            last_flits: 0,
            last_stalls: 0,
            last_retransmissions: 0,
            last_corruptions: 0,
        }
    }

    /// Sampling cadence in cycles.
    #[inline]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The recorded samples.
    #[inline]
    pub fn points(&self) -> &[TimelinePoint] {
        &self.points
    }

    /// Steps `net` for `cycles` cycles, sampling it after every cycle
    /// that closes a window (counted from cycle 0). A trailing partial
    /// window is run but not sampled.
    pub fn run(&mut self, net: &mut PearlNetwork, cycles: u64) {
        for _ in 0..cycles {
            net.step();
            if self.due(net.now().as_u64()) {
                self.sample(net);
            }
        }
    }

    /// Records the window that `net` has just closed.
    fn sample(&mut self, net: &PearlNetwork) {
        let stats = net.stats();
        self.record(
            net.now().as_u64(),
            stats.total_delivered_flits(),
            stats.injection_stalls(),
            mean_wavelengths(net.routers().iter().map(|r| r.laser().powered_state())),
            stats.retransmitted_packets(),
            stats.corrupted_packets(),
        );
    }

    /// True when the network's cycle count `at` ends a window.
    fn due(&self, at: u64) -> bool {
        at.is_multiple_of(self.window)
    }

    /// Records a sample taken at cycle `at` from cumulative counters.
    fn record(
        &mut self,
        at: u64,
        total_flits: u64,
        total_stalls: u64,
        mean_wavelengths: f64,
        total_retransmissions: u64,
        total_corruptions: u64,
    ) {
        self.points.push(TimelinePoint {
            at,
            flits: total_flits - self.last_flits,
            mean_wavelengths,
            stalls: total_stalls - self.last_stalls,
            retransmissions: total_retransmissions - self.last_retransmissions,
            corruptions: total_corruptions - self.last_corruptions,
        });
        self.last_flits = total_flits;
        self.last_stalls = total_stalls;
        self.last_retransmissions = total_retransmissions;
        self.last_corruptions = total_corruptions;
    }

    /// Mean per-window throughput in flits/cycle across all samples.
    pub fn mean_throughput(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let flits: u64 = self.points.iter().map(|p| p.flits).sum();
        flits as f64 / (self.points.len() as u64 * self.window) as f64
    }

    /// The window with the lowest mean wavelength count, if any — where
    /// the scaler dug deepest.
    pub fn deepest_scaling(&self) -> Option<TimelinePoint> {
        self.points.iter().copied().min_by(|a, b| a.mean_wavelengths.total_cmp(&b.mean_wavelengths))
    }
}

/// Mean powered wavelength count across a set of laser states.
fn mean_wavelengths(states: impl Iterator<Item = WavelengthState>) -> f64 {
    let mut total = 0u64;
    let mut n = 0u64;
    for s in states {
        total += u64::from(s.wavelengths());
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_deltas_not_totals() {
        let mut t = Timeline::new(100);
        t.record(100, 500, 2, 64.0, 3, 4);
        t.record(200, 800, 2, 32.0, 3, 9);
        assert_eq!(t.points()[0].flits, 500);
        assert_eq!(t.points()[1].flits, 300);
        assert_eq!(t.points()[1].stalls, 0);
        // Retransmission/corruption columns are deltas too: a recovery
        // burst in window 0 must not bleed into window 1.
        assert_eq!(t.points()[0].retransmissions, 3);
        assert_eq!(t.points()[1].retransmissions, 0);
        assert_eq!(t.points()[0].corruptions, 4);
        assert_eq!(t.points()[1].corruptions, 5);
        // 500 + 300 delivered flits over two 100-cycle windows.
        assert!((t.mean_throughput() - 800.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn due_fires_on_window_boundaries() {
        let t = Timeline::new(500);
        assert!(t.due(500));
        assert!(!t.due(499));
        assert!(!t.due(501));
        assert!(t.due(1_000));
    }

    #[test]
    fn deepest_scaling_finds_the_minimum() {
        let mut t = Timeline::new(10);
        t.record(10, 10, 0, 64.0, 0, 0);
        t.record(20, 20, 0, 12.5, 0, 0);
        t.record(30, 30, 0, 40.0, 0, 0);
        assert_eq!(t.deepest_scaling().unwrap().at, 20);
    }

    #[test]
    fn mean_wavelengths_helper() {
        let states = [WavelengthState::W64, WavelengthState::W16];
        assert!((mean_wavelengths(states.into_iter()) - 40.0).abs() < 1e-12);
        assert_eq!(mean_wavelengths(std::iter::empty()), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = Timeline::new(0);
    }
}
