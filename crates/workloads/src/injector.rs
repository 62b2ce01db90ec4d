//! Markov-modulated ON/OFF packet injection.
//!
//! The source alternates between an ON state (injecting with the
//! profile's rate each cycle) and an OFF state (silent), with
//! geometrically distributed dwell times. Long ON / short OFF produces
//! the near-steady CPU behaviour; short ON / long OFF produces the
//! bursty GPU behaviour the paper observed (§IV-A).

use crate::phases::PhaseModulator;
use crate::profile::TrafficProfile;
use crate::state::{InjectorState, RngState};
use pearl_noc::{Cycle, SimRng};

/// State of the two-state Markov source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceState {
    On { remaining: u64 },
    Off { remaining: u64 },
}

/// A bursty packet source for one cluster and core type.
#[derive(Debug, Clone)]
pub struct OnOffInjector {
    profile: TrafficProfile,
    phases: PhaseModulator,
    state: SourceState,
    rng: SimRng,
}

impl OnOffInjector {
    /// Creates an injector from a profile; `rng` seeds its private
    /// stochastic stream and `phases` modulates its rate: the profile's
    /// [`PhaseModulator`], shared between the sources of a core type at
    /// offsets that decorrelate their phases across clusters.
    pub fn new(profile: TrafficProfile, mut rng: SimRng, phases: PhaseModulator) -> OnOffInjector {
        profile.validate();
        // Start in a random point of the ON/OFF cycle so sources are not
        // synchronized at cycle zero.
        let state = if rng.chance(profile.duty_cycle()) {
            SourceState::On { remaining: Self::dwell(&mut rng, profile.burst_mean_len) }
        } else {
            SourceState::Off { remaining: Self::dwell(&mut rng, profile.idle_mean_len.max(1.0)) }
        };
        OnOffInjector { profile, phases, state, rng }
    }

    fn dwell(rng: &mut SimRng, mean: f64) -> u64 {
        // Geometric dwell with the requested mean (p = 1/mean).
        rng.geometric((1.0 / mean.max(1.0)).clamp(1e-6, 1.0))
    }

    /// The profile driving this source.
    #[inline]
    pub fn profile(&self) -> &TrafficProfile {
        &self.profile
    }

    /// True while the source is in its ON (burst) state.
    #[inline]
    pub fn is_bursting(&self) -> bool {
        matches!(self.state, SourceState::On { .. })
    }

    /// Advances one cycle and returns how many packets the source wants
    /// to inject this cycle (usually 0 or 1; may exceed 1 for rates > 1).
    pub fn step(&mut self, now: Cycle) -> u32 {
        // Dwell-time bookkeeping.
        self.state = match self.state {
            SourceState::On { remaining: 0 } => SourceState::Off {
                remaining: Self::dwell(&mut self.rng, self.profile.idle_mean_len.max(1.0)),
            },
            SourceState::Off { remaining: 0 } => SourceState::On {
                remaining: Self::dwell(&mut self.rng, self.profile.burst_mean_len),
            },
            SourceState::On { remaining } => SourceState::On { remaining: remaining - 1 },
            SourceState::Off { remaining } => SourceState::Off { remaining: remaining - 1 },
        };
        if !self.is_bursting() {
            return 0;
        }
        let rate = self.profile.injection_rate * self.phases.factor(now);
        let whole = rate.floor() as u32;
        let frac = rate - f64::from(whole);
        whole + u32::from(self.rng.chance(frac))
    }

    /// Mutable access to the private random stream (used by the traffic
    /// model for destination/class draws so they stay per-source).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Captures the dynamic state (dwell counters + RNG stream) for a
    /// checkpoint. The profile and phase modulator are static
    /// configuration and are not part of the snapshot.
    pub fn export_state(&self) -> InjectorState {
        let (bursting, remaining) = match self.state {
            SourceState::On { remaining } => (true, remaining),
            SourceState::Off { remaining } => (false, remaining),
        };
        InjectorState { bursting, remaining, rng: RngState::capture(&self.rng) }
    }

    /// Restores dynamic state captured by [`Self::export_state`] onto an
    /// injector built from the identical profile and phase modulator.
    pub fn import_state(&mut self, state: &InjectorState) {
        self.state = if state.bursting {
            SourceState::On { remaining: state.remaining }
        } else {
            SourceState::Off { remaining: state.remaining }
        };
        self.rng = state.rng.rebuild();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ClassMix;

    fn profile(rate: f64, burst: f64, idle: f64) -> TrafficProfile {
        TrafficProfile {
            injection_rate: rate,
            burst_mean_len: burst,
            idle_mean_len: idle,
            l3_fraction: 0.5,
            phase_period: 0,
            phase_depth: 0.0,
            class_mix: ClassMix::balanced(),
        }
    }

    fn injector(p: TrafficProfile, seed: u64, offset: u64) -> OnOffInjector {
        let phases = PhaseModulator::new(p.phase_period, p.phase_depth).at_offset(offset);
        OnOffInjector::new(p, SimRng::from_seed(seed), phases)
    }

    fn mean_injected(p: TrafficProfile, cycles: u64, seed: u64) -> f64 {
        let mut inj = injector(p, seed, 0);
        let total: u64 = (0..cycles).map(|c| u64::from(inj.step(Cycle(c)))).sum();
        total as f64 / cycles as f64
    }

    #[test]
    fn long_run_rate_matches_profile_mean() {
        let p = profile(0.4, 50.0, 150.0); // mean = 0.4 × 0.25 = 0.1
        let measured = mean_injected(p, 400_000, 7);
        assert!((measured - p.mean_rate()).abs() < 0.01, "measured {measured}");
    }

    #[test]
    fn steady_source_rarely_pauses() {
        let p = profile(0.2, 5000.0, 1.0);
        let mut inj = injector(p, 1, 0);
        let on_cycles = (0..10_000)
            .filter(|&c| {
                inj.step(Cycle(c));
                inj.is_bursting()
            })
            .count();
        assert!(on_cycles > 9_000, "only {on_cycles} on-cycles");
    }

    #[test]
    fn bursty_source_alternates() {
        let p = profile(0.6, 30.0, 300.0);
        let mut inj = injector(p, 3, 0);
        let mut transitions = 0;
        let mut last = inj.is_bursting();
        for c in 0..100_000 {
            inj.step(Cycle(c));
            if inj.is_bursting() != last {
                transitions += 1;
                last = inj.is_bursting();
            }
        }
        // Expected ~2×100000/330 ≈ 600 transitions; require a healthy count.
        assert!(transitions > 200, "only {transitions} transitions");
    }

    #[test]
    fn rates_above_one_inject_multiple_packets() {
        let p = profile(2.5, 1000.0, 1.0);
        let measured = mean_injected(p, 100_000, 11);
        assert!((measured - 2.5).abs() < 0.1, "measured {measured}");
    }

    #[test]
    fn state_round_trip_continues_identically() {
        let p = profile(0.5, 40.0, 200.0);
        let mut original = injector(p, 17, 3);
        for c in 0..500 {
            original.step(Cycle(c));
        }
        let snapshot = original.export_state();
        let mut restored = injector(p, 99, 3);
        restored.import_state(&snapshot);
        for c in 500..2_000 {
            assert_eq!(restored.step(Cycle(c)), original.step(Cycle(c)), "cycle {c}");
            assert_eq!(restored.is_bursting(), original.is_bursting());
        }
        assert_eq!(restored.export_state(), original.export_state());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = profile(0.5, 40.0, 200.0);
        let a: Vec<u32> = {
            let mut i = injector(p, 9, 4);
            (0..1000).map(|c| i.step(Cycle(c))).collect()
        };
        let b: Vec<u32> = {
            let mut i = injector(p, 9, 4);
            (0..1000).map(|c| i.step(Cycle(c))).collect()
        };
        assert_eq!(a, b);
    }
}
