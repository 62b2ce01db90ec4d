//! Network policies: how bandwidth is arbitrated and how laser power is
//! scaled.
//!
//! The paper's evaluated configurations map to policies as follows:
//!
//! | Paper name            | Bandwidth | Power |
//! |-----------------------|-----------|-------|
//! | PEARL-FCFS (64 WL)    | [`BandwidthPolicy::Fcfs`] | [`PowerPolicy::Static`] W64 |
//! | PEARL-Dyn (64 WL)     | [`BandwidthPolicy::Dynamic`] | [`PowerPolicy::Static`] W64 |
//! | Dyn RW500 / RW2000    | Dynamic   | [`PowerPolicy::Reactive`] |
//! | ML RW500 / RW2000     | Dynamic   | [`PowerPolicy::Ml`] |
//! | (training collection) | Dynamic   | [`PowerPolicy::RandomWalk`] |

use crate::config::ConfigError;
use crate::dba::OccupancyBounds;
use crate::ml_scaling::{FallbackConfig, MlPowerScaler};
use crate::power_scaling::ReactiveThresholds;
use pearl_photonics::WavelengthState;

/// How the router splits channel bandwidth between CPU and GPU lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthPolicy {
    /// First-come-first-served over both lanes: no protection against
    /// GPU bursts head-of-line-blocking the CPU.
    Fcfs,
    /// Algorithm 1 steps 1–3: occupancy-driven split with the given
    /// upper bounds, quantized to the paper's winning 25 % steps.
    Dynamic(OccupancyBounds),
    /// The finer allocation granularities the paper evaluated and
    /// rejected (§III-B): occupancy-proportional shares quantized to
    /// 6.25 % or 12.5 % steps.
    DynamicFine {
        /// Share quantization step (0.0625 or 0.125 in the paper).
        step: f64,
    },
}

impl BandwidthPolicy {
    /// Checks the fine-grained share step, returning
    /// [`ConfigError::InvalidFineStep`] unless it lies in (0, 0.5] and
    /// divides 1 evenly.
    pub fn check(&self) -> Result<(), ConfigError> {
        let BandwidthPolicy::DynamicFine { step } = *self else { return Ok(()) };
        let slots = 1.0 / step;
        if step > 0.0 && step <= 0.5 && (slots - slots.round()).abs() < 1e-9 {
            Ok(())
        } else {
            Err(ConfigError::InvalidFineStep { step })
        }
    }
}

/// How each router's laser power state evolves.
#[derive(Debug, Clone, PartialEq)]
pub enum PowerPolicy {
    /// A fixed wavelength state for the whole run.
    Static(WavelengthState),
    /// Reactive scaling from windowed buffer occupancy (Algorithm 1
    /// steps 6–8).
    Reactive {
        /// Reservation window in cycles (500 or 2000 in the paper).
        window: u64,
        /// The four occupancy thresholds.
        thresholds: ReactiveThresholds,
        /// Whether the 8 λ low-power state may be selected.
        allow_8wl: bool,
    },
    /// Proactive scaling from the ridge-regression packet prediction.
    Ml {
        /// Reservation window in cycles.
        window: u64,
        /// The trained predictor.
        scaler: MlPowerScaler,
        /// Whether the 8 λ low-power state may be selected.
        allow_8wl: bool,
        /// Optional graceful-degradation ladder: monitor the predictor's
        /// online accuracy and fall back ML → reactive → static full
        /// power when it degrades (recovering when accuracy returns).
        fallback: Option<FallbackConfig>,
    },
    /// Uniformly random state per window — used only to collect
    /// unbiased training data ("initial feature data is collected using
    /// randomly generated wavelength states", §IV-A).
    RandomWalk {
        /// Reservation window in cycles.
        window: u64,
    },
    /// Ablation baseline: predict next-window traffic as exactly this
    /// window's traffic (a last-value predictor) and select the state
    /// via Eq. 7, isolating what the ridge regression adds.
    NaiveLastWindow {
        /// Reservation window in cycles.
        window: u64,
        /// Capacity guard factor (same semantics as the ML scaler's).
        guard: f64,
        /// Whether the 8 λ low-power state may be selected.
        allow_8wl: bool,
    },
}

impl PowerPolicy {
    /// Checks policy invariants, returning the first violation as a
    /// typed [`ConfigError`].
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.window() == Some(0) {
            return Err(ConfigError::ZeroWindow);
        }
        if let PowerPolicy::NaiveLastWindow { guard, .. } = *self {
            if guard <= 0.0 || guard.is_nan() {
                return Err(ConfigError::NonPositiveGuard { guard });
            }
        }
        Ok(())
    }

    /// The reservation window, if this policy is windowed.
    pub fn window(&self) -> Option<u64> {
        match self {
            PowerPolicy::Static(_) => None,
            PowerPolicy::Reactive { window, .. }
            | PowerPolicy::Ml { window, .. }
            | PowerPolicy::RandomWalk { window }
            | PowerPolicy::NaiveLastWindow { window, .. } => Some(*window),
        }
    }
}

/// A complete PEARL configuration variant.
#[derive(Debug, Clone, PartialEq)]
pub struct PearlPolicy {
    /// Bandwidth arbitration policy.
    pub bandwidth: BandwidthPolicy,
    /// Laser power policy.
    pub power: PowerPolicy,
}

impl PearlPolicy {
    /// PEARL-Dyn: dynamic bandwidth, constant 64 wavelengths.
    pub fn dyn_64wl() -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::Dynamic(OccupancyBounds::pearl()),
            power: PowerPolicy::Static(WavelengthState::W64),
        }
    }

    /// PEARL-FCFS: FCFS arbitration, constant 64 wavelengths.
    pub fn fcfs_64wl() -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::Fcfs,
            power: PowerPolicy::Static(WavelengthState::W64),
        }
    }

    /// PEARL-Dyn constrained to a static lower wavelength state (the
    /// 32/16 WL static points of Fig. 5).
    pub fn dyn_static(state: WavelengthState) -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::Dynamic(OccupancyBounds::pearl()),
            power: PowerPolicy::Static(state),
        }
    }

    /// PEARL-FCFS constrained to a static wavelength state.
    pub fn fcfs_static(state: WavelengthState) -> PearlPolicy {
        PearlPolicy { bandwidth: BandwidthPolicy::Fcfs, power: PowerPolicy::Static(state) }
    }

    /// Dyn RW*: reactive power scaling on top of dynamic bandwidth.
    pub fn reactive(window: u64) -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::Dynamic(OccupancyBounds::pearl()),
            power: PowerPolicy::Reactive {
                window,
                thresholds: ReactiveThresholds::pearl(),
                allow_8wl: true,
            },
        }
    }

    /// ML RW*: proactive ML power scaling on top of dynamic bandwidth.
    pub fn ml(window: u64, scaler: MlPowerScaler, allow_8wl: bool) -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::Dynamic(OccupancyBounds::pearl()),
            power: PowerPolicy::Ml { window, scaler, allow_8wl, fallback: None },
        }
    }

    /// ML power scaling guarded by the graceful-degradation ladder: when
    /// the predictor's sliding-window accuracy falls below the
    /// configured threshold the network falls back to reactive scaling
    /// (and, under severe mispredictions, to static full power),
    /// climbing back once accuracy returns.
    pub fn ml_with_fallback(
        window: u64,
        scaler: MlPowerScaler,
        allow_8wl: bool,
        fallback: FallbackConfig,
    ) -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::Dynamic(OccupancyBounds::pearl()),
            power: PowerPolicy::Ml { window, scaler, allow_8wl, fallback: Some(fallback) },
        }
    }

    /// Fine-grained bandwidth allocation ablation (§III-B): dynamic
    /// occupancy-proportional shares in `step` increments, constant
    /// 64 wavelengths.
    pub fn dyn_fine(step: f64) -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::DynamicFine { step },
            power: PowerPolicy::Static(WavelengthState::W64),
        }
    }

    /// Last-value power-scaling ablation: dynamic bandwidth plus
    /// Eq. 7 selection from this window's observed traffic.
    pub fn naive_power(window: u64, guard: f64, allow_8wl: bool) -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::Dynamic(OccupancyBounds::pearl()),
            power: PowerPolicy::NaiveLastWindow { window, guard, allow_8wl },
        }
    }

    /// Training-data collection: dynamic bandwidth, random states.
    pub fn random_walk(window: u64) -> PearlPolicy {
        PearlPolicy {
            bandwidth: BandwidthPolicy::Dynamic(OccupancyBounds::pearl()),
            power: PowerPolicy::RandomWalk { window },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_accessor() {
        assert_eq!(PearlPolicy::dyn_64wl().power.window(), None);
        assert_eq!(PearlPolicy::reactive(500).power.window(), Some(500));
        assert_eq!(PearlPolicy::random_walk(2000).power.window(), Some(2000));
    }

    #[test]
    fn named_variants_match_paper_table() {
        assert!(matches!(PearlPolicy::fcfs_64wl().bandwidth, BandwidthPolicy::Fcfs));
        assert!(matches!(PearlPolicy::dyn_64wl().power, PowerPolicy::Static(WavelengthState::W64)));
        assert!(matches!(
            PearlPolicy::dyn_static(WavelengthState::W16).power,
            PowerPolicy::Static(WavelengthState::W16)
        ));
    }

    #[test]
    fn policy_check_rejects_degenerate_windows_and_guards() {
        use crate::config::ConfigError;
        assert_eq!(PearlPolicy::dyn_64wl().power.check(), Ok(()));
        assert_eq!(PearlPolicy::reactive(500).power.check(), Ok(()));
        assert_eq!(PearlPolicy::reactive(0).power.check(), Err(ConfigError::ZeroWindow));
        assert_eq!(PearlPolicy::random_walk(0).power.check(), Err(ConfigError::ZeroWindow));
        assert_eq!(PearlPolicy::naive_power(500, 1.0, true).power.check(), Ok(()));
        assert_eq!(
            PearlPolicy::naive_power(500, 0.0, true).power.check(),
            Err(ConfigError::NonPositiveGuard { guard: 0.0 })
        );
        assert!(matches!(
            PearlPolicy::naive_power(500, f64::NAN, true).power.check(),
            Err(ConfigError::NonPositiveGuard { .. })
        ));
        assert_eq!(PearlPolicy::dyn_fine(0.0625).bandwidth.check(), Ok(()));
        assert_eq!(PearlPolicy::dyn_fine(0.5).bandwidth.check(), Ok(()));
        for step in [0.0, -0.25, 0.7, 0.3, f64::INFINITY] {
            assert_eq!(
                PearlPolicy::dyn_fine(step).bandwidth.check(),
                Err(ConfigError::InvalidFineStep { step })
            );
        }
        assert!(PearlPolicy::dyn_fine(f64::NAN).bandwidth.check().is_err());
    }

    #[test]
    fn reactive_uses_pearl_thresholds() {
        if let PowerPolicy::Reactive { thresholds, allow_8wl, .. } =
            PearlPolicy::reactive(500).power
        {
            thresholds.validate();
            assert!(allow_8wl);
        } else {
            panic!("expected reactive policy");
        }
    }
}
