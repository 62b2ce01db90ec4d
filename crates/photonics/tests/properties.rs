//! Property-based tests for the photonic device models.

use pearl_photonics::{
    FaultConfig, FaultModel, LossBudget, OnChipLaser, OpticalLosses, PowerModel, ThermalModel,
    WavelengthState,
};
use proptest::prelude::*;

fn any_state() -> impl Strategy<Value = WavelengthState> {
    prop::sample::select(WavelengthState::ALL.to_vec())
}

proptest! {
    /// The laser FSM never lets the usable state exceed the powered
    /// state, and residency accounts exactly one entry per tick, under
    /// arbitrary request/tick interleavings.
    #[test]
    fn laser_fsm_invariants(
        requests in prop::collection::vec((any_state(), 1u64..20), 1..50),
        turn_on in 0u64..16,
    ) {
        let mut laser = OnChipLaser::new(WavelengthState::W64, turn_on);
        let mut now = 0u64;
        let mut ticks = 0u64;
        for (target, dwell) in requests {
            laser.request(target, now);
            for _ in 0..dwell {
                laser.tick(now);
                now += 1;
                ticks += 1;
                prop_assert!(laser.usable_state() <= laser.powered_state());
                prop_assert_eq!(laser.residency().total_cycles(), ticks);
            }
        }
    }

    /// After enough stable time, the usable state always converges to
    /// the last requested state.
    #[test]
    fn laser_converges(target in any_state(), turn_on in 0u64..32) {
        let mut laser = OnChipLaser::new(WavelengthState::W16, turn_on);
        laser.request(target, 0);
        for now in 0..=turn_on + 1 {
            laser.tick(now);
        }
        prop_assert_eq!(laser.usable_state(), target);
        prop_assert!(!laser.is_stabilizing());
    }

    /// Laser power is strictly monotone in the wavelength count and
    /// linear: P(a)/P(b) = λa/λb.
    #[test]
    fn power_linear_in_wavelengths(a in any_state(), b in any_state()) {
        let m = PowerModel::pearl();
        let (pa, pb) = (m.laser_power_w(a), m.laser_power_w(b));
        let ratio = f64::from(a.wavelengths()) / f64::from(b.wavelengths());
        prop_assert!((pa / pb - ratio).abs() < 1e-9);
    }

    /// Adding loss anywhere in the budget can only increase the required
    /// laser power.
    #[test]
    fn loss_budget_is_monotone(
        extra_length in 0.0f64..5.0,
        extra_rings in 0u32..64,
    ) {
        let base = LossBudget::pearl();
        let worse = LossBudget::new(
            OpticalLosses::table_v(),
            base.path_length_cm + extra_length,
            base.broadcast_readers,
            base.splitter_stages,
            base.rings_passed + extra_rings,
        );
        prop_assert!(worse.required_laser_power_mw() >= base.required_laser_power_mw());
    }

    /// Serialization delay is antitone in bandwidth: more wavelengths
    /// never serialize slower, and capacity over a window is monotone.
    #[test]
    fn serialization_monotone(window in 1u64..10_000) {
        let mut last_delay = u64::MAX;
        let mut last_capacity = 0u64;
        for state in WavelengthState::ALL {
            prop_assert!(state.serialization_cycles() <= last_delay);
            prop_assert!(state.flit_capacity(window) >= last_capacity);
            last_delay = state.serialization_cycles();
            last_capacity = state.flit_capacity(window);
        }
    }

    /// Stall cycles only accrue while stabilizing upward, and they never
    /// exceed the configured turn-on time per transition.
    #[test]
    fn stall_bounded_by_turn_on(turn_on in 1u64..32, transitions in 1u64..10) {
        let mut laser = OnChipLaser::new(WavelengthState::W8, turn_on);
        let mut now = 0;
        for t in 0..transitions {
            let target = if t % 2 == 0 { WavelengthState::W64 } else { WavelengthState::W8 };
            laser.request(target, now);
            for _ in 0..turn_on + 5 {
                laser.tick(now);
                now += 1;
            }
        }
        // Only upward transitions stall, each at most `turn_on` cycles.
        let upward = transitions.div_ceil(2);
        prop_assert!(laser.stall_cycles() <= upward * turn_on);
    }
}

/// Simulates a laser pinned at full power under fault injection with a
/// shared seed and returns its total energy (arbitrary units: Σ per-cycle
/// laser power over the run). Repairs and recovery are disabled so the
/// fault set at a higher rate is a strict superset of the lower rate's.
fn laser_energy_under_faults(rate: f64, cycles: u64, seed: u64) -> f64 {
    let config = FaultConfig {
        lambda_fail_per_cycle: rate,
        laser_degrade_per_cycle: rate * 0.1,
        ..FaultConfig { seed, ..FaultConfig::off() }
    };
    let mut faults = FaultModel::new(config, 1);
    let mut laser = OnChipLaser::new(WavelengthState::W64, 4);
    let power = PowerModel::pearl();
    let mut energy = 0.0;
    for now in 0..cycles {
        faults.step(|_, _| {});
        laser.apply_ceiling(faults.effective_state(0, WavelengthState::W64), now);
        laser.tick(now);
        energy += power.laser_power_w(laser.powered_state());
    }
    assert_eq!(laser.residency().total_cycles(), cycles);
    energy
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Total laser energy is monotone non-increasing as the fault rate
    /// rises (same seed): more faults can only darken banks earlier.
    #[test]
    fn laser_energy_monotone_in_fault_rate(
        low in 0.0f64..0.005,
        bump in 0.0f64..0.005,
        seed in any::<u64>(),
    ) {
        let high = low + bump;
        let e_low = laser_energy_under_faults(low, 8_000, seed);
        let e_high = laser_energy_under_faults(high, 8_000, seed);
        prop_assert!(
            e_high <= e_low + 1e-9,
            "energy rose with fault rate: {} @ {} vs {} @ {}", e_low, low, e_high, high
        );
    }

    /// The effective state never exceeds the nominal request and never
    /// drops below the W8 floor, no matter how hard the model is driven
    /// — a fully-faulted waveguide still yields a usable (degraded)
    /// channel.
    #[test]
    fn effective_state_bounded(
        rate in 0.0f64..1.0,
        nominal in prop::sample::select(WavelengthState::ALL.to_vec()),
        seed in any::<u64>(),
    ) {
        let mut faults = FaultModel::new(FaultConfig::uniform(rate, seed), 2);
        for _ in 0..2_000 {
            faults.step(|_, _| {});
            for router in 0..2 {
                let eff = faults.effective_state(router, nominal);
                prop_assert!(eff <= nominal);
                prop_assert!(eff >= WavelengthState::W8);
            }
        }
    }

    /// Residency accounting stays exact under fault-driven clamping:
    /// one entry per tick, and the recorded states respect the ceiling
    /// trajectory (monotone non-increasing with recovery disabled).
    #[test]
    fn residency_exact_under_faults(rate in 0.0f64..0.01, seed in any::<u64>()) {
        let config = FaultConfig {
            laser_degrade_per_cycle: rate,
            ..FaultConfig { seed, ..FaultConfig::off() }
        };
        let mut faults = FaultModel::new(config, 1);
        let mut laser = OnChipLaser::new(WavelengthState::W64, 4);
        let mut last = WavelengthState::W64;
        for now in 0..4_000u64 {
            faults.step(|_, _| {});
            laser.apply_ceiling(faults.laser_ceiling(0), now);
            laser.tick(now);
            prop_assert!(laser.usable_state() <= last);
            last = laser.usable_state();
        }
        prop_assert_eq!(laser.residency().total_cycles(), 4_000);
    }

    /// Thermally derived fault rates grow with ambient stress and stay
    /// within the saturation cap.
    #[test]
    fn thermal_fault_rates_monotone_in_swing(a in 0.0f64..20.0, b in 0.0f64..20.0) {
        let thermal = ThermalModel::soi();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let cfg_lo = FaultConfig::from_thermal(&thermal, lo, 1);
        let cfg_hi = FaultConfig::from_thermal(&thermal, hi, 1);
        prop_assert!(cfg_lo.lambda_fail_per_cycle <= cfg_hi.lambda_fail_per_cycle);
        prop_assert!(cfg_hi.lambda_fail_per_cycle <= 1e-4 + 1e-12);
        prop_assert!(cfg_lo.corruption_per_packet <= cfg_hi.corruption_per_packet);
    }
}
