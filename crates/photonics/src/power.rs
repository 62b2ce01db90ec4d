//! Laser, thermal-tuning and modulation power.
//!
//! The five laser power levels the paper reports (§IV-B) — 1.16, 0.871,
//! 0.581, 0.29 and 0.145 W for 64/48/32/16/8 wavelengths — scale linearly
//! with the wavelength count. [`PowerModel::pearl`] derives them from the
//! Table V loss budget and the wall-plug efficiency of the on-chip InP
//! Fabry-Perot lasers; a unit test pins the derived levels to the paper's
//! numbers.

use crate::loss::LossBudget;
use crate::mrr::RingInventory;
use crate::wavelength::WavelengthState;

/// Energy of one ML power-scaling inference: ~30 multiplies + 29 adds on
/// 16-bit values, from Horowitz ISSCC'14 as used by the paper (§IV-B).
pub const ML_INFERENCE_ENERGY_PJ: f64 = 44.6;

/// Average ML-unit power for a 500-cycle reservation window (§IV-B).
pub const ML_UNIT_POWER_UW_RW500: f64 = 178.4;

/// Ring heater power (µW per ring), Table V.
pub const RING_HEATING_UW: f64 = 26.0;

/// Ring modulation power (µW per actively modulating ring), Table V.
pub const RING_MODULATING_UW: f64 = 500.0;

/// Per-router photonic power model.
///
/// # Example
///
/// ```
/// use pearl_photonics::{PowerModel, WavelengthState};
/// let m = PowerModel::pearl();
/// assert!(m.laser_power_w(WavelengthState::W8) < m.laser_power_w(WavelengthState::W64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    budget: LossBudget,
    /// Electrical-to-optical wall-plug efficiency of the laser.
    pub wall_plug_efficiency: f64,
    rings: RingInventory,
}

impl PowerModel {
    /// The PEARL configuration.
    ///
    /// The wall-plug efficiency (12.37 %) is calibrated so the derived
    /// 64-wavelength level reproduces the paper's 1.16 W; the other four
    /// levels then land on the paper's values automatically because laser
    /// power is linear in wavelength count.
    pub fn pearl() -> PowerModel {
        PowerModel {
            budget: LossBudget::pearl(),
            wall_plug_efficiency: 0.1237,
            rings: RingInventory::pearl_router(),
        }
    }

    /// Creates a model from explicit parts.
    ///
    /// # Panics
    ///
    /// Panics unless `wall_plug_efficiency` lies in `(0, 1]`.
    pub fn new(budget: LossBudget, wall_plug_efficiency: f64, rings: RingInventory) -> PowerModel {
        assert!(
            wall_plug_efficiency > 0.0 && wall_plug_efficiency <= 1.0,
            "wall-plug efficiency must be in (0, 1], got {wall_plug_efficiency}"
        );
        PowerModel { budget, wall_plug_efficiency, rings }
    }

    /// The loss budget in use.
    #[inline]
    pub fn budget(&self) -> &LossBudget {
        &self.budget
    }

    /// The ring inventory in use.
    #[inline]
    pub fn rings(&self) -> &RingInventory {
        &self.rings
    }

    /// Electrical laser power per wavelength (W).
    pub fn laser_power_per_wavelength_w(&self) -> f64 {
        self.budget.required_laser_power_mw() * 1e-3 / self.wall_plug_efficiency
    }

    /// Electrical laser power of a wavelength state (W) — the per-router
    /// level of Fig. 7.
    pub fn laser_power_w(&self, state: WavelengthState) -> f64 {
        self.laser_power_per_wavelength_w() * f64::from(state.wavelengths())
    }

    /// Thermal-tuning (ring heating) power for the router (W).
    ///
    /// Heaters on the banks that are powered off are also off — the
    /// four-bank design "allows for reducing the trimming power along with
    /// the laser" (§III-C) — so heating scales with the active fraction.
    pub fn heating_power_w(&self, state: WavelengthState) -> f64 {
        let active_fraction = f64::from(state.wavelengths()) / 64.0;
        self.rings.total() as f64 * RING_HEATING_UW * 1e-6 * active_fraction
    }

    /// Modulation power while actively transmitting on `state` (W).
    pub fn modulation_power_w(&self, state: WavelengthState) -> f64 {
        f64::from(state.wavelengths()) * RING_MODULATING_UW * 1e-6
    }

    /// Laser energy drawn over one clock period (J).
    pub fn laser_energy_per_cycle_j(&self, state: WavelengthState, cycle_s: f64) -> f64 {
        self.laser_power_w(state) * cycle_s
    }

    /// Modulation energy for transmitting `bits` bits.
    ///
    /// Modeled as the modulation power held for the serialization time of
    /// the flits, i.e. energy ∝ bits at a given state.
    pub fn modulation_energy_j(&self, state: WavelengthState, bits: u64, cycle_s: f64) -> f64 {
        let flits = (bits as f64 / 128.0).ceil();
        let cycles = flits * state.serialization_cycles() as f64;
        self.modulation_power_w(state) * cycles * cycle_s
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::pearl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's published levels (§IV-B).
    const PAPER_LEVELS: [(WavelengthState, f64); 5] = [
        (WavelengthState::W64, 1.16),
        (WavelengthState::W48, 0.871),
        (WavelengthState::W32, 0.581),
        (WavelengthState::W16, 0.29),
        (WavelengthState::W8, 0.145),
    ];

    #[test]
    fn laser_levels_match_paper_within_one_percent() {
        let m = PowerModel::pearl();
        for (state, paper_w) in PAPER_LEVELS {
            let w = m.laser_power_w(state);
            assert!(
                (w - paper_w).abs() / paper_w < 0.01,
                "{state}: derived {w:.4} W vs paper {paper_w} W"
            );
        }
    }

    #[test]
    fn laser_power_linear_in_wavelengths() {
        let m = PowerModel::pearl();
        let per = m.laser_power_per_wavelength_w();
        for s in WavelengthState::ALL {
            let expected = per * f64::from(s.wavelengths());
            assert!((m.laser_power_w(s) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn heating_scales_with_active_banks() {
        let m = PowerModel::pearl();
        let full = m.heating_power_w(WavelengthState::W64);
        let half = m.heating_power_w(WavelengthState::W32);
        assert!((half - full / 2.0).abs() < 1e-12);
        assert!(full > 0.0);
    }

    #[test]
    fn modulation_energy_proportional_to_bits() {
        let m = PowerModel::pearl();
        let cycle_s = 0.5e-9;
        let one = m.modulation_energy_j(WavelengthState::W64, 128, cycle_s);
        let four = m.modulation_energy_j(WavelengthState::W64, 512, cycle_s);
        assert!((four - 4.0 * one).abs() < 1e-21);
    }

    #[test]
    fn lower_state_costs_fewer_laser_joules_per_cycle() {
        let m = PowerModel::pearl();
        let cycle_s = 0.5e-9;
        assert!(
            m.laser_energy_per_cycle_j(WavelengthState::W8, cycle_s)
                < m.laser_energy_per_cycle_j(WavelengthState::W64, cycle_s)
        );
    }

    #[test]
    #[should_panic(expected = "wall-plug")]
    fn invalid_efficiency_rejected() {
        let _ = PowerModel::new(LossBudget::pearl(), 0.0, RingInventory::pearl_router());
    }

    #[test]
    fn ml_constants_match_paper() {
        assert!((ML_INFERENCE_ENERGY_PJ - 44.6).abs() < 1e-12);
        assert!((ML_UNIT_POWER_UW_RW500 - 178.4).abs() < 1e-12);
    }
}
