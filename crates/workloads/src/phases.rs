//! Program-phase modulation of injection rates.
//!
//! Real applications alternate between compute- and memory-dominated
//! phases; the traces the paper collected inherit that structure. A
//! [`PhaseModulator`] reproduces it as a smooth periodic swing of the
//! injection rate around its mean.
//!
//! The factor at phase `t` of a period `P` is `1 + depth·sin(2π·t/P)`.
//! A modulator computes that expression once per phase when it is
//! built and keeps the period's factors in a shared table, so a
//! bursting source reads its factor instead of calling `sin()` every
//! cycle. [`PhaseModulator::at_offset`] hands the same table to every
//! source of a core type, each reading it at its own offset. The table
//! is static configuration, rebuilt with the source: never part of a
//! checkpoint.

use pearl_noc::Cycle;
use std::f64::consts::TAU;
use std::fmt;
use std::sync::Arc;

/// Sinusoidal rate modulation with a per-source phase offset.
#[derive(Clone)]
pub struct PhaseModulator {
    /// One period of factors, indexed by phase; empty when modulation
    /// is off.
    factors: Arc<[f64]>,
    offset: u64,
}

impl PhaseModulator {
    /// Creates a modulator at offset 0.
    ///
    /// `period == 0` disables modulation (factor is always 1). `depth`
    /// scales the swing: the factor oscillates in `[1−depth, 1+depth]`.
    /// Builds a table of `period` factors; share it between sources
    /// with [`Self::at_offset`] rather than building one per source.
    ///
    /// # Panics
    ///
    /// Panics unless `depth ∈ [0, 1]`.
    pub fn new(period: u64, depth: f64) -> PhaseModulator {
        assert!((0.0..=1.0).contains(&depth), "phase depth {depth} outside [0, 1]");
        if period == 0 || depth == 0.0 {
            return PhaseModulator::disabled();
        }
        let factors = (0..period)
            .map(|t| {
                let angle = TAU * t as f64 / period as f64;
                1.0 + depth * angle.sin()
            })
            .collect();
        PhaseModulator { factors, offset: 0 }
    }

    /// A disabled modulator (factor 1 forever).
    pub fn disabled() -> PhaseModulator {
        PhaseModulator { factors: Arc::from([]), offset: 0 }
    }

    /// The same waveform shifted by `offset` cycles, sharing this
    /// modulator's table, so co-located sources don't beat in lockstep.
    pub fn at_offset(&self, offset: u64) -> PhaseModulator {
        PhaseModulator { factors: Arc::clone(&self.factors), offset }
    }

    /// Modulation period in cycles (0 = disabled, depth 0 included).
    #[inline]
    pub fn period(&self) -> u64 {
        self.factors.len() as u64
    }

    /// Multiplicative rate factor at the given time, in `[1−depth, 1+depth]`.
    #[inline]
    pub fn factor(&self, now: Cycle) -> f64 {
        if self.factors.is_empty() {
            return 1.0;
        }
        let t = now.as_u64().wrapping_add(self.offset) % self.period();
        self.factors[t as usize]
    }
}

impl Default for PhaseModulator {
    fn default() -> Self {
        PhaseModulator::disabled()
    }
}

/// Prints the period and offset, not the table.
impl fmt::Debug for PhaseModulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhaseModulator")
            .field("period", &self.period())
            .field("offset", &self.offset)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::{CpuBenchmark, GpuBenchmark};

    /// The closed form the table replaced, kept as its reference.
    fn closed_form(period: u64, depth: f64, offset: u64, now: Cycle) -> f64 {
        if period == 0 || depth == 0.0 {
            return 1.0;
        }
        let t = (now.as_u64().wrapping_add(offset)) % period;
        let angle = TAU * t as f64 / period as f64;
        1.0 + depth * angle.sin()
    }

    #[test]
    fn table_matches_the_closed_form_on_every_profile() {
        let clusters = 16;
        let profiles = CpuBenchmark::ALL
            .iter()
            .map(|b| b.profile())
            .chain(GpuBenchmark::ALL.iter().map(|b| b.profile()));
        let mut checked = 0;
        for profile in profiles {
            let (period, depth) = (profile.phase_period, profile.phase_depth);
            let shared = PhaseModulator::new(period, depth);
            // The offsets `TrafficModel::new` gives its CPU sources; GPU
            // sources all read at 0, the first of them.
            for c in 0..clusters {
                let offset = (period / clusters).wrapping_mul(c);
                let m = shared.at_offset(offset);
                for now in 0..period.max(1) {
                    let (got, want) =
                        (m.factor(Cycle(now)), closed_form(period, depth, offset, Cycle(now)));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "period {period} offset {offset} at {now}"
                    );
                }
            }
            checked += 1;
        }
        assert_eq!(checked, 24);
    }

    #[test]
    fn disabled_is_identity() {
        for m in
            [PhaseModulator::disabled(), PhaseModulator::new(0, 0.5), PhaseModulator::new(900, 0.0)]
        {
            assert_eq!(m.period(), 0);
            for c in [0, 17, 1000] {
                assert_eq!(m.factor(Cycle(c)), 1.0);
            }
        }
    }

    #[test]
    fn offsets_share_one_table() {
        let m = PhaseModulator::new(500, 0.4);
        let shifted = m.at_offset(250);
        assert!(Arc::ptr_eq(&m.factors, &shifted.factors));
        assert_eq!(shifted.factor(Cycle(0)).to_bits(), m.factor(Cycle(250)).to_bits());
    }

    #[test]
    fn factor_stays_in_band() {
        let m = PhaseModulator::new(1000, 0.5).at_offset(123);
        for c in 0..2000 {
            let f = m.factor(Cycle(c));
            assert!((0.5..=1.5).contains(&f), "factor {f} at {c}");
        }
    }

    #[test]
    fn period_repeats() {
        let m = PhaseModulator::new(800, 0.3);
        assert!((m.factor(Cycle(100)) - m.factor(Cycle(900))).abs() < 1e-12);
    }

    #[test]
    fn mean_factor_is_one() {
        let m = PhaseModulator::new(500, 0.4);
        let mean: f64 = (0..500).map(|c| m.factor(Cycle(c))).sum::<f64>() / 500.0;
        assert!((mean - 1.0).abs() < 1e-6);
    }

    #[test]
    fn offsets_decorrelate_sources() {
        let a = PhaseModulator::new(500, 0.4);
        let b = a.at_offset(250);
        assert!((a.factor(Cycle(125)) - b.factor(Cycle(125))).abs() > 0.1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_depth_rejected() {
        let _ = PhaseModulator::new(100, 1.5);
    }
}
