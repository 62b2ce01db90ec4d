//! Synthetic traffic patterns for microbenchmarks and unit tests.
//!
//! These are the classic NoC patterns (uniform random, hotspot,
//! transpose) used to sanity-check the simulators independently of the
//! benchmark-derived models.

use crate::state::{RngState, TrafficState, TrafficStateError};
use crate::traffic::{Destination, InjectionRequest, TrafficSource};
use pearl_noc::{CoreType, Cycle, SimRng, TrafficClass};

/// A synthetic traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyntheticPattern {
    /// Every packet goes to a uniformly random other endpoint (including
    /// the L3 with probability 1/N).
    UniformRandom,
    /// All packets converge on the L3 router.
    Hotspot,
    /// Cluster `i` of `n` sends to cluster `(i + n/2) mod n`.
    Transpose,
}

/// A fixed-rate Bernoulli injector over a synthetic pattern.
#[derive(Debug, Clone)]
pub struct SyntheticTraffic {
    pattern: SyntheticPattern,
    clusters: usize,
    rate: f64,
    core: CoreType,
    rng: SimRng,
}

impl SyntheticTraffic {
    /// Creates a generator injecting `rate` packets/cycle/cluster of the
    /// given core type.
    ///
    /// # Panics
    ///
    /// Panics if `clusters < 2` or `rate` is not in `[0, 1]`.
    pub fn new(
        pattern: SyntheticPattern,
        clusters: usize,
        rate: f64,
        core: CoreType,
        seed: u64,
    ) -> SyntheticTraffic {
        assert!(clusters >= 2, "synthetic patterns need at least two clusters");
        assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
        SyntheticTraffic { pattern, clusters, rate, core, rng: SimRng::from_seed(seed) }
    }

    /// The pattern in use.
    #[inline]
    pub fn pattern(&self) -> SyntheticPattern {
        self.pattern
    }

    /// Number of clusters driven.
    #[inline]
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Advances one cycle and returns the injection requests, in a new
    /// `Vec`: [`TrafficSource::generate`] with no source stalled.
    pub fn step(&mut self, now: Cycle) -> Vec<InjectionRequest> {
        let mut out = Vec::new();
        self.generate(now, &|_, _| false, &mut out);
        out
    }
}

impl TrafficSource for SyntheticTraffic {
    fn clusters(&self) -> usize {
        SyntheticTraffic::clusters(self)
    }

    /// Memoryless Bernoulli sources "pause" by dropping the draw: a
    /// stalled cluster still draws, so the stream does not depend on
    /// the stalls.
    fn generate(
        &mut self,
        _now: Cycle,
        stalled: &dyn Fn(usize, CoreType) -> bool,
        out: &mut Vec<InjectionRequest>,
    ) {
        for cluster in 0..self.clusters {
            if !self.rng.chance(self.rate) {
                continue;
            }
            let dst = match self.pattern {
                SyntheticPattern::UniformRandom => {
                    // Uniform over the other clusters plus the L3.
                    let pick = self.rng.below(self.clusters); // self excluded below
                    if pick == cluster {
                        Destination::L3
                    } else {
                        Destination::Cluster(pick)
                    }
                }
                SyntheticPattern::Hotspot => Destination::L3,
                SyntheticPattern::Transpose => {
                    Destination::Cluster((cluster + self.clusters / 2) % self.clusters)
                }
            };
            if stalled(cluster, self.core) {
                continue;
            }
            let class = match self.core {
                CoreType::Cpu => TrafficClass::CpuL1Data,
                CoreType::Gpu => TrafficClass::GpuL1,
            };
            out.push(InjectionRequest { cluster, core: self.core, class, dst });
        }
    }

    fn export_state(&self) -> TrafficState {
        TrafficState::Synthetic { rng: RngState::capture(&self.rng) }
    }

    fn import_state(&mut self, state: &TrafficState) -> Result<(), TrafficStateError> {
        let TrafficState::Synthetic { rng } = state else {
            return Err(TrafficStateError::KindMismatch {
                expected: "synthetic",
                found: state.kind(),
            });
        };
        self.rng = rng.rebuild();
        Ok(())
    }

    fn fingerprint_text(&self) -> String {
        format!(
            "SyntheticTraffic{{pattern:{:?},clusters:{},rate:{},core:{:?}}}",
            self.pattern, self.clusters, self.rate, self.core
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating generation that buffer filling replaced, kept as
    /// its reference: every cluster's draw, then the stalled ones
    /// filtered out.
    fn allocating_generation(
        t: &mut SyntheticTraffic,
        stalled: impl Fn(usize, CoreType) -> bool,
    ) -> Vec<InjectionRequest> {
        let mut all = Vec::new();
        for cluster in 0..t.clusters {
            if !t.rng.chance(t.rate) {
                continue;
            }
            let dst = match t.pattern {
                SyntheticPattern::UniformRandom => {
                    let pick = t.rng.below(t.clusters);
                    if pick == cluster {
                        Destination::L3
                    } else {
                        Destination::Cluster(pick)
                    }
                }
                SyntheticPattern::Hotspot => Destination::L3,
                SyntheticPattern::Transpose => {
                    Destination::Cluster((cluster + t.clusters / 2) % t.clusters)
                }
            };
            let class = match t.core {
                CoreType::Cpu => TrafficClass::CpuL1Data,
                CoreType::Gpu => TrafficClass::GpuL1,
            };
            all.push(InjectionRequest { cluster, core: t.core, class, dst });
        }
        all.into_iter().filter(|r| !stalled(r.cluster, r.core)).collect()
    }

    #[test]
    fn buffer_filling_matches_allocating_generation() {
        let patterns = [
            SyntheticPattern::UniformRandom,
            SyntheticPattern::Hotspot,
            SyntheticPattern::Transpose,
        ];
        let mut out = Vec::new();
        for pattern in patterns {
            for (seed, core) in [(1, CoreType::Cpu), (100, CoreType::Gpu), (7_777, CoreType::Cpu)] {
                let mut filled = SyntheticTraffic::new(pattern, 16, 0.3, core, seed);
                let mut oracle = filled.clone();
                let mut stalls = SimRng::from_seed(seed ^ 0x5EED);
                for c in 0..20_000 {
                    // Bit `cluster` set: that cluster is stalled (about
                    // one in four).
                    let mask = stalls.next_u64() & stalls.next_u64();
                    let stalled = |cluster: usize, _| mask >> cluster & 1 == 1;
                    out.clear();
                    filled.generate(Cycle(c), &stalled, &mut out);
                    let want = allocating_generation(&mut oracle, stalled);
                    assert_eq!(out, want, "{pattern:?} seed {seed} cycle {c}");
                }
                assert_eq!(filled.export_state(), oracle.export_state(), "{pattern:?}");
            }
        }
    }

    #[test]
    fn hotspot_targets_only_l3() {
        let mut t = SyntheticTraffic::new(SyntheticPattern::Hotspot, 16, 0.5, CoreType::Cpu, 1);
        for c in 0..1000 {
            for req in t.step(Cycle(c)) {
                assert_eq!(req.dst, Destination::L3);
            }
        }
    }

    #[test]
    fn transpose_is_a_fixed_permutation() {
        let mut t = SyntheticTraffic::new(SyntheticPattern::Transpose, 16, 1.0, CoreType::Gpu, 2);
        for req in t.step(Cycle(0)) {
            assert_eq!(req.dst, Destination::Cluster((req.cluster + 8) % 16));
        }
    }

    #[test]
    fn uniform_never_targets_self() {
        let mut t =
            SyntheticTraffic::new(SyntheticPattern::UniformRandom, 8, 1.0, CoreType::Cpu, 3);
        for c in 0..1000 {
            for req in t.step(Cycle(c)) {
                if let Destination::Cluster(d) = req.dst {
                    assert_ne!(d, req.cluster);
                }
            }
        }
    }

    #[test]
    fn rate_is_respected() {
        let mut t =
            SyntheticTraffic::new(SyntheticPattern::UniformRandom, 16, 0.25, CoreType::Cpu, 4);
        let total: usize = (0..100_000).map(|c| t.step(Cycle(c)).len()).sum();
        let per_cluster = total as f64 / 100_000.0 / 16.0;
        assert!((per_cluster - 0.25).abs() < 0.01, "got {per_cluster}");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_cluster_rejected() {
        let _ = SyntheticTraffic::new(SyntheticPattern::Hotspot, 1, 0.1, CoreType::Cpu, 0);
    }
}
