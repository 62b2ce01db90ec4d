//! The per-run traffic model: one CPU and one GPU source per cluster.

use crate::injector::OnOffInjector;
use crate::pairs::BenchmarkPair;
use crate::phases::PhaseModulator;
use crate::state::{TrafficState, TrafficStateError};
use pearl_noc::{CoreType, Cycle, SimRng, TrafficClass};
use std::fmt;

/// Anything that can drive a network with per-cycle injection requests.
///
/// Both simulators accept a boxed `TrafficSource`, so the benchmark-pair
/// models and the synthetic patterns are interchangeable workloads.
pub trait TrafficSource: fmt::Debug {
    /// Number of clusters this source generates traffic for.
    fn clusters(&self) -> usize;

    /// Advances one cycle and appends this cycle's requests to `out`;
    /// `stalled` reports which (cluster, core type) sources must pause
    /// (execution gating). Sources that cannot pause may drop the gated
    /// requests instead. The caller owns `out` and reuses it from cycle
    /// to cycle, so generation allocates nothing once it has grown.
    fn generate(
        &mut self,
        now: Cycle,
        stalled: &dyn Fn(usize, CoreType) -> bool,
        out: &mut Vec<InjectionRequest>,
    );

    /// Captures the source's dynamic state (RNG streams, dwell counters)
    /// for a checkpoint.
    fn export_state(&self) -> TrafficState;

    /// Restores state captured by [`Self::export_state`] onto a source
    /// built from the identical configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficStateError`] when the snapshot's variant or shape
    /// does not match this source.
    fn import_state(&mut self, state: &TrafficState) -> Result<(), TrafficStateError>;

    /// A stable text describing the source's *static* configuration, for
    /// config fingerprinting. Must not include dynamic state (RNG words,
    /// dwell counters) — two sources built from the same inputs must
    /// produce the same text at any point in a run.
    fn fingerprint_text(&self) -> String;
}

impl TrafficSource for TrafficModel {
    fn clusters(&self) -> usize {
        TrafficModel::clusters(self)
    }

    /// Sources for which `stalled` returns true do not advance this
    /// cycle: a stalled core makes no forward progress, so its future
    /// misses shift later in time rather than queueing up. This is the
    /// execution-driven feedback that turns network congestion into
    /// end-to-end throughput loss.
    fn generate(
        &mut self,
        now: Cycle,
        stalled: &dyn Fn(usize, CoreType) -> bool,
        out: &mut Vec<InjectionRequest>,
    ) {
        for cluster in 0..self.clusters {
            for core in CoreType::ALL {
                if stalled(cluster, core) {
                    continue;
                }
                let source = match core {
                    CoreType::Cpu => &mut self.cpu_sources[cluster],
                    CoreType::Gpu => &mut self.gpu_sources[cluster],
                };
                let n = source.step(now);
                let profile = *source.profile();
                for _ in 0..n {
                    let rng = source.rng_mut();
                    let dst = if rng.chance(profile.l3_fraction) {
                        Destination::L3
                    } else {
                        // Uniform peer other than self.
                        let mut peer = rng.below(self.clusters - 1);
                        if peer >= cluster {
                            peer += 1;
                        }
                        Destination::Cluster(peer)
                    };
                    let class =
                        profile.class_mix.pick_request_class(core == CoreType::Cpu, rng.uniform());
                    out.push(InjectionRequest { cluster, core, class, dst });
                }
            }
        }
    }

    fn export_state(&self) -> TrafficState {
        TrafficState::Model {
            cpu: self.cpu_sources.iter().map(OnOffInjector::export_state).collect(),
            gpu: self.gpu_sources.iter().map(OnOffInjector::export_state).collect(),
        }
    }

    fn import_state(&mut self, state: &TrafficState) -> Result<(), TrafficStateError> {
        let TrafficState::Model { cpu, gpu } = state else {
            return Err(TrafficStateError::KindMismatch { expected: "model", found: state.kind() });
        };
        if cpu.len() != self.clusters || gpu.len() != self.clusters {
            return Err(TrafficStateError::ShapeMismatch {
                expected: self.clusters,
                found: cpu.len(),
            });
        }
        for (source, snap) in self.cpu_sources.iter_mut().zip(cpu) {
            source.import_state(snap);
        }
        for (source, snap) in self.gpu_sources.iter_mut().zip(gpu) {
            source.import_state(snap);
        }
        Ok(())
    }

    fn fingerprint_text(&self) -> String {
        format!("TrafficModel{{pair:{:?},clusters:{}}}", self.pair, self.clusters)
    }
}

/// Where a generated request is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// A peer cluster router (L2-to-L2 coherence traffic).
    Cluster(usize),
    /// The shared L3 / memory-controller router.
    L3,
}

/// One request the workload wants to inject this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectionRequest {
    /// Cluster whose cores generate the packet.
    pub cluster: usize,
    /// Core type generating the packet.
    pub core: CoreType,
    /// Cache-hierarchy class of the request.
    pub class: TrafficClass,
    /// Destination endpoint.
    pub dst: Destination,
}

/// Traffic generation for a full run of one benchmark pair.
///
/// Owns an independent ON/OFF source per (cluster, core type) so the 16
/// clusters burst independently, exactly like independently scheduled
/// workgroups/threads would.
///
/// # Example
///
/// ```
/// use pearl_workloads::{BenchmarkPair, TrafficModel};
/// use pearl_noc::Cycle;
///
/// let pair = BenchmarkPair::test_pairs()[0];
/// let mut model = TrafficModel::new(pair, 16, 1);
/// let mut total = 0;
/// for c in 0..1000 {
///     total += model.step(Cycle(c)).len();
/// }
/// assert!(total > 0);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficModel {
    pair: BenchmarkPair,
    clusters: usize,
    cpu_sources: Vec<OnOffInjector>,
    gpu_sources: Vec<OnOffInjector>,
}

impl TrafficModel {
    /// Builds the model for `clusters` clusters from a benchmark pair and
    /// a master seed.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero.
    pub fn new(pair: BenchmarkPair, clusters: usize, seed: u64) -> TrafficModel {
        assert!(clusters > 0, "at least one cluster required");
        let mut master = SimRng::from_seed(seed);
        let cpu_profile = pair.cpu.profile();
        let gpu_profile = pair.gpu.profile();
        // One phase table per core type, shared by its sources.
        let cpu_phases = PhaseModulator::new(cpu_profile.phase_period, cpu_profile.phase_depth);
        let gpu_phases = PhaseModulator::new(gpu_profile.phase_period, gpu_profile.phase_depth);
        let cpu_sources = (0..clusters)
            .map(|c| {
                let rng = master.derive(c as u64);
                // Spread phase offsets across the period.
                let offset =
                    (cpu_profile.phase_period / clusters.max(1) as u64).wrapping_mul(c as u64);
                OnOffInjector::new(cpu_profile, rng, cpu_phases.at_offset(offset))
            })
            .collect();
        let gpu_sources = (0..clusters)
            .map(|c| {
                let rng = master.derive(1000 + c as u64);
                OnOffInjector::new(gpu_profile, rng, gpu_phases.clone())
            })
            .collect();
        TrafficModel { pair, clusters, cpu_sources, gpu_sources }
    }

    /// The benchmark pair driving this model.
    #[inline]
    pub fn pair(&self) -> BenchmarkPair {
        self.pair
    }

    /// Number of clusters.
    #[inline]
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Advances one cycle and returns every request the workload wants to
    /// inject, in a new `Vec`: [`TrafficSource::generate`] with no source
    /// stalled. The network is responsible for buffering or throttling.
    pub fn step(&mut self, now: Cycle) -> Vec<InjectionRequest> {
        let mut out = Vec::new();
        self.generate(now, &|_, _| false, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::{CpuBenchmark, GpuBenchmark};

    fn model(seed: u64) -> TrafficModel {
        TrafficModel::new(
            BenchmarkPair::new(CpuBenchmark::Canneal, GpuBenchmark::MatrixMul),
            16,
            seed,
        )
    }

    /// The allocating, closure-generic generation that buffer filling
    /// replaced, kept as its reference.
    fn allocating_generation(
        model: &mut TrafficModel,
        now: Cycle,
        stalled: impl Fn(usize, CoreType) -> bool,
    ) -> Vec<InjectionRequest> {
        let mut out = Vec::new();
        for cluster in 0..model.clusters {
            for core in CoreType::ALL {
                if stalled(cluster, core) {
                    continue;
                }
                let source = match core {
                    CoreType::Cpu => &mut model.cpu_sources[cluster],
                    CoreType::Gpu => &mut model.gpu_sources[cluster],
                };
                let n = source.step(now);
                let profile = *source.profile();
                for _ in 0..n {
                    let rng = source.rng_mut();
                    let dst = if rng.chance(profile.l3_fraction) {
                        Destination::L3
                    } else {
                        let mut peer = rng.below(model.clusters - 1);
                        if peer >= cluster {
                            peer += 1;
                        }
                        Destination::Cluster(peer)
                    };
                    let class =
                        profile.class_mix.pick_request_class(core == CoreType::Cpu, rng.uniform());
                    out.push(InjectionRequest { cluster, core, class, dst });
                }
            }
        }
        out
    }

    /// A seeded stall mask for one cycle: bit `2·cluster + lane` set
    /// means that source is stalled (about one in four).
    fn stall_mask(rng: &mut SimRng) -> u64 {
        rng.next_u64() & rng.next_u64()
    }

    fn stalled_in(mask: u64, cluster: usize, core: CoreType) -> bool {
        mask >> (2 * cluster + usize::from(core == CoreType::Gpu)) & 1 == 1
    }

    #[test]
    fn buffer_filling_matches_allocating_generation() {
        let pairs =
            BenchmarkPair::test_pairs().into_iter().chain(BenchmarkPair::validation_pairs());
        let mut out = Vec::new();
        for pair in pairs {
            for seed in [1, 100, 7_777] {
                let mut filled = TrafficModel::new(pair, 16, seed);
                let mut oracle = TrafficModel::new(pair, 16, seed);
                let mut stalls = SimRng::from_seed(seed ^ 0x5EED);
                for c in 0..20_000 {
                    let mask = stall_mask(&mut stalls);
                    let stalled = |cluster, core| stalled_in(mask, cluster, core);
                    out.clear();
                    filled.generate(Cycle(c), &stalled, &mut out);
                    let want = allocating_generation(&mut oracle, Cycle(c), stalled);
                    assert_eq!(out, want, "{} seed {seed} cycle {c}", pair.label());
                }
                assert_eq!(filled.export_state(), oracle.export_state(), "{}", pair.label());
            }
        }
    }

    #[test]
    fn destinations_never_self() {
        let mut m = model(5);
        for c in 0..20_000 {
            for req in m.step(Cycle(c)) {
                if let Destination::Cluster(peer) = req.dst {
                    assert_ne!(peer, req.cluster);
                    assert!(peer < 16);
                }
            }
        }
    }

    #[test]
    fn both_core_types_and_both_destinations_appear() {
        let mut m = model(6);
        let (mut cpu, mut gpu, mut l3, mut peer) = (0, 0, 0, 0);
        for c in 0..50_000 {
            for req in m.step(Cycle(c)) {
                match req.core {
                    CoreType::Cpu => cpu += 1,
                    CoreType::Gpu => gpu += 1,
                }
                match req.dst {
                    Destination::L3 => l3 += 1,
                    Destination::Cluster(_) => peer += 1,
                }
            }
        }
        assert!(cpu > 0 && gpu > 0 && l3 > 0 && peer > 0);
    }

    #[test]
    fn classes_match_core_type() {
        let mut m = model(7);
        for c in 0..5_000 {
            for req in m.step(Cycle(c)) {
                match req.core {
                    CoreType::Cpu => assert!(matches!(
                        req.class,
                        TrafficClass::CpuL1Instr
                            | TrafficClass::CpuL1Data
                            | TrafficClass::CpuL2Down
                    )),
                    CoreType::Gpu => {
                        assert!(matches!(req.class, TrafficClass::GpuL1 | TrafficClass::GpuL2Down))
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = model(9);
        let mut b = model(9);
        for c in 0..2_000 {
            assert_eq!(a.step(Cycle(c)), b.step(Cycle(c)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = model(1);
        let mut b = model(2);
        let count_a: usize = (0..2_000).map(|c| a.step(Cycle(c)).len()).sum();
        let count_b: usize = (0..2_000).map(|c| b.step(Cycle(c)).len()).sum();
        // Same statistics but different sample paths; totals almost surely
        // differ at least a little over 2000 cycles.
        assert!(count_a != count_b || count_a > 0);
    }

    #[test]
    fn aggregate_rate_tracks_profiles() {
        let mut m = model(11);
        let cycles = 200_000u64;
        let mut cpu_total = 0u64;
        for c in 0..cycles {
            for req in m.step(Cycle(c)) {
                if req.core == CoreType::Cpu {
                    cpu_total += 1;
                }
            }
        }
        let per_cluster = cpu_total as f64 / cycles as f64 / 16.0;
        let expected = CpuBenchmark::Canneal.profile().mean_rate();
        assert!(
            (per_cluster - expected).abs() / expected < 0.15,
            "measured {per_cluster} expected {expected}"
        );
    }
}
