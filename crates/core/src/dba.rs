//! Dynamic bandwidth allocation — Algorithm 1, steps 1–3.
//!
//! Every cycle, every router computes the fractional occupancy of its
//! CPU and GPU input buffers (Eq. 1–2) and maps them to one of five
//! bandwidth splits. The CPU is considered first for the asymmetric 75 %
//! share because of its latency sensitivity (§III-B), and the upper
//! bounds — 16 % of CPU buffer space, 6 % of GPU buffer space — were
//! determined experimentally by the authors on a separate benchmark set.

use crate::policy::BandwidthPolicy;
use pearl_noc::CoreType;
use std::fmt;

/// The five bandwidth splits of Algorithm 1 step 3 (CPU share, GPU share).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BandwidthAllocation {
    /// 100 % CPU / 0 % GPU — GPU buffers empty, CPU buffers not.
    CpuOnly,
    /// 75 % CPU / 25 % GPU — GPU occupancy under its upper bound.
    CpuHeavy,
    /// 50 % / 50 % — both above their bounds.
    #[default]
    Even,
    /// 25 % CPU / 75 % GPU — CPU occupancy under its upper bound.
    GpuHeavy,
    /// 0 % CPU / 100 % GPU — CPU buffers empty, GPU buffers not.
    GpuOnly,
}

impl BandwidthAllocation {
    /// All five splits. `D = 5` in the reservation-packet size formula.
    pub const ALL: [BandwidthAllocation; 5] = [
        BandwidthAllocation::CpuOnly,
        BandwidthAllocation::CpuHeavy,
        BandwidthAllocation::Even,
        BandwidthAllocation::GpuHeavy,
        BandwidthAllocation::GpuOnly,
    ];

    /// Bandwidth share of a core type under this split, in `[0, 1]`.
    pub fn share(self, core: CoreType) -> f64 {
        let cpu = match self {
            BandwidthAllocation::CpuOnly => 1.0,
            BandwidthAllocation::CpuHeavy => 0.75,
            BandwidthAllocation::Even => 0.5,
            BandwidthAllocation::GpuHeavy => 0.25,
            BandwidthAllocation::GpuOnly => 0.0,
        };
        match core {
            CoreType::Cpu => cpu,
            CoreType::Gpu => 1.0 - cpu,
        }
    }
}

impl fmt::Display for BandwidthAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Round, don't truncate: an `as u32` cast floors, so a split
        // like 2/3 would print as 66 and the pair would sum to 99.
        write!(
            f,
            "{}% CPU / {}% GPU",
            (self.share(CoreType::Cpu) * 100.0).round() as u32,
            (self.share(CoreType::Gpu) * 100.0).round() as u32
        )
    }
}

/// The experimentally determined occupancy upper bounds of §III-B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyBounds {
    /// β_CPU-UpperBound as a fraction of total CPU input buffer space.
    pub cpu_upper: f64,
    /// β_GPU-UpperBound as a fraction of total GPU input buffer space.
    pub gpu_upper: f64,
}

impl OccupancyBounds {
    /// The paper's values: 16 % CPU, 6 % GPU.
    pub const fn pearl() -> OccupancyBounds {
        OccupancyBounds { cpu_upper: 0.16, gpu_upper: 0.06 }
    }
}

impl Default for OccupancyBounds {
    fn default() -> Self {
        OccupancyBounds::pearl()
    }
}

/// The per-router dynamic bandwidth allocator.
///
/// # Example
///
/// ```
/// use pearl_core::dba::{BandwidthAllocation, DynamicBandwidthAllocator, OccupancyBounds};
///
/// let dba = DynamicBandwidthAllocator::new(OccupancyBounds::pearl());
/// // GPU buffers empty while CPU has traffic: CPU gets everything.
/// assert_eq!(dba.allocate(0.10, 0.0), BandwidthAllocation::CpuOnly);
/// // GPU flooding, CPU nearly idle: GPU gets 75 %.
/// assert_eq!(dba.allocate(0.02, 0.50), BandwidthAllocation::GpuHeavy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicBandwidthAllocator {
    bounds: OccupancyBounds,
}

impl DynamicBandwidthAllocator {
    /// Creates an allocator with the given bounds.
    ///
    /// # Panics
    ///
    /// Panics unless both bounds lie in `(0, 1)`.
    pub fn new(bounds: OccupancyBounds) -> DynamicBandwidthAllocator {
        assert!(
            bounds.cpu_upper > 0.0 && bounds.cpu_upper < 1.0,
            "CPU upper bound {} outside (0, 1)",
            bounds.cpu_upper
        );
        assert!(
            bounds.gpu_upper > 0.0 && bounds.gpu_upper < 1.0,
            "GPU upper bound {} outside (0, 1)",
            bounds.gpu_upper
        );
        DynamicBandwidthAllocator { bounds }
    }

    /// The bounds in use.
    #[inline]
    pub fn bounds(&self) -> OccupancyBounds {
        self.bounds
    }

    /// Algorithm 1 step 3: maps fractional buffer occupancies
    /// (β_CPU, β_GPU of Eq. 1–2, each in `[0, 1]`) to a bandwidth split.
    ///
    /// The branch order is exactly the paper's: mutual-exclusivity cases
    /// first, then the GPU-under-bound check (CPU precedence for 75 %),
    /// then the CPU-under-bound check, else an even split.
    pub fn allocate(&self, beta_cpu: f64, beta_gpu: f64) -> BandwidthAllocation {
        if beta_gpu == 0.0 && beta_cpu > 0.0 {
            BandwidthAllocation::CpuOnly
        } else if beta_cpu == 0.0 && beta_gpu > 0.0 {
            BandwidthAllocation::GpuOnly
        } else if beta_gpu < self.bounds.gpu_upper {
            BandwidthAllocation::CpuHeavy
        } else if beta_cpu < self.bounds.cpu_upper {
            BandwidthAllocation::GpuHeavy
        } else {
            BandwidthAllocation::Even
        }
    }
}

impl Default for DynamicBandwidthAllocator {
    fn default() -> Self {
        DynamicBandwidthAllocator::new(OccupancyBounds::pearl())
    }
}

/// Fine-grained occupancy-proportional bandwidth allocation.
///
/// §III-B: "we considered a wide range of configurations where bandwidth
/// was allocated in steps of 6.25 %, 12.5 % and 25 % and determined that
/// 25 % performed the best". This allocator reproduces the finer
/// granularities the authors evaluated and rejected: the CPU share is
/// the occupancy-proportional split quantized to `step`, clamped so
/// neither side is starved entirely unless it is idle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FineGrainedAllocator {
    /// Quantization step of the CPU share (e.g. 0.0625, 0.125, 0.25).
    step: f64,
}

impl FineGrainedAllocator {
    /// Creates an allocator with the given share quantization step.
    ///
    /// # Panics
    ///
    /// Panics unless `step` divides 1 evenly and lies in `(0, 0.5]`;
    /// [`BandwidthPolicy::check`] is the non-panicking form.
    pub fn new(step: f64) -> FineGrainedAllocator {
        if let Err(e) = (BandwidthPolicy::DynamicFine { step }).check() {
            panic!("{e}");
        }
        FineGrainedAllocator { step }
    }

    /// The quantization step.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// CPU bandwidth share for the given instantaneous occupancies.
    ///
    /// Idle sides yield the whole channel, mirroring Algorithm 1's
    /// cases (a) and (b); otherwise the occupancy-proportional share is
    /// quantized to the step and clamped to `[step, 1 − step]` so both
    /// active sides keep forward progress.
    pub fn cpu_share(&self, beta_cpu: f64, beta_gpu: f64) -> f64 {
        if beta_cpu <= 0.0 && beta_gpu <= 0.0 {
            return 0.5;
        }
        if beta_gpu <= 0.0 {
            return 1.0;
        }
        if beta_cpu <= 0.0 {
            return 0.0;
        }
        let raw = beta_cpu / (beta_cpu + beta_gpu);
        let quantized = (raw / self.step).round() * self.step;
        quantized.clamp(self.step, 1.0 - self.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dba() -> DynamicBandwidthAllocator {
        DynamicBandwidthAllocator::default()
    }

    #[test]
    fn exclusive_cases() {
        assert_eq!(dba().allocate(0.5, 0.0), BandwidthAllocation::CpuOnly);
        assert_eq!(dba().allocate(0.0, 0.5), BandwidthAllocation::GpuOnly);
    }

    /// Regression: the display used a truncating `as u32` cast, so
    /// percentages that are not exact integers (e.g. a 2/3 share
    /// printing as 66) could make the CPU+GPU pair sum to 99. Every
    /// printed pair must sum to exactly 100.
    #[test]
    fn displayed_shares_sum_to_100() {
        for allocation in BandwidthAllocation::ALL {
            let text = allocation.to_string();
            let percents: Vec<u32> = text
                .split('%')
                .filter_map(|part| part.split_whitespace().last().and_then(|tok| tok.parse().ok()))
                .collect();
            assert_eq!(percents.len(), 2, "two percentages in {text:?}");
            assert_eq!(
                percents[0] + percents[1],
                100,
                "{allocation:?} printed {text:?} whose shares sum to {}",
                percents[0] + percents[1]
            );
        }
        // The rounding itself: a hypothetical 2/3 split must print 67,
        // not the truncated 66 (this is the exact cast bug).
        assert_eq!((0.666_666_666_f64 * 100.0).round() as u32, 67);
        assert_eq!((0.666_666_666_f64 * 100.0) as u32, 66);
    }

    #[test]
    fn both_empty_defaults_to_cpu_heavy() {
        // β_GPU = 0 and β_CPU = 0 falls through cases (a) and (b) to the
        // GPU-under-bound branch, exactly as in the paper's Algorithm 1.
        assert_eq!(dba().allocate(0.0, 0.0), BandwidthAllocation::CpuHeavy);
    }

    #[test]
    fn gpu_under_bound_gives_cpu_75() {
        assert_eq!(dba().allocate(0.50, 0.059), BandwidthAllocation::CpuHeavy);
    }

    #[test]
    fn cpu_under_bound_gives_gpu_75() {
        assert_eq!(dba().allocate(0.159, 0.50), BandwidthAllocation::GpuHeavy);
    }

    #[test]
    fn both_loaded_split_evenly() {
        assert_eq!(dba().allocate(0.30, 0.30), BandwidthAllocation::Even);
    }

    #[test]
    fn boundary_values_use_strict_comparison() {
        // β exactly at the bound is NOT under the bound.
        assert_eq!(dba().allocate(0.16, 0.06), BandwidthAllocation::Even);
    }

    #[test]
    fn shares_sum_to_one() {
        for alloc in BandwidthAllocation::ALL {
            let sum = alloc.share(CoreType::Cpu) + alloc.share(CoreType::Gpu);
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn d_equals_five() {
        assert_eq!(BandwidthAllocation::ALL.len(), 5);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(BandwidthAllocation::CpuHeavy.to_string(), "75% CPU / 25% GPU");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_bounds_rejected() {
        let _ = DynamicBandwidthAllocator::new(OccupancyBounds { cpu_upper: 0.0, gpu_upper: 0.06 });
    }

    #[test]
    fn fine_allocator_quantizes_to_step() {
        let fine = FineGrainedAllocator::new(0.125);
        // 0.3/(0.3+0.1) = 0.75 exactly on the grid.
        assert!((fine.cpu_share(0.3, 0.1) - 0.75).abs() < 1e-12);
        // 0.2/(0.2+0.1) = 0.666… rounds to 0.625.
        assert!((fine.cpu_share(0.2, 0.1) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn fine_allocator_idle_sides() {
        let fine = FineGrainedAllocator::new(0.0625);
        assert_eq!(fine.cpu_share(0.5, 0.0), 1.0);
        assert_eq!(fine.cpu_share(0.0, 0.5), 0.0);
        assert_eq!(fine.cpu_share(0.0, 0.0), 0.5);
    }

    #[test]
    fn fine_allocator_clamps_active_sides() {
        let fine = FineGrainedAllocator::new(0.25);
        // Heavily skewed but both active: neither side starves.
        let share = fine.cpu_share(0.99, 0.001);
        assert!((share - 0.75).abs() < 1e-12);
        let share = fine.cpu_share(0.001, 0.99);
        assert!((share - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "divide 1 evenly")]
    fn fine_allocator_rejects_uneven_step() {
        let _ = FineGrainedAllocator::new(0.3);
    }
}
