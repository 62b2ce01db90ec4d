//! Allocation attribution for the hot-path observatory.
//!
//! Compiled with `--features alloc-count`, `CountingAlloc` wraps the
//! system allocator and attributes every allocation (count and bytes)
//! to the profiler [`Section`] the current thread is executing — the
//! profiled step loop tags each phase via [`set_alloc_section`]. The
//! binary crate installs it with `#[global_allocator]`.
//!
//! Without the feature this module is pure no-op stubs: no globals, no
//! thread-locals, no unsafe code (the crate keeps `forbid(unsafe_code)`
//! in that configuration), and every call site compiles to nothing —
//! the same zero-overhead-when-disabled contract as the probe, span and
//! work-counter layers.
//!
//! Attribution is a *diagnostic*, not simulation state: totals are
//! process-wide atomics (reset with [`reset_alloc_stats`]) and never
//! enter snapshots, state hashes or committed artifacts.

use crate::json::JsonValue;
use crate::profiler::Section;

/// Slot used for allocations made outside any tagged phase.
#[cfg_attr(not(feature = "alloc-count"), allow(dead_code))]
const UNTAGGED: usize = Section::ALL.len();
#[cfg_attr(not(feature = "alloc-count"), allow(dead_code))]
const SLOTS: usize = Section::ALL.len() + 1;

/// A snapshot of per-section allocation totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// `(label, allocations, bytes)` per profiler section, last row
    /// `"untagged"` for allocations outside any tagged phase.
    pub rows: Vec<(&'static str, u64, u64)>,
}

impl AllocStats {
    /// Total `(allocations, bytes)` across all rows.
    pub fn total(&self) -> (u64, u64) {
        self.rows.iter().fold((0, 0), |(c, b), (_, rc, rb)| (c + rc, b + rb))
    }

    /// Renders the stats as a JSON object keyed by section label.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.rows
                .iter()
                .map(|(label, count, bytes)| {
                    (
                        (*label).to_string(),
                        JsonValue::obj(vec![
                            ("allocations", JsonValue::u64(*count)),
                            ("bytes", JsonValue::u64(*bytes)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Parses stats serialized by [`AllocStats::to_json`]. Labels that
    /// are neither a known section nor `"untagged"` are skipped (an
    /// artifact from a build with more sections stays loadable).
    pub fn from_json(v: &JsonValue) -> Option<AllocStats> {
        let JsonValue::Obj(fields) = v else { return None };
        let mut rows = Vec::new();
        for (label, entry) in fields {
            let label: &'static str = match Section::from_name(label) {
                Some(s) => s.name(),
                None if label == "untagged" => "untagged",
                None => continue,
            };
            let count = entry.get("allocations").and_then(JsonValue::as_u64)?;
            let bytes = entry.get("bytes").and_then(JsonValue::as_u64)?;
            rows.push((label, count, bytes));
        }
        Some(AllocStats { rows })
    }
}

#[cfg_attr(not(feature = "alloc-count"), allow(dead_code))]
fn slot_label(slot: usize) -> &'static str {
    Section::ALL.get(slot).map_or("untagged", |s| s.name())
}

#[cfg(feature = "alloc-count")]
mod imp {
    use super::{slot_label, AllocStats, Section, SLOTS, UNTAGGED};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
    static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

    thread_local! {
        /// The slot this thread's allocations are charged to. Const-
        /// initialized so reading it never allocates (which would
        /// recurse into the allocator).
        static TAG: Cell<usize> = const { Cell::new(UNTAGGED) };
    }

    #[inline]
    fn record(bytes: usize) {
        // During thread teardown the TLS slot may already be destroyed;
        // charge those allocations to the untagged bucket.
        let slot = TAG.try_with(Cell::get).unwrap_or(UNTAGGED);
        COUNTS[slot].fetch_add(1, Ordering::Relaxed);
        BYTES[slot].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// A counting wrapper over the system allocator. Install in the
    /// binary crate:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: pearl_telemetry::CountingAlloc = pearl_telemetry::CountingAlloc;
    /// ```
    pub struct CountingAlloc;

    // The only unsafe in the crate: a pass-through to `System` with a
    // relaxed-atomic side count. Gated behind `alloc-count`; the
    // default build keeps `forbid(unsafe_code)`.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// Tags this thread's subsequent allocations with `section`
    /// (`None` reverts to the untagged bucket).
    #[inline]
    pub fn set_alloc_section(section: Option<Section>) {
        let slot = section
            .map_or(UNTAGGED, |s| Section::ALL.iter().position(|x| *x == s).unwrap_or(UNTAGGED));
        let _ = TAG.try_with(|t| t.set(slot));
    }

    /// Zeroes every per-section total.
    pub fn reset_alloc_stats() {
        for slot in 0..SLOTS {
            COUNTS[slot].store(0, Ordering::Relaxed);
            BYTES[slot].store(0, Ordering::Relaxed);
        }
    }

    /// The per-section allocation totals since the last reset.
    pub fn alloc_stats() -> Option<AllocStats> {
        Some(AllocStats {
            rows: (0..SLOTS)
                .map(|slot| {
                    (
                        slot_label(slot),
                        COUNTS[slot].load(Ordering::Relaxed),
                        BYTES[slot].load(Ordering::Relaxed),
                    )
                })
                .collect(),
        })
    }
}

#[cfg(feature = "alloc-count")]
pub use imp::{alloc_stats, reset_alloc_stats, set_alloc_section, CountingAlloc};

#[cfg(not(feature = "alloc-count"))]
mod stub {
    use super::{AllocStats, Section};

    /// No-op without `--features alloc-count`.
    #[inline(always)]
    pub fn set_alloc_section(_section: Option<Section>) {}

    /// No-op without `--features alloc-count`.
    #[inline(always)]
    pub fn reset_alloc_stats() {}

    /// Always `None` without `--features alloc-count` — callers render
    /// "allocation attribution off" instead of zeros.
    #[inline(always)]
    pub fn alloc_stats() -> Option<AllocStats> {
        None
    }
}

#[cfg(not(feature = "alloc-count"))]
pub use stub::{alloc_stats, reset_alloc_stats, set_alloc_section};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_total_and_json_shape() {
        let stats =
            AllocStats { rows: vec![("transport", 10, 640), ("power", 2, 64), ("untagged", 1, 8)] };
        assert_eq!(stats.total(), (13, 712));
        let json = stats.to_json();
        assert_eq!(json.get("transport").unwrap().get("bytes").unwrap().as_u64(), Some(640));
        assert_eq!(json.get("untagged").unwrap().get("allocations").unwrap().as_u64(), Some(1));
        assert_eq!(AllocStats::from_json(&json), Some(stats));
        // Unknown labels are dropped, not errors.
        let mut doc = json.clone();
        if let JsonValue::Obj(fields) = &mut doc {
            fields.push(("not_a_section".to_string(), json.get("power").unwrap().clone()));
        }
        assert_eq!(AllocStats::from_json(&doc).unwrap().rows.len(), 3);
    }

    #[test]
    fn slot_labels_cover_every_section_plus_untagged() {
        for (i, s) in Section::ALL.iter().enumerate() {
            assert_eq!(slot_label(i), s.name());
        }
        assert_eq!(slot_label(UNTAGGED), "untagged");
    }

    #[cfg(not(feature = "alloc-count"))]
    #[test]
    fn disabled_stubs_report_nothing() {
        set_alloc_section(Some(Section::Transport));
        reset_alloc_stats();
        assert_eq!(alloc_stats(), None);
    }

    #[cfg(feature = "alloc-count")]
    #[test]
    fn enabled_allocator_api_reports_rows() {
        // The global allocator is installed by the *binary* crate, so
        // totals here may be zero — but the API shape must hold.
        reset_alloc_stats();
        set_alloc_section(Some(Section::Transport));
        let v: Vec<u64> = (0..64).collect();
        set_alloc_section(None);
        let stats = alloc_stats().unwrap();
        assert_eq!(stats.rows.len(), super::SLOTS);
        assert_eq!(stats.rows.last().unwrap().0, "untagged");
        drop(v);
    }
}
