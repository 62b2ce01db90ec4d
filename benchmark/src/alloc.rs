//! The benchmark's global allocator.
//!
//! Untraced runs allocate straight from the system allocator. A traced
//! run switches pearl-telemetry's [`CountingAlloc`] on around the code it
//! attributes allocations to, so one binary serves both runs and the
//! untraced one pays only a relaxed load per allocation.

use pearl_telemetry::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether allocations are being counted. A statistics switch: it
/// publishes no other data, so relaxed ordering suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Routes each allocation to [`CountingAlloc`] while counting and to
/// [`System`] otherwise.
struct SwitchedAlloc;

#[global_allocator]
static GLOBAL: SwitchedAlloc = SwitchedAlloc;

// SAFETY: `CountingAlloc` forwards every call to `System` after bumping
// its counters, so both routes allocate, resize and free through the
// same allocator; a block may be freed or resized through either route
// whichever way the switch stood when it was allocated. Every method
// passes its caller's guarantees through unchanged.
unsafe impl GlobalAlloc for SwitchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Counts the allocations `f` makes (on any thread) and returns `f`'s
/// result with the count and the bytes requested.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    pearl_telemetry::reset_alloc_stats();
    COUNTING.store(true, Ordering::Relaxed);
    let value = f();
    COUNTING.store(false, Ordering::Relaxed);
    let (count, bytes) =
        pearl_telemetry::alloc_stats().expect("built with pearl-telemetry/alloc-count").total();
    (value, count, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counting is process-wide and tests run on parallel threads, so this
    // can only bound the count from below.
    #[test]
    fn counts_the_closures_allocations() {
        let (v, count, bytes) = counted(|| vec![0u8; 1000]);
        assert!(count >= 1 && bytes >= 1000);
        drop(v);
    }
}
