//! Live-heap accounting for `peak_heap_mib`: a global allocator that
//! forwards to the system allocator and counts the bytes it has handed
//! out and not yet taken back.
//!
//! The peak of live bytes depends only on what the program holds, not on
//! how much freed memory the allocator keeps mapped, which makes it a
//! steadier memory figure than the resident set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Statistics only: the counters publish no other data, so `Relaxed`.
fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(n: usize) {
    LIVE.fetch_sub(n, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counting touches only
// the two atomics above and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Start a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap, in MiB, since the last [`reset_peak`].
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / crate::common::MIB
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_covers_a_live_allocation() {
        super::reset_peak();
        let big = vec![1u8; 8 << 20];
        // The peak is at least the live heap, which holds `big`; other
        // test threads allocate too, so only this lower bound is exact.
        assert!(super::peak_mib() >= 8.0, "{}", super::peak_mib());
        drop(big);
    }
}
