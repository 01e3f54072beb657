//! A counting global allocator, switched on for the traced run only.
//!
//! While counting is off each allocation pays one relaxed load and a
//! branch. While on, it counts allocations and bytes allocated and
//! freed, process-wide (every thread), exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The benchmark binary's global allocator: [`System`] plus counters.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count_alloc(size: usize) {
    if ON.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    }
}

#[inline]
fn count_free(size: usize) {
    if ON.load(Relaxed) {
        FREED_BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only read the
// layout sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_free(layout.size());
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes allocated.
    pub alloc_bytes: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
}

impl Snapshot {
    /// Counters now.
    pub fn now() -> Snapshot {
        Snapshot {
            allocs: ALLOCS.load(Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Relaxed),
            freed_bytes: FREED_BYTES.load(Relaxed),
        }
    }

    /// Counts between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            freed_bytes: self.freed_bytes - earlier.freed_bytes,
        }
    }

    /// Net heap growth over the interval (negative when it shrank).
    pub fn net_bytes(self) -> i64 {
        self.alloc_bytes as i64 - self.freed_bytes as i64
    }
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Relaxed);
}
