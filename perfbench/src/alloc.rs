//! Allocation accounting that does not slow down what it measures.
//!
//! `CountingAlloc` bumps process-wide atomics on every allocation; with
//! two threads allocating concurrently that shared cache line makes a
//! warm `autocomplete` about three times slower. So counting is gated:
//! the allocator forwards straight to `System` unless a counting window
//! is open, and windows are opened only around single-threaded
//! requests. Live heap comes from the C allocator's own statistics.

use copycat_util::bench::{AllocSnapshot, CountingAlloc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

pub struct GatedAlloc {
    counting: AtomicBool,
    counter: CountingAlloc,
}

impl GatedAlloc {
    pub const fn new() -> GatedAlloc {
        GatedAlloc {
            counting: AtomicBool::new(false),
            counter: CountingAlloc::new(),
        }
    }

    /// Count allocations from now until the returned guard drops.
    pub fn count(&self) -> Counting<'_> {
        self.counting.store(true, Ordering::SeqCst);
        Counting {
            alloc: self,
            start: self.counter.snapshot(),
        }
    }

    fn counting(&self) -> bool {
        // relaxed: the flag only selects which counter path runs; both
        // paths allocate from `System`, so no data is published by it.
        self.counting.load(Ordering::Relaxed)
    }
}

pub struct Counting<'a> {
    alloc: &'a GatedAlloc,
    start: AllocSnapshot,
}

impl Counting<'_> {
    /// Allocation calls since the window opened.
    pub fn allocs(&self) -> u64 {
        self.alloc.counter.snapshot().allocs_since(&self.start)
    }
}

impl Drop for Counting<'_> {
    fn drop(&mut self) {
        self.alloc.counting.store(false, Ordering::SeqCst);
    }
}

// SAFETY: every path forwards to `System` (`CountingAlloc` forwards to
// `System` too), so memory allocated on one path may be freed on the
// other, and the `GlobalAlloc` contract is upheld by `System`.
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if self.counting() {
            // SAFETY: forwarded unchanged; the caller upholds `layout`.
            unsafe { self.counter.alloc(layout) }
        } else {
            // SAFETY: as above.
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` on either path; forwarded
        // unchanged with the caller's `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if self.counting() {
            // SAFETY: forwarded unchanged; `ptr` came from `System`.
            unsafe { self.counter.realloc(ptr, layout, new_size) }
        } else {
            // SAFETY: as above.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

/// Bytes the C allocator holds in live allocations (`mallinfo2`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn live_heap_bytes() -> u64 {
    #[repr(C)]
    struct MallInfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> MallInfo2;
    }
    // SAFETY: `mallinfo2` takes no arguments and returns a plain struct
    // by value, laid out as declared above (glibc >= 2.33).
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as u64
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn live_heap_bytes() -> u64 {
    0
}
