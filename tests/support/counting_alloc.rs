//! A counting global allocator for allocation-budget tests.
//!
//! It keeps three per-thread tallies, the allocation calls (`alloc`, `alloc_zeroed` and
//! `realloc`), the bytes they request (the new size, for a `realloc`), and the live bytes
//! (requested minus freed, so a `realloc` counts its change in size), and delegates to the
//! system allocator.  A test binary includes this file as a module:
//!
//! ```ignore
//! #[path = "support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! and reads its own thread's tally before and after the code it measures.  Live bytes are
//! charged to the thread that frees them, so a live-bytes figure is exact only for memory
//! that one thread both allocates and frees.

// Each binary reads one or two of the three tallies.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Adds `grown` bytes, negative when freed, to this thread's live tally.
fn live(grown: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
}

/// The allocation calls this thread has made.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The bytes this thread's allocation calls have requested.
pub fn allocated_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// The bytes this thread has allocated and not freed (negative when it freed more than it
/// allocated, as when it drops what another thread built).
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was allocated by `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
