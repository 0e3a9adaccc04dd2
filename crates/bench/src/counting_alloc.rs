//! A heap allocator that counts, per thread, the allocations (and bytes
//! requested) it forwards to the system allocator. A binary that wants the
//! counts installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: Counting = Counting;
//! ```
//!
//! Counts are per thread, so other threads (a test harness's) do not
//! disturb a measurement. This file uses only `std`: `tests/alloc_guard.rs`
//! includes it by path, so the facade's tests need no dependency on this
//! crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator.
pub struct Counting;

thread_local! {
    /// Allocations and bytes requested on this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Allocations and bytes requested on this thread so far (zero unless
/// [`Counting`] is the global allocator).
pub fn allocated() -> (u64, u64) {
    ALLOCATED.with(Cell::get)
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATED.try_with(|a| {
        let (n, b) = a.get();
        a.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: forwards every call to the system allocator unchanged; counting
// touches only a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
