//! A counting `GlobalAlloc`: allocations, bytes and peak live bytes, read
//! around each layer call and each timed phase.
//!
//! The counters are per thread and plain cells, not shared atomics: the
//! document lifecycle allocates some 330 times per KB of XML, and five
//! atomic read-modify-writes on each of those would be a cost of the
//! benchmark's own, large enough to change what it measures. The in-process
//! workloads run on one thread, so that thread's numbers are the program's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counters {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    /// Signed: memory allocated here may be freed on another thread.
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it inside the
    // allocator neither allocates nor fails during thread teardown.
    static COUNTERS: Counters = const {
        Counters { allocs: Cell::new(0), bytes: Cell::new(0), live: Cell::new(0), peak: Cell::new(0) }
    };
}

pub struct Counting;

fn note_alloc(size: usize) {
    COUNTERS.with(|c| {
        c.allocs.set(c.allocs.get() + 1);
        c.bytes.set(c.bytes.get() + size as u64);
        let live = c.live.get() + size as i64;
        c.live.set(live);
        if live > c.peak.get() {
            c.peak.set(live);
        }
    });
}

fn note_free(size: usize) {
    COUNTERS.with(|c| c.live.set(c.live.get() - size as i64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from this allocator with this `layout`, so it
        // came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` as in `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note_free(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Allocations made by the calling thread so far.
pub fn allocations() -> u64 {
    COUNTERS.with(|c| c.allocs.get())
}

/// What the calling thread allocated while a [`Window`] was open.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub allocations: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Highest live byte count, above the level when the window opened.
    pub peak_bytes: u64,
}

/// A measurement window on the calling thread, around a timed phase.
pub struct Window {
    allocations: u64,
    bytes: u64,
    live: i64,
}

impl Window {
    /// Open a window; the peak restarts from the current live byte count.
    pub fn open() -> Window {
        COUNTERS.with(|c| {
            c.peak.set(c.live.get());
            Window {
                allocations: c.allocs.get(),
                bytes: c.bytes.get(),
                live: c.live.get(),
            }
        })
    }

    pub fn close(self) -> Usage {
        COUNTERS.with(|c| Usage {
            allocations: c.allocs.get() - self.allocations,
            bytes: c.bytes.get() - self.bytes,
            peak_bytes: (c.peak.get() - self.live).max(0) as u64,
        })
    }
}
