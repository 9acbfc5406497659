//! One counting global allocator. A test binary installs it, then asks
//! [`counted`] for the allocations one stretch of code makes on its thread,
//! or [`peak_above`] and [`live_bytes`] for memory across all threads:
//!
//! ```
//! use xmlord_testkit::{counted, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOCATOR: CountingAlloc = CountingAlloc;
//!
//! let (text, allocations) = counted(|| "Jaeger".to_string());
//! assert_eq!((text.as_str(), allocations), ("Jaeger", 1));
//! ```
//!
//! Counts, not timings: the same on every machine. In a binary that
//! installs another allocator every count reads 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Keeps live bytes and their peak across all threads, and counts the
/// allocations (and reallocations) of a thread inside [`counted`].
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Per thread, so tests running side by side do not count each other.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every request is passed to `System` unchanged; the bookkeeping
// touches only atomics and const-initialised thread-locals without a
// destructor, none of which allocates. `realloc` is the default one, which
// calls `alloc`, so a growing buffer counts each time it moves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        PEAK.fetch_max(live, Relaxed);
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `f` and return its result with the allocations this thread made
/// while it ran. Threads `f` spawns are not counted.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Bytes allocated and not yet freed, by every thread.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Run `f` and return its result with the peak of live bytes while it ran,
/// above those live when it started. Every thread's allocations count, so a
/// test that bounds a peak runs alone or allows for its neighbours.
pub fn peak_above<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Relaxed);
    PEAK.store(baseline, Relaxed);
    let result = f();
    (result, PEAK.load(Relaxed).saturating_sub(baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_this_threads_allocations_and_the_peak_above_the_start() {
        let (boxes, allocations) = counted(|| (0..10).map(Box::new).collect::<Vec<_>>());
        // Ten boxes and the vector that holds them.
        assert_eq!(allocations, 11);
        let ((), nothing) = counted(|| drop(boxes));
        assert_eq!(nothing, 0);

        let (len, peak) = peak_above(|| vec![0u8; 1 << 20].len());
        assert_eq!(len, 1 << 20);
        assert!(peak >= 1 << 20, "{peak}");
    }
}
