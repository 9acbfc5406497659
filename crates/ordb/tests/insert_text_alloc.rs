//! What a repeated INSERT text allocates on its way through the plan cache,
//! counted by this file's own global allocator. A loader's one-row INSERTs
//! differ only in their literals, so after the first one every text is a
//! template hit: one scan of its bytes into the cache's reused key buffer,
//! its string literals moved into the cached template's slots, and the row
//! it inserts. Counts, not timings: the same on every machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use xmlord_ordb::{Database, DbMode};

/// Allocations made by the thread that asked to be counted.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every request is passed to `System` unchanged; the bookkeeping
// touches only an atomic and a const-initialised thread-local without a
// destructor, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 10 000 one-row edge-table INSERT texts through `Database::execute` on a
/// warm plan cache make 7 allocations each, plus the occasional growth of
/// the table's storage: the two string literals the scan copies out of
/// the text, and what executing the row allocates. Before the lexer
/// scanned bytes and a hit rebound the template in place, each text made
/// 33 — a char vector, a `String` per identifier and literal, the token
/// vector, the key, and a deep clone of the template AST.
#[test]
fn a_template_hit_insert_text_allocates_a_bounded_few_times() {
    const TEXTS: usize = 10_000;
    let mut db = Database::new(DbMode::Oracle9);
    db.execute(
        "CREATE TABLE TabEdge (Source NUMBER, Ordinal NUMBER, Name VARCHAR(250), \
         Flag VARCHAR(10), Target NUMBER)",
    )
    .unwrap();
    let text = |i: usize| {
        format!(
            "INSERT INTO TabEdge VALUES ({i}, 0, 'Student', 'ref', {})",
            i + 1
        )
    };
    // The first text of the shape parses and templates it.
    db.execute(&text(TEXTS)).unwrap();
    let texts: Vec<String> = (0..TEXTS).map(text).collect();
    let before = db.stats();

    let allocations_before = ALLOCATIONS.load(Relaxed);
    COUNTED.with(|c| c.set(true));
    for sql in &texts {
        db.execute(sql).unwrap();
    }
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Relaxed) - allocations_before;

    let stats = db.stats().since(&before);
    assert_eq!(
        (stats.plan_cache_hits, stats.plan_cache_misses),
        (TEXTS as u64, 0)
    );
    assert_eq!(db.row_count("TabEdge"), TEXTS + 1);
    assert!(
        allocations <= 7 * TEXTS + 64,
        "{allocations} allocations over {TEXTS} INSERT texts: {:.2} each",
        allocations as f64 / TEXTS as f64
    );
}
