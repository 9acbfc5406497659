//! What the §4.1 shape of query — a table un-nested through three levels of
//! `TABLE(…)` — allocates, counted by this file's own global allocator: a
//! lateral expansion hands out handles on the stored blocks, so the query
//! allocates per row it scans (a frame, a combination if the row survives),
//! not per value below that row, and its transient memory is a fraction of
//! the store. Counts, not timings: the same on every machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use xmlord_ordb::{Database, DbMode};
use xmlord_prng::Prng;

/// Live bytes (every thread), their peak since the last reset, and the
/// allocations made by the thread that asked to be counted.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every request is passed to `System` unchanged; the bookkeeping
// touches only atomics and a const-initialised thread-local without a
// destructor, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        PEAK.fetch_max(live, Relaxed);
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Relaxed);
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

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `Type_X('…', …)` text for a university of seeded shape: 20 students, each
/// with 1–3 courses, each with 1–2 professors, one in five named Jaeger.
fn university(rng: &mut Prng, doc: usize) -> String {
    let students: Vec<String> = (0..20)
        .map(|s| {
            let courses: Vec<String> = (0..rng.gen_range(1usize..4))
                .map(|c| {
                    let professors: Vec<String> = (0..rng.gen_range(1usize..3))
                        .map(|_| {
                            let name = if rng.gen_bool(0.2) { "Jaeger" } else { "Kudrass" };
                            format!("Type_Professor('{name}', 'Databases and more databases')")
                        })
                        .collect();
                    format!(
                        "Type_Course('Course {c} of a rather long title', Type_Professors({}))",
                        professors.join(", ")
                    )
                })
                .collect();
            format!(
                "Type_Student('Student {doc}-{s}', 'Firstname', Type_Courses({}))",
                courses.join(", ")
            )
        })
        .collect();
    format!(
        "INSERT INTO TabUniversity VALUES ('University {doc}', Type_Students({}))",
        students.join(", ")
    )
}

#[test]
fn a_three_level_unnest_allocates_per_scanned_row_and_keeps_the_store_in_place() {
    let live_before_store = LIVE.load(Relaxed);
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(
        "CREATE TYPE Type_Professor AS OBJECT(PName VARCHAR(40), Subject VARCHAR(80));
         CREATE TYPE Type_Professors AS TABLE OF Type_Professor;
         CREATE TYPE Type_Course AS OBJECT(Title VARCHAR(80), attrProfessor Type_Professors);
         CREATE TYPE Type_Courses AS TABLE OF Type_Course;
         CREATE TYPE Type_Student AS OBJECT(
             LName VARCHAR(40), FName VARCHAR(40), attrCourse Type_Courses);
         CREATE TYPE Type_Students AS TABLE OF Type_Student;
         CREATE TABLE TabUniversity (UName VARCHAR(40), attrStudent Type_Students);",
    )
    .unwrap();
    let mut rng = Prng::seed_from_u64(2002);
    for doc in 0..40 {
        db.execute(&university(&mut rng, doc)).unwrap();
    }
    db.commit().unwrap();
    let store = LIVE.load(Relaxed) - live_before_store;

    let query = "SELECT t1.LName FROM TabUniversity t0, TABLE(t0.attrStudent) t1, \
                 TABLE(t1.attrCourse) t2, TABLE(t2.attrProfessor) t3 \
                 WHERE t3.PName = 'Jaeger'";
    // Once unmeasured, so that parsing and planning are behind us.
    let expected = db.query(query).unwrap();
    assert!(expected.rows.len() > 100, "{} rows", expected.rows.len());

    let stats_before = db.stats();
    let live_before_query = LIVE.load(Relaxed);
    PEAK.store(live_before_query, Relaxed);
    let allocations_before = ALLOCATIONS.load(Relaxed);
    COUNTED.with(|c| c.set(true));
    let result = db.query(query);
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Relaxed) - allocations_before;
    let transient = PEAK.load(Relaxed) - live_before_query;
    let rows_scanned = db.stats().since(&stats_before).rows_scanned as usize;
    assert_eq!(result.unwrap(), expected);

    // 40 rows, 800 students, their courses and their courses' professors.
    assert!(rows_scanned > 3_000, "{rows_scanned} rows scanned");
    assert!(
        allocations <= 3 * rows_scanned,
        "{allocations} allocations for {rows_scanned} scanned rows"
    );
    assert!(
        transient * 2 <= store,
        "{transient} transient bytes at the query's peak over a store of {store}"
    );
}
