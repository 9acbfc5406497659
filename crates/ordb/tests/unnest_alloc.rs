//! What a query allocates, counted by this file's own global allocator.
//! The §4.1 shape — a table un-nested through three levels of `TABLE(…)` —
//! streams: each FROM position refills one frame, a lateral expansion hands
//! out handles on the stored blocks, and nothing is stored per combination,
//! so the query allocates per result row, not per row it scans, and its
//! transient memory is a sliver of the store. An edge-table path — one hash
//! join per step, every build live at once — holds row numbers, not frames.
//! The Oracle 8 form of the §4.1 query — four object tables wired by
//! back-pointing REFs, run from the constant filter upward by OID probes —
//! is reordered, and keeps neither frames nor combinations either: a
//! candidate is tested on its stored block, and the sink keeps each result
//! row with its FROM-order slots. Counts, not timings: the same on every
//! machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use xmlord_ordb::sql::ast::Expr;
use xmlord_ordb::{Database, DbMode, ExecStats, Ident, InsertBatch, QueryResult, Value};
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

/// Held by each test: the live-byte peak counts every thread.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `query` (once unmeasured first, so that parsing and planning are
/// behind it) and return its result, the allocations the measured run made,
/// its peak live bytes above those before it, and its engine counters.
fn measure(db: &mut Database, query: &str) -> (QueryResult, usize, usize, ExecStats) {
    let expected = db.query(query).unwrap();
    let stats_before = db.stats();
    let live_before_query = LIVE.load(Relaxed);
    PEAK.store(live_before_query, Relaxed);
    let allocations_before = ALLOCATIONS.load(Relaxed);
    COUNTED.with(|c| c.set(true));
    let result = db.query(query);
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Relaxed) - allocations_before;
    let transient = PEAK.load(Relaxed) - live_before_query;
    let result = result.unwrap();
    assert_eq!(result, expected);
    (result, allocations, transient, db.stats().since(&stats_before))
}

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
fn a_three_level_unnest_allocates_per_result_row_and_keeps_the_store_in_place() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    let (result, allocations, transient, stats) = measure(&mut db, query);
    let rows = result.rows.len();
    let rows_scanned = stats.rows_scanned as usize;

    // 40 rows, 800 students, their courses and their courses' professors.
    assert!(rows_scanned > 3_000, "{rows_scanned} rows scanned");
    assert!(rows > 100, "{rows} rows");
    // Per result row its `Vec` and its one string; the rest is the plan,
    // one frame per position and the result's growth.
    assert!(
        allocations <= 2 * rows + 64,
        "{allocations} allocations for {rows} result rows ({rows_scanned} scanned)"
    );
    assert!(
        transient * 20 <= store,
        "{transient} transient bytes at the query's peak over a store of {store}"
    );
}

/// Florescu & Kossmann's edge table holding a tree ten levels deep: under
/// the virtual root 0, the root element has 40 children, each node below
/// one or two children named `n{d+1}` for its level `d`, and every node up
/// to two leaves of another name. Returns the number of nodes on level 9.
fn edge_tree(db: &mut Database, rng: &mut Prng) -> usize {
    db.execute(
        "CREATE TABLE TabEdge (Source NUMBER, Ordinal NUMBER, Name VARCHAR(250), \
         Flag VARCHAR(10), Target NUMBER)",
    )
    .unwrap();
    let insert = |db: &mut Database, source: usize, ordinal: usize, name: &str, target| {
        db.execute(&format!(
            "INSERT INTO TabEdge VALUES ({source}, {ordinal}, '{name}', 'ref', {target})"
        ))
        .unwrap();
    };
    insert(db, 0, 0, "n0", 1);
    let (mut level, mut next) = (vec![1usize], 2usize);
    for depth in 1..10 {
        let mut below = Vec::new();
        for &node in &level {
            let children = if depth == 1 { 40 } else { rng.gen_range(1usize..3) };
            let leaves = rng.gen_range(0usize..3);
            for ordinal in 0..children + leaves {
                let name = if ordinal < children { format!("n{depth}") } else { "x".into() };
                insert(db, node, ordinal, &name, next);
                if ordinal < children {
                    below.push(next);
                }
                next += 1;
            }
        }
        level = below;
    }
    db.commit().unwrap();
    level.len()
}

/// The edge baseline's path query: one self-join per step, each hashed on
/// `Source`, so a pipelined plan keeps all nine builds at once. Holding a
/// frame per build row costs about 1.5 KiB per table row over the nine; a
/// row number and its share of the buckets about 320 bytes.
#[test]
fn nine_live_hash_builds_hold_row_numbers_not_frames() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new(DbMode::Oracle9);
    let mut rng = Prng::seed_from_u64(7);
    let leaves = edge_tree(&mut db, &mut rng);
    let table_rows = db.row_count("TabEdge");

    let from: Vec<String> = (0..10).map(|i| format!("TabEdge e{i}")).collect();
    let mut conjuncts = vec!["e0.Source = 0".to_string(), "e0.Name = 'n0'".to_string()];
    for i in 1..10 {
        conjuncts.push(format!("e{i}.Source = e{}.Target", i - 1));
        conjuncts.push(format!("e{i}.Name = 'n{i}'"));
    }
    let query =
        format!("SELECT COUNT(*) FROM {} WHERE {}", from.join(", "), conjuncts.join(" AND "));
    let (result, _, transient, stats) = measure(&mut db, &query);
    assert_eq!(result.scalar().and_then(|v| v.as_num()), Some(leaves as f64));
    assert_eq!(stats.hash_join_builds, 9);
    assert!(table_rows > 2_000, "{table_rows} rows");
    assert!(
        transient <= 800 * table_rows,
        "{transient} transient bytes over nine builds of {table_rows} rows"
    );
}

/// The university of [`university`] inverted as Oracle 8 stores it: one
/// object table per element type, each child holding a REF to its parent,
/// found through the parent's key.
fn inverted_university(db: &mut Database, rng: &mut Prng, doc: usize) {
    let parent =
        |table: &str, id: &str| format!("(SELECT REF(p) FROM {table} p WHERE p.ID = '{id}')");
    let university = format!("U{doc}");
    db.execute(&format!(
        "INSERT INTO TabUniversity VALUES (Type_University('{university}', 'University {doc}'))"
    ))
    .unwrap();
    for s in 0..20 {
        let student = format!("{university}-S{s}");
        db.execute(&format!(
            "INSERT INTO TabStudent VALUES (Type_Student('{student}', 'Student {doc}-{s}', \
             'Firstname', {}))",
            parent("TabUniversity", &university)
        ))
        .unwrap();
        for c in 0..rng.gen_range(1usize..4) {
            let course = format!("{student}-C{c}");
            db.execute(&format!(
                "INSERT INTO TabCourse VALUES (Type_Course('{course}', \
                 'Course {c} of a rather long title', {}))",
                parent("TabStudent", &student)
            ))
            .unwrap();
            for p in 0..rng.gen_range(1usize..3) {
                let name = if rng.gen_bool(0.2) { "Jaeger" } else { "Kudrass" };
                db.execute(&format!(
                    "INSERT INTO TabProfessor VALUES (Type_Professor('{course}-P{p}', '{name}', \
                     'Databases and more databases', {}))",
                    parent("TabCourse", &course)
                ))
                .unwrap();
            }
        }
    }
}

#[test]
fn a_reordered_oracle8_join_keeps_rows_not_frames() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new(DbMode::Oracle8);
    db.execute_script(
        "CREATE TYPE Type_University AS OBJECT(ID VARCHAR(20), UName VARCHAR(40));
         CREATE TYPE Type_Student AS OBJECT(ID VARCHAR(20), LName VARCHAR(40),
             FName VARCHAR(40), attrRefUniversity REF Type_University);
         CREATE TYPE Type_Course AS OBJECT(ID VARCHAR(20), Title VARCHAR(80),
             attrRefStudent REF Type_Student);
         CREATE TYPE Type_Professor AS OBJECT(ID VARCHAR(20), PName VARCHAR(40),
             Subject VARCHAR(80), attrRefCourse REF Type_Course);
         CREATE TABLE TabUniversity OF Type_University (ID PRIMARY KEY);
         CREATE TABLE TabStudent OF Type_Student (ID PRIMARY KEY);
         CREATE TABLE TabCourse OF Type_Course (ID PRIMARY KEY);
         CREATE TABLE TabProfessor OF Type_Professor (ID PRIMARY KEY);",
    )
    .unwrap();
    let mut rng = Prng::seed_from_u64(2002);
    for doc in 0..40 {
        inverted_university(&mut db, &mut rng, doc);
    }
    db.commit().unwrap();

    let from = "FROM TabUniversity t0, TabStudent t1, TabCourse t2, TabProfessor t3 \
                WHERE t1.attrRefUniversity = REF(t0) AND t2.attrRefStudent = REF(t1) \
                AND t3.attrRefCourse = REF(t2) AND t3.PName = 'Jaeger'";
    let plan = db.query(&format!("EXPLAIN SELECT t1.LName {from}")).unwrap();
    let seeded = "join order: seeded at t3 (t3, t2, t1, t0) — constant filter, one-row probes";
    let seeded_line = |r: &Vec<Value>| r[0].as_str().is_some_and(|l| l.trim() == seeded);
    assert!(plan.rows.iter().any(seeded_line), "{plan:?}");

    let (result, allocations, _, stats) = measure(&mut db, &format!("SELECT t1.LName {from}"));
    let rows = result.rows.len();
    let professors = db.row_count("TabProfessor");
    assert!(professors > 2_000, "{professors} professors");
    assert!(rows > 100, "{rows} rows");
    assert_eq!(stats.oid_index_hits as usize, 3 * rows);
    // Per result row its `Vec` and its one string; the rest is the plan, one
    // frame per position, and the growth of the rows and their slots.
    assert!(allocations <= 2 * rows + 64, "{allocations} allocations for {rows} result rows");

    // Counting keeps nothing per row.
    let (result, allocations, _, _) = measure(&mut db, &format!("SELECT COUNT(*) {from}"));
    assert_eq!(result.scalar().and_then(|v| v.as_num()), Some(rows as f64));
    assert!(allocations <= 32, "{allocations} allocations to count {rows} rows");
}

/// `EXISTS` stops at the first row its subquery finds and projects none: a
/// 10 000-row table costs a bounded number of allocations (23 here), where
/// collecting every row first cost two per row (20 033). The table is read as a scan reads it
/// — every row counted where the cursor opens — so `rows_scanned` is what
/// it was.
#[test]
fn exists_stops_at_its_first_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script("CREATE TABLE One (k NUMBER); CREATE TABLE Big (n NUMBER, s VARCHAR(20));")
        .unwrap();
    db.execute("INSERT INTO One VALUES (1)").unwrap();
    let rows = (0..10_000)
        .map(|n| vec![Expr::Literal(Value::Num(n as f64)), Expr::str_lit("a row of Big")])
        .collect();
    db.execute_batch(&InsertBatch { table: Ident::internal("Big"), columns: None, rows })
        .unwrap();
    db.commit().unwrap();

    let query = "SELECT o.k FROM One o WHERE EXISTS (SELECT b.s FROM Big b WHERE b.n >= 0)";
    let (result, allocations, _, stats) = measure(&mut db, query);
    assert_eq!(result.rows, vec![vec![Value::Num(1.0)]]);
    assert_eq!(stats.rows_scanned, 1 + 10_000);
    assert!(allocations <= 32, "{allocations} allocations for EXISTS over 10 000 rows");
}

/// A scalar subquery stops at its second row: one more than a scalar may
/// have is enough to reject it, so over the same 10 000 qualifying rows it
/// projects two and costs a bounded number of allocations (21 here), where
/// collecting every row first cost one per row (10 031). Its cursor opens
/// as a scan opens, so `rows_scanned` is what it was.
#[test]
fn a_scalar_subquery_stops_at_its_second_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script("CREATE TABLE One (k NUMBER); CREATE TABLE Big (n NUMBER, s VARCHAR(20));")
        .unwrap();
    db.execute("INSERT INTO One VALUES (1)").unwrap();
    let rows = (0..10_000)
        .map(|n| vec![Expr::Literal(Value::Num(n as f64)), Expr::str_lit("a row of Big")])
        .collect();
    db.execute_batch(&InsertBatch { table: Ident::internal("Big"), columns: None, rows })
        .unwrap();
    db.commit().unwrap();

    let query = "SELECT o.k FROM One o WHERE o.k = (SELECT b.n FROM Big b WHERE b.n >= 0)";
    // Once to plan it, as `measure` does.
    assert!(db.query(query).is_err());
    let before = db.stats();
    let allocations_before = ALLOCATIONS.load(Relaxed);
    COUNTED.with(|c| c.set(true));
    let result = db.query(query);
    COUNTED.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Relaxed) - allocations_before;
    assert_eq!(
        result.unwrap_err(),
        xmlord_ordb::DbError::Execution("scalar subquery returned 2 rows or more".into())
    );
    assert_eq!(db.stats().since(&before).rows_scanned, 1 + 10_000);
    assert!(allocations <= 32, "{allocations} allocations for a scalar over 10 000 rows");
}
