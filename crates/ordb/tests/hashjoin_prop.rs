//! Differential property tests for the join paths: every randomized join
//! query must return exactly the rows, in exactly the order, that a plain
//! nested loop in FROM order returns — the reference in
//! `tests/support/nested_loop.rs`, which shares no code with the planner.
//!
//! The value pool is built to stress the prefilter's weak spot — SQL's
//! numeric string coercion. `'04' = 4` is TRUE but `'04' = '4'` is FALSE,
//! so equal hash keys must never be trusted without re-running the real
//! predicate, and NULLs must never match anything.
//!
//! The first family joins un-analyzed tables, so every plan keeps FROM
//! order and the hash join is the only fast path. The second analyzes its
//! tables, with and without secondary indexes, so hash joins, index probes
//! and cost-based reordering meet in one plan.

#[path = "support/nested_loop.rs"]
mod nested_loop;

use xmlord_ordb::{Database, DbError, DbMode};
use xmlord_prng::Prng;

/// VARCHAR literal: numeric strings (padded and zero-prefixed variants that
/// collide with numbers under coercion), plain text, or NULL.
fn str_lit(rng: &mut Prng) -> String {
    match rng.gen_range(0u32..7) {
        0 => "NULL".into(),
        1 | 2 => format!("'{}'", rng.gen_range(0i64..6)),
        3 => format!("'0{}'", rng.gen_range(0i64..6)),
        4 | 5 => format!("'s{}'", rng.gen_range(0i64..4)),
        _ => format!("' {} '", rng.gen_range(0i64..6)),
    }
}

/// NUMBER literal drawn from the same small span so joins actually match.
fn num_lit(rng: &mut Prng) -> String {
    if rng.gen_bool(0.15) {
        "NULL".into()
    } else {
        rng.gen_range(0i64..6).to_string()
    }
}

fn col(rng: &mut Prng) -> &'static str {
    if rng.gen_bool(0.5) {
        "s"
    } else {
        "n"
    }
}

fn insert_row(db: &mut Database, rng: &mut Prng, table: &str) {
    db.execute(&format!("INSERT INTO {table} VALUES ({}, {})", str_lit(rng), num_lit(rng)))
        .unwrap();
}

fn setup(mode: DbMode, rng: &mut Prng) -> Database {
    let mut db = Database::new(mode);
    db.execute_script(
        "CREATE TABLE A (s VARCHAR(10), n NUMBER);
         CREATE TABLE B (s VARCHAR(10), n NUMBER);
         CREATE TABLE C (s VARCHAR(10), n NUMBER);",
    )
    .unwrap();
    for table in ["A", "B", "C"] {
        for _ in 0..rng.gen_range(0usize..10) {
            insert_row(&mut db, rng, table);
        }
    }
    db
}

fn random_query(rng: &mut Prng) -> String {
    match rng.gen_range(0u32..4) {
        // Plain binary equi-join, random column pairing.
        0 => format!(
            "SELECT a.s, a.n, b.s, b.n FROM A a, B b WHERE a.{} = b.{}",
            col(rng),
            col(rng)
        ),
        // Two conjuncts on the same item: only the first can be hashed, the
        // second must still filter candidates.
        1 => format!(
            "SELECT a.s, b.n FROM A a, B b WHERE a.{} = b.{} AND a.{} = b.{}",
            col(rng),
            col(rng),
            col(rng),
            col(rng)
        ),
        // Constant "probe": the first scheduled conjunct compares the new
        // item against a literal.
        2 => format!(
            "SELECT a.s, b.s FROM A a, B b WHERE b.{} = {} AND a.{} = b.{}",
            col(rng),
            num_lit(rng),
            col(rng),
            col(rng)
        ),
        // Three-way chain: each later item hashes against an earlier one.
        _ => format!(
            "SELECT a.s, b.n, c.s FROM A a, B b, C c WHERE a.{} = b.{} AND b.{} = c.{}",
            col(rng),
            col(rng),
            col(rng),
            col(rng)
        ),
    }
}

#[test]
fn hash_join_agrees_with_nested_loop() {
    let mut total_builds = 0u64;
    for case in 0..200u64 {
        let mut rng = Prng::seed_from_u64(0x4A5B + case);
        let mut db = setup(DbMode::Oracle9, &mut rng);

        for _ in 0..4 {
            let sql = random_query(&mut rng);
            let before = db.stats();
            let rows = db.query(&sql).unwrap().rows;
            total_builds += db.stats().since(&before).hash_join_builds;
            // Bucket candidates keep the build side's row order, so the
            // engine agrees with the reference on the exact row sequence,
            // not just the multiset.
            assert_eq!(rows, nested_loop::select(&db, &sql), "case {case}: {sql}");
        }
    }
    // The generator must actually have exercised the fast path.
    assert!(total_builds > 0, "no query ever took the hash path");
}

/// The nested loop needs no switch: an equality join builds one hash
/// table, and the same statement with a non-equi join conjunct — nothing
/// to hash — makes the planner choose the nested loop, which tries every
/// pair of the two tables.
#[test]
fn non_equi_join_takes_the_nested_loop() {
    let mut rng = Prng::seed_from_u64(9);
    let mut db = setup(DbMode::Oracle9, &mut rng);
    let before = db.stats();
    db.query("SELECT a.s FROM A a, B b WHERE a.n = b.n").unwrap();
    let delta = db.stats().since(&before);
    assert_eq!(delta.hash_join_builds, 1);
    assert!(delta.hash_join_probes > 0);
    assert!(db.row_count("A") > 1 && db.row_count("B") > 1);

    for op in ["<", "<>"] {
        let sql = &format!("SELECT a.s FROM A a, B b WHERE a.n {op} b.n");
        let plan = db.query(&format!("EXPLAIN {sql}")).unwrap().rows;
        let plan: Vec<&str> = plan.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert!(plan.contains(&"  from[1] b: scan table B — nested-loop join"), "{plan:#?}");
        assert!(!plan.iter().any(|l| l.contains("hash join")), "{plan:#?}");

        let before = db.stats();
        let rows = db.query(sql).unwrap().rows;
        let delta = db.stats().since(&before);
        assert_eq!(delta.hash_join_builds, 0, "{sql}");
        assert_eq!(delta.hash_join_probes, 0, "{sql}");
        assert_eq!(delta.join_pairs, (db.row_count("A") * db.row_count("B")) as u64, "{sql}");
        assert_eq!(rows, nested_loop::select(&db, sql), "{sql}");
    }
}

/// Secondary indexes for the planned family: one per table, on the column
/// the coercion pool makes hardest for a key hash.
const INDEXES: &str = "CREATE INDEX IxAN ON A (n);
CREATE INDEX IxBS ON B (s);
CREATE INDEX IxCS ON C (s);
CREATE INDEX IxCN ON C (n);";

/// Shuffle in place (Fisher–Yates).
fn shuffle<T>(rng: &mut Prng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0usize..i + 1);
        items.swap(i, j);
    }
}

/// Literal of either column type, or a coercion edge case.
fn any_lit(rng: &mut Prng) -> String {
    if rng.gen_bool(0.5) {
        str_lit(rng)
    } else {
        num_lit(rng)
    }
}

/// A join conjunct between two bindings: mostly an equality the planner
/// can hash or probe, sometimes `<`, `<>` or an `OR` of two equalities,
/// which only a nested loop can evaluate.
fn join_conjunct(rng: &mut Prng, x: &str, y: &str) -> String {
    let (cx, cy) = (col(rng), col(rng));
    match rng.gen_range(0u32..8) {
        0 => format!("{x}.{cx} < {y}.{cy}"),
        1 => format!("{x}.{cx} <> {y}.{cy}"),
        2 => format!("({x}.{cx} = {y}.{cy} OR {x}.{} = {y}.{})", col(rng), col(rng)),
        // Either side first: the planner must find the build side itself.
        3 => format!("{y}.{cy} = {x}.{cx}"),
        _ => format!("{x}.{cx} = {y}.{cy}"),
    }
}

/// A comparison operator.
fn comparison(rng: &mut Prng) -> &'static str {
    const COMPARISONS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
    COMPARISONS[rng.gen_range(0..COMPARISONS.len())]
}

/// A conjunct over one binding or none: the local predicates that feed
/// index probes, join-order estimates and the executor's block filters
/// (`binding.column op literal`, either way round, NULL on either side),
/// and the ones that feed none of them.
fn local_conjunct(rng: &mut Prng, x: &str) -> String {
    match rng.gen_range(0u32..10) {
        0 | 1 => format!("{x}.{} = {}", col(rng), any_lit(rng)),
        2 => format!("{x}.{} IS NOT NULL", col(rng)),
        3 => format!("{x}.{} {} {}", col(rng), comparison(rng), any_lit(rng)),
        // The literal first: `'04' = a.s`, `3 > a.n`.
        4 => format!("{} {} {x}.{}", any_lit(rng), comparison(rng), col(rng)),
        5 if rng.gen_bool(0.5) => format!("NULL {} {x}.{}", comparison(rng), col(rng)),
        5 => format!("{x}.{} {} NULL", col(rng), comparison(rng)),
        6 => format!("{x}.{} <> {}", col(rng), any_lit(rng)),
        // Constant-only: TRUE, FALSE or UNKNOWN for every combination.
        7 => format!("{} = {}", any_lit(rng), any_lit(rng)),
        _ => format!("({x}.{} = {} OR {x}.{} IS NULL)", col(rng), any_lit(rng), col(rng)),
    }
}

/// Two- and three-way joins over A, B and C in a random FROM order — a
/// chain or, for three items, a triangle — with local and constant-only
/// conjuncts in random order, projected plainly, `DISTINCT` or as
/// `COUNT(*)` or `*`, and sometimes ordered. Returns the SQL and its FROM
/// bindings in FROM order.
fn planned_query(rng: &mut Prng) -> (String, Vec<&'static str>) {
    let mut bindings = vec!["a", "b", "c"];
    shuffle(rng, &mut bindings);
    let width = if rng.gen_bool(0.3) { 2 } else { 3 };
    bindings.truncate(width);
    let from: Vec<String> =
        bindings.iter().map(|b| format!("{} {b}", b.to_uppercase())).collect();

    // The chain joins in an order of its own, so FROM order is often not a
    // join order; a triangle closes the chain.
    let mut chain = bindings.clone();
    shuffle(rng, &mut chain);
    let mut conjuncts: Vec<String> =
        chain.windows(2).map(|pair| join_conjunct(rng, pair[0], pair[1])).collect();
    if width == 3 && rng.gen_bool(0.3) {
        conjuncts.push(join_conjunct(rng, chain[2], chain[0]));
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let x = *rng.choose(&bindings);
        conjuncts.push(local_conjunct(rng, x));
    }
    shuffle(rng, &mut conjuncts);

    // Now and then unqualified: every table has `s` and `n`, so the column
    // is the first FROM item's, whatever order the plan runs the items in.
    let column = |rng: &mut Prng| match rng.gen_range(0u32..8) {
        0 => col(rng).to_string(),
        _ => format!("{}.{}", rng.choose(&bindings), col(rng)),
    };
    let (head, order_by) = match rng.gen_range(0u32..6) {
        0 => ("COUNT(*)".to_string(), false),
        // Every column, laid out in FROM order whatever the join order.
        1 => ("*".to_string(), rng.gen_bool(0.4)),
        2 => (format!("DISTINCT {}", column(rng)), rng.gen_bool(0.5)),
        3 => (format!("DISTINCT {}, {}", column(rng), column(rng)), rng.gen_bool(0.5)),
        _ => {
            let items: Vec<String> = (0..rng.gen_range(1usize..4)).map(|_| column(rng)).collect();
            (items.join(", "), rng.gen_bool(0.4))
        }
    };
    let mut sql =
        format!("SELECT {head} FROM {} WHERE {}", from.join(", "), conjuncts.join(" AND "));
    if order_by {
        let keys: Vec<String> = (0..rng.gen_range(1usize..3))
            .map(|_| format!("{}{}", column(rng), if rng.gen_bool(0.5) { " DESC" } else { "" }))
            .collect();
        sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    }
    (sql, bindings)
}

/// Hash joins, index probes and cost-based reordering, together, against
/// the reference: analyzed tables in both modes, with and without secondary
/// indexes, some rows added after ANALYZE so statistics can be stale. A
/// failure means one of those paths — or the restoration of FROM-order
/// enumeration after a reorder — returned other rows than a plain nested
/// loop.
#[test]
fn planned_joins_agree_with_the_reference() {
    let (mut builds, mut probes, mut costed, mut cost_based, mut reordered) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut reordered_stars = 0u64;
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for indexed in [false, true] {
            for case in 0..300u64 {
                let mut rng = Prng::seed_from_u64(0x9A7E_0000 + case);
                let mut db = setup(mode, &mut rng);
                if indexed {
                    db.execute_script(INDEXES).unwrap();
                }
                for table in ["A", "B", "C"] {
                    if rng.gen_bool(0.9) {
                        db.execute(&format!("ANALYZE TABLE {table} COMPUTE STATISTICS")).unwrap();
                    }
                    if rng.gen_bool(0.2) {
                        insert_row(&mut db, &mut rng, table);
                    }
                }
                for _ in 0..6 {
                    let (sql, bindings) = planned_query(&mut rng);
                    let ctx = format!("{mode:?} indexed={indexed} case {case}: {sql}");
                    let before = db.stats();
                    let rows = db.query(&sql).unwrap_or_else(|e| panic!("{ctx}: {e}")).rows;
                    let delta = db.stats().since(&before);
                    assert_eq!(rows, nested_loop::select(&db, &sql), "{ctx}");
                    builds += delta.hash_join_builds;
                    probes += delta.index_scans;
                    costed += delta.planner_plans_costed;

                    let from_order = format!(
                        "join order: cost-based ({}) — ANALYZE statistics",
                        bindings.join(", ")
                    );
                    for row in db.query(&format!("EXPLAIN {sql}")).unwrap().rows {
                        let line = row[0].as_str().unwrap().trim_start();
                        if line.starts_with("join order: cost-based") {
                            cost_based += 1;
                            reordered += u64::from(line != from_order);
                            reordered_stars +=
                                u64::from(line != from_order && sql.starts_with("SELECT * "));
                        }
                    }
                }
            }
        }
    }
    // The family must have exercised every path it claims to check.
    assert!(builds > 0, "no hash join was built");
    assert!(probes > 0, "no index was probed");
    assert!(costed > 0, "no plan was costed");
    assert!(cost_based > 0, "no EXPLAIN showed a cost-based join order");
    assert!(reordered > 0, "no plan was reordered");
    assert!(reordered_stars > 0, "no reordered plan selected *");
}

/// Three object tables of one self-referencing type. `up` is meant to
/// point from Z to Y and from Y to X — the back-pointing REFs of the
/// Oracle 8 mapping — but is sometimes NULL, sometimes aims at a row of
/// another table of the same type, and sometimes dangles.
const OBJECT_SCHEMA: &str = "CREATE TYPE T_N AS OBJECT (k NUMBER, s VARCHAR(10), up REF T_N);
CREATE TABLE X OF T_N (k PRIMARY KEY);
CREATE TABLE Y OF T_N;
CREATE TABLE Z OF T_N;";

/// Indexes a case may add: a constant filter on `s` then probes an index,
/// and Z gets a key of its own.
const OBJECT_INDEXES: [&str; 3] = [
    "CREATE INDEX IxYS ON Y (s)",
    "CREATE INDEX IxZS ON Z (s)",
    "CREATE UNIQUE INDEX IxZK ON Z (k)",
];

/// The REF a new row of `table` stores: mostly a row of its parent table,
/// else NULL, a row of another table of the type, or a row that is
/// deleted before the queries run.
fn up_ref(rng: &mut Prng, table: &str, next_k: &[i64; 3]) -> String {
    let parent = match table {
        "Y" => "X",
        _ => "Y",
    };
    let target = match rng.gen_range(0u32..10) {
        0 => return "NULL".into(),
        1 => *rng.choose(&["X", "Y", "Z"]),
        _ => parent,
    };
    let live = next_k[["X", "Y", "Z"].iter().position(|t| *t == target).unwrap()];
    // k ≥ 100 rows are the ones deleted later: their REFs dangle.
    let k = if rng.gen_bool(0.1) { 100 + rng.gen_range(0i64..3) } else { rng.gen_range(0..live.max(1)) };
    format!("(SELECT REF(p) FROM {target} p WHERE p.k = {k})")
}

/// X, Y and Z filled top-down, then rows deleted and a savepoint's worth of
/// deletes and inserts rolled back, so REFs dangle and heap slots have
/// moved before any query runs.
fn object_setup(mode: DbMode, rng: &mut Prng) -> Database {
    let mut db = Database::new(mode);
    db.execute_script(OBJECT_SCHEMA).unwrap();
    for index in OBJECT_INDEXES {
        if rng.gen_bool(0.4) {
            db.execute(index).unwrap();
        }
    }
    let mut next_k = [0i64; 3];
    for (t, table) in ["X", "Y", "Z"].into_iter().enumerate() {
        // The doomed rows first, so deleting them moves every later slot.
        for k in 100..103 {
            db.execute(&format!("INSERT INTO {table} VALUES (T_N({k}, 'd', NULL))")).unwrap();
        }
        for _ in 0..rng.gen_range(1usize..9) {
            let up = if table == "X" { "NULL".to_string() } else { up_ref(rng, table, &next_k) };
            let k = next_k[t];
            next_k[t] += 1;
            db.execute(&format!("INSERT INTO {table} VALUES (T_N({k}, {}, {up}))", str_lit(rng)))
                .unwrap();
        }
    }
    for table in ["X", "Y", "Z"] {
        db.execute(&format!("DELETE FROM {table} WHERE k >= 100")).unwrap();
    }
    db.execute("SAVEPOINT moved").unwrap();
    for table in ["X", "Y", "Z"] {
        db.execute(&format!("DELETE FROM {table} WHERE k = {}", rng.gen_range(0i64..4))).unwrap();
        db.execute(&format!("INSERT INTO {table} VALUES (T_N(50, 'r', NULL))")).unwrap();
    }
    db.execute("ROLLBACK TO moved").unwrap();
    if rng.gen_bool(0.5) {
        // A committed delete: the survivors keep their new slots.
        let table = *rng.choose(&["X", "Y", "Z"]);
        db.execute(&format!("DELETE FROM {table} WHERE k = {}", rng.gen_range(0i64..4))).unwrap();
    }
    db
}

/// A local conjunct on one binding: a constant filter on an indexed or
/// unindexed column (or a key), either way round, a NULL test on the REF,
/// or a filter no index takes.
fn object_local(rng: &mut Prng, x: &str) -> String {
    match rng.gen_range(0u32..7) {
        0 | 1 => format!("{x}.s = {}", str_lit(rng)),
        2 => format!("{x}.k = {}", num_lit(rng)),
        3 => format!("{x}.up IS {}NULL", if rng.gen_bool(0.5) { "NOT " } else { "" }),
        4 => format!("{x}.s <> {}", str_lit(rng)),
        5 => format!("{} {} {x}.k", num_lit(rng), comparison(rng)),
        _ => format!("{x}.k {} {}", comparison(rng), num_lit(rng)),
    }
}

/// `child.up = REF(parent)`, either side first.
fn ref_join(rng: &mut Prng, child: &str, parent: &str) -> String {
    if rng.gen_bool(0.5) {
        format!("{child}.up = REF({parent})")
    } else {
        format!("REF({parent}) = {child}.up")
    }
}

/// A join over the REF chain in a random FROM order: z → y → x, one link of
/// it, or z → x (a REF that must point into X, not into the Y it usually
/// names), with local filters, projected plainly (REFs included, and
/// attributes read through a REF, which fail on a dangling one), `*`,
/// `DISTINCT` or as `COUNT(*)`, and sometimes ordered.
fn object_query(rng: &mut Prng) -> String {
    let (mut bindings, mut conjuncts) = match rng.gen_range(0u32..4) {
        0 | 1 => (vec!["x", "y", "z"], vec![ref_join(rng, "z", "y"), ref_join(rng, "y", "x")]),
        2 => {
            let (child, parent) = *rng.choose(&[("y", "x"), ("z", "y")]);
            (vec![child, parent], vec![ref_join(rng, child, parent)])
        }
        _ => (vec!["x", "z"], vec![ref_join(rng, "z", "x")]),
    };
    shuffle(rng, &mut bindings);
    for _ in 0..rng.gen_range(0usize..3) {
        let x = *rng.choose(&bindings);
        conjuncts.push(object_local(rng, x));
    }
    shuffle(rng, &mut conjuncts);
    let from: Vec<String> =
        bindings.iter().map(|b| format!("{} {b}", b.to_uppercase())).collect();
    // An unqualified `k`, `s` or `up` is the first FROM item's, whichever
    // item the plan was seeded at.
    if rng.gen_bool(0.2) {
        conjuncts.push(format!("k {} {}", comparison(rng), num_lit(rng)));
    }
    let column = |rng: &mut Prng| {
        let b = rng.choose(&bindings);
        match rng.gen_range(0u32..6) {
            0 => format!("REF({b})"),
            1 => format!("{b}.k"),
            2 if rng.gen_bool(0.5) => format!("{b}.up.k"),
            5 => rng.choose(&["k", "s", "up"]).to_string(),
            _ => format!("{b}.s"),
        }
    };
    let head = match rng.gen_range(0u32..6) {
        0 => "COUNT(*)".to_string(),
        1 => "*".to_string(),
        2 => format!("DISTINCT {}", column(rng)),
        _ => (0..rng.gen_range(1usize..4)).map(|_| column(rng)).collect::<Vec<_>>().join(", "),
    };
    let mut sql =
        format!("SELECT {head} FROM {} WHERE {}", from.join(", "), conjuncts.join(" AND "));
    if head != "COUNT(*)" && rng.gen_bool(0.3) {
        let key = match rng.gen_bool(0.2) {
            true => "k".to_string(),
            false => format!("{}.s", rng.choose(&bindings)),
        };
        sql.push_str(&format!(" ORDER BY {key}{}", if rng.gen_bool(0.5) { " DESC" } else { "" }));
    }
    sql
}

/// OID probes and seeded join orders against the reference: object tables
/// wired by REFs in both modes, with NULL, misdirected and dangling REFs,
/// slots moved by DELETE and ROLLBACK, constant filters on indexed and
/// unindexed columns, and with or without statistics.
#[test]
fn oid_probes_and_seeded_orders_agree_with_the_reference() {
    let (mut seeded, mut oid_probes, mut oid_hits, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for case in 0..300u64 {
            let mut rng = Prng::seed_from_u64(0x01D_0000 + case);
            let mut db = object_setup(mode, &mut rng);
            if rng.gen_bool(0.4) {
                for table in ["X", "Y", "Z"] {
                    db.execute(&format!("ANALYZE TABLE {table} COMPUTE STATISTICS")).unwrap();
                }
            }
            for _ in 0..6 {
                let sql = object_query(&mut rng);
                let ctx = format!("{mode:?} case {case}: {sql}");
                let before = db.stats();
                let rows = db.query(&sql).map(|result| result.rows);
                oid_hits += db.stats().since(&before).oid_index_hits;
                // A dangling REF read in the select list fails both alike.
                match (rows, nested_loop::try_select(&db, &sql)) {
                    (Ok(rows), Ok(expected)) => assert_eq!(rows, expected, "{ctx}"),
                    (Err(DbError::DanglingRef), Err(_)) => failed += 1,
                    (rows, expected) => panic!("{ctx}: {rows:?} against {expected:?}"),
                }
                for row in db.query(&format!("EXPLAIN {sql}")).unwrap().rows {
                    let line = row[0].as_str().unwrap();
                    seeded += u64::from(line.trim_start().starts_with("join order: seeded at "));
                    oid_probes += u64::from(line.contains(" — OID probe (key: "));
                }
            }
        }
    }
    assert!(seeded > 0, "no plan was seeded");
    assert!(oid_probes > 0, "no plan probed by OID");
    assert!(oid_hits > 0, "no OID probe found a row");
    assert!(failed > 0, "no query read through a dangling REF");
}

/// A reordered plan whose projection fails on more than one combination:
/// seeded at `z`'s constant filter, `y` attached by OID probe, and `y.up.k`
/// read through REFs of which two dangle. The engine fails with the first
/// failure it meets — in execution order, which here is not FROM order —
/// and the reference fails too; without the failing item both agree.
#[test]
fn a_projection_that_fails_fails_a_reordered_plan() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        let mut db = Database::new(mode);
        db.execute_script(OBJECT_SCHEMA).unwrap();
        db.execute_script(
            "INSERT INTO X VALUES (T_N(1, 'x', NULL));
             INSERT INTO X VALUES (T_N(2, 'x', NULL));
             INSERT INTO X VALUES (T_N(3, 'x', NULL));
             INSERT INTO Y VALUES (T_N(10, 'y', (SELECT REF(p) FROM X p WHERE p.k = 1)));
             INSERT INTO Y VALUES (T_N(11, 'y', (SELECT REF(p) FROM X p WHERE p.k = 2)));
             INSERT INTO Y VALUES (T_N(12, 'y', (SELECT REF(p) FROM X p WHERE p.k = 3)));
             INSERT INTO Z VALUES (T_N(20, 'q', (SELECT REF(p) FROM Y p WHERE p.k = 12)));
             INSERT INTO Z VALUES (T_N(21, 'q', (SELECT REF(p) FROM Y p WHERE p.k = 11)));
             INSERT INTO Z VALUES (T_N(22, 'q', (SELECT REF(p) FROM Y p WHERE p.k = 10)));
             DELETE FROM X WHERE k <> 3;",
        )
        .unwrap();
        let from = "FROM Y y, Z z WHERE REF(y) = z.up AND z.s = 'q'";
        let sql = format!("SELECT z.k, y.up.k {from}");
        let plan = db.query(&format!("EXPLAIN {sql}")).unwrap().rows;
        let seeded = "join order: seeded at z (z, y) — constant filter, one-row probes";
        assert!(plan.iter().any(|r| r[0].as_str().unwrap().trim() == seeded), "{mode:?}: {plan:?}");

        let failed = db.query(&sql);
        assert!(matches!(failed, Err(DbError::DanglingRef)), "{mode:?}: {failed:?}");
        assert!(nested_loop::try_select(&db, &sql).is_err(), "{mode:?}");

        let sql = format!("SELECT z.k, y.k {from}");
        let rows = db.query(&sql).unwrap().rows;
        assert_eq!(rows.len(), 3, "{mode:?}");
        assert_eq!(rows, nested_loop::select(&db, &sql), "{mode:?}");
    }
}
