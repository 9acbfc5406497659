//! Differential property tests for secondary indexes and the cost-based
//! planner.
//!
//! Two databases execute the same seeded stream of DML, transaction
//! control, and ANALYZE statements:
//!
//! * `indexed` — secondary indexes installed,
//! * `bare`    — no indexes at all.
//!
//! The properties:
//!
//! * every SELECT (point lookups and an equi-join) returns, on both
//!   databases, exactly the rows in exactly the order that the plain
//!   nested-loop reference (`xmlord_testkit::nested_loop`) computes from
//!   `indexed`'s heap — index probes and join reordering are pure
//!   access-path changes;
//! * after every ROLLBACK / ROLLBACK TO SAVEPOINT, `state_dump()` is
//!   byte-identical across both — index maintenance rides the undo log
//!   without perturbing replay (indexes and statistics are access
//!   structures, deliberately outside the dump);
//! * the indexed database actually *uses* the indexes: EXPLAIN pins an
//!   `index probe` access path for the point query.
//!
//! The indexed database additionally churns CREATE INDEX / DROP INDEX
//! mid-transaction so undo replay also covers index DDL.
//!
//! A second, *key-only* family runs the same streams over tables whose only
//! indexes are the ones behind their PRIMARY KEY / multi-column UNIQUE
//! constraints — no `CREATE INDEX` anywhere: results row for row equal to
//! the reference, the planner probing the keys, and
//! `Storage::check_indexes` clean.

use xmlord_ordb::{Database, DbMode};
use xmlord_prng::Prng;
use xmlord_testkit::nested_loop;

const SCHEMA: &str = "CREATE TABLE Tab (k NUMBER, grp NUMBER, v VARCHAR(20));
CREATE TABLE Lnk (k NUMBER, tag VARCHAR(10));";

const INDEXES: &str = "CREATE INDEX IxTabK ON Tab (k);
CREATE INDEX IxTabGrp ON Tab (grp);
CREATE INDEX IxLnkK ON Lnk (k);";

/// Savepoint bookkeeping so every generated ROLLBACK TO names a live
/// savepoint. COMMIT and full ROLLBACK both discard the stack; rolling
/// back to a savepoint keeps the target but discards later ones.
#[derive(Default)]
struct Model {
    savepoints: Vec<String>,
}

enum Step {
    /// Applied to every database; must succeed.
    All(String),
    /// Index DDL, applied only to the index-bearing database; may fail
    /// (e.g. DROP of an index a rollback already retired).
    IndexDdl(String),
    Commit,
    Rollback,
    Compare,
}

fn gen_step(rng: &mut Prng, m: &mut Model, n: usize) -> Step {
    match rng.gen_range(0u32..16) {
        0..=4 => {
            let k = rng.gen_range(0i64..25);
            let g = rng.gen_range(0i64..5);
            Step::All(format!("INSERT INTO Tab VALUES ({k}, {g}, 'v{n}')"))
        }
        5..=6 => {
            let k = rng.gen_range(0i64..25);
            Step::All(format!("INSERT INTO Lnk VALUES ({k}, 't{}')", k % 7))
        }
        7 => {
            let k = rng.gen_range(0i64..25);
            Step::All(format!("UPDATE Tab SET v = 'u{n}' WHERE k = {k}"))
        }
        8 => {
            // Key update: forces index maintenance to move entries.
            let k = rng.gen_range(0i64..25);
            let k2 = rng.gen_range(0i64..25);
            Step::All(format!("UPDATE Tab SET k = {k2} WHERE k = {k}"))
        }
        9 => {
            let g = rng.gen_range(0i64..5);
            Step::All(format!("DELETE FROM Tab WHERE grp = {g}"))
        }
        10 => {
            let t = if rng.gen_bool(0.5) { "Tab" } else { "Lnk" };
            Step::All(format!("ANALYZE TABLE {t} COMPUTE STATISTICS"))
        }
        11 => {
            let name = format!("sp{n}");
            m.savepoints.push(name.clone());
            Step::All(format!("SAVEPOINT {name}"))
        }
        12 if !m.savepoints.is_empty() => {
            let i = rng.gen_range(0i64..m.savepoints.len() as i64) as usize;
            let sp = m.savepoints[i].clone();
            m.savepoints.truncate(i + 1);
            Step::All(format!("ROLLBACK TO {sp}"))
        }
        12 => {
            m.savepoints.clear();
            Step::Commit
        }
        13 => {
            m.savepoints.clear();
            Step::Rollback
        }
        14 => Step::IndexDdl(if rng.gen_bool(0.5) {
            "CREATE INDEX IxDyn ON Tab (v)".into()
        } else {
            "DROP INDEX IxDyn".into()
        }),
        _ => Step::Compare,
    }
}

fn queries(rng: &mut Prng) -> Vec<String> {
    let k = rng.gen_range(0i64..25);
    let g = rng.gen_range(0i64..5);
    vec![
        format!("SELECT t.k, t.v FROM Tab t WHERE t.k = {k}"),
        format!(
            "SELECT t.k, t.v, l.tag FROM Tab t, Lnk l \
             WHERE t.k = l.k AND t.grp = {g}"
        ),
    ]
}

/// Every database returns, in order, the rows the nested-loop reference
/// computes from the first one's heap — so a database whose state drifted
/// from the first fails here too, not only at the next dump comparison.
fn assert_matches_reference(dbs: &mut [&mut Database], sql: &str, ctx: &str) {
    let expect = nested_loop::select(dbs[0], sql);
    for db in dbs.iter_mut() {
        assert_eq!(db.query(sql).unwrap().rows, expect, "{ctx}: {sql} diverged from the reference");
    }
}

#[test]
fn index_backed_execution_is_differentially_identical() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for case in 0..40u64 {
            let mut rng = Prng::seed_from_u64(0x1DE7 + case);
            let mut indexed = Database::new(mode);
            let mut bare = Database::new(mode);
            for db in [&mut indexed, &mut bare] {
                db.execute_script(SCHEMA).unwrap();
                db.commit().unwrap();
            }
            indexed.execute_script(INDEXES).unwrap();

            let mut model = Model::default();
            let total = rng.gen_range(20usize..60);
            for n in 0..total {
                let ctx = format!("mode {mode:?} case {case} step {n}");
                match gen_step(&mut rng, &mut model, n) {
                    Step::All(sql) => {
                        for db in [&mut indexed, &mut bare] {
                            db.execute(&sql).unwrap_or_else(|e| panic!("{ctx}: {sql}: {e}"));
                        }
                    }
                    Step::IndexDdl(sql) => {
                        let _ = indexed.execute(&sql);
                    }
                    Step::Commit => {
                        for db in [&mut indexed, &mut bare] {
                            db.commit().unwrap();
                        }
                    }
                    Step::Rollback => {
                        for db in [&mut indexed, &mut bare] {
                            db.execute("ROLLBACK").unwrap();
                        }
                        assert_eq!(bare.state_dump(), indexed.state_dump(), "{ctx}: dump diverged");
                    }
                    Step::Compare => {
                        for sql in queries(&mut rng) {
                            assert_matches_reference(&mut [&mut indexed, &mut bare], &sql, &ctx);
                        }
                    }
                }
            }

            // Final differential sweep + undo replay of everything still
            // uncommitted.
            let ctx = format!("mode {mode:?} case {case} final");
            for sql in queries(&mut rng) {
                assert_matches_reference(&mut [&mut indexed, &mut bare], &sql, &ctx);
            }
            for db in [&mut indexed, &mut bare] {
                db.execute("ROLLBACK").unwrap();
            }
            assert_eq!(bare.state_dump(), indexed.state_dump(), "{ctx}: dump diverged");
            indexed.storage().check_oid_directory().unwrap();
        }
    }
}

const KEYED_SCHEMA: &str =
    "CREATE TABLE Tab (k NUMBER PRIMARY KEY, grp NUMBER, v VARCHAR(20), UNIQUE (grp, v));
CREATE TABLE Lnk (k NUMBER, tag VARCHAR(10), UNIQUE (k, tag));";

/// Point lookups on each key, a join that reaches `Tab` through its
/// PRIMARY KEY, and one that covers only half of `Lnk`'s two-column key
/// (which no key index may answer).
fn keyed_queries(rng: &mut Prng, n: usize) -> Vec<String> {
    let k = rng.gen_range(0i64..25);
    let g = rng.gen_range(0i64..5);
    let step = rng.gen_range(0i64..n.max(1) as i64);
    vec![
        format!("SELECT t.k, t.v FROM Tab t WHERE t.k = {k}"),
        format!("SELECT t.k FROM Tab t WHERE t.grp = {g} AND t.v = 'v{step}'"),
        format!("SELECT l.tag FROM Lnk l WHERE l.tag = 't{}' AND l.k = {k}", k % 7),
        format!("SELECT l.tag, t.v FROM Lnk l, Tab t WHERE t.k = l.k AND l.tag = 't{}'", k % 7),
        format!("SELECT t.k, t.v, l.tag FROM Tab t, Lnk l WHERE t.k = l.k AND t.grp = {g}"),
    ]
}

/// The key-only family: a key's index is the planner's index. Tables with
/// a PRIMARY KEY and multi-column UNIQUE constraints and no `CREATE INDEX`
/// run the seeded streams; keys reject rows, so a statement may fail. A
/// failure here means a key lookup is scanning again, or a key probe
/// returns other rows than the nested-loop reference.
#[test]
fn key_indexes_are_the_planners_indexes() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for case in 0..40u64 {
            let mut rng = Prng::seed_from_u64(0x4B45_5900 + case);
            let mut keyed = Database::new(mode);
            keyed.execute_script(KEYED_SCHEMA).unwrap();
            keyed.commit().unwrap();

            let mut model = Model::default();
            let total = rng.gen_range(20usize..60);
            for n in 0..=total {
                let ctx = format!("mode {mode:?} case {case} step {n}");
                // The last step is the final sweep and undo replay.
                let step = if n < total { gen_step(&mut rng, &mut model, n) } else { Step::Rollback };
                match step {
                    Step::All(sql) => {
                        let _ = keyed.execute(&sql);
                    }
                    // Key-only: the family declares no index.
                    Step::IndexDdl(_) => {}
                    Step::Commit => keyed.commit().unwrap(),
                    Step::Rollback => {
                        if n == total {
                            for sql in keyed_queries(&mut rng, n) {
                                assert_matches_reference(&mut [&mut keyed], &sql, &ctx);
                            }
                        }
                        keyed.execute("ROLLBACK").unwrap();
                        keyed.storage().check_indexes().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    }
                    Step::Compare => {
                        for sql in keyed_queries(&mut rng, n) {
                            assert_matches_reference(&mut [&mut keyed], &sql, &ctx);
                        }
                    }
                }
            }
            let ctx = format!("mode {mode:?} case {case}");
            assert!(keyed.stats().index_scans > 0, "{ctx}: no key was probed");
            keyed.storage().check_oid_directory().unwrap();
        }
    }
}

/// EXPLAIN names each key as the constraint it is, and only an equality on
/// *all* of a key's columns probes it.
#[test]
fn explain_pins_key_probes() {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(KEYED_SCHEMA).unwrap();
    let plan = |db: &mut Database, sql: &str| -> String {
        let rows = db.query(&format!("EXPLAIN {sql}")).unwrap().rows;
        rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect::<Vec<_>>().join("\n")
    };
    let pk = plan(&mut db, "SELECT t.v FROM Tab t WHERE t.k = 7");
    assert!(pk.contains("index probe Tab(k) PRIMARY KEY (key: 7)"), "{pk}");
    let unique = plan(&mut db, "SELECT t.k FROM Tab t WHERE t.v = 'x' AND t.grp = 1");
    assert!(unique.contains("index probe Tab(grp,v) UNIQUE (key: 1, 'x')"), "{unique}");
    let half = plan(&mut db, "SELECT l.tag FROM Lnk l WHERE l.k = 3");
    assert!(!half.contains("index probe"), "{half}");
    // One row per probe: with statistics, the key side of a join is costed
    // at a single row whatever the table holds.
    for k in 0..20 {
        db.execute(&format!("INSERT INTO Tab VALUES ({k}, {}, 'v{k}')", k % 4)).unwrap();
    }
    db.execute("ANALYZE TABLE Tab COMPUTE STATISTICS").unwrap();
    let costed = plan(&mut db, "SELECT t.v FROM Tab t WHERE t.k = 7");
    assert!(costed.contains("est: ~1 row(s)"), "{costed}");
    // The reserved name stays unspeakable: no statement can drop a key.
    assert!(db.execute("DROP INDEX \"Tab\"").is_err());
    assert!(db.execute("CREATE INDEX IxTabK ON Tab (k)").is_ok());
}

/// The indexed database must actually take the index path: EXPLAIN pins
/// `index probe` for the point query, and the executor's counters agree.
#[test]
fn explain_pins_index_probe_and_counters_move() {
    let mut db = Database::new(DbMode::Oracle8);
    db.execute_script(SCHEMA).unwrap();
    db.execute_script(INDEXES).unwrap();
    for k in 0..20 {
        db.execute(&format!("INSERT INTO Tab VALUES ({k}, {}, 'v{k}')", k % 4)).unwrap();
        db.execute(&format!("INSERT INTO Lnk VALUES ({k}, 't{}')", k % 7)).unwrap();
    }
    db.execute("ANALYZE TABLE Tab COMPUTE STATISTICS").unwrap();
    db.execute("ANALYZE TABLE Lnk COMPUTE STATISTICS").unwrap();

    let plan = db.query("EXPLAIN SELECT t.v FROM Tab t WHERE t.k = 7").unwrap();
    let text: Vec<String> =
        plan.rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect();
    assert!(text.iter().any(|l| l.contains("index probe")), "{text:#?}");

    db.query("SELECT t.v FROM Tab t WHERE t.k = 7").unwrap();
    let report = db.stats_report();
    assert!(report.contains("index_scans"), "{report}");
    let scans: u64 = report
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next() == Some("index_scans")).then(|| parts.next())?
        })
        .find_map(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no index_scans line in:\n{report}"));
    assert!(scans >= 1, "index_scans stayed at zero:\n{report}");
}
