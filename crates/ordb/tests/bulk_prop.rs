//! Differential property tests for the bulk-ingest engine.
//!
//! One seeded generator produces a random load (two tables, constructor
//! INSERTs, quoted strings, NULLs, scalar subqueries); the load is then
//! delivered two ways:
//!
//! 1. **text** — each statement executed as SQL text,
//! 2. **batched** — consecutive same-table statements grouped into
//!    [`InsertBatch`]es for [`Database::execute_batch`].
//!
//! Both must leave a byte-identical [`Database::state_dump`]: the fast
//! path may only change *how fast* rows land, never *which* rows. A second
//! property injects a constraint violation mid-batch and checks the batch
//! (and the equivalent atomic script) leaves the initial state untouched.

use xmlord_ordb::sql::{parse_statement, Stmt};
use xmlord_ordb::{Database, DbMode, InsertBatch, RecoveryPolicy, ResultMode, Value};
use xmlord_prng::Prng;

const SCHEMA: &str = "CREATE TYPE Type_A AS OBJECT (K VARCHAR(60), N NUMBER);
CREATE TABLE TabA OF Type_A (K PRIMARY KEY);
CREATE TYPE Type_B AS OBJECT (K VARCHAR(60), T VARCHAR(200));
CREATE TABLE TabB OF Type_B;";

fn fresh_db() -> Database {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(SCHEMA).unwrap();
    db.commit().unwrap();
    db
}

fn rand_text(rng: &mut Prng) -> String {
    let pieces = ["plain", "O'Neil", "x\"y", "Ünïcode", "", "semi;colon", "two  spaces"];
    format!("{}-{}", rng.choose(&pieces), rng.gen_range(0..1000))
}

/// A random load: statement texts in execution order. Consecutive
/// same-table runs make the batched delivery group them; repeated
/// subqueries inside a TabB run are each evaluated once per row, against
/// the pre-batch state.
fn generate_load(seed: u64) -> Vec<String> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut stmts = Vec::new();
    let mut a_count = 0u64;
    for _ in 0..rng.gen_range(8..14) {
        let run_len = rng.gen_range(1..9);
        if a_count == 0 || rng.gen_bool(0.5) {
            for _ in 0..run_len {
                a_count += 1;
                let n = if rng.gen_bool(0.2) {
                    "NULL".to_string()
                } else {
                    Value::Num(rng.gen_range(-40_000i64..40_000) as f64 / 4.0).to_sql_literal()
                };
                stmts.push(format!(
                    "INSERT INTO TabA VALUES (Type_A({}, {n}))",
                    Value::str(&format!("a{a_count}-{}", rand_text(&mut rng))).to_sql_literal()
                ));
            }
        } else {
            // One subquery target for the whole run: the same subquery
            // repeated on every row of one batch.
            let target = rng.gen_range(1..a_count + 1);
            for _ in 0..run_len {
                let t = if rng.gen_bool(0.6) {
                    format!("(SELECT x.K FROM TabA x WHERE x.K LIKE 'a{target}-%')")
                } else {
                    Value::str(&rand_text(&mut rng)).to_sql_literal()
                };
                stmts.push(format!(
                    "INSERT INTO TabB VALUES (Type_B({}, {t}))",
                    Value::str(&rand_text(&mut rng)).to_sql_literal()
                ));
            }
        }
    }
    stmts
}

/// Group parsed single-row INSERTs into consecutive same-table batches —
/// the same run discipline the loader's `plan_batches` uses.
fn to_batches(stmts: &[String]) -> Vec<InsertBatch> {
    let mut batches: Vec<InsertBatch> = Vec::new();
    for sql in stmts {
        let Stmt::Insert { table, columns, values } = parse_statement(sql).unwrap() else {
            panic!("generator emits INSERTs only");
        };
        match batches.last_mut() {
            Some(open) if open.table == table && open.columns == columns => {
                open.rows.push(values);
            }
            _ => batches.push(InsertBatch { table, columns, rows: vec![values] }),
        }
    }
    batches
}

#[test]
fn text_and_batched_deliveries_are_byte_identical() {
    for seed in [1u64, 0xBEEF, 0x2002_0325] {
        let load = generate_load(seed);

        let mut text_db = fresh_db();
        for sql in &load {
            text_db.execute(sql).unwrap();
        }

        let mut batch_db = fresh_db();
        let batches = to_batches(&load);
        assert!(batches.len() < load.len(), "seed {seed:#x}: no grouping happened");
        let total: usize =
            batches.iter().map(|b| batch_db.execute_batch(b).unwrap()).sum();
        assert_eq!(total, load.len());
        assert_eq!(batch_db.stats().batched_rows, load.len() as u64);

        let reference = text_db.state_dump();
        assert_eq!(reference, batch_db.state_dump(), "seed {seed:#x}: batched diverged");
    }
}

/// A batch checks its keys through the table's maintained key index, the
/// same one every other write path keeps current. Whatever moved a key
/// since the last batch — single-row INSERT, UPDATE, rollback, DELETE — the
/// next batch must see it, or it would miss (or phantom-detect) collisions.
#[test]
fn interleaved_mutations_are_visible_to_the_next_batch() {
    let batch_of = |sqls: &[&str]| {
        let owned: Vec<String> = sqls.iter().map(|s| s.to_string()).collect();
        to_batches(&owned)
    };
    let mut db = fresh_db();
    db.execute_batch(
        &batch_of(&[
            "INSERT INTO TabA VALUES (Type_A('a', 1))",
            "INSERT INTO TabA VALUES (Type_A('b', 1))",
        ])[0],
    )
    .unwrap();

    // A single-row INSERT's key must be visible to the next batch's
    // uniqueness check.
    db.execute("INSERT INTO TabA VALUES (Type_A('c', 1))").unwrap();
    let err = db
        .execute_batch(&batch_of(&["INSERT INTO TabA VALUES (Type_A('c', 2))"])[0])
        .unwrap_err();
    assert!(err.to_string().contains("unique constraint"), "{err}");

    // An UPDATE moves a key: the old key becomes insertable again and the
    // new key collides.
    db.execute("UPDATE TabA SET K = 'renamed' WHERE K = 'a'").unwrap();
    assert_eq!(
        db.execute_batch(&batch_of(&["INSERT INTO TabA VALUES (Type_A('a', 3))"])[0])
            .unwrap(),
        1
    );
    let err = db
        .execute_batch(&batch_of(&["INSERT INTO TabA VALUES (Type_A('renamed', 4))"])[0])
        .unwrap_err();
    assert!(err.to_string().contains("unique constraint"), "{err}");

    // A rolled-back batch leaves no phantom keys behind: re-inserting the
    // same key afterwards must succeed.
    let mark = db.txn_mark();
    db.execute_batch(&batch_of(&["INSERT INTO TabA VALUES (Type_A('r1', 0))"])[0]).unwrap();
    db.rollback_to_mark(mark);
    assert_eq!(
        db.execute_batch(&batch_of(&["INSERT INTO TabA VALUES (Type_A('r1', 0))"])[0])
            .unwrap(),
        1
    );

    // DELETE frees its key for the next batch.
    db.execute("DELETE FROM TabA WHERE K = 'b'").unwrap();
    assert_eq!(
        db.execute_batch(&batch_of(&["INSERT INTO TabA VALUES (Type_A('b', 5))"])[0])
            .unwrap(),
        1
    );
}

#[test]
fn mid_batch_failure_under_atomic_leaves_initial_state() {
    let mut seed_db = fresh_db();
    seed_db.execute("INSERT INTO TabA VALUES (Type_A('dup', 1))").unwrap();
    seed_db.commit().unwrap();
    let before = seed_db.state_dump();

    // Ten rows; row 6 collides with the committed 'dup' key.
    let sqls: Vec<String> = (0..10)
        .map(|i| {
            let key = if i == 6 { "dup".to_string() } else { format!("k{i}") };
            format!("INSERT INTO TabA VALUES (Type_A('{key}', {i}))")
        })
        .collect();

    // Batched delivery: the batch is all-or-nothing.
    let batches = to_batches(&sqls);
    assert_eq!(batches.len(), 1, "one table, one run");
    let err = seed_db.execute_batch(&batches[0]).unwrap_err();
    assert!(err.to_string().contains("unique constraint"), "{err}");
    assert_eq!(seed_db.state_dump(), before, "failed batch left residue");

    // Text delivery under RecoveryPolicy::Atomic must agree.
    let script = sqls.join(";\n");
    let outcome = seed_db
        .execute_script_opts(&script, RecoveryPolicy::Atomic, ResultMode::Discard)
        .unwrap();
    assert!(!outcome.errors.is_empty(), "the duplicate key must fail");
    assert_eq!(seed_db.state_dump(), before, "failed atomic script left residue");

    // A duplicate *within* the batch (nothing committed yet) is also caught.
    let sqls: Vec<String> = ["x", "y", "x"]
        .iter()
        .map(|k| format!("INSERT INTO TabA VALUES (Type_A('{k}', 0))"))
        .collect();
    let err = seed_db.execute_batch(&to_batches(&sqls)[0]).unwrap_err();
    assert!(err.to_string().contains("unique constraint"), "{err}");
    assert_eq!(seed_db.state_dump(), before, "within-batch duplicate left residue");
}
