//! A reference model for uniqueness keys.
//!
//! A key — PRIMARY KEY, UNIQUE or `CREATE UNIQUE INDEX` — is enforced
//! through one maintained storage index and one probe shared by single-row
//! INSERT, `execute_batch` and UPDATE. This suite drives seeded
//! interleavings of every path that can move a key (inserts, batches,
//! UPDATEs of key and non-key columns, DELETE, savepoints, mark rollbacks,
//! DROP / re-CREATE) against a table with a one-column PRIMARY KEY and a
//! two-column UNIQUE, and compares every step with a model that is a `Vec`
//! of rows and a linear [`Value::sql_eq`] scan. Key values include NULLs
//! and SQL-equal spellings (`'04'`, `4`, `4.0`): in a VARCHAR column `'04'`
//! and `'4'` share an index bucket but are different keys, in a NUMBER
//! column all three are one key.
//!
//! The same stream then runs on a durable directory and is reopened from
//! the WAL alone and from a snapshot plus the log's tail: the recovered
//! database must hold the model's rows and still reject a duplicate.

use std::time::{Duration, Instant};

use xmlord_ordb::sql::{parse_statement, Stmt};
use xmlord_ordb::{Database, DbError, DbMode, Ident, InsertBatch, Value};
use xmlord_prng::Prng;
use xmlord_testkit::TempDir;

const CREATE_P: &str = "CREATE TABLE P (A VARCHAR(20) PRIMARY KEY, B VARCHAR(20), \
                        C NUMBER, D NUMBER, UNIQUE (B, C))";

type Row = Vec<Value>;

/// The whole model: would `new` be accepted beside the rows in `kept`?
/// A (column 0) is the PRIMARY KEY, (B, C) (columns 1, 2) the UNIQUE pair;
/// NULL equals nothing, so a NULL part never collides.
fn accepts(kept: &[Row], new: &[Row]) -> bool {
    let eq = |a: &Value, b: &Value| a.sql_eq(b) == Some(true);
    let collide = |row: &Row, other: &Row| {
        eq(&row[0], &other[0]) || (eq(&row[1], &other[1]) && eq(&row[2], &other[2]))
    };
    new.iter().enumerate().all(|(i, row)| {
        !row[0].is_null() && !kept.iter().chain(&new[..i]).any(|other| collide(row, other))
    })
}

/// What the engine stores for literal `lit` in a VARCHAR / NUMBER column.
fn stored(lit: &str, varchar: bool) -> Value {
    let value = match lit {
        "NULL" => return Value::Null,
        quoted if quoted.starts_with('\'') => Value::str(quoted.trim_matches('\'')),
        number => Value::Num(number.parse().unwrap()),
    };
    match (varchar, &value) {
        (true, Value::Num(_)) => Value::str(&value.to_string()),
        (true, _) => value,
        (false, _) => Value::Num(value.as_num().unwrap()),
    }
}

const A_LITS: [&str; 10] = ["'04'", "'4'", "4", "4.0", "'x'", "'y'", "7", "'07'", "'7.0'", "NULL"];
const B_LITS: [&str; 5] = ["'04'", "'4'", "4", "'b'", "NULL"];
const C_LITS: [&str; 5] = ["4", "4.0", "'04'", "5", "NULL"];

/// A row as the literals a statement spells: A, B, C and the serial D that
/// WHERE clauses select rows by.
#[derive(Clone, Debug)]
struct Lits(&'static str, &'static str, &'static str, i64);

impl Lits {
    fn insert_sql(&self) -> String {
        format!("INSERT INTO P VALUES ({}, {}, {}, {})", self.0, self.1, self.2, self.3)
    }

    fn row(&self) -> Row {
        vec![stored(self.0, true), stored(self.1, true), stored(self.2, false), Value::Num(self.3 as f64)]
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Lits),
    Batch(Vec<Lits>),
    /// `UPDATE P SET <col> = <lit> WHERE D < below` — col 0..3 are the key
    /// columns A, B, C.
    SetKey { col: usize, lit: &'static str, below: i64 },
    /// `UPDATE P SET C = C || '0' WHERE D < below` (the dialect has no
    /// arithmetic): every selected C becomes ten times itself — 4 lands
    /// where 40 was while 40 moves on to 400 — and NULL becomes 0.
    Bump { below: i64 },
    /// `UPDATE P SET D = D WHERE D < below`: rewrites rows, sets no key
    /// column.
    Touch { below: i64 },
    Delete { below: i64 },
    Savepoint(String),
    RollbackTo(String),
    /// `txn_mark`, the inner ops, `rollback_to_mark`.
    Episode(Vec<Op>),
    Recreate,
    Commit,
}

fn gen_lits(rng: &mut Prng, serial: &mut i64) -> Lits {
    *serial += 1;
    Lits(rng.choose::<&str>(&A_LITS), rng.choose::<&str>(&B_LITS), rng.choose::<&str>(&C_LITS), *serial)
}

fn gen_mutation(rng: &mut Prng, serial: &mut i64) -> Op {
    let below = rng.gen_range(0..*serial + 2);
    match rng.gen_range(0u32..12) {
        0..=3 => Op::Insert(gen_lits(rng, serial)),
        4..=5 => Op::Batch((0..rng.gen_range(1..6)).map(|_| gen_lits(rng, serial)).collect()),
        6 => Op::SetKey { col: 0, lit: rng.choose::<&str>(&A_LITS), below },
        7 => Op::SetKey { col: 1, lit: rng.choose::<&str>(&B_LITS), below },
        8 => Op::SetKey { col: 2, lit: rng.choose::<&str>(&C_LITS), below },
        9 => Op::Bump { below },
        10 => Op::Touch { below },
        _ => Op::Delete { below },
    }
}

fn gen_stream(seed: u64) -> Vec<Op> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut serial = 0i64;
    let mut savepoints: Vec<String> = Vec::new();
    let mut ops = Vec::new();
    for n in 0..rng.gen_range(60usize..90) {
        ops.push(match rng.gen_range(0u32..20) {
            0 => {
                savepoints.push(format!("s{n}"));
                Op::Savepoint(format!("s{n}"))
            }
            1 if !savepoints.is_empty() => {
                let keep = rng.gen_range(0..savepoints.len());
                savepoints.truncate(keep + 1);
                Op::RollbackTo(savepoints[keep].clone())
            }
            2 => Op::Episode(
                (0..rng.gen_range(1..4)).map(|_| gen_mutation(&mut rng, &mut serial)).collect(),
            ),
            3 if rng.gen_bool(0.3) => Op::Recreate,
            4 => {
                savepoints.clear();
                Op::Commit
            }
            _ => gen_mutation(&mut rng, &mut serial),
        });
    }
    ops
}

#[derive(Default)]
struct Model {
    rows: Vec<Row>,
    savepoints: Vec<(String, Vec<Row>)>,
    /// Key verdicts so far, so a stream that never collides is noticed.
    rejected: usize,
}

/// The single-row INSERTs `sqls` (one table, positional) as one batch.
fn batch_of<S: AsRef<str>>(sqls: &[S]) -> InsertBatch {
    let mut batch: Option<InsertBatch> = None;
    for sql in sqls {
        let Stmt::Insert { table, columns, values } = parse_statement(sql.as_ref()).unwrap() else {
            panic!("not an INSERT: {}", sql.as_ref());
        };
        batch.get_or_insert(InsertBatch { table, columns, rows: Vec::new() }).rows.push(values);
    }
    batch.expect("at least one row")
}

/// Does the verdict the engine gave match the model's?
fn check_verdict(op: &Op, accepted: bool, result: Result<(), DbError>) {
    match result {
        Ok(()) => assert!(accepted, "{op:?}: engine accepted what the model rejects"),
        Err(e @ (DbError::UniqueViolation { .. } | DbError::NotNullViolation { .. })) => {
            assert!(!accepted, "{op:?}: engine rejected ({e}) what the model accepts")
        }
        Err(other) => panic!("{op:?}: unexpected error {other}"),
    }
}

/// Apply one op to engine and model alike, comparing accept / reject.
fn apply(db: &mut Database, model: &mut Model, op: &Op) {
    let selected = |row: &Row, below: i64| row[3].as_num().unwrap() < below as f64;
    // An UPDATE: `change` maps a selected row to its new values.
    let mut update = |db: &mut Database, sql: String, below: i64, change: &dyn Fn(&mut Row)| {
        let (hit, kept): (Vec<Row>, Vec<Row>) =
            model.rows.iter().cloned().partition(|row| selected(row, below));
        let new: Vec<Row> = hit
            .into_iter()
            .map(|mut row| {
                change(&mut row);
                row
            })
            .collect();
        let accepted = accepts(&kept, &new);
        check_verdict(op, accepted, db.execute(&sql).map(|_| ()));
        model.rejected += usize::from(!accepted);
        if accepted {
            let mut new = new.into_iter();
            for row in model.rows.iter_mut().filter(|row| selected(row, below)) {
                *row = new.next().unwrap();
            }
        }
    };
    match op {
        Op::Insert(lits) => {
            let accepted = accepts(&model.rows, &[lits.row()]);
            check_verdict(op, accepted, db.execute(&lits.insert_sql()).map(|_| ()));
            model.rejected += usize::from(!accepted);
            if accepted {
                model.rows.push(lits.row());
            }
        }
        Op::Batch(rows) => {
            let new: Vec<Row> = rows.iter().map(Lits::row).collect();
            let accepted = accepts(&model.rows, &new);
            let sqls: Vec<String> = rows.iter().map(Lits::insert_sql).collect();
            check_verdict(op, accepted, db.execute_batch(&batch_of(&sqls)).map(|_| ()));
            model.rejected += usize::from(!accepted);
            if accepted {
                model.rows.extend(new);
            }
        }
        Op::SetKey { col, lit, below } => {
            let name = ["A", "B", "C"][*col];
            let value = stored(lit, *col < 2);
            update(db, format!("UPDATE P SET {name} = {lit} WHERE D < {below}"), *below, &|row| {
                row[*col] = value.clone()
            });
        }
        Op::Bump { below } => {
            update(db, format!("UPDATE P SET C = C || '0' WHERE D < {below}"), *below, &|row| {
                let digits = if row[2].is_null() { String::new() } else { row[2].to_string() };
                row[2] = Value::Num(format!("{digits}0").parse().unwrap());
            });
        }
        Op::Touch { below } => {
            update(db, format!("UPDATE P SET D = D WHERE D < {below}"), *below, &|_| {});
        }
        Op::Delete { below } => {
            db.execute(&format!("DELETE FROM P WHERE D < {below}")).unwrap();
            model.rows.retain(|row| !selected(row, *below));
        }
        Op::Savepoint(name) => {
            db.execute(&format!("SAVEPOINT {name}")).unwrap();
            model.savepoints.push((name.clone(), model.rows.clone()));
        }
        Op::RollbackTo(name) => {
            db.execute(&format!("ROLLBACK TO {name}")).unwrap();
            let at = model.savepoints.iter().position(|(n, _)| n == name).unwrap();
            model.savepoints.truncate(at + 1);
            model.rows = model.savepoints[at].1.clone();
        }
        Op::Episode(inner) => {
            let mark = db.txn_mark();
            let before = model.rows.clone();
            for op in inner {
                apply(db, model, op);
            }
            db.rollback_to_mark(mark);
            model.rows = before;
        }
        Op::Recreate => {
            db.execute("DROP TABLE P").unwrap();
            db.execute(CREATE_P).unwrap();
            model.rows.clear();
        }
        Op::Commit => {
            db.commit().unwrap();
            model.savepoints.clear();
        }
    }
}

/// After every step: heap == model, every index agrees with its heap, and
/// both keys of P have their maintained index.
fn check_state(db: &mut Database, model: &Model, context: &str) {
    let rows = db.query("SELECT t.A, t.B, t.C, t.D FROM P t").unwrap().rows;
    assert_eq!(rows, model.rows, "{context}: heap diverged from the model");
    let storage = db.storage();
    storage.check_indexes().unwrap_or_else(|e| panic!("{context}: {e}"));
    let p = Ident::new("P").unwrap();
    assert!(storage.find_fresh_index(&p, &[0]).is_some(), "{context}: PRIMARY KEY lost its index");
    assert!(storage.find_fresh_index(&p, &[1, 2]).is_some(), "{context}: UNIQUE lost its index");
}

/// Run a stream against `db`; returns the model it must now equal.
fn run_stream(db: &mut Database, ops: &[Op], seed: u64) -> Model {
    let mut model = Model::default();
    for (step, op) in ops.iter().enumerate() {
        apply(db, &mut model, op);
        check_state(db, &model, &format!("seed {seed:#x} step {step} {op:?}"));
    }
    model
}

/// The INSERT that stores exactly `row`.
fn insert_sql(row: &Row) -> String {
    let literals: Vec<String> = row.iter().map(Value::to_sql_literal).collect();
    format!("INSERT INTO P VALUES ({})", literals.join(", "))
}

/// A fresh database holding exactly `rows`, loaded one INSERT at a time.
fn reference_db(mode: DbMode, rows: &[Row]) -> Database {
    let mut db = Database::new(mode);
    db.execute(CREATE_P).unwrap();
    for row in rows {
        db.execute(&insert_sql(row)).unwrap();
    }
    db
}

/// Every row of `rows` is still a duplicate for INSERT and for a batch.
fn assert_duplicates_rejected(db: &mut Database, rows: &[Row]) {
    for row in rows.iter().take(5) {
        let sql = insert_sql(row);
        assert!(matches!(db.execute(&sql), Err(DbError::UniqueViolation { .. })), "{sql}");
        let batch = batch_of(&[&sql]);
        assert!(matches!(db.execute_batch(&batch), Err(DbError::UniqueViolation { .. })), "{sql}");
    }
}

const SEEDS: [u64; 6] = [1, 2, 0xBEEF, 0xC0FFEE, 0x2002_0325, 0xFEED_F00D];

#[test]
fn engine_matches_the_model_step_by_step_in_memory() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for seed in SEEDS {
            let ops = gen_stream(seed);
            let mut db = Database::new(mode);
            db.execute(CREATE_P).unwrap();
            let model = run_stream(&mut db, &ops, seed);
            assert!(model.rejected >= 5, "seed {seed:#x}: only {} collisions", model.rejected);
            assert_eq!(
                db.state_dump(),
                reference_db(mode, &model.rows).state_dump(),
                "seed {seed:#x}: final state is not the model's rows"
            );
            assert_duplicates_rejected(&mut db, &model.rows);
        }
    }
}

#[test]
fn recovered_databases_still_enforce_their_keys() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for seed in SEEDS {
            let ops = gen_stream(seed);
            // A snapshot commits, which discards savepoints — so it is taken
            // where the stream commits anyway (or before the first op).
            let commits: Vec<usize> =
                (0..ops.len()).filter(|&i| matches!(ops[i], Op::Commit)).collect();
            let mid_commit = commits.get(commits.len() / 2).copied();
            // Reopen from the WAL alone, and from a mid-stream snapshot plus
            // the log's tail.
            for with_snapshot in [false, true] {
                let dir = TempDir::new(if with_snapshot { "keyprop-snap" } else { "keyprop-wal" });
                let mut db = Database::open(&dir, mode).unwrap();
                db.set_snapshot_every(0);
                db.execute(CREATE_P).unwrap();
                if with_snapshot && mid_commit.is_none() {
                    db.snapshot().unwrap();
                }
                let mut model = Model::default();
                for (step, op) in ops.iter().enumerate() {
                    apply(&mut db, &mut model, op);
                    if with_snapshot && mid_commit == Some(step) {
                        db.snapshot().unwrap();
                    }
                }
                // One known row, so there is always a duplicate to retry.
                db.execute("INSERT INTO P VALUES ('last', NULL, NULL, 0)").unwrap();
                model.rows.push(vec![Value::str("last"), Value::Null, Value::Null, Value::Num(0.0)]);
                db.commit().unwrap();
                let dump = db.state_dump();
                drop(db);

                let mut reopened = Database::open(&dir, mode).unwrap();
                let report = reopened.recovery_report().unwrap();
                assert_eq!(report.snapshot_loaded, with_snapshot, "seed {seed:#x}");
                assert!(report.entries_replayed > 0, "seed {seed:#x}: nothing replayed");
                assert_eq!(reopened.state_dump(), dump, "seed {seed:#x}: recovery diverged");
                check_state(&mut reopened, &model, &format!("seed {seed:#x} reopened"));
                assert_duplicates_rejected(&mut reopened, &model.rows);
            }
        }
    }
}

#[test]
fn table_ddl_and_its_rollbacks_leave_no_orphaned_key_index() {
    let p = Ident::new("P").unwrap();
    let has_key_indexes = |db: &Database| {
        let storage = db.storage();
        storage.check_indexes().unwrap();
        (storage.find_fresh_index(&p, &[0]).is_some(), storage.find_fresh_index(&p, &[1, 2]).is_some())
    };
    let mut db = Database::new(DbMode::Oracle9);

    // Rolling back CREATE TABLE retires the indexes with the table.
    let mark = db.txn_mark();
    db.execute(CREATE_P).unwrap();
    assert_eq!(has_key_indexes(&db), (true, true));
    db.rollback_to_mark(mark);
    assert_eq!(has_key_indexes(&db), (false, false));

    db.execute(CREATE_P).unwrap();
    db.execute("INSERT INTO P VALUES ('a', 'b', 1, 1)").unwrap();
    db.commit().unwrap();
    let dump = db.state_dump();

    // DROP TABLE retires them; its rollback brings them back, current.
    db.execute("DROP TABLE P").unwrap();
    assert_eq!(has_key_indexes(&db), (false, false));
    db.rollback();
    assert_eq!(has_key_indexes(&db), (true, true));
    assert_eq!(db.state_dump(), dump);
    assert!(matches!(
        db.execute("INSERT INTO P VALUES ('a', NULL, NULL, 2)"),
        Err(DbError::UniqueViolation { .. })
    ));

    // SQL can neither name nor drop a key's index, and a user index over
    // the same column lives and dies beside it.
    assert!(db.execute("DROP INDEX \"P\"#0").is_err());
    assert!(db.execute("CREATE INDEX \"P\"#0 ON P(B)").is_err());
    db.execute("CREATE INDEX IxA ON P(A)").unwrap();
    db.execute("DROP INDEX IxA").unwrap();
    assert_eq!(has_key_indexes(&db), (true, true));
    db.execute("DROP TABLE P").unwrap();
    db.commit().unwrap();
    assert_eq!(has_key_indexes(&db), (false, false));
}

#[test]
fn unique_indexes_are_enforced_like_any_key() {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute("CREATE TABLE T (A NUMBER, B VARCHAR(10))").unwrap();
    db.execute("CREATE UNIQUE INDEX UX ON T(A)").unwrap();
    db.execute("INSERT INTO T VALUES (1, 'first')").unwrap();
    db.commit().unwrap();
    let dump = db.state_dump();

    // INSERT, batch and UPDATE all probe the index; NULLs never collide.
    let err = db.execute("INSERT INTO T VALUES (1, 'second')").unwrap_err();
    assert!(matches!(&err, DbError::UniqueViolation { constraint } if constraint == "UX"), "{err}");
    let batch = batch_of(&["INSERT INTO T VALUES ('01', 'batch')"]);
    assert!(matches!(db.execute_batch(&batch), Err(DbError::UniqueViolation { .. })));
    db.execute("INSERT INTO T VALUES (2, 'other')").unwrap();
    assert!(matches!(
        db.execute("UPDATE T SET A = 1 WHERE A = 2"),
        Err(DbError::UniqueViolation { .. })
    ));
    db.execute("INSERT INTO T VALUES (NULL, 'n1')").unwrap();
    db.execute("INSERT INTO T VALUES (NULL, 'n2')").unwrap();
    db.rollback();
    assert_eq!(db.state_dump(), dump);

    // DROP INDEX lifts the key; re-creating it over colliding rows fails
    // and leaves nothing behind — neither catalog entry nor structure.
    db.execute("DROP INDEX UX").unwrap();
    db.execute("INSERT INTO T VALUES (1, 'second')").unwrap();
    db.commit().unwrap();
    let dump = db.state_dump();
    let err = db.execute("CREATE UNIQUE INDEX UX ON T(A)").unwrap_err();
    assert!(matches!(err, DbError::UniqueViolation { .. }), "{err}");
    assert_eq!(db.state_dump(), dump);
    assert!(db.catalog().get_index(&Ident::new("UX").unwrap()).is_none());
    assert!(db.storage().get_index(&Ident::new("UX").unwrap()).is_none());
    db.execute("INSERT INTO T VALUES (1, 'third')").unwrap();
    db.storage().check_indexes().unwrap();
}

#[test]
fn update_revalidates_the_keys_it_sets() {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute("CREATE TABLE P (A NUMBER PRIMARY KEY, N VARCHAR(10))").unwrap();
    db.execute("INSERT INTO P VALUES (1, 'one')").unwrap();
    db.execute("INSERT INTO P VALUES (2, 'two')").unwrap();
    db.commit().unwrap();
    let dump = db.state_dump();

    assert!(matches!(
        db.execute("UPDATE P SET A = 1 WHERE A = 2"),
        Err(DbError::UniqueViolation { .. })
    ));
    assert!(matches!(db.execute("UPDATE P SET A = NULL"), Err(DbError::NotNullViolation { .. })));
    // Two rows moved onto one new key collide with each other.
    assert!(matches!(db.execute("UPDATE P SET A = 9"), Err(DbError::UniqueViolation { .. })));
    assert_eq!(db.state_dump(), dump, "a rejected UPDATE wrote something");

    // The statement is judged as a whole (the dialect has no `+`; `|| '0'`
    // multiplies by ten): 1→10 lands on a key that 10→100 vacates in the
    // same statement.
    db.execute("UPDATE P SET A = 10 WHERE A = 2").unwrap();
    db.execute("UPDATE P SET A = A || '0'").unwrap();
    let rows = db.query("SELECT p.A FROM P p").unwrap().rows;
    assert_eq!(rows, vec![vec![Value::Num(10.0)], vec![Value::Num(100.0)]]);
    // …and fails as a whole, unchanged, when a row it leaves alone is in
    // the way.
    db.execute("INSERT INTO P VALUES (1000, 'thousand')").unwrap();
    db.commit().unwrap();
    let dump = db.state_dump();
    assert!(matches!(
        db.execute("UPDATE P SET A = A || '0' WHERE A < 1000"),
        Err(DbError::UniqueViolation { .. })
    ));
    assert_eq!(db.state_dump(), dump);
    // An UPDATE that sets no key column is not a key's business.
    db.execute("UPDATE P SET N = 'same'").unwrap();
    db.storage().check_indexes().unwrap();
}

/// Coarse scaling guard: a key costs a probe per INSERT, not a heap scan
/// (the scan made 8 000 keyed inserts 45× the unkeyed time).
#[test]
fn single_row_inserts_into_a_keyed_table_do_not_scan() {
    let load = |ddl: &str| -> Duration {
        (0..3)
            .map(|_| {
                let mut db = Database::new(DbMode::Oracle9);
                db.execute(ddl).unwrap();
                let start = Instant::now();
                for i in 0..8_000 {
                    db.execute(&format!("INSERT INTO T VALUES ({i}, 'row {i}')")).unwrap();
                }
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let unkeyed = load("CREATE TABLE T (ID NUMBER, V VARCHAR(20))");
    let keyed = load("CREATE TABLE T (ID NUMBER PRIMARY KEY, V VARCHAR(20))");
    assert!(
        keyed < unkeyed * 5,
        "8 000 keyed inserts took {keyed:?}, unkeyed {unkeyed:?} — is a key scanning the heap?"
    );
}

/// An object-valued key column has no join hash, so no index bucket can
/// answer for it: the check falls back to comparing against every stored
/// row, and against every earlier row of the same batch.
#[test]
fn keys_without_a_join_hash_fall_back_to_a_scan() {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute("CREATE TYPE T_O AS OBJECT (X NUMBER)").unwrap();
    db.execute("CREATE TABLE K (O T_O PRIMARY KEY, N NUMBER)").unwrap();
    db.execute("INSERT INTO K VALUES (T_O(1), 1)").unwrap();
    db.execute("INSERT INTO K VALUES (T_O(2), 2)").unwrap();
    assert!(matches!(
        db.execute("INSERT INTO K VALUES (T_O(1), 3)"),
        Err(DbError::UniqueViolation { .. })
    ));
    assert!(matches!(
        db.execute("UPDATE K SET O = T_O(1) WHERE N = 2"),
        Err(DbError::UniqueViolation { .. })
    ));
    let batch = |keys: [i32; 2]| batch_of(&keys.map(|k| format!("INSERT INTO K VALUES (T_O({k}), 9)")));
    assert!(matches!(db.execute_batch(&batch([7, 7])), Err(DbError::UniqueViolation { .. })));
    assert!(matches!(db.execute_batch(&batch([8, 2])), Err(DbError::UniqueViolation { .. })));
    assert_eq!(db.execute_batch(&batch([7, 8])).unwrap(), 2);
    assert_eq!(db.row_count("K"), 4);
}
