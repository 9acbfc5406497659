//! A key REF means its subquery. [`KeyRef`] is defined as
//! `SELECT REF(x) FROM table x WHERE x.path = key`; the engine answers the
//! one-column-key case with one index probe and everything else by running
//! that subquery. This file runs every step twice — on one database with
//! the key REFs as built, on another with each replaced by
//! `Expr::Subquery(k.subquery())` — and requires the same outcome (rows or
//! the same error), the same `state_dump`, and the same `index_scans` and
//! `rows_scanned` after every step.
//!
//! A scripted prefix covers each case by name: a primary key, a non-key
//! column (two matching rows make both sides fail alike), a two-part object
//! path, a missing key, a target inserted by the same batch (the batch sees
//! the pre-batch state), a numeric string against a NUMBER key, a number
//! matching two strings of a unique VARCHAR key, a declared unique index
//! before and after it is dropped, and the state after `ROLLBACK TO`. A
//! seeded random tail mixes all of them, in both engine modes.

use xmlord_ordb::sql::ast::{Expr, KeyRef};
use xmlord_ordb::sql::{parse_statement, Stmt};
use xmlord_ordb::{Database, DbMode, ExecStats, Ident, InsertBatch, Value};
use xmlord_prng::Prng;

const SCHEMA: &str = "CREATE TYPE Type_L AS OBJECT (lid VARCHAR(20), lname VARCHAR(20));
CREATE TYPE Type_P;
CREATE TYPE Type_P AS OBJECT (ID VARCHAR(20), Tag VARCHAR(20), Code VARCHAR(20),
  attrList Type_L, parent REF Type_P);
CREATE TABLE TabP OF Type_P (ID PRIMARY KEY);
CREATE TYPE Type_Q AS OBJECT (K NUMBER, V VARCHAR(20));
CREATE TABLE TabQ OF Type_Q (K PRIMARY KEY);
CREATE TYPE Type_S AS OBJECT (S VARCHAR(20));
CREATE TABLE TabS OF Type_S (UNIQUE (S));
CREATE TYPE Type_C AS OBJECT (name VARCHAR(20), rp REF Type_P, rq REF Type_Q, rs REF Type_S);
CREATE TABLE TabC OF Type_C;";

fn id(name: &str) -> Ident {
    Ident::new(name).unwrap()
}

fn key_ref(table: &str, path: &[&str], key: Value) -> Expr {
    Expr::KeyRef(Box::new(KeyRef {
        table: id(table),
        path: path.iter().map(|p| id(p)).collect(),
        key,
    }))
}

fn s(text: &str) -> Value {
    Value::str(text)
}

/// `expr` with every key REF replaced by the subquery it means.
fn as_subqueries(expr: &Expr) -> Expr {
    match expr {
        Expr::KeyRef(k) => Expr::Subquery(Box::new(k.subquery())),
        Expr::Call { name, args } => {
            Expr::Call { name: name.clone(), args: args.iter().map(as_subqueries).collect() }
        }
        other => other.clone(),
    }
}

enum Step {
    Sql(String),
    Batch(InsertBatch),
    Update { table: &'static str, column: &'static str, value: Expr, name: String },
}

impl Step {
    fn sql(text: impl Into<String>) -> Step {
        Step::Sql(text.into())
    }

    fn batch(table: &str, rows: Vec<Expr>) -> Step {
        Step::Batch(InsertBatch {
            table: id(table),
            columns: None,
            rows: rows.into_iter().map(|row| vec![row]).collect(),
        })
    }
}

fn c_row(name: &str, rp: Expr, rq: Expr, rs: Expr) -> Expr {
    Expr::Call { name: id("Type_C"), args: vec![Expr::Literal(s(name)), rp, rq, rs] }
}

fn p_row(key: &str, tag: &str, code: &str, parent: Expr) -> Expr {
    let list = Expr::Call {
        name: id("Type_L"),
        args: vec![Expr::Literal(s(&format!("l-{key}"))), Expr::Literal(s("x"))],
    };
    Expr::Call {
        name: id("Type_P"),
        args: vec![
            Expr::Literal(s(key)),
            Expr::Literal(s(tag)),
            Expr::Literal(s(code)),
            list,
            parent,
        ],
    }
}

fn null() -> Expr {
    Expr::Literal(Value::Null)
}

/// The same database twice: `keyed` runs the key REFs, `planned` their
/// subqueries.
struct Twins {
    mode: DbMode,
    keyed: Database,
    planned: Database,
    steps: usize,
    /// Key REF evaluations that skipped planning, summed over the steps
    /// (the planned side costs one plan each, the keyed side none).
    probes: u64,
    failures: usize,
}

impl Twins {
    fn new(mode: DbMode) -> Twins {
        let fresh = || {
            let mut db = Database::new(mode);
            db.execute_script(SCHEMA).unwrap();
            db.commit().unwrap();
            db
        };
        Twins { mode, keyed: fresh(), planned: fresh(), steps: 0, probes: 0, failures: 0 }
    }

    /// Run `step` on both databases, check they agree, and return the
    /// keyed side's outcome.
    fn run(&mut self, step: &Step) -> Result<(), String> {
        self.steps += 1;
        let before = (self.keyed.stats(), self.planned.stats());
        let keyed = apply(&mut self.keyed, step, false);
        let planned = apply(&mut self.planned, step, true);
        let context = format!("{:?} step {}", self.mode, self.steps);
        assert_eq!(keyed, planned, "{context}: outcomes differ");
        let counts = |after: ExecStats, before: &ExecStats| {
            let d = after.since(before);
            (d.index_scans, d.rows_scanned)
        };
        assert_eq!(
            counts(self.keyed.stats(), &before.0),
            counts(self.planned.stats(), &before.1),
            "{context}: (index_scans, rows_scanned) differ"
        );
        self.probes += self.planned.stats().since(&before.1).planner_plans_costed
            - self.keyed.stats().since(&before.0).planner_plans_costed;
        assert_eq!(self.keyed.state_dump(), self.planned.state_dump(), "{context}: state differs");
        self.failures += keyed.is_err() as usize;
        keyed
    }

    fn ok(&mut self, step: Step) {
        self.run(&step).unwrap_or_else(|e| panic!("{:?}: {e}", self.mode));
    }

    fn scalar(&mut self, sql: &str) -> Value {
        let value = self.keyed.query_scalar(sql).unwrap();
        assert_eq!(value, self.planned.query_scalar(sql).unwrap(), "{sql}");
        value
    }
}

fn apply(db: &mut Database, step: &Step, planned: bool) -> Result<(), String> {
    let expr = |e: &Expr| if planned { as_subqueries(e) } else { e.clone() };
    let result = match step {
        Step::Sql(text) => db.execute(text).map(|_| ()),
        Step::Batch(batch) => {
            let batch = InsertBatch {
                table: batch.table.clone(),
                columns: batch.columns.clone(),
                rows: batch.rows.iter().map(|row| row.iter().map(expr).collect()).collect(),
            };
            db.execute_batch(&batch).map(|_| ())
        }
        Step::Update { table, column, value, name } => {
            let text = format!("UPDATE {table} SET {column} = NULL WHERE name = '{name}'");
            let Stmt::Update { table, where_clause, .. } = parse_statement(&text).unwrap() else {
                unreachable!("an UPDATE parses as one")
            };
            let sets = vec![(vec![id(column)], expr(value))];
            let stmt = Stmt::Update { table, sets, where_clause };
            db.execute_stmt(&stmt).map(|_| ())
        }
    };
    result.map_err(|e| format!("{e:?}"))
}

/// Rows every run starts from.
fn seed_rows(t: &mut Twins) {
    for n in 1..=6 {
        t.ok(Step::sql(format!(
            "INSERT INTO TabP VALUES (Type_P('p{n}', 't{}', 'c{n}', Type_L('l-p{n}', 'x'), NULL))",
            n % 3
        )));
        t.ok(Step::sql(format!("INSERT INTO TabQ VALUES (Type_Q({n}, 'q{n}'))")));
    }
    for text in ["4", "04", "7", "a"] {
        t.ok(Step::sql(format!("INSERT INTO TabS VALUES (Type_S('{text}'))")));
    }
}

fn scripted(mode: DbMode) -> Twins {
    let mut t = Twins::new(mode);
    seed_rows(&mut t);
    let p = |path: &[&str], key: Value| key_ref("TabP", path, key);

    // A primary key; a NUMBER key asked with a numeric string; a unique
    // VARCHAR key asked with a string that matches one row.
    t.ok(Step::batch(
        "TabC",
        vec![c_row(
            "k1",
            p(&["ID"], s("p2")),
            key_ref("TabQ", &["K"], s("04")),
            key_ref("TabS", &["S"], s("7")),
        )],
    ));
    assert_eq!(t.scalar("SELECT c.rp.ID FROM TabC c WHERE c.name = 'k1'"), s("p2"));
    assert_eq!(t.scalar("SELECT c.rq.V FROM TabC c WHERE c.name = 'k1'"), s("q4"));
    assert_eq!(t.scalar("SELECT c.rs.S FROM TabC c WHERE c.name = 'k1'"), s("7"));

    // A missing key and a NULL key: NULL.
    t.ok(Step::batch(
        "TabC",
        vec![c_row("k2", p(&["ID"], s("p99")), key_ref("TabQ", &["K"], Value::Null), null())],
    ));
    assert_eq!(t.scalar("SELECT c.rp.ID FROM TabC c WHERE c.name = 'k2'"), Value::Null);

    // A two-part object path, and a non-key column with one match.
    t.ok(Step::batch(
        "TabC",
        vec![c_row("k3", p(&["attrList", "lid"], s("l-p5")), null(), null())],
    ));
    assert_eq!(t.scalar("SELECT c.rp.ID FROM TabC c WHERE c.name = 'k3'"), s("p5"));
    t.ok(Step::sql(
        "INSERT INTO TabP VALUES (Type_P('p7', 'lone', 'c7', Type_L('l-p7', 'x'), NULL))",
    ));
    t.ok(Step::batch("TabC", vec![c_row("k4", p(&["Tag"], s("lone")), null(), null())]));
    assert_eq!(t.scalar("SELECT c.rp.ID FROM TabC c WHERE c.name = 'k4'"), s("p7"));

    // Two matching rows fail both sides alike: a non-key column, and a
    // number equal to two strings of a unique key ('4' and '04').
    let err = t.run(&Step::batch("TabC", vec![c_row("bad", p(&["Tag"], s("t1")), null(), null())]));
    assert!(err.unwrap_err().contains("returned 2 rows"));
    let err = t.run(&Step::batch(
        "TabC",
        vec![c_row("bad", null(), null(), key_ref("TabS", &["S"], Value::Num(4.0)))],
    ));
    assert!(err.unwrap_err().contains("returned 2 rows"));

    // A target inserted by the same batch is not yet visible; the next
    // batch sees it.
    t.ok(Step::batch(
        "TabP",
        vec![
            p_row("p8", "t0", "c8", null()),
            p_row("p9", "t0", "c9", p(&["ID"], s("p8"))),
        ],
    ));
    assert_eq!(t.scalar("SELECT p.parent FROM TabP p WHERE p.ID = 'p9'"), Value::Null);
    t.ok(Step::batch("TabP", vec![p_row("p10", "t0", "c10", p(&["ID"], s("p8")))]));
    assert_eq!(t.scalar("SELECT p.parent.ID FROM TabP p WHERE p.ID = 'p10'"), s("p8"));

    // A declared unique index, then dropped: a probe, then a scan.
    t.ok(Step::sql("CREATE UNIQUE INDEX IxCode ON TabP (Code)"));
    t.ok(Step::batch("TabC", vec![c_row("k5", p(&["Code"], s("c3")), null(), null())]));
    t.ok(Step::sql("DROP INDEX IxCode"));
    t.ok(Step::batch("TabC", vec![c_row("k6", p(&["Code"], s("c3")), null(), null())]));
    assert_eq!(t.scalar("SELECT COUNT(*) FROM TabC c WHERE c.rp.ID = 'p3'"), Value::Num(2.0));

    // ROLLBACK TO: the rows, the index and its dropping are undone, and
    // key REFs read the state rolled back to.
    t.ok(Step::sql("CREATE UNIQUE INDEX IxCode ON TabP (Code)"));
    t.ok(Step::sql("SAVEPOINT sp"));
    t.ok(Step::sql("DELETE FROM TabP WHERE ID = 'p1'"));
    t.ok(Step::sql("DROP INDEX IxCode"));
    t.ok(Step::batch("TabC", vec![c_row("k7", p(&["ID"], s("p1")), null(), null())]));
    assert_eq!(t.scalar("SELECT c.rp FROM TabC c WHERE c.name = 'k7'"), Value::Null);
    t.ok(Step::sql("ROLLBACK TO sp"));
    t.ok(Step::batch(
        "TabC",
        vec![
            c_row("k8", p(&["ID"], s("p1")), null(), null()),
            c_row("k9", p(&["Code"], s("c1")), null(), null()),
        ],
    ));
    assert_eq!(t.scalar("SELECT c.rp.ID FROM TabC c WHERE c.name = 'k8'"), s("p1"));
    assert_eq!(t.scalar("SELECT c.rp.ID FROM TabC c WHERE c.name = 'k9'"), s("p1"));

    // An UPDATE's SET value.
    let value = p(&["ID"], s("p6"));
    t.ok(Step::Update { table: "TabC", column: "rp", value, name: "k2".into() });
    assert_eq!(t.scalar("SELECT c.rp.ID FROM TabC c WHERE c.name = 'k2'"), s("p6"));
    t
}

#[test]
fn each_case_agrees_with_its_subquery() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        let t = scripted(mode);
        assert_eq!(t.failures, 2, "{mode:?}");
        assert!(t.probes >= 8, "{mode:?}: only {} key REFs were probes", t.probes);
    }
}

/// A key REF drawn at random: mostly the primary key, sometimes a key
/// that is missing, NULL, a numeric string or on a non-key path.
fn random_p(rng: &mut Prng, next: u64) -> Expr {
    let any = |rng: &mut Prng| format!("p{}", rng.gen_range(1..next + 2));
    match rng.gen_range(0..10) {
        0 => key_ref("TabP", &["Tag"], s(&format!("t{}", rng.gen_range(0..4)))),
        1 => key_ref("TabP", &["attrList", "lid"], s(&format!("l-{}", any(rng)))),
        2 => key_ref("TabP", &["Code"], s(&format!("c{}", rng.gen_range(1..next + 2)))),
        3 => key_ref("TabP", &["ID"], Value::Null),
        _ => key_ref("TabP", &["ID"], s(&any(rng))),
    }
}

/// Keys of the unique VARCHAR column: '07' hashes as 7 does, but as a
/// string it equals no stored row.
const S_KEYS: [&str; 4] = ["7", "a", "07", "b"];

fn random_q(rng: &mut Prng) -> Expr {
    let n = rng.gen_range(0..9);
    let key = match rng.gen_range(0..3) {
        0 => Value::Num(n as f64),
        1 => s(&format!("0{n}")),
        _ => s(&n.to_string()),
    };
    key_ref("TabQ", &["K"], key)
}

fn random_run(mode: DbMode, seed: u64) -> Twins {
    let mut rng = Prng::seed_from_u64(seed);
    let mut t = Twins::new(mode);
    seed_rows(&mut t);
    let mut next = 6u64; // TabP ids handed out so far
    let mut names = 0u64;
    let mut indexed = false;
    let mut savepoint = false;
    for _ in 0..60 {
        let step = match rng.gen_range(0..20) {
            0..=8 => {
                let rows = (0..rng.gen_range(1..4))
                    .map(|_| {
                        names += 1;
                        let rs = match rng.gen_range(0..6) {
                            0 => key_ref("TabS", &["S"], s(rng.choose::<&str>(&S_KEYS))),
                            _ => null(),
                        };
                        let (rp, rq) = (random_p(&mut rng, next), random_q(&mut rng));
                        c_row(&format!("n{names}"), rp, rq, rs)
                    })
                    .collect();
                Step::batch("TabC", rows)
            }
            9..=11 => {
                let rows = (0..rng.gen_range(1..4))
                    .map(|_| {
                        next += 1;
                        let tag = format!("t{}", rng.gen_range(0..4));
                        // Sometimes the parent is a row of this very batch.
                        let parent = if rng.gen_bool(0.3) {
                            key_ref("TabP", &["ID"], s(&format!("p{next}")))
                        } else {
                            random_p(&mut rng, next)
                        };
                        p_row(&format!("p{}", next + 1), &tag, &format!("c{}", next + 1), parent)
                    })
                    .collect();
                Step::batch("TabP", rows)
            }
            12 | 13 => Step::Update {
                table: "TabC",
                column: "rq",
                value: random_q(&mut rng),
                name: format!("n{}", rng.gen_range(1..names + 2)),
            },
            14 if indexed => {
                indexed = false;
                Step::sql("DROP INDEX IxCode")
            }
            14 => {
                indexed = true;
                Step::sql("CREATE UNIQUE INDEX IxCode ON TabP (Code)")
            }
            15 => {
                savepoint = true;
                Step::sql("SAVEPOINT sp")
            }
            16 if savepoint => Step::sql("ROLLBACK TO sp"),
            17 => {
                let victim = rng.gen_range(1..next + 1);
                Step::sql(format!("DELETE FROM TabP WHERE ID = 'p{victim}'"))
            }
            _ => {
                savepoint = false;
                Step::sql("COMMIT")
            }
        };
        // A rolled-back CREATE or DROP INDEX leaves `indexed` unsure: the
        // step may fail on both sides, which is itself compared.
        let _ = t.run(&step);
        if let Step::Sql(text) = &step {
            if text.starts_with("ROLLBACK") {
                indexed = t.keyed.catalog().get_index(&id("IxCode")).is_some();
            }
        }
    }
    t
}

#[test]
fn seeded_runs_agree_with_their_subqueries() {
    let (mut probes, mut failures, mut steps) = (0, 0, 0);
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for seed in [7u64, 2002, 0x4b52] {
            let t = random_run(mode, seed);
            probes += t.probes;
            failures += t.failures;
            steps += t.steps;
        }
    }
    // Both outcomes and the fast path are exercised.
    assert!(probes > 100, "{probes} probes");
    assert!(failures > 0 && failures < steps / 2, "{failures} of {steps} steps failed");
}
