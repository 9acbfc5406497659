//! Differential property test for the static analyzer's severity contract:
//!
//! * executor accepts a statement ⇒ the analyzer emitted **no**
//!   `Error`-severity diagnostic for it (zero false positives), and
//! * the analyzer emitted an `Error` ⇒ the executor **rejects** the
//!   statement.
//!
//! Statements are generated from a seeded PRNG over a small universe of
//! type/table names, deliberately mixing valid DDL/DML with unknown names,
//! wrong arities, over-long and mistyped literals, NULLs into NOT NULL
//! columns, nested-collection DDL (legal on Oracle 9, illegal on Oracle 8),
//! dangling dot paths and misplaced COUNT(*), one view (over a table that
//! may be missing, naming columns right or wrong) and unqualified column
//! paths, which the analyzer must resolve as the executor does — a view's
//! columns included. Both modes run the same
//! generator; per statement the analyzer gets a fresh shadow catalog cloned
//! from the live database, so it sees exactly what the executor sees.

use std::collections::BTreeSet;
use xmlord_ordb::{Analyzer, Database, DbMode, Severity};
use xmlord_prng::Prng;

fn obj_type(rng: &mut Prng) -> String {
    format!("TO{}", rng.gen_range(0i64..3))
}

fn coll_type(rng: &mut Prng) -> String {
    format!("TV{}", rng.gen_range(0i64..3))
}

fn table(rng: &mut Prng) -> String {
    format!("TB{}", rng.gen_range(0i64..4))
}

/// A type/table name that sometimes does not exist.
fn maybe_missing(rng: &mut Prng, gen: fn(&mut Prng) -> String) -> String {
    let known = gen(rng);
    if rng.gen_bool(0.2) {
        "ZZ_MISSING".into()
    } else {
        known
    }
}

/// Random literal: strings (some too long for VARCHAR(5), some numeric,
/// some not), numbers, NULLs.
fn lit(rng: &mut Prng) -> String {
    match rng.gen_range(0u32..8) {
        0 => "NULL".into(),
        1 | 2 => format!("'s{}'", rng.gen_range(0i64..4)),
        3 => "'way too long for varchar five'".into(),
        4 => format!("{}", rng.gen_range(0i64..100)),
        5 => format!("'{}'", rng.gen_range(0i64..100)), // numeric string
        6 => "'abc'".into(),
        _ => format!("'x{}'", rng.gen_range(0i64..9)),
    }
}

fn lits(rng: &mut Prng, n: usize) -> String {
    (0..n).map(|_| lit(rng)).collect::<Vec<_>>().join(", ")
}

/// One random statement. Object types are always created with the shape
/// `(a VARCHAR(5), b NUMBER)` and relational tables with
/// `(x NUMBER NOT NULL, y VARCHAR(5))`, so later statements can be right or
/// wrong about arity, types and column names in interesting ways.
fn gen_stmt(rng: &mut Prng) -> String {
    match rng.gen_range(0u32..19) {
        0 => {
            let name = obj_type(rng);
            match rng.gen_range(0u32..4) {
                // Plain scalar attributes.
                0 | 1 => format!("CREATE TYPE {name} AS OBJECT (a VARCHAR(5), b NUMBER)"),
                // Attribute of a (maybe missing) collection or REF type.
                2 => {
                    let elem = maybe_missing(rng, coll_type);
                    format!("CREATE TYPE {name} AS OBJECT (a VARCHAR(5), b NUMBER, c {elem})")
                }
                _ => {
                    let target = maybe_missing(rng, obj_type);
                    format!("CREATE TYPE {name} AS OBJECT (a VARCHAR(5), b NUMBER, r REF {target})")
                }
            }
        }
        1 | 2 => {
            let name = coll_type(rng);
            let elem = match rng.gen_range(0u32..5) {
                0 | 1 => "VARCHAR(10)".into(),
                2 => maybe_missing(rng, obj_type),
                // Collection of collection: fine on Oracle 9, DDL error on 8.
                _ => maybe_missing(rng, coll_type),
            };
            if rng.gen_bool(0.7) {
                format!("CREATE TYPE {name} AS VARRAY({}) OF {elem}", rng.gen_range(1i64..4))
            } else {
                format!("CREATE TYPE {name} AS TABLE OF {elem}")
            }
        }
        3 => {
            let of = maybe_missing(rng, obj_type);
            let constraint = match rng.gen_range(0u32..4) {
                0 => " (a NOT NULL)",
                1 => " (a PRIMARY KEY)",
                2 => " (CHECK (b > 0))",
                _ => "",
            };
            format!("CREATE TABLE {} OF {of}{constraint}", table(rng))
        }
        4 => format!(
            "CREATE TABLE {} (x NUMBER NOT NULL, y VARCHAR(5))",
            table(rng)
        ),
        // INSERT with positional values of random arity.
        5 | 6 => {
            let t = maybe_missing(rng, table);
            let n = rng.gen_range(1usize..4);
            format!("INSERT INTO {t} VALUES ({})", lits(rng, n))
        }
        // INSERT through an object constructor of random arity.
        7 | 8 => {
            let t = maybe_missing(rng, table);
            let ctor = maybe_missing(rng, obj_type);
            let n = rng.gen_range(0usize..4);
            format!("INSERT INTO {t} VALUES ({ctor}({}))", lits(rng, n))
        }
        // INSERT with a column list (column names right or wrong).
        9 => {
            let cols = ["a", "b", "x", "y", "zz"];
            let n = rng.gen_range(1usize..3);
            let picked: Vec<&str> =
                (0..n).map(|_| *rng.choose(&cols)).collect();
            let t = maybe_missing(rng, table);
            let vals = rng.gen_range(1usize..4);
            format!(
                "INSERT INTO {t} ({}) VALUES ({})",
                picked.join(", "),
                lits(rng, vals)
            )
        }
        10 | 11 => {
            let t = maybe_missing(rng, table);
            let item = *rng.choose(&["COUNT(*)", "t.a", "t.x", "t.zz", "t.a.b"]);
            let mut sql = format!("SELECT {item} FROM {t} t");
            if rng.gen_bool(0.3) {
                sql.push_str(&format!(", {} u", maybe_missing(rng, table)));
            }
            if rng.gen_bool(0.4) {
                sql.push_str(&format!(" WHERE t.a = {}", lit(rng)));
            }
            sql
        }
        // COUNT(*) combined with another item: rejected after FROM binds.
        12 => format!("SELECT COUNT(*), t.a FROM {} t", maybe_missing(rng, table)),
        13 => format!(
            "DELETE FROM {}{}",
            maybe_missing(rng, table),
            if rng.gen_bool(0.5) { " WHERE x = 1" } else { "" }
        ),
        14 => format!(
            "UPDATE {} SET {} = {}",
            maybe_missing(rng, table),
            *rng.choose(&["a", "x", "zz"]),
            lit(rng)
        ),
        // The one view: its columns right or wrong, its table maybe missing.
        15 => {
            let items = *rng.choose(&["t.a AS a, t.b", "t.x AS a, t.y", "t.a, t.zz", "*"]);
            format!("CREATE VIEW VW AS SELECT {items} FROM {} t", maybe_missing(rng, table))
        }
        // Unqualified columns, over the view or a table: the first FROM
        // item that has the column names it.
        16 | 17 => {
            let from = match rng.gen_bool(0.5) {
                true => "VW v".to_string(),
                false => format!("{} t", maybe_missing(rng, table)),
            };
            let item = *rng.choose(&["a", "b", "x", "y", "zz", "a.b", "v.a", "COUNT(*)"]);
            let mut sql = format!("SELECT {item} FROM {from}");
            if rng.gen_bool(0.3) {
                sql.push_str(&format!(", {} u", maybe_missing(rng, table)));
            }
            if rng.gen_bool(0.4) {
                sql.push_str(&format!(" WHERE {} = {}", rng.choose(&["a", "x", "y", "zz"]), lit(rng)));
            }
            sql
        }
        _ => {
            if rng.gen_bool(0.2) {
                "DROP VIEW VW".into()
            } else if rng.gen_bool(0.5) {
                let force = if rng.gen_bool(0.5) { " FORCE" } else { "" };
                format!("DROP TYPE {}{force}", maybe_missing(rng, obj_type))
            } else {
                format!("DROP TABLE {}", maybe_missing(rng, table))
            }
        }
    }
}

struct Tally {
    statements: u64,
    accepted: u64,
    rejected: u64,
    analyzer_errors: u64,
    error_codes: BTreeSet<&'static str>,
}

fn run_mode(mode: DbMode) -> Tally {
    let mut tally = Tally {
        statements: 0,
        accepted: 0,
        rejected: 0,
        analyzer_errors: 0,
        error_codes: BTreeSet::new(),
    };
    for case in 0..60u64 {
        let mut rng = Prng::seed_from_u64(0xA11A + case);
        let mut db = Database::new(mode);
        for _ in 0..12 {
            let sql = gen_stmt(&mut rng);
            tally.statements += 1;

            // Fresh analyzer per statement, shadow catalog = live catalog.
            let analysis =
                Analyzer::with_catalog(db.catalog().clone(), mode).analyze_script(&sql);
            let outcome = db.execute(&sql);

            let errors: Vec<_> = match &analysis {
                Ok(diags) => {
                    diags.iter().filter(|d| d.severity == Severity::Error).collect()
                }
                Err(_) => {
                    // Parse failure: the executor must fail on the same text.
                    assert!(outcome.is_err(), "parse disagreement on: {sql}");
                    tally.rejected += 1;
                    continue;
                }
            };
            for e in &errors {
                tally.error_codes.insert(e.code);
            }
            tally.analyzer_errors += errors.len() as u64;

            match outcome {
                Ok(_) => {
                    tally.accepted += 1;
                    assert!(
                        errors.is_empty(),
                        "FALSE POSITIVE ({mode:?}): executor accepted but analyzer \
                         errored on: {sql}\n{errors:#?}"
                    );
                }
                Err(err) => {
                    tally.rejected += 1;
                    // One-directional: an executor rejection without an
                    // analyzer error is fine (data-dependent failures), but
                    // an analyzer error must always mean rejection — which
                    // this branch is.
                    let _ = err;
                }
            }
        }
    }
    tally
}

#[test]
fn analyzer_errors_and_executor_rejections_agree() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        let tally = run_mode(mode);
        assert!(tally.statements >= 500, "{mode:?}: only {} statements", tally.statements);
        // The generator must exercise both sides of the contract.
        assert!(tally.accepted > 100, "{mode:?}: only {} accepted", tally.accepted);
        assert!(tally.rejected > 100, "{mode:?}: only {} rejected", tally.rejected);
        assert!(
            tally.analyzer_errors > 100,
            "{mode:?}: only {} analyzer errors",
            tally.analyzer_errors
        );
        // A spread of distinct failure classes, not one dominant code.
        assert!(
            tally.error_codes.len() >= 5,
            "{mode:?}: too few distinct error codes: {:?}",
            tally.error_codes
        );
        // Mode gating: nested-collection DDL errors exist on Oracle 8 only.
        assert_eq!(
            tally.error_codes.contains("nested-collection"),
            mode == DbMode::Oracle8,
            "{mode:?}: {:?}",
            tally.error_codes
        );
    }
}

/// The other half of the §2.2 gate: the exact same nested-collection script
/// is clean under Oracle 9 and an `Error` under Oracle 8.
#[test]
fn nested_collection_script_differs_by_mode_only() {
    let script = "CREATE TYPE TV_In AS VARRAY(3) OF VARCHAR(10);\n\
                  CREATE TYPE TV_Out AS VARRAY(3) OF TV_In;";
    let d8 = Analyzer::new(DbMode::Oracle8).analyze_script(script).unwrap();
    assert!(d8.iter().any(|d| d.severity == Severity::Error && d.code == "nested-collection"));
    let d9 = Analyzer::new(DbMode::Oracle9).analyze_script(script).unwrap();
    assert!(d9.iter().all(|d| d.severity != Severity::Error), "{d9:?}");
}
