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
//!
//! A second PRNG stream adds INSERTs whose values come from built-ins, `||`
//! and constructors nested in constructors — of the wrong arity, past a
//! VARRAY's limit, with wrongly typed elements — some of whose rows hold a
//! scalar subquery among folded values. They aim at tables the catalog
//! holds (creating one while there is none). For an INSERT whose every
//! value folds (a literal, or a call,
//! comparison, `||`, `NOT`, `IS NULL` or `LIKE` over folding operands) the
//! contract is complete as well: the executor rejects it for anything but a
//! CHECK or a key collision ⇒ the analyzer reported an `Error`.

use std::collections::BTreeSet;
use xmlord_ordb::sql::ast::BinOp;
use xmlord_ordb::sql::{parse_statement, Expr, Stmt};
use xmlord_ordb::{
    Analyzer, Catalog, Database, DbError, DbMode, Ident, Severity, SqlType, TableDef, TypeDef,
};
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

/// A value that folds but is no literal: a built-in's result, a
/// concatenation (some too long for VARCHAR(5)), or a literal.
fn computed(rng: &mut Prng) -> String {
    match rng.gen_range(0u32..6) {
        0 => format!("{}({})", rng.choose(&["UPPER", "LOWER", "LENGTH", "TO_NUMBER"]), lit(rng)),
        1 => format!("TO_CHAR({})", rng.choose(&["7", "123456", "'abc'", "NULL"])),
        2 => format!("{} || {}", lit(rng), lit(rng)),
        3 => format!("UPPER({}, {})", lit(rng), lit(rng)),
        _ => lit(rng),
    }
}

/// A scalar subquery: folds never, and may find no row, one or several.
fn subquery(rng: &mut Prng) -> String {
    let item = *rng.choose(&["t.a", "t.x", "COUNT(*)"]);
    format!("(SELECT {item} FROM {} t)", maybe_missing(rng, table))
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

/// An INSERT whose values are computed: built-ins, concatenations and
/// constructors nested in constructors, all folding — or a row that mixes
/// a scalar subquery in. Aimed at a table the catalog holds, mostly with
/// its own row type's constructor, so it gets past the table lookup; with
/// no table yet, the CREATE TABLE of one.
fn gen_folding_insert(rng: &mut Prng, catalog: &Catalog) -> String {
    let tables: Vec<String> = catalog.table_names().map(|t| t.to_string()).collect();
    if tables.is_empty() {
        // Something to aim at: a table of an object type the catalog
        // holds, or else a relational one.
        let types: Vec<String> = catalog
            .type_names()
            .filter(|ty| matches!(catalog.get_type(ty), Some(TypeDef::Object { .. })))
            .map(|ty| ty.to_string())
            .collect();
        return match types.is_empty() {
            true => format!("CREATE TABLE {} (x NUMBER NOT NULL, y VARCHAR(5))", table(rng)),
            false => format!("CREATE TABLE {} OF {}", table(rng), rng.choose(&types)),
        };
    }
    let t = rng.choose(&tables).clone();
    let row_type = catalog
        .get_table(&Ident::new(&t).unwrap())
        .and_then(TableDef::of_type)
        .filter(|_| rng.gen_bool(0.8))
        .map(|ty| ty.to_string());
    let ctor = row_type.unwrap_or_else(|| maybe_missing(rng, obj_type));
    // The type of the constructor's third attribute, when it has one.
    let third = match catalog.get_type(&Ident::new(&ctor).unwrap()) {
        Some(TypeDef::Object { attrs, .. }) => match attrs.get(2) {
            Some((_, SqlType::Varray(c) | SqlType::NestedTable(c))) => Some(c.to_string()),
            _ => None,
        },
        _ => None,
    };
    match rng.gen_range(0u32..4) {
        // Computed values: a built-in's result or a concatenation headed
        // into a typed column, positionally or through a constructor.
        0 => match rng.gen_bool(0.5) {
            true => format!("INSERT INTO {t} VALUES ({}, {})", computed(rng), computed(rng)),
            false => format!("INSERT INTO {t} VALUES ({ctor}({}, {}))", computed(rng), computed(rng)),
        },
        // A collection constructor in a constructor's third argument: of
        // objects (whose constructors may have the wrong arity) or of
        // literals (too many for the VARRAY, or of the wrong type).
        1 | 2 => {
            let coll = third.unwrap_or_else(|| coll_type(rng));
            let n = rng.gen_range(0usize..5);
            let elements: Vec<String> = (0..n)
                .map(|_| match rng.gen_bool(0.5) {
                    true => {
                        let arity = rng.gen_range(1usize..4);
                        format!("{}({})", obj_type(rng), lits(rng, arity))
                    }
                    false => computed(rng),
                })
                .collect();
            format!(
                "INSERT INTO {t} VALUES ({ctor}({}, {}, {coll}({})))",
                lit(rng),
                lit(rng),
                elements.join(", ")
            )
        }
        // A row mixing a scalar subquery, which does not fold, with values
        // that do.
        _ => match rng.gen_range(0u32..3) {
            0 => format!("INSERT INTO {t} VALUES ({}, {})", subquery(rng), computed(rng)),
            1 => format!("INSERT INTO {t} VALUES ({ctor}({}, {}))", subquery(rng), computed(rng)),
            _ => format!("INSERT INTO {t} (x, y) VALUES ({}, {})", computed(rng), subquery(rng)),
        },
    }
}

struct Tally {
    statements: u64,
    accepted: u64,
    rejected: u64,
    analyzer_errors: u64,
    error_codes: BTreeSet<&'static str>,
    /// Rejected INSERTs whose every value folds, CHECK and key collisions
    /// aside: each must carry an analyzer `Error`.
    folded_rejections: u64,
}

/// Does `expr`'s value fold — is it the same whatever the data?
fn folds(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Call { args, .. } => args.iter().all(folds),
        Expr::Binary { op: BinOp::And | BinOp::Or, .. } => false,
        Expr::Binary { lhs, rhs, .. } => folds(lhs) && folds(rhs),
        Expr::Not(inner) | Expr::IsNull { expr: inner, .. } | Expr::Like { expr: inner, .. } => {
            folds(inner)
        }
        _ => false,
    }
}

/// An INSERT whose every VALUES expression folds.
fn folded_insert(sql: &str) -> bool {
    matches!(parse_statement(sql), Ok(Stmt::Insert { values, .. }) if values.iter().all(folds))
}

fn run_mode(mode: DbMode) -> Tally {
    let mut tally = Tally {
        statements: 0,
        accepted: 0,
        rejected: 0,
        analyzer_errors: 0,
        error_codes: BTreeSet::new(),
        folded_rejections: 0,
    };
    for case in 0..60u64 {
        let mut rng = Prng::seed_from_u64(0xA11A + case);
        // The computed INSERTs draw from a stream of their own, so the
        // statements `gen_stmt` makes, DDL included, are those it made
        // before they were added.
        let mut computed_rng = Prng::seed_from_u64(0xF01D + case);
        let mut db = Database::new(mode);
        for _ in 0..12 {
            let mut sqls = vec![gen_stmt(&mut rng)];
            if computed_rng.gen_bool(0.4) {
                sqls.push(gen_folding_insert(&mut computed_rng, &db.catalog()));
            }
            for sql in sqls {
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
                        // An analyzer error must always mean rejection —
                        // which this branch is. A rejection without one is
                        // fine where it depends on data, but not for an
                        // INSERT whose values all fold.
                        let data_dependent = matches!(
                            err,
                            DbError::CheckViolation { .. } | DbError::UniqueViolation { .. }
                        );
                        if folded_insert(&sql) && !data_dependent {
                            tally.folded_rejections += 1;
                            assert!(
                                !errors.is_empty(),
                                "MISSED ({mode:?}): every value folds and the executor \
                                 rejected with {err:?}, but the analyzer reported no \
                                 error on: {sql}"
                            );
                        }
                    }
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
        eprintln!(
            "{mode:?}: {} statements, {} accepted, {} rejected ({} folded INSERTs), \
             {} analyzer errors, codes {:?}",
            tally.statements,
            tally.accepted,
            tally.rejected,
            tally.folded_rejections,
            tally.analyzer_errors,
            tally.error_codes
        );
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
        // The completeness half ran on a spread of rejected folded INSERTs.
        assert!(
            tally.folded_rejections > 50,
            "{mode:?}: only {} folded INSERTs rejected",
            tally.folded_rejections
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
