//! Fault-injection property tests for the undo log and recovery policies.
//!
//! A seeded generator produces scripts of valid DDL/DML over a small,
//! flat (Oracle-8-compatible) schema, then a failing statement is injected
//! at position *k*. The properties:
//!
//! * **Statement-level atomicity** — after the failure, the database state
//!   (catalog + heaps + OID directory + OID allocator) is byte-identical
//!   to a clean run of the *k*-statement prefix on a fresh database.
//! * **Atomic policy** — the whole script rolls back, leaving the state
//!   byte-identical to the pre-script state, even when that state itself
//!   came from committed earlier work.
//! * The OID directory invariant (`check_oid_directory`) holds after
//!   every rollback.
//!
//! Both `DbMode`s run every generated script through the static analyzer
//! (`Database::check`) before executing it, so the analyzer's handling of
//! the transaction statements is exercised too.

use xmlord_ordb::{Database, DbMode, RecoveryPolicy};
use xmlord_prng::Prng;

/// Generator state: what the script has created so far, so every generated
/// statement is valid by construction.
#[derive(Default)]
struct Model {
    types: Vec<String>,
    obj_tables: Vec<(String, String)>, // (table, of_type)
    rel_tables: Vec<String>,
    // (name, #types, #obj_tables, #rel_tables at the time of SAVEPOINT) —
    // the schema lists are append-only, so rolling back to a savepoint is
    // a truncation to the recorded lengths.
    savepoints: Vec<(String, usize, usize, usize)>,
}

fn gen_stmt(rng: &mut Prng, m: &mut Model, case: u64, n: usize) -> String {
    loop {
        match rng.gen_range(0u32..12) {
            0 => {
                let name = format!("T_Obj{case}_{n}");
                m.types.push(name.clone());
                return format!("CREATE TYPE {name} AS OBJECT (k NUMBER, v VARCHAR(20))");
            }
            1 if !m.types.is_empty() => {
                let ty = m.types[rng.gen_range(0i64..m.types.len() as i64) as usize].clone();
                let name = format!("Tab{case}_{n}");
                m.obj_tables.push((name.clone(), ty.clone()));
                return format!("CREATE TABLE {name} OF {ty}");
            }
            2 => {
                let name = format!("Rel{case}_{n}");
                m.rel_tables.push(name.clone());
                return format!("CREATE TABLE {name} (k NUMBER NOT NULL, v VARCHAR(5))");
            }
            3..=6 if !m.obj_tables.is_empty() => {
                let (t, ty) =
                    m.obj_tables[rng.gen_range(0i64..m.obj_tables.len() as i64) as usize].clone();
                let k = rng.gen_range(0i64..50);
                return format!("INSERT INTO {t} VALUES ({ty}({k}, 'v{k}'))");
            }
            7 if !m.rel_tables.is_empty() => {
                let t = m.rel_tables[rng.gen_range(0i64..m.rel_tables.len() as i64) as usize]
                    .clone();
                let k = rng.gen_range(0i64..50);
                return format!("INSERT INTO {t} VALUES ({k}, 's{}')", k % 10);
            }
            8 if !m.obj_tables.is_empty() => {
                let (t, _) =
                    m.obj_tables[rng.gen_range(0i64..m.obj_tables.len() as i64) as usize].clone();
                let lo = rng.gen_range(0i64..40);
                return format!("DELETE FROM {t} WHERE k > {lo} AND k < {}", lo + 10);
            }
            9 if !m.obj_tables.is_empty() => {
                let (t, _) =
                    m.obj_tables[rng.gen_range(0i64..m.obj_tables.len() as i64) as usize].clone();
                let k = rng.gen_range(0i64..50);
                return format!("UPDATE {t} SET v = 'upd' WHERE k = {k}");
            }
            10 => {
                let name = format!("sp{n}");
                m.savepoints.push((
                    name.clone(),
                    m.types.len(),
                    m.obj_tables.len(),
                    m.rel_tables.len(),
                ));
                return format!("SAVEPOINT {name}");
            }
            11 if !m.savepoints.is_empty() => {
                let i = rng.gen_range(0i64..m.savepoints.len() as i64) as usize;
                let (sp, n_types, n_obj, n_rel) = m.savepoints[i].clone();
                // Rolling back undoes the schema objects created after the
                // savepoint and discards the savepoints established after
                // the target (the target itself survives) — the model must
                // mirror both, or it would later reference a type/table the
                // engine has correctly rolled away.
                m.types.truncate(n_types);
                m.obj_tables.truncate(n_obj);
                m.rel_tables.truncate(n_rel);
                m.savepoints.truncate(i + 1);
                return format!("ROLLBACK TO {sp}");
            }
            _ => continue,
        }
    }
}

/// A statement guaranteed to fail, covering several distinct error paths.
fn gen_failing_stmt(rng: &mut Prng, m: &Model) -> String {
    match rng.gen_range(0u32..5) {
        0 => "INSERT INTO ZZ_Missing VALUES (1)".into(),
        1 if !m.rel_tables.is_empty() => {
            // NOT NULL violation.
            format!("INSERT INTO {} VALUES (NULL, 'x')", m.rel_tables[0])
        }
        2 if !m.rel_tables.is_empty() => {
            // VARCHAR(5) overflow.
            format!("INSERT INTO {} VALUES (1, 'far too long')", m.rel_tables[0])
        }
        3 => "ROLLBACK TO zz_never_established".into(),
        _ => "DROP TABLE ZZ_Missing".into(),
    }
}

/// Analyze `sql` against `db`'s live catalog and hand it back to execute.
fn checked<'a>(db: &Database, sql: &'a str) -> &'a str {
    db.check(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    sql
}

#[test]
fn failure_at_statement_k_equals_clean_prefix_run() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for case in 0..60u64 {
            let mut rng = Prng::seed_from_u64(0xFA17 + case);
            let mut model = Model::default();
            let total = rng.gen_range(3usize..15);
            let stmts: Vec<String> =
                (0..total).map(|n| gen_stmt(&mut rng, &mut model, case, n)).collect();
            let k = rng.gen_range(0i64..total as i64) as usize + 1;
            let failing = gen_failing_stmt(&mut rng, &model);

            // Faulty run: the k-statement prefix, then the failing statement.
            let mut script: Vec<String> = stmts[..k].to_vec();
            script.push(failing);
            let mut faulty = Database::new(mode);
            let script = script.join(";\n");
            let outcome = faulty
                .execute_script_with(checked(&faulty, &script), RecoveryPolicy::AbortOnError)
                .unwrap();
            assert_eq!(outcome.errors.len(), 1, "mode {mode:?} case {case}: {outcome:?}");
            assert_eq!(
                outcome.errors[0].statement,
                k,
                "mode {mode:?} case {case}: {:?}\nscript:\n{}",
                outcome.errors[0],
                script
            );
            assert_eq!(outcome.executed, k);

            // Clean run of exactly the prefix.
            let mut clean = Database::new(mode);
            let prefix = stmts[..k].join(";\n");
            clean.execute_script(checked(&clean, &prefix)).unwrap();

            assert_eq!(
                faulty.state_dump(),
                clean.state_dump(),
                "mode {mode:?} case {case}: statement-level rollback diverged from the \
                 clean {k}-statement prefix"
            );
            faulty.storage().check_oid_directory().unwrap();
        }
    }
}

#[test]
fn atomic_failure_restores_initial_state_byte_identically() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        for case in 0..60u64 {
            let mut rng = Prng::seed_from_u64(0xA70 + case);
            let mut db = Database::new(mode);

            // Committed base state the rollback must not disturb.
            let mut base_model = Model::default();
            let base: Vec<String> =
                (0..rng.gen_range(0usize..6)).map(|n| gen_stmt(&mut rng, &mut base_model, case + 1000, n)).collect();
            if !base.is_empty() {
                let base = base.join(";\n");
                db.execute_script(checked(&db, &base)).unwrap();
            }
            db.commit().unwrap();
            let initial = db.state_dump();

            // A script that fails at a random point.
            let mut model = Model::default();
            let total = rng.gen_range(2usize..12);
            let mut script: Vec<String> =
                (0..total).map(|n| gen_stmt(&mut rng, &mut model, case, n)).collect();
            let k = rng.gen_range(0i64..total as i64) as usize + 1;
            script.truncate(k);
            script.push(gen_failing_stmt(&mut rng, &model));

            let failing = script.join(";\n");
            let outcome =
                db.execute_script_with(checked(&db, &failing), RecoveryPolicy::Atomic).unwrap();
            assert!(outcome.rolled_back, "mode {mode:?} case {case}");
            assert_eq!(outcome.errors.len(), 1);
            assert_eq!(
                db.state_dump(),
                initial,
                "mode {mode:?} case {case}: atomic rollback left residue"
            );
            db.storage().check_oid_directory().unwrap();

            // The database stays fully usable after the rollback.
            let prefix = script[..k].join(";\n");
            db.execute_script(checked(&db, &prefix)).unwrap();
            db.storage().check_oid_directory().unwrap();
        }
    }
}

/// Deleting a referenced row object makes DEREF surface
/// [`xmlord_ordb::DbError::DanglingRef`] — and rolling the DELETE back
/// makes the same REF live again, pointing at the same row.
#[test]
fn rollback_revives_dangling_refs() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        let mut db = Database::new(mode);
        db.execute_script(
            "CREATE TYPE T_P AS OBJECT (pname VARCHAR(20));
             CREATE TABLE TabP OF T_P;
             CREATE TABLE Holder (who VARCHAR(20), r REF T_P);",
        )
        .unwrap();
        for name in ["alice", "bob", "carol"] {
            db.execute(&format!("INSERT INTO TabP VALUES (T_P('{name}'))")).unwrap();
            db.execute(&format!(
                "INSERT INTO Holder VALUES ('{name}', \
                 (SELECT REF(p) FROM TabP p WHERE p.pname = '{name}'))"
            ))
            .unwrap();
        }
        db.commit().unwrap();

        // Delete the middle row: its REF dangles, survivors re-slot but
        // stay reachable.
        db.execute("DELETE FROM TabP WHERE pname = 'bob'").unwrap();
        let err = db
            .query("SELECT DEREF(h.r) FROM Holder h WHERE h.who = 'bob'")
            .unwrap_err();
        assert!(matches!(err, xmlord_ordb::DbError::DanglingRef), "{mode:?}: {err}");
        for name in ["alice", "carol"] {
            let rows = db
                .query(&format!("SELECT DEREF(h.r) FROM Holder h WHERE h.who = '{name}'"))
                .unwrap();
            assert_eq!(rows.rows.len(), 1, "{mode:?}: survivor '{name}' must stay reachable");
        }
        db.storage().check_oid_directory().unwrap();

        // Roll the DELETE back: the REF is live again.
        db.execute("ROLLBACK").unwrap();
        let rows = db.query("SELECT DEREF(h.r) FROM Holder h WHERE h.who = 'bob'").unwrap();
        assert_eq!(rows.rows.len(), 1, "{mode:?}: rollback revives the REF");
        db.storage().check_oid_directory().unwrap();
    }
}
