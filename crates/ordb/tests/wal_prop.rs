//! Fault-injection property tests for the durability layer (WAL +
//! snapshots + recovery).
//!
//! A seeded generator produces a workload of DDL (types, tables, indexes),
//! DML, ANALYZE, savepoints, rollbacks and batched inserts, partitioned
//! into transactions by COMMIT points. The durable run records a golden
//! `state_dump` at every commit. The properties:
//!
//! * **Crash matrix** — truncating the log at *any* byte (every byte of
//!   the tail record, strided positions across the rest of the file, and
//!   inside the header) and recovering yields a state byte-identical to
//!   the golden dump of the longest wholly-contained commit prefix. The
//!   reported `truncated_bytes` matches the actual cut.
//! * **Double recovery is idempotent** — reopening a recovered store
//!   replays the same entries, truncates nothing, and reproduces the same
//!   bytes.
//! * **Hostile bytes never panic** — flipping any byte of the log or the
//!   snapshot produces either a successful (prefix) recovery or a typed
//!   error, never a panic or a wrong state.
//! * **Snapshot + tail ≡ pure WAL replay** — the same workload recovered
//!   through aggressive auto-snapshots equals a recovery that replays the
//!   log from the beginning.
//! * **Uncommitted work is not durable** — statements after the last
//!   COMMIT vanish on reopen.
//! * **Determinism** — two runs of the same seeded workload produce
//!   byte-identical log files, snapshot files and recovered states.

use std::path::Path;

use xmlord_ordb::sql::{parse_statement, Stmt};
use xmlord_ordb::wal::HEADER_LEN;
use xmlord_ordb::{Database, DbError, DbMode, InsertBatch};
use xmlord_prng::Prng;
use xmlord_testkit::TempDir;

/// One workload step. `Batch` delivers rows through
/// [`Database::execute_batch`] (its own WAL record kind); everything else
/// is SQL text.
enum Action {
    Sql(String),
    Batch(Vec<String>),
    Commit,
}

/// Generator state mirroring what the engine has committed *or* has
/// pending — statements are valid by construction.
#[derive(Default)]
struct Model {
    types: Vec<String>,
    obj_tables: Vec<(String, String)>,
    indexes: Vec<String>,
    savepoints: Vec<(String, usize, usize, usize)>,
}

fn gen_workload(seed: u64) -> Vec<Action> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut m = Model::default();
    let mut acts = Vec::new();
    // Deterministic committed prologue: every workload writes at least one
    // WAL record, so the crash matrix always has a tail record to shred.
    m.types.push("T_Base".into());
    m.obj_tables.push(("TabBase".into(), "T_Base".into()));
    acts.push(Action::Sql("CREATE TYPE T_Base AS OBJECT (k NUMBER, v VARCHAR(20))".into()));
    acts.push(Action::Sql("CREATE TABLE TabBase OF T_Base".into()));
    acts.push(Action::Sql("INSERT INTO TabBase VALUES (T_Base(0, 'seed'))".into()));
    acts.push(Action::Commit);
    let total = rng.gen_range(18usize..30);
    for n in 0..total {
        match rng.gen_range(0u32..14) {
            0 => {
                let name = format!("T_O{n}");
                m.types.push(name.clone());
                acts.push(Action::Sql(format!(
                    "CREATE TYPE {name} AS OBJECT (k NUMBER, v VARCHAR(20))"
                )));
            }
            1 if !m.types.is_empty() => {
                let ty = rng.choose(&m.types).clone();
                let name = format!("Tab{n}");
                m.obj_tables.push((name.clone(), ty.clone()));
                acts.push(Action::Sql(format!("CREATE TABLE {name} OF {ty}")));
            }
            2..=5 if !m.obj_tables.is_empty() => {
                let (t, ty) = rng.choose(&m.obj_tables).clone();
                let k = rng.gen_range(0i64..50);
                acts.push(Action::Sql(format!("INSERT INTO {t} VALUES ({ty}({k}, 'v{k}'))")));
            }
            6 if !m.obj_tables.is_empty() => {
                let (t, _) = rng.choose(&m.obj_tables).clone();
                let lo = rng.gen_range(0i64..40);
                acts.push(Action::Sql(format!(
                    "DELETE FROM {t} WHERE k > {lo} AND k < {}",
                    lo + 8
                )));
            }
            7 if !m.obj_tables.is_empty() => {
                let (t, _) = rng.choose(&m.obj_tables).clone();
                let k = rng.gen_range(0i64..50);
                acts.push(Action::Sql(format!("UPDATE {t} SET v = 'upd' WHERE k = {k}")));
            }
            8 if !m.obj_tables.is_empty() => {
                // Index DDL rides the WAL too; recovery must rebuild the
                // in-memory buckets from the catalog definition.
                let (t, _) = rng.choose(&m.obj_tables).clone();
                let name = format!("Ix{n}");
                m.indexes.push(name.clone());
                acts.push(Action::Sql(format!("CREATE INDEX {name} ON {t} (k)")));
            }
            9 if !m.obj_tables.is_empty() => {
                let (t, _) = rng.choose(&m.obj_tables).clone();
                acts.push(Action::Sql(format!("ANALYZE TABLE {t} COMPUTE STATISTICS")));
            }
            10 if !m.obj_tables.is_empty() => {
                // A batched insert run against one table.
                let (t, ty) = rng.choose(&m.obj_tables).clone();
                let rows = (0..rng.gen_range(2usize..6))
                    .map(|i| {
                        let k = 100 + rng.gen_range(0i64..50) + i as i64;
                        format!("INSERT INTO {t} VALUES ({ty}({k}, 'b{k}'))")
                    })
                    .collect();
                acts.push(Action::Batch(rows));
            }
            11 => {
                let name = format!("sp{n}");
                m.savepoints.push((
                    name.clone(),
                    m.types.len(),
                    m.obj_tables.len(),
                    m.indexes.len(),
                ));
                acts.push(Action::Sql(format!("SAVEPOINT {name}")));
            }
            12 if !m.savepoints.is_empty() => {
                let i = rng.gen_range(0i64..m.savepoints.len() as i64) as usize;
                let (sp, n_ty, n_obj, n_ix) = m.savepoints[i].clone();
                m.types.truncate(n_ty);
                m.obj_tables.truncate(n_obj);
                m.indexes.truncate(n_ix);
                m.savepoints.truncate(i + 1);
                acts.push(Action::Sql(format!("ROLLBACK TO {sp}")));
            }
            13 => {
                m.savepoints.clear();
                acts.push(Action::Commit);
            }
            _ => {}
        }
    }
    acts.push(Action::Commit);
    acts
}

fn to_batch(stmts: &[String]) -> InsertBatch {
    let mut rows = Vec::new();
    let mut tc = None;
    for sql in stmts {
        let Stmt::Insert { table, columns, values } = parse_statement(sql).unwrap() else {
            panic!("batch generator emits INSERTs only");
        };
        tc.get_or_insert((table, columns));
        rows.push(values);
    }
    let (table, columns) = tc.unwrap();
    InsertBatch { table, columns, rows }
}

/// Apply one action. A `ROLLBACK TO` for a savepoint discarded by an
/// earlier COMMIT fails as a statement — that's part of the workload (the
/// failure must roll back only itself, durably too).
fn apply(db: &mut Database, act: &Action) {
    match act {
        Action::Sql(sql) => {
            let _ = db.execute(sql);
        }
        Action::Batch(stmts) => {
            let _ = db.execute_batch(&to_batch(stmts));
        }
        Action::Commit => db.commit().unwrap(),
    }
}

/// Run the workload on a durable store; return the golden dump after each
/// commit (index 0 = the empty pre-workload state).
fn run_durable(dir: &Path, acts: &[Action]) -> Vec<String> {
    let mut db = Database::open(dir, DbMode::Oracle9).unwrap();
    let mut goldens = vec![db.state_dump()];
    for act in acts {
        apply(&mut db, act);
        if matches!(act, Action::Commit) {
            goldens.push(db.state_dump());
        }
    }
    goldens
}

/// Walk the log's framing: return the byte offset just past each complete
/// record — computed independently of `scan_wal`, from the length prefixes
/// alone, so the test does not trust the code under test for geometry.
fn frame_ends(wal: &[u8]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut p = HEADER_LEN as usize;
    while p + 8 <= wal.len() {
        let len = u32::from_le_bytes(wal[p..p + 4].try_into().unwrap()) as usize;
        let end = p + 8 + len;
        if end > wal.len() {
            break;
        }
        ends.push(end as u64);
        p = end;
    }
    ends
}

/// Write a truncated/mutated copy of a log into a fresh store directory.
fn plant_wal(bytes: &[u8], tag: &str) -> TempDir {
    let dir = TempDir::new(&format!("walprop-{tag}"));
    std::fs::write(dir.join("wal.log"), bytes).unwrap();
    dir
}

#[test]
fn truncation_at_any_byte_recovers_longest_commit_prefix() {
    for seed in [0xC4A5u64, 0x2002, 0xD00D] {
        let acts = gen_workload(seed);
        let dir = TempDir::new("walprop-matrix");
        let goldens = run_durable(&dir, &acts);
        let wal = std::fs::read(dir.join("wal.log")).unwrap();
        let ends = frame_ends(&wal);
        assert!(!ends.is_empty(), "seed {seed:#x}: workload committed nothing");
        // Empty commits (all work rolled back / no-op) write no record:
        // there can be fewer frames than COMMITs. Map frame count → the
        // golden of the *last* commit the prefix fully covers. Recovery of
        // i complete frames replays exactly the first i records, which is
        // the state after the i-th record-writing commit; with trailing
        // empty commits the dump is unchanged, so goldens[..] collapse to
        // the same bytes — index by scanning which golden the clean replay
        // of i frames reproduces. Simplest exact oracle: rerun recovery on
        // untruncated prefixes cut exactly at frame ends.
        let oracle: Vec<String> = std::iter::once(goldens[0].clone())
            .chain(ends.iter().map(|&e| {
                let d = plant_wal(&wal[..e as usize], "oracle");
                let db = Database::open(&d, DbMode::Oracle9).unwrap();
                db.state_dump()
            }))
            .collect();
        assert_eq!(
            oracle.last().unwrap(),
            goldens.last().unwrap(),
            "seed {seed:#x}: full replay diverges from the live run"
        );

        // Truncation points: every byte of the tail record, every header
        // byte, and strided positions over the rest of the file.
        let tail_start = if ends.len() >= 2 { ends[ends.len() - 2] } else { HEADER_LEN };
        let mut points: Vec<u64> = (tail_start..=wal.len() as u64).collect();
        points.extend(0..=HEADER_LEN.min(wal.len() as u64));
        points.extend((HEADER_LEN..tail_start).step_by(7));
        for cut in points {
            let d = plant_wal(&wal[..cut as usize], "cut");
            let db = Database::open(&d, DbMode::Oracle9).unwrap();
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(
                db.state_dump(),
                oracle[complete],
                "seed {seed:#x} cut {cut}: recovered state is not the {complete}-record prefix"
            );
            db.storage().check_oid_directory().unwrap();
            let report = *db.recovery_report().unwrap();
            if cut >= HEADER_LEN {
                let prefix_end = if complete == 0 { HEADER_LEN } else { ends[complete - 1] };
                assert_eq!(
                    report.truncated_bytes,
                    cut - prefix_end,
                    "seed {seed:#x} cut {cut}: wrong torn-tail accounting"
                );
            }
            drop(db);

            // Double recovery: the first open truncated the torn tail, so
            // the second sees a clean log and changes nothing.
            let db2 = Database::open(&d, DbMode::Oracle9).unwrap();
            let report2 = *db2.recovery_report().unwrap();
            assert_eq!(report2.truncated_bytes, 0, "seed {seed:#x} cut {cut}");
            assert_eq!(report2.entries_replayed, report.entries_replayed);
            assert_eq!(
                db2.state_dump(),
                oracle[complete],
                "seed {seed:#x} cut {cut}: second recovery diverged"
            );
        }
    }
}

#[test]
fn hostile_bytes_never_panic() {
    let acts = gen_workload(0xBAD5EED);
    let dir = TempDir::new("walprop-hostile");
    let goldens = run_durable(&dir, &acts);
    // Snapshot too, so both files face the fuzz.
    {
        let mut db = Database::open(&dir, DbMode::Oracle9).unwrap();
        db.snapshot().unwrap();
        assert_eq!(db.state_dump(), *goldens.last().unwrap());
    }
    let wal = std::fs::read(dir.join("wal.log")).unwrap();
    let snap = std::fs::read(dir.join("snapshot.db")).unwrap();
    drop(dir);

    let mut rng = Prng::seed_from_u64(0xF1A6);
    for (name, clean) in [("wal.log", &wal), ("snapshot.db", &snap)] {
        for i in (0..clean.len()).step_by(3) {
            let mut bytes = clean.clone();
            bytes[i] ^= 1u8 << (rng.gen_range(0i64..8) as u32);
            let d = TempDir::new("walprop-flip");
            std::fs::write(d.join(name), &bytes).unwrap();
            // Recovery must classify the damage: Ok (a prefix survives or
            // the damaged snapshot/WAL is rejected wholesale via its CRC)
            // or a typed error — never a panic, never garbage state.
            match Database::open(&d, DbMode::Oracle9) {
                Ok(db) => {
                    db.storage().check_oid_directory().unwrap();
                }
                Err(DbError::CorruptDurableState(_)) | Err(DbError::Io(_)) => {}
                Err(e) => panic!("{name} flip at {i}: unexpected error kind {e:?}"),
            }
        }
    }
}

#[test]
fn snapshot_plus_tail_equals_pure_wal_replay() {
    for seed in [7u64, 0xABCD] {
        let acts = gen_workload(seed);

        // Pure WAL: default cadence never triggers in a short workload.
        let wal_dir = TempDir::new("walprop-pure");
        let wal_goldens = run_durable(&wal_dir, &acts);

        // Aggressive snapshots: every two commits, plus a final manual one.
        let snap_dir = TempDir::new("walprop-snappy");
        let mut db = Database::open(&snap_dir, DbMode::Oracle9).unwrap();
        db.set_snapshot_every(2);
        for act in &acts {
            apply(&mut db, act);
        }
        db.snapshot().unwrap();
        let live = db.state_dump();
        drop(db);

        let recovered_snap = Database::open(&snap_dir, DbMode::Oracle9).unwrap();
        let recovered_wal = Database::open(&wal_dir, DbMode::Oracle9).unwrap();
        assert_eq!(live, *wal_goldens.last().unwrap(), "seed {seed:#x}: cadence changed state");
        assert_eq!(
            recovered_snap.state_dump(),
            live,
            "seed {seed:#x}: snapshot+tail recovery diverged"
        );
        assert_eq!(
            recovered_wal.state_dump(),
            live,
            "seed {seed:#x}: pure-WAL recovery diverged"
        );
        assert!(
            recovered_snap.recovery_report().unwrap().snapshot_loaded,
            "seed {seed:#x}: snapshot was not actually used"
        );
    }
}

#[test]
fn uncommitted_work_is_not_durable() {
    let dir = TempDir::new("walprop-uncommitted");
    let mut db = Database::open(&dir, DbMode::Oracle9).unwrap();
    db.execute("CREATE TYPE T_U AS OBJECT (k NUMBER, v VARCHAR(10))").unwrap();
    db.execute("CREATE TABLE TabU OF T_U").unwrap();
    db.execute("INSERT INTO TabU VALUES (T_U(1, 'kept'))").unwrap();
    db.commit().unwrap();
    let committed = db.state_dump();
    // Work past the commit — including DDL — must vanish on reopen.
    db.execute("INSERT INTO TabU VALUES (T_U(2, 'lost'))").unwrap();
    db.execute("CREATE TABLE TabU2 OF T_U").unwrap();
    drop(db);

    let mut db = Database::open(&dir, DbMode::Oracle9).unwrap();
    assert_eq!(db.state_dump(), committed, "uncommitted work leaked to disk");
    // And the recovered store accepts new work under the recovered schema.
    db.execute("INSERT INTO TabU VALUES (T_U(3, 'new'))").unwrap();
    db.commit().unwrap();
    assert_eq!(db.query("SELECT u.k FROM TabU u").unwrap().rows.len(), 2);
}

#[test]
fn explicit_rollback_discards_the_pending_wal_entry() {
    let dir = TempDir::new("walprop-rollback");
    let mut db = Database::open(&dir, DbMode::Oracle9).unwrap();
    db.execute("CREATE TYPE T_R AS OBJECT (k NUMBER)").unwrap();
    db.execute("CREATE TABLE TabR OF T_R").unwrap();
    db.commit().unwrap();
    db.execute("INSERT INTO TabR VALUES (T_R(1))").unwrap();
    db.execute("ROLLBACK").unwrap();
    db.execute("INSERT INTO TabR VALUES (T_R(2))").unwrap();
    db.commit().unwrap();
    let live = db.state_dump();
    drop(db);

    let mut db = Database::open(&dir, DbMode::Oracle9).unwrap();
    assert_eq!(db.state_dump(), live);
    let rows = db.query("SELECT r.k FROM TabR r").unwrap();
    assert_eq!(rows.rows.len(), 1, "rolled-back insert replayed from the WAL");
}

#[test]
fn recovered_indexes_serve_queries_identically() {
    let dir = TempDir::new("walprop-index");
    let mut db = Database::open(&dir, DbMode::Oracle9).unwrap();
    db.execute("CREATE TABLE Tab (k NUMBER, grp VARCHAR(5))").unwrap();
    for k in 0..200 {
        db.execute(&format!("INSERT INTO Tab VALUES ({k}, 'g{}')", k % 7)).unwrap();
    }
    db.execute("CREATE INDEX IxK ON Tab (k)").unwrap();
    db.execute("ANALYZE TABLE Tab COMPUTE STATISTICS").unwrap();
    db.commit().unwrap();
    let live = db.state_dump();
    drop(db);

    let mut db = Database::open(&dir, DbMode::Oracle9).unwrap();
    assert_eq!(db.state_dump(), live, "index DDL did not recover");
    let rows = db.query("SELECT t.grp FROM Tab t WHERE t.k = 137").unwrap();
    assert_eq!(rows.rows.len(), 1);
    // The rebuilt secondary index actually serves the probe.
    assert!(db.stats().index_scans > 0, "recovered index unused by the planner");
}

#[test]
fn same_seed_produces_byte_identical_stores() {
    let acts = gen_workload(0x5EED);
    let (d1, d2) = (TempDir::new("walprop-det1"), TempDir::new("walprop-det2"));
    let g1 = run_durable(&d1, &acts);
    let g2 = run_durable(&d2, &acts);
    assert_eq!(g1, g2, "state dumps diverged between identical runs");
    assert_eq!(
        std::fs::read(d1.join("wal.log")).unwrap(),
        std::fs::read(d2.join("wal.log")).unwrap(),
        "WAL files are not byte-deterministic"
    );
    for d in [&d1, &d2] {
        let mut db = Database::open(d, DbMode::Oracle9).unwrap();
        db.snapshot().unwrap();
    }
    assert_eq!(
        std::fs::read(d1.join("snapshot.db")).unwrap(),
        std::fs::read(d2.join("snapshot.db")).unwrap(),
        "snapshot encoding is not canonical"
    );
}

#[test]
fn mode_mismatch_is_a_typed_error() {
    let dir = TempDir::new("walprop-mode");
    {
        let mut db = Database::open(&dir, DbMode::Oracle9).unwrap();
        db.execute("CREATE TYPE T_M AS OBJECT (k NUMBER)").unwrap();
        db.commit().unwrap();
    }
    let err = Database::open(&dir, DbMode::Oracle8).unwrap_err();
    assert!(
        matches!(err, DbError::CorruptDurableState(_)),
        "opening with the wrong mode must be rejected, got {err:?}"
    );
}
