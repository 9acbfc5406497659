//! Snapshot-isolated concurrent read sessions (single writer, many
//! readers).
//!
//! A [`ReadSession`] serves SELECT / EXPLAIN from a **private snapshot
//! cache** — its own [`Catalog`] + [`Storage`] holding exactly the writer's
//! last-committed state. The shared engine lock is taken *shared* and only
//! long enough to refresh that cache; query execution itself runs entirely
//! on the cache with no lock held, so readers never block the writer's
//! ingest and the writer never blocks a reader mid-query.
//!
//! # What the cache holds
//!
//! *Shared:* every row's values. A stored row's values are one immutable
//! block behind an `Arc` ([`crate::storage::Row::values`]); the cache's rows
//! point at the writer's own blocks. Nothing writes through a block —
//! UPDATE installs a new block in the row and keeps the old one in its undo
//! record, DELETE moves the row (block and all) into its undo record — so a
//! block a reader holds can never change under it, and a reader that still
//! holds a replaced or deleted row's block simply keeps it alive. That is
//! copy-on-write at row granularity, and it is why no refresh path below
//! ever copies a value.
//!
//! *Private:* the row handles (OID + block pointer) in each table's heap,
//! the OID directory and the secondary indexes — all keyed by heap slot,
//! which is the reader's own — plus the catalog.
//!
//! # Freshness protocol
//!
//! The writer's [`Storage`] and [`Catalog`] each maintain a
//! *committed epoch* — a counter bumped once per effective COMMIT — and
//! the storage layer additionally pins a per-table *committed version*
//! at each commit. A refresh compares those against what the session
//! pinned last time:
//!
//! 1. **Both epochs unchanged** — the cache is exactly the committed
//!    state; serve from it without copying anything.
//! 2. **Catalog epoch changed** (a committed DDL) — re-derive the whole
//!    cache: clone the live engine and roll its uncommitted undo tail
//!    back to zero. The undo log is precisely the delta between live and
//!    committed state, so the rolled-back clone *is* the committed state.
//!    Copies every row handle, the directory and the indexes.
//! 3. **Only the storage epoch changed** (committed DML) — incremental,
//!    table by table, for each table whose committed version differs from
//!    the pinned one:
//!    - *append splice*: if nothing but appends touched the table since
//!      the pinned version (the writer's storage remembers the version of
//!      each table's last other mutation, so this is one comparison —
//!      [`Storage::committed_appends`]), the cache's heap is a prefix of
//!      the committed one: copy just the new rows' handles and file them
//!      in the directory and the indexes, as an insert would. Cost: the
//!      rows the commits appended, whatever the table holds. Every load
//!      path of the mapping layer is INSERT-only, so this is the path a
//!      reader beside an ingest takes.
//!    - *replace splice*: otherwise (update, delete, rollback, drop and
//!      re-create) reconstruct the table's committed heap from the
//!      writer's undo records ([`Storage::committed_heap`]), install it,
//!      re-file its OIDs and rebuild its indexes. Cost: the table's rows.
//!
//! Because committed state only moves at COMMIT, uncommitted churn and
//! rollbacks on the writer never invalidate a reader cache — the session
//! observes neither uncommitted nor torn state, by construction.
//!
//! The session keeps its pinned versions in a map of its own rather than
//! trusting the cache storage's internal mutation counters: rolling the
//! clone back bumps those counters arbitrarily, and a counter that
//! happened to collide with the writer's committed version would falsely
//! read as fresh.

use crate::catalog::Catalog;
use crate::error::DbError;
use crate::exec::eval::ExecCtx;
use crate::exec::execute_read;
use crate::exec::select::QueryResult;
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::session::{cached_parse_with, PlanCache, SharedState};
use crate::sql::ast::Stmt;
use crate::stats::ExecStats;
use crate::storage::Storage;
use std::collections::HashMap;
use std::sync::Arc;

/// A concurrent snapshot-read session over a [`crate::Database`]'s shared
/// engine, from [`crate::Database::read_session`]. `Send`, so it can serve
/// a connection thread; read-only — any statement other than SELECT /
/// EXPLAIN is rejected. Holds its own plan cache and [`ExecStats`] (those
/// are per-connection state, like the writer's).
#[derive(Debug)]
pub struct ReadSession {
    shared: Arc<SharedState>,
    mode: DbMode,
    /// Set-oriented bulk document reconstruction, inherited from the
    /// writer handle at session creation (the retrieval layer consults it
    /// via [`Self::bulk_retrieval`]).
    bulk_retrieval: bool,
    /// The private committed-state cache queries execute against.
    cache: Option<CacheState>,
    plan_cache: PlanCache,
    stats: ExecStats,
    /// Cache refreshes that re-derived the whole engine (committed DDL).
    full_refreshes: u64,
    /// Cache refreshes that spliced individual committed heaps (DML).
    incremental_refreshes: u64,
    /// Refreshes that found both epochs unchanged and copied nothing.
    fresh_hits: u64,
    /// Tables an incremental refresh brought up to date by appending the
    /// newly committed rows / by replacing the whole heap.
    append_splices: u64,
    replace_splices: u64,
    /// Row handles copied into the cache by all refreshes so far.
    rows_copied: u64,
}

#[derive(Debug)]
struct CacheState {
    catalog: Catalog,
    storage: Storage,
    /// Per-table committed versions as of the pinned epoch — kept apart
    /// from `storage`'s internal counters (see the module docs).
    pinned: HashMap<Ident, u64>,
    storage_epoch: u64,
    catalog_epoch: u64,
}

impl ReadSession {
    pub(crate) fn new(shared: Arc<SharedState>, mode: DbMode, bulk_retrieval: bool) -> ReadSession {
        ReadSession {
            shared,
            mode,
            bulk_retrieval,
            cache: None,
            plan_cache: PlanCache::default(),
            stats: ExecStats::default(),
            full_refreshes: 0,
            incremental_refreshes: 0,
            fresh_hits: 0,
            append_splices: 0,
            replace_splices: 0,
            rows_copied: 0,
        }
    }

    /// Pin the session to the writer's current committed state. Takes the
    /// shared engine lock for the duration of the copy work only; called
    /// implicitly at the start of every [`query`](Self::query) /
    /// [`execute`](Self::execute). Returns the `(storage, catalog)`
    /// committed epochs now pinned.
    pub fn refresh(&mut self) -> (u64, u64) {
        let shared = Arc::clone(&self.shared);
        let engine = shared.read();
        let storage_epoch = engine.storage.committed_epoch();
        let catalog_epoch = engine.catalog.committed_epoch();

        match self.cache.as_mut() {
            Some(cache) if cache.storage_epoch == storage_epoch
                && cache.catalog_epoch == catalog_epoch =>
            {
                self.fresh_hits += 1;
            }
            Some(cache) if cache.catalog_epoch == catalog_epoch => {
                // Committed DML only: bring each changed table up to date
                // (append the new rows, or replace the heap), drop
                // committed-dropped tables.
                self.incremental_refreshes += 1;
                let committed = engine.storage.committed_tables();
                for (table, version) in &committed {
                    let pinned = cache.pinned.get(table).copied();
                    if pinned == Some(*version) {
                        continue;
                    }
                    let held = cache.storage.row_count(table);
                    let appended = pinned
                        .and_then(|pinned| engine.storage.committed_appends(table, pinned, held));
                    match appended {
                        Some(rows) => {
                            self.append_splices += 1;
                            self.rows_copied += rows.len() as u64;
                            cache.storage.append_table_snapshot(table, rows);
                        }
                        None => {
                            let heap = engine.storage.committed_heap(table);
                            self.replace_splices += 1;
                            self.rows_copied += heap.as_ref().map_or(0, |h| h.rows.len()) as u64;
                            cache.storage.install_table_snapshot(table, heap);
                        }
                    }
                    cache.pinned.insert(table.clone(), *version);
                }
                let live: std::collections::HashSet<&Ident> =
                    committed.iter().map(|(t, _)| t).collect();
                let dropped: Vec<Ident> =
                    cache.pinned.keys().filter(|t| !live.contains(t)).cloned().collect();
                for table in dropped {
                    cache.storage.install_table_snapshot(&table, None);
                    cache.pinned.remove(&table);
                }
                cache.storage.set_next_oid(engine.storage.committed_next_oid());
                cache.storage_epoch = storage_epoch;
            }
            _ => {
                // First use, or committed DDL: re-derive the whole cache.
                // Rolling the clone's uncommitted undo tail back to zero
                // yields exactly the committed state.
                self.full_refreshes += 1;
                let mut catalog = engine.catalog.clone();
                catalog.rollback_to(0);
                let mut storage = engine.storage.clone();
                storage.rollback_to(0);
                self.rows_copied += storage.total_rows() as u64;
                let pinned = engine.storage.committed_tables().into_iter().collect();
                self.cache = Some(CacheState {
                    catalog,
                    storage,
                    pinned,
                    storage_epoch,
                    catalog_epoch,
                });
            }
        }
        (storage_epoch, catalog_epoch)
    }

    /// Execute one read-only statement against the snapshot cache.
    /// `Ok(None)` never actually escapes — SELECT and EXPLAIN both
    /// produce results, and anything else errors — but the signature
    /// mirrors [`crate::Database::execute`] so callers can treat the two
    /// uniformly.
    pub fn execute(&mut self, sql: &str) -> Result<Option<QueryResult>, DbError> {
        self.refresh();
        let stmts = cached_parse_with(&mut self.plan_cache, &mut self.stats, sql)?;
        if stmts.len() != 1 {
            return Err(DbError::Execution(format!(
                "read session expects exactly one statement, got {}",
                stmts.len()
            )));
        }
        self.execute_stmt(&stmts[0]).map(Some)
    }

    /// Execute one SELECT (or EXPLAIN) and return its result.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        match self.execute(sql)? {
            Some(result) => Ok(result),
            None => Err(DbError::Execution("statement is not a query".into())),
        }
    }

    /// Convenience: the single value of a single-row, single-column query.
    pub fn query_scalar(&mut self, sql: &str) -> Result<crate::value::Value, DbError> {
        let result = self.query(sql)?;
        result
            .scalar()
            .cloned()
            .ok_or_else(|| DbError::Execution("query did not return a single scalar".into()))
    }

    fn execute_stmt(&mut self, stmt: &Stmt) -> Result<QueryResult, DbError> {
        // `execute` always refreshes first, so the cache exists here.
        let Some(cache) = self.cache.as_ref() else {
            return Err(DbError::Execution("read session has no snapshot cache".into()));
        };
        self.stats.statements += 1;
        let mut ctx = ExecCtx::new(&cache.catalog, &cache.storage, &mut self.stats, self.mode);
        execute_read(&mut ctx, stmt)
    }

    /// The `(storage, catalog)` committed epochs the cache is pinned to —
    /// what the most recent query executed against. `(0, 0)` before the
    /// first refresh.
    pub fn pinned_epochs(&self) -> (u64, u64) {
        match &self.cache {
            Some(c) => (c.storage_epoch, c.catalog_epoch),
            None => (0, 0),
        }
    }

    /// The pinned committed version of one table (0 if absent/unpinned).
    pub fn pinned_version(&self, table: &str) -> u64 {
        let ident = Ident::internal(table);
        self.cache
            .as_ref()
            .and_then(|c| c.pinned.get(&ident).copied())
            .unwrap_or(0)
    }

    /// The dialect mode the owning database was created with.
    pub fn mode(&self) -> crate::DbMode {
        self.mode
    }

    /// Whether bulk document reconstruction is enabled for this session
    /// (inherited from the writer handle at creation, overridable per
    /// session for differential tests).
    pub fn bulk_retrieval(&self) -> bool {
        self.bulk_retrieval
    }

    pub fn set_bulk_retrieval(&mut self, enabled: bool) {
        self.bulk_retrieval = enabled;
    }

    /// Refresh, then expose the pinned committed snapshot: the private
    /// `(catalog, storage)` cache queries execute against. The borrows are
    /// lock-free — the snapshot is this session's own — and stay
    /// valid until the next `&mut self` call. This is the read surface the
    /// document retriever walks directly (OID directory, table heaps,
    /// secondary indexes) without going through SQL.
    pub fn snapshot(&mut self) -> (&Catalog, &Storage) {
        self.refresh();
        let cache = self.cache.as_ref().expect("refresh always installs a cache");
        (&cache.catalog, &cache.storage)
    }

    /// Fold one document reconstruction's access counts into this
    /// session's statistics — the reader-side counterpart of
    /// [`crate::Database::record_retrieval`].
    pub fn record_retrieval(&mut self, table_scans: u64, index_probes: u64, bulk: bool) {
        self.stats.retrieve_table_scans += table_scans;
        self.stats.retrieve_index_probes += index_probes;
        self.stats.index_scans += index_probes;
        if bulk {
            self.stats.bulk_retrieves += 1;
        }
    }

    /// This session's private execution counters.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// `(fresh, incremental, full)` refresh outcome counts — how often the
    /// cache was already exact, spliced table-by-table, or re-derived.
    pub fn refresh_counts(&self) -> (u64, u64, u64) {
        (self.fresh_hits, self.incremental_refreshes, self.full_refreshes)
    }

    /// `(appended, replaced)`: tables an incremental refresh brought up to
    /// date by appending just the newly committed rows, and tables whose
    /// heap it replaced whole (anything but appends had touched them).
    pub fn splice_counts(&self) -> (u64, u64) {
        (self.append_splices, self.replace_splices)
    }

    /// Rows copied into the cache by every refresh so far — each a row
    /// handle (OID plus a pointer to the writer's value block), never the
    /// values. What a refresh costs in proportion to: the rows the commit
    /// appended, the rows of each replaced table, or every row on a full
    /// re-derive.
    pub fn rows_copied(&self) -> u64 {
        self.rows_copied
    }
}

#[cfg(test)]
mod tests {
    use super::ReadSession;
    use crate::ident::Ident;
    use crate::{Database, DbError, DbMode, Value};
    use std::sync::Arc;

    fn db() -> Database {
        let mut d = Database::new(DbMode::Oracle9);
        d.execute_script(
            "CREATE TYPE Type_P AS OBJECT(name VARCHAR(20), dept VARCHAR(20));
             CREATE TABLE TabP OF Type_P;
             INSERT INTO TabP VALUES (Type_P('Kudrass', 'DB'));
             INSERT INTO TabP VALUES (Type_P('Conrad', 'DB'));",
        )
        .unwrap();
        d.commit().unwrap();
        d
    }

    #[test]
    fn snapshot_reads_see_committed_state_only() {
        let mut writer = db();
        let mut reader = writer.read_session();
        assert_eq!(
            reader.query_scalar("SELECT COUNT(*) FROM TabP").unwrap(),
            Value::Num(2.0)
        );

        // Uncommitted writer churn is invisible, even after a refresh.
        writer.execute("INSERT INTO TabP VALUES (Type_P('Jaeger', 'CAD'))").unwrap();
        assert_eq!(
            reader.query_scalar("SELECT COUNT(*) FROM TabP").unwrap(),
            Value::Num(2.0)
        );
        // …and a writer rollback changes nothing for the reader.
        writer.rollback();
        assert_eq!(
            reader.query_scalar("SELECT COUNT(*) FROM TabP").unwrap(),
            Value::Num(2.0)
        );

        // A commit becomes visible at the next query.
        writer.execute("INSERT INTO TabP VALUES (Type_P('Jaeger', 'CAD'))").unwrap();
        writer.commit().unwrap();
        assert_eq!(
            reader.query_scalar("SELECT COUNT(*) FROM TabP").unwrap(),
            Value::Num(3.0)
        );
    }

    #[test]
    fn committed_dml_refreshes_incrementally_ddl_rederives() {
        let mut writer = db();
        let mut reader = writer.read_session();
        reader.query("SELECT name FROM TabP").unwrap(); // prime: 1 full
        reader.query("SELECT name FROM TabP").unwrap(); // fresh hit
        assert_eq!(reader.refresh_counts(), (1, 0, 1));

        writer.execute("DELETE FROM TabP WHERE name = 'Conrad'").unwrap();
        writer.commit().unwrap();
        let rows = reader.query("SELECT name FROM TabP").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Kudrass")]]);
        assert_eq!(reader.refresh_counts(), (1, 1, 1));

        // Committed DDL moves the catalog epoch: full re-derive.
        writer.execute("CREATE TABLE TabQ OF Type_P").unwrap();
        writer.commit().unwrap();
        assert_eq!(
            reader.query_scalar("SELECT COUNT(*) FROM TabQ").unwrap(),
            Value::Num(0.0)
        );
        assert_eq!(reader.refresh_counts(), (1, 1, 2));
    }

    #[test]
    fn read_sessions_are_read_only() {
        let writer = db();
        let mut reader = writer.read_session();
        let err = reader.execute("INSERT INTO TabP VALUES (Type_P('X', 'Y'))").unwrap_err();
        assert!(matches!(err, DbError::ReadOnly("INSERT")), "{err}");
        let err = reader.execute("DROP TABLE TabP").unwrap_err();
        assert!(matches!(err, DbError::ReadOnly(_)), "{err}");
        // EXPLAIN is fine — it reads the catalog only.
        let plan = reader.query("EXPLAIN SELECT name FROM TabP").unwrap();
        assert!(!plan.rows.is_empty());
        // The writer's handle is untouched by the rejections.
        assert_eq!(writer.row_count("TabP"), 2);
    }

    #[test]
    fn reader_queries_match_writer_queries_exactly() {
        let mut writer = db();
        let mut reader = writer.read_session();
        for sql in [
            "SELECT name, dept FROM TabP",
            "SELECT COUNT(*) FROM TabP",
            "SELECT p.name FROM TabP p WHERE p.dept = 'DB'",
        ] {
            let from_writer = writer.query(sql).unwrap();
            let from_reader = reader.query(sql).unwrap();
            assert_eq!(from_writer, from_reader, "{sql}");
        }
    }

    #[test]
    fn committed_drop_of_a_table_reaches_the_reader() {
        let mut writer = db();
        let mut reader = writer.read_session();
        reader.query("SELECT name FROM TabP").unwrap();
        writer.execute("DROP TABLE TabP").unwrap();
        writer.commit().unwrap();
        let err = reader.query("SELECT name FROM TabP").unwrap_err();
        assert!(matches!(err, DbError::UnknownTable(_)), "{err}");
    }

    /// The value blocks of `table`'s rows, by pointer.
    fn blocks(storage: &crate::storage::Storage, table: &str) -> Vec<Arc<Vec<Value>>> {
        let data = storage.table(&Ident::internal(table)).unwrap();
        data.rows.iter().map(|row| Arc::clone(&row.values)).collect()
    }

    #[test]
    fn a_refresh_shares_the_writers_row_blocks() {
        let mut writer = db();
        let mut reader = writer.read_session();
        // Full re-derive, append splice and heap replacement alike end with
        // the reader holding the writer's own blocks.
        let shares = |reader: &mut ReadSession, writer: &Database| {
            let (ours, theirs) =
                (blocks(reader.snapshot().1, "TabP"), blocks(&writer.storage(), "TabP"));
            assert_eq!(ours.len(), theirs.len());
            assert!(ours.iter().zip(&theirs).all(|(a, b)| Arc::ptr_eq(a, b)));
        };
        shares(&mut reader, &writer);
        writer.execute("INSERT INTO TabP VALUES (Type_P('Jaeger', 'CAD'))").unwrap();
        writer.commit().unwrap();
        shares(&mut reader, &writer);
        assert_eq!(reader.splice_counts(), (1, 0));
        writer.execute("UPDATE TabP SET dept = 'CAD' WHERE name = 'Conrad'").unwrap();
        writer.commit().unwrap();
        shares(&mut reader, &writer);
        assert_eq!(reader.splice_counts(), (1, 1));
        // 2 rows re-derived, 1 appended, 3 re-filed.
        assert_eq!(reader.rows_copied(), 6);
    }

    #[test]
    fn a_pinned_snapshot_keeps_its_values_across_writer_changes() {
        let mut writer = db();
        let mut reader = writer.read_session();
        let (_, pinned) = reader.snapshot();
        let before = pinned.state_dump();
        let pinned_blocks = blocks(pinned, "TabP");

        // Rolled back: the undo record hands the writer the old block back.
        writer.execute("UPDATE TabP SET dept = 'X' WHERE name = 'Kudrass'").unwrap();
        assert!(!Arc::ptr_eq(&blocks(&writer.storage(), "TabP")[0], &pinned_blocks[0]));
        writer.rollback();
        assert!(Arc::ptr_eq(&blocks(&writer.storage(), "TabP")[0], &pinned_blocks[0]));
        assert_eq!(pinned.state_dump(), before);

        // Committed UPDATE: copy-on-write at row granularity — the written
        // row gets a new block, its neighbour is still the shared one.
        writer.execute("UPDATE TabP SET dept = 'X' WHERE name = 'Kudrass'").unwrap();
        writer.commit().unwrap();
        let written = blocks(&writer.storage(), "TabP");
        assert!(!Arc::ptr_eq(&written[0], &pinned_blocks[0]));
        assert!(Arc::ptr_eq(&written[1], &pinned_blocks[1]));
        assert_eq!(pinned_blocks[0][1], Value::str("DB"));
        assert_eq!(written[0][1], Value::str("X"));
        assert_eq!(pinned.state_dump(), before);

        // Committed DELETE: the pinned snapshot still holds both rows.
        writer.execute("DELETE FROM TabP WHERE name = 'Conrad'").unwrap();
        writer.commit().unwrap();
        assert_eq!(pinned.state_dump(), before);
        assert_eq!(blocks(pinned, "TabP").len(), 2);

        // The next refresh moves the pin.
        assert_eq!(blocks(reader.snapshot().1, "TabP").len(), 1);
    }

    #[test]
    fn a_nested_update_copies_only_the_blocks_along_its_path() {
        let mut writer = Database::new(DbMode::Oracle9);
        writer
            .execute_script(
                "CREATE TYPE Type_Part AS OBJECT(leaf VARCHAR(20), other VARCHAR(20));
                 CREATE TYPE Type_Obj AS OBJECT(part Type_Part, note VARCHAR(20));
                 CREATE TYPE Type_Tags AS VARRAY(4) OF VARCHAR(20);
                 CREATE TABLE TabN (name VARCHAR(20), obj Type_Obj, tags Type_Tags);
                 INSERT INTO TabN VALUES
                     ('a', Type_Obj(Type_Part('old', 'o'), 'n'), Type_Tags('x', 'y'));
                 INSERT INTO TabN VALUES
                     ('b', Type_Obj(Type_Part('old', 'o'), 'n'), Type_Tags('z'));",
            )
            .unwrap();
        writer.commit().unwrap();
        let mut reader = writer.read_session();
        let (_, pinned) = reader.snapshot();
        let before = pinned.state_dump();
        let pinned_rows = blocks(pinned, "TabN");
        // Column 1 is `obj`, whose attribute 0 is `part`; column 2 is `tags`.
        let obj = |row: &[Value]| row[1].block().clone();
        let tags = |row: &[Value]| row[2].block().clone();
        let part = |row: &[Value]| row[1].block()[0].block().clone();
        let update = "UPDATE TabN SET obj.part.leaf = 'new' WHERE name = 'a'";

        // Rolled back: the undo record hands the original blocks back.
        writer.execute(update).unwrap();
        assert!(!Arc::ptr_eq(&blocks(&writer.storage(), "TabN")[0], &pinned_rows[0]));
        writer.rollback();
        assert!(Arc::ptr_eq(&blocks(&writer.storage(), "TabN")[0], &pinned_rows[0]));

        // Committed: new blocks for the row, `obj` and `obj.part` — the path
        // — while the sibling `tags` and the neighbouring row stay shared.
        writer.execute(update).unwrap();
        writer.commit().unwrap();
        let written = blocks(&writer.storage(), "TabN");
        assert!(!Arc::ptr_eq(&written[0], &pinned_rows[0]));
        assert!(!Arc::ptr_eq(&obj(&written[0]), &obj(&pinned_rows[0])));
        assert!(!Arc::ptr_eq(&part(&written[0]), &part(&pinned_rows[0])));
        assert!(Arc::ptr_eq(&tags(&written[0]), &tags(&pinned_rows[0])));
        assert!(Arc::ptr_eq(&written[1], &pinned_rows[1]));
        assert_eq!(part(&written[0])[0], Value::str("new"));
        assert_eq!(part(&pinned_rows[0])[0], Value::str("old"));
        assert_eq!(pinned.state_dump(), before);
    }
}
