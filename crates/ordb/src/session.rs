//! The [`Database`] façade: parse → execute, statistics, introspection.

use crate::analyze::{Analyzer, Diagnostic};
use crate::catalog::Catalog;
use crate::error::DbError;
use crate::exec::ddl::{execute_ddl, index_positions};
use crate::exec::dml::{
    execute_delete, execute_insert_batch, execute_update, InsertBatch,
};
use crate::exec::eval::ExecCtx;
use crate::exec::execute_read;
pub use crate::exec::select::QueryResult;
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::sql::ast::Stmt;
use crate::snapshot;
use crate::sql::param::{parameterize_into, rebind, slots_match, Lit};
use crate::sql::parser::{parse_script, parse_statement};
use crate::stats::ExecStats;
use crate::storage::Storage;
use crate::trace::{TraceHandle, Tracer};
use crate::value::Value;
use crate::wal::{self, RedoOp, WalWriter};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Statements kept in the plan cache before the least-recently-used entry
/// is evicted. Loaders issue the same handful of statement shapes over and
/// over, so a small cache captures them; eviction is an O(capacity) scan,
/// irrelevant at this size.
const PLAN_CACHE_CAPACITY: usize = 256;

/// SQL text → parsed statements. Parsing is context-free here (object
/// constructors parse as generic calls, resolved at execution time), so
/// entries never need invalidation on DDL. INSERT texts are additionally
/// cached by literal-normalized *shape* (see [`crate::sql::param`]), so a
/// loader's thousands of near-identical INSERTs share one parsed template.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanCache {
    entries: HashMap<String, CacheEntry>,
    tick: u64,
    /// The shape key and literals of the text being looked up: buffers
    /// reused by every lookup, so a hit allocates no key.
    key: String,
    lits: Vec<Lit>,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    plan: Plan,
    last_used: u64,
}

#[derive(Debug, Clone)]
enum Plan {
    /// Verbatim text → parsed form, shared by reference (`Arc` so a cached
    /// plan — and the session holding it — can cross threads).
    Exact(Arc<Vec<Stmt>>),
    /// Literal-parameterized INSERT shape → template whose literal slots
    /// are rebound with each text's own literals: in place while the cache
    /// holds its only handle, else on a copy that replaces it.
    Template(Arc<Vec<Stmt>>),
    /// Shape that failed slot verification (e.g. folded negative literals)
    /// — recorded so it is never re-verified, and cached verbatim instead.
    Opaque,
}

impl PlanCache {
    /// Insert with LRU eviction (O(capacity) scan — irrelevant at 256).
    fn insert(&mut self, key: String, plan: Plan, tick: u64) {
        if self.entries.len() >= PLAN_CACHE_CAPACITY {
            // Tie-break equal timestamps by key so eviction order never
            // depends on HashMap iteration order.
            let victim = self
                .entries
                .iter()
                .min_by(|(ka, ea), (kb, eb)| ea.last_used.cmp(&eb.last_used).then_with(|| ka.cmp(kb)))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, CacheEntry { plan, last_used: tick });
    }
}

/// A position in the undo logs of both layers. Obtained from
/// [`Database::txn_mark`]; passing it back to
/// [`Database::rollback_to_mark`] undoes everything logged after it. Marks
/// taken before an intervening [`Database::commit`] are stale and roll
/// back nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnMark {
    storage: usize,
    catalog: usize,
}

/// Log file name inside a durable database directory.
const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a durable database directory.
const SNAPSHOT_FILE: &str = "snapshot.db";
/// Default auto-snapshot cadence: one snapshot per this many committed log
/// entries. Override with [`Database::set_snapshot_every`]; `0` disables.
const DEFAULT_SNAPSHOT_EVERY: u64 = 1024;

/// The durable half of an opened database ([`Database::open`]): the log
/// writer plus the redo operations of the in-flight transaction.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    /// Redo ops of the current (uncommitted) transaction, each tagged with
    /// the undo position *before* its statement ran, so partial rollbacks
    /// can drop exactly the ops whose effects they undid.
    pending: Vec<(TxnMark, RedoOp)>,
    /// Entries appended since the last snapshot (or open), driving the
    /// auto-snapshot cadence.
    entries_since_snapshot: u64,
    snapshot_every: u64,
}

/// What [`Database::open`] did to bring a directory back to life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot file was found and restored.
    pub snapshot_loaded: bool,
    /// Log entries replayed on top of the snapshot (or empty) state.
    pub entries_replayed: u64,
    /// Sequence number of the newest durable entry (snapshot high-water
    /// mark if the log held nothing newer).
    pub last_seq: u64,
    /// Torn-tail bytes discarded from the end of the log — an append the
    /// crash interrupted before its fsync, i.e. never acknowledged.
    pub truncated_bytes: u64,
}

/// How [`Database::execute_script_with`] reacts to a failing statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// The whole script is one unit: any error rolls back every statement
    /// of the script and stops.
    Atomic,
    /// Stop at the first error. Earlier statements stay applied; the
    /// failing statement itself is cleanly rolled back (statement-level
    /// atomicity), and the error is reported with its statement index.
    AbortOnError,
    /// SQL*Plus-style: keep going, collecting one [`ScriptError`] per
    /// failing statement; each failure is rolled back in isolation.
    ContinueOnError,
}

/// One failing statement of a script run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptError {
    /// Zero-based index of the statement within the script.
    pub statement: usize,
    /// The statement's [`Stmt::kind`] tag (e.g. `"INSERT"`).
    pub kind: &'static str,
    pub error: DbError,
}

/// How script execution materializes SELECT results
/// ([`Database::execute_script_opts`]). A generated load script is almost
/// entirely DML, but the historical API collected every `QueryResult` into
/// a `Vec` — for a 100k-statement load with interspersed queries that holds
/// every row set in memory for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResultMode {
    /// Keep every SELECT's result, in script order (the historical
    /// behaviour; what [`Database::execute_script_with`] does).
    #[default]
    Collect,
    /// Drop every result. Bulk loads use this: nothing is materialized, so
    /// memory stays flat regardless of script length.
    Discard,
}

/// Result of [`Database::execute_script_with`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScriptOutcome {
    /// SELECT results, in script order (cleared when an `Atomic` run rolls
    /// back — the script produced nothing).
    pub results: Vec<QueryResult>,
    /// Statements that completed successfully.
    pub executed: usize,
    /// Per-statement failures; empty means the whole script succeeded.
    pub errors: Vec<ScriptError>,
    /// True when the `Atomic` policy undid the whole script.
    pub rolled_back: bool,
}

/// The engine proper: schema plus rows. Everything a query touches lives
/// here, behind [`SharedState`]'s lock.
#[derive(Debug)]
pub(crate) struct Engine {
    pub(crate) catalog: Catalog,
    pub(crate) storage: Storage,
}

/// The state every session over one database shares: the engine behind a
/// single `RwLock`. The writing [`Database`] takes the exclusive lock per
/// statement; [`crate::mvcc::ReadSession`]s take the shared lock only long
/// enough to refresh their snapshot caches — never while executing a
/// query.
#[derive(Debug)]
pub(crate) struct SharedState {
    pub(crate) engine: RwLock<Engine>,
}

impl SharedState {
    /// Shared (reader) access. Lock poisoning is survivable here: a
    /// panicking statement already rolled itself back via statement-level
    /// atomicity, so the state behind a poisoned lock is consistent.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Engine> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Engine> {
        self.engine.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Read guard over the catalog, from [`Database::catalog`]. Derefs to
/// [`Catalog`], so `db.catalog().get_table(…)` reads as before — but the
/// guard holds the shared engine lock, so don't store it across a call
/// that takes the write lock (e.g. [`Database::execute`]).
pub struct CatalogRef<'a>(RwLockReadGuard<'a, Engine>);

impl Deref for CatalogRef<'_> {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.0.catalog
    }
}

/// Read guard over the storage layer, from [`Database::storage`]. Same
/// locking caveat as [`CatalogRef`].
pub struct StorageRef<'a>(RwLockReadGuard<'a, Engine>);

impl Deref for StorageRef<'_> {
    type Target = Storage;
    fn deref(&self) -> &Storage {
        &self.0.storage
    }
}

/// An embedded object-relational database instance.
///
/// Since PR 9 a `Database` is split in two: the *shared* engine state
/// (catalog + storage, behind `Arc<RwLock>`) and *per-connection* state
/// (statistics, plan cache, savepoints, tracing, the unique-index cache,
/// durability). The handle is `Send`, so the single writer can live on a
/// server's writer thread while [`crate::mvcc::ReadSession`]s opened via
/// [`Database::read_session`] serve queries from other threads.
#[derive(Debug)]
pub struct Database {
    shared: Arc<SharedState>,
    stats: ExecStats,
    mode: DbMode,
    plan_cache: PlanCache,
    /// Set-oriented bulk document reconstruction (on by default); the
    /// retrieval layer consults it through [`Self::bulk_retrieval`].
    /// Turning it off pins the naive per-node recursive walker — the
    /// differential baseline for the retrieval benchmarks
    /// ([`Self::set_bulk_retrieval`]).
    bulk_retrieval: bool,
    /// Explicit `SAVEPOINT name` marks, oldest first. COMMIT and full
    /// ROLLBACK discard them; `ROLLBACK TO name` discards only the ones
    /// established after `name` (Oracle semantics — the target survives).
    savepoints: Vec<(Ident, TxnMark)>,
    /// Structured tracing ([`crate::trace`]): `None` (the default) costs a
    /// single check per phase — no clocks, no events, no counter changes.
    trace: Option<Tracer>,
    /// `Some` when the database persists to a directory ([`Self::open`]);
    /// `None` for in-memory databases — every durable hook then costs one
    /// `Option` check.
    durability: Option<Durability>,
    /// What [`Self::open`] recovered, kept for diagnostics and tests.
    recovery: Option<RecoveryReport>,
}

impl Clone for Database {
    /// Cloning deep-copies the engine into a **fresh, independent**
    /// shared state and *detaches* durability: two writers appending to
    /// one log would interleave corruptly, and — now that handles are
    /// `Send` — two writer handles racing one shared engine would corrupt
    /// in-memory state the same way. A clone therefore shares *nothing*
    /// with its original (the differential tests rely on this isolation);
    /// to share an engine across threads, use
    /// [`Database::read_session`] instead.
    fn clone(&self) -> Database {
        let engine = self.shared.read();
        Database {
            shared: Arc::new(SharedState {
                engine: RwLock::new(Engine {
                    catalog: engine.catalog.clone(),
                    storage: engine.storage.clone(),
                }),
            }),
            stats: self.stats,
            mode: self.mode,
            plan_cache: self.plan_cache.clone(),
            bulk_retrieval: self.bulk_retrieval,
            savepoints: self.savepoints.clone(),
            trace: self.trace.clone(),
            durability: None,
            recovery: None,
        }
    }
}

/// In-flight span from [`Database::trace_begin`]; hand it back to
/// [`Database::trace_end`] to emit the event. Carries the stats snapshot so
/// the event reports the span's counter delta.
#[derive(Debug)]
pub struct SpanToken {
    phase: &'static str,
    detail: String,
    start: Instant,
    before: ExecStats,
}

impl Database {
    pub fn new(mode: DbMode) -> Database {
        Database {
            shared: Arc::new(SharedState {
                engine: RwLock::new(Engine { catalog: Catalog::new(), storage: Storage::new() }),
            }),
            stats: ExecStats::default(),
            mode,
            plan_cache: PlanCache::default(),
            bulk_retrieval: true,
            savepoints: Vec::new(),
            trace: None,
            durability: None,
            recovery: None,
        }
    }

    /// Open (or create) a durable database in directory `dir`.
    ///
    /// Recovery runs here: the newest snapshot (if any) is decoded and
    /// restored, then the write-ahead log's durable entries above the
    /// snapshot's sequence are replayed in order. A torn tail — an append
    /// interrupted before its fsync, so never acknowledged as committed —
    /// is truncated, never misread; checksummed-but-undecodable bytes are
    /// rejected as [`DbError::CorruptDurableState`] instead (see
    /// [`wal::scan_wal`]). The recovered state is byte-identical (by
    /// [`state_dump`](Self::state_dump)) to the state at the last
    /// acknowledged COMMIT, and opening is idempotent: a second open of the
    /// same directory replays the same prefix to the same state.
    pub fn open(dir: impl AsRef<Path>, mode: DbMode) -> Result<Database, DbError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| {
            DbError::Io(format!("create database directory {}: {e}", dir.display()))
        })?;
        let mut db = Database::new(mode);
        let mut report = RecoveryReport::default();

        let shared = Arc::clone(&db.shared);
        let mut engine = shared.write();

        let mut snap_seq = 0u64;
        if let Some(bytes) = snapshot::read_snapshot_file(&dir.join(SNAPSHOT_FILE))? {
            let snap = snapshot::decode_snapshot(&bytes)?;
            if snap.mode != mode {
                return Err(DbError::CorruptDurableState(format!(
                    "snapshot was written by a {:?} database, opened as {:?}",
                    snap.mode, mode
                )));
            }
            engine.catalog = snap.catalog;
            engine.storage = snap.storage;
            rebuild_secondary_indexes(&mut engine)?;
            snap_seq = snap.last_seq;
            report.snapshot_loaded = true;
        }

        let wal_path = dir.join(WAL_FILE);
        let scan = wal::scan_wal(&wal::read_wal_file(&wal_path)?)?;
        if let Some(wal_mode) = scan.mode {
            if wal_mode != mode {
                return Err(DbError::CorruptDurableState(format!(
                    "WAL was written by a {wal_mode:?} database, opened as {mode:?}"
                )));
            }
        }
        report.truncated_bytes = scan.truncated_bytes;
        let mut last_seq = snap_seq;
        for entry in &scan.entries {
            if entry.seq <= snap_seq {
                // Entry predating the snapshot, surviving the crash window
                // between "snapshot renamed into place" and "log reset":
                // its effects are already in the snapshot.
                continue;
            }
            for op in &entry.ops {
                db.apply_redo(&mut engine, op)?;
            }
            db.commit_locked(&mut engine, false)?;
            report.entries_replayed += 1;
            last_seq = entry.seq;
        }
        drop(engine);
        report.last_seq = last_seq;

        // Attach the writer, truncating any torn tail so a re-crash before
        // the next append scans the same clean prefix. A missing (or
        // torn-at-creation) log is recreated; reopening it positions the
        // sequence counter at the durable high-water mark either way.
        let wal = match scan.mode {
            Some(_) => WalWriter::reopen(&wal_path, scan.valid_len, last_seq)?,
            None => {
                WalWriter::create(&wal_path, mode)?;
                WalWriter::reopen(&wal_path, wal::HEADER_LEN, last_seq)?
            }
        };
        db.durability = Some(Durability {
            dir,
            wal,
            pending: Vec::new(),
            // Count the replayed tail toward the cadence, so a log that
            // grew past the threshold while snapshots were failing (or the
            // process kept crashing) gets compacted soon after reopening.
            entries_since_snapshot: report.entries_replayed,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        });
        db.recovery = Some(report);
        // Replay ran through the ordinary execution path; its counter
        // noise is not this session's work.
        db.stats = ExecStats::default();
        Ok(db)
    }

    /// Re-execute one logged operation during recovery. The engine is
    /// deterministic, so replaying committed ops in order reproduces the
    /// committed state byte-for-byte. Failure means the log disagrees with
    /// the state it was logged against — corruption, not a user error.
    fn apply_redo(&mut self, engine: &mut Engine, op: &RedoOp) -> Result<(), DbError> {
        let result = match op {
            RedoOp::Stmt(stmt) => self.execute_stmt_locked(engine, stmt).map(|_| ()),
            RedoOp::Batch(batch) => self.execute_batch_locked(engine, batch).map(|_| ()),
        };
        result.map_err(|e| DbError::CorruptDurableState(format!("WAL replay failed: {e}")))
    }

    /// Write a snapshot of the committed state to the database directory
    /// and reset the log (the snapshot makes its entries redundant).
    /// Commits the in-flight transaction first — a snapshot captures
    /// committed state only. Errors on in-memory databases.
    pub fn snapshot(&mut self) -> Result<(), DbError> {
        if self.durability.is_none() {
            return Err(DbError::Execution(
                "snapshot requires a database opened with Database::open".into(),
            ));
        }
        let shared = Arc::clone(&self.shared);
        let mut engine = shared.write();
        self.commit_locked(&mut engine, false)?;
        self.snapshot_locked(&mut engine)
    }

    fn snapshot_locked(&mut self, engine: &mut Engine) -> Result<(), DbError> {
        let Some(d) = self.durability.as_mut() else {
            return Err(DbError::Execution(
                "snapshot requires a database opened with Database::open".into(),
            ));
        };
        let bytes =
            snapshot::encode_snapshot(self.mode, d.wal.seq(), &engine.catalog, &engine.storage);
        snapshot::write_atomic(&d.dir, SNAPSHOT_FILE, &bytes)?;
        d.wal.reset()?;
        d.entries_since_snapshot = 0;
        Ok(())
    }

    /// Cleanly shut down a durable database: commit the in-flight
    /// transaction, write a final snapshot and reset the log. This is what
    /// bounds recovery time for long-running servers that disabled the
    /// auto-snapshot cadence ([`Self::set_snapshot_every`] of 0) —
    /// without it the WAL, and therefore
    /// reopen time, grows with the whole history. Deliberately *not* run
    /// on `Drop`: the crash-recovery property tests drop databases to
    /// simulate crashes, and a drop-time snapshot would erase exactly the
    /// log those tests (and real crash recovery) depend on. A no-op for
    /// in-memory databases.
    pub fn close(mut self) -> Result<(), DbError> {
        if self.durability.is_some() {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Auto-snapshot cadence: after every `n` committed log entries,
    /// [`commit`](Self::commit) also snapshots and resets the log. `0`
    /// disables auto-snapshots (manual [`snapshot`](Self::snapshot) still
    /// works). Ignored by in-memory databases.
    pub fn set_snapshot_every(&mut self, n: u64) {
        if let Some(d) = self.durability.as_mut() {
            d.snapshot_every = n;
        }
    }

    /// What [`open`](Self::open) recovered — `None` for in-memory databases.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// True when this database persists to a directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Install (or remove) a trace sink. While one is installed, every
    /// parse / analyze / execute phase emits a [`crate::trace::TraceEvent`]
    /// carrying wall time and the counter delta, and per-statement wall
    /// times are folded into the histograms that
    /// [`stats_report`](Self::stats_report) renders. Cloning a traced
    /// database shares the sink (tracing is an observation channel, not
    /// database state).
    pub fn set_trace_sink(&mut self, handle: Option<TraceHandle>) {
        self.trace = handle.map(Tracer::new);
    }

    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Open a pipeline-level span (e.g. the mapping layer's `shred` /
    /// `generate` / `load` / `retrieve` phases). Returns `None` instantly
    /// when tracing is disabled; otherwise pass the token to
    /// [`trace_end`](Self::trace_end) when the phase completes.
    pub fn trace_begin(&self, phase: &'static str, detail: impl Into<String>) -> Option<SpanToken> {
        self.trace.as_ref()?;
        Some(SpanToken { phase, detail: detail.into(), start: Instant::now(), before: self.stats })
    }

    /// Close a span from [`trace_begin`](Self::trace_begin): emits the
    /// event and folds the duration into the phase's histogram. A `None`
    /// token (tracing was off at begin) is a no-op.
    pub fn trace_end(&mut self, token: Option<SpanToken>) {
        let (Some(token), Some(tracer)) = (token, self.trace.as_mut()) else {
            return;
        };
        let nanos = token.start.elapsed().as_nanos() as u64;
        let delta = self.stats.since(&token.before);
        tracer.emit(token.phase, token.detail, nanos, delta);
        tracer.time(token.phase, nanos);
    }

    /// Statically check a script against the current catalog without
    /// executing anything (the analyzer works on a clone).
    pub fn check(&self, sql: &str) -> Result<Vec<Diagnostic>, DbError> {
        let catalog = self.shared.read().catalog.clone();
        Analyzer::with_catalog(catalog, self.mode).analyze_script(sql)
    }

    /// Enable or disable set-oriented bulk document reconstruction (on by
    /// default). Turning it off pins the naive per-node recursive walker —
    /// the ablation baseline for the retrieval benchmarks, and the oracle
    /// side of the differential tests that check the bulk path reconstructs
    /// byte-identical documents. The engine does not consult this flag
    /// itself; the retrieval layer reads it via
    /// [`bulk_retrieval`](Self::bulk_retrieval).
    pub fn set_bulk_retrieval(&mut self, enabled: bool) {
        self.bulk_retrieval = enabled;
    }

    pub fn bulk_retrieval(&self) -> bool {
        self.bulk_retrieval
    }

    /// Fold one document reconstruction's access counts into this handle's
    /// statistics ([`ExecStats::retrieve_table_scans`] /
    /// [`ExecStats::retrieve_index_probes`] / [`ExecStats::bulk_retrieves`]).
    /// Retrieval probes also count as [`ExecStats::index_scans`]: they are
    /// index-driven accesses exactly like the planner's.
    pub fn record_retrieval(&mut self, table_scans: u64, index_probes: u64, bulk: bool) {
        self.stats.retrieve_table_scans += table_scans;
        self.stats.retrieve_index_probes += index_probes;
        self.stats.index_scans += index_probes;
        if bulk {
            self.stats.bulk_retrieves += 1;
        }
    }

    /// Parse `sql` through the statement cache. Non-INSERT texts hit on the
    /// verbatim string; INSERT texts hit on their literal-normalized shape,
    /// with the template's literal slots rebound per text. Parse errors are
    /// not cached.
    fn cached_parse(&mut self, sql: &str) -> Result<Arc<Vec<Stmt>>, DbError> {
        if self.trace.is_none() {
            return self.cached_parse_inner(sql);
        }
        let before = self.stats;
        let start = Instant::now();
        let result = self.cached_parse_inner(sql);
        let nanos = start.elapsed().as_nanos() as u64;
        let delta = self.stats.since(&before);
        let detail = if result.is_err() {
            "parse error"
        } else if delta.plan_cache_hits > 0 {
            "plan-cache hit"
        } else {
            "plan-cache miss — parsed"
        };
        if let Some(tracer) = self.trace.as_mut() {
            tracer.emit("parse", detail.to_string(), nanos, delta);
            tracer.time("parse", nanos);
        }
        result
    }

    fn cached_parse_inner(&mut self, sql: &str) -> Result<Arc<Vec<Stmt>>, DbError> {
        cached_parse_with(&mut self.plan_cache, &mut self.stats, sql)
    }

    pub fn mode(&self) -> DbMode {
        self.mode
    }

    /// Shared-lock read access to the catalog. The guard derefs to
    /// [`Catalog`]; drop it before calling a mutating method.
    pub fn catalog(&self) -> CatalogRef<'_> {
        CatalogRef(self.shared.read())
    }

    /// Shared-lock read access to the storage layer. The guard derefs to
    /// [`Storage`]; drop it before calling a mutating method.
    pub fn storage(&self) -> StorageRef<'_> {
        StorageRef(self.shared.read())
    }

    /// Open a concurrent snapshot-read session over this database's
    /// engine. The session is `Send`, holds its own plan cache and
    /// statistics, and serves SELECT / EXPLAIN from a committed-state
    /// snapshot cache — see [`crate::mvcc`] for the protocol.
    pub fn read_session(&self) -> crate::mvcc::ReadSession {
        crate::mvcc::ReadSession::new(Arc::clone(&self.shared), self.mode, self.bulk_retrieval)
    }

    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Human-readable statistics: every [`ExecStats`] counter, and — when a
    /// trace sink is installed — the per-statement-kind wall-time
    /// histograms collected so far.
    pub fn stats_report(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        out.push_str("== counters ==\n");
        for (name, v) in [
            ("statements", s.statements),
            ("inserts", s.inserts),
            ("rows_inserted", s.rows_inserted),
            ("rows_scanned", s.rows_scanned),
            ("join_pairs", s.join_pairs),
            ("join_queries", s.join_queries),
            ("tables_created", s.tables_created),
            ("types_created", s.types_created),
            ("derefs", s.derefs),
            ("oid_index_hits", s.oid_index_hits),
            ("hash_join_builds", s.hash_join_builds),
            ("hash_join_probes", s.hash_join_probes),
            ("plan_cache_hits", s.plan_cache_hits),
            ("plan_cache_misses", s.plan_cache_misses),
            ("txn_rollbacks", s.txn_rollbacks),
            ("undo_records", s.undo_records),
            ("savepoints", s.savepoints),
            ("batched_rows", s.batched_rows),
            ("index_scans", s.index_scans),
            ("index_maintenance_ops", s.index_maintenance_ops),
            ("planner_plans_costed", s.planner_plans_costed),
            ("analyze_runs", s.analyze_runs),
            ("retrieve_table_scans", s.retrieve_table_scans),
            ("retrieve_index_probes", s.retrieve_index_probes),
            ("bulk_retrieves", s.bulk_retrieves),
        ] {
            let _ = writeln!(out, "{name:<20} {v}");
        }
        if let Some(d) = &self.durability {
            out.push_str("== durability ==\n");
            let _ = writeln!(out, "{:<20} {}", "wal_entries", d.entries_since_snapshot);
            let _ = writeln!(out, "{:<20} {}", "wal_bytes", d.wal.len_bytes());
            let _ = writeln!(out, "{:<20} {}", "snapshot_every", d.snapshot_every);
        }
        if let Some(tracer) = &self.trace {
            out.push_str("== wall-time histograms (per statement kind / phase) ==\n");
            for (kind, h) in tracer.timings() {
                let _ = writeln!(
                    out,
                    "{kind:<12} n={} total={} mean={} max={}",
                    h.samples(),
                    fmt_nanos(h.total_nanos()),
                    fmt_nanos(h.mean_nanos()),
                    fmt_nanos(h.max_nanos()),
                );
                for (lower, count) in h.buckets() {
                    let _ = writeln!(out, "  >= {:<10} x{count}", fmt_nanos(lower));
                }
            }
        }
        out
    }

    /// Execute a script of `;`-separated statements. Results of SELECTs are
    /// returned in order (DDL/DML contribute nothing to the result list).
    /// Equivalent to [`execute_script_with`](Self::execute_script_with)
    /// under [`RecoveryPolicy::AbortOnError`], surfacing the first failure
    /// as the script's error.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>, DbError> {
        let outcome = self.execute_script_with(sql, RecoveryPolicy::AbortOnError)?;
        match outcome.errors.into_iter().next() {
            Some(e) => Err(e.error),
            None => Ok(outcome.results),
        }
    }

    /// Execute a script under an explicit [`RecoveryPolicy`]. The outer
    /// `Err` is reserved for parse failures (no statement ran); execution
    /// failures are reported per statement in [`ScriptOutcome::errors`].
    ///
    /// A `COMMIT` inside the script makes the statements before it
    /// permanent even under [`RecoveryPolicy::Atomic`] — exactly as it
    /// would in Oracle — so atomic loads should not embed commits.
    pub fn execute_script_with(
        &mut self,
        sql: &str,
        policy: RecoveryPolicy,
    ) -> Result<ScriptOutcome, DbError> {
        self.execute_script_opts(sql, policy, ResultMode::Collect)
    }

    /// [`execute_script_with`](Self::execute_script_with) plus an explicit
    /// [`ResultMode`]: bulk loads pass [`ResultMode::Discard`] so a script
    /// of any length holds no query results in memory.
    pub fn execute_script_opts(
        &mut self,
        sql: &str,
        policy: RecoveryPolicy,
        results: ResultMode,
    ) -> Result<ScriptOutcome, DbError> {
        let stmts = self.cached_parse(sql)?;
        let script_mark = self.txn_mark();
        let mut outcome = ScriptOutcome::default();
        for (index, stmt) in stmts.iter().enumerate() {
            match self.execute_stmt(stmt) {
                Ok(Some(result)) => {
                    match results {
                        ResultMode::Collect => outcome.results.push(result),
                        ResultMode::Discard => {}
                    }
                    outcome.executed += 1;
                }
                Ok(None) => outcome.executed += 1,
                Err(error) => {
                    outcome.errors.push(ScriptError { statement: index, kind: stmt.kind(), error });
                    match policy {
                        RecoveryPolicy::ContinueOnError => continue,
                        RecoveryPolicy::AbortOnError => break,
                        RecoveryPolicy::Atomic => {
                            self.rollback_to_mark(script_mark);
                            outcome.rolled_back = true;
                            outcome.results.clear();
                            break;
                        }
                    }
                }
            }
        }
        Ok(outcome)
    }

    // -- transactions ---------------------------------------------------------

    /// Undo position of an engine — the locked-path version of
    /// [`txn_mark`](Self::txn_mark).
    fn mark_of(&self, engine: &Engine) -> TxnMark {
        TxnMark { storage: engine.storage.undo_len(), catalog: engine.catalog.undo_len() }
    }

    /// Current undo-log position, for [`rollback_to_mark`](Self::rollback_to_mark).
    pub fn txn_mark(&self) -> TxnMark {
        let engine = self.shared.read();
        self.mark_of(&engine)
    }

    /// Undo every data and schema mutation logged after `mark` (newest
    /// first). Counts one [`ExecStats::txn_rollbacks`].
    pub fn rollback_to_mark(&mut self, mark: TxnMark) {
        let shared = Arc::clone(&self.shared);
        let mut engine = shared.write();
        self.rollback_to_mark_locked(&mut engine, mark);
    }

    fn rollback_to_mark_locked(&mut self, engine: &mut Engine, mark: TxnMark) {
        engine.storage.rollback_to(mark.storage);
        engine.catalog.rollback_to(mark.catalog);
        if let Some(d) = self.durability.as_mut() {
            // Drop the redo ops of the statements just undone: an op
            // survives only if its statement began strictly before `mark`.
            d.pending.retain(|(m, _)| m.storage < mark.storage || m.catalog < mark.catalog);
        }
        self.stats.txn_rollbacks += 1;
    }

    /// Make everything since the last commit permanent (`COMMIT`): truncate
    /// both undo logs and discard all savepoints. For a durable database
    /// this is the write-ahead barrier: the transaction's redo ops are
    /// appended to the log and fsynced *before* the undo logs are
    /// truncated, so an error here leaves the transaction open (nothing was
    /// acknowledged), and a crash on either side of the barrier recovers
    /// consistently — before it the transaction never happened, after it
    /// replay reproduces it.
    pub fn commit(&mut self) -> Result<(), DbError> {
        let shared = Arc::clone(&self.shared);
        let mut engine = shared.write();
        self.commit_locked(&mut engine, true)
    }

    fn commit_locked(
        &mut self,
        engine: &mut Engine,
        allow_auto_snapshot: bool,
    ) -> Result<(), DbError> {
        let mut snapshot_due = false;
        if let Some(d) = self.durability.as_mut() {
            if !d.pending.is_empty() {
                let ops: Vec<RedoOp> = d.pending.drain(..).map(|(_, op)| op).collect();
                d.wal.append(&ops)?;
                d.entries_since_snapshot += 1;
                snapshot_due =
                    d.snapshot_every > 0 && d.entries_since_snapshot >= d.snapshot_every;
            }
        }
        engine.storage.commit();
        engine.catalog.commit();
        self.savepoints.clear();
        if allow_auto_snapshot && snapshot_due {
            self.snapshot_locked(engine)?;
        }
        Ok(())
    }

    /// Undo everything since the last commit (`ROLLBACK`).
    pub fn rollback(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut engine = shared.write();
        self.rollback_locked(&mut engine);
    }

    fn rollback_locked(&mut self, engine: &mut Engine) {
        self.rollback_to_mark_locked(engine, TxnMark { storage: 0, catalog: 0 });
        self.savepoints.clear();
    }

    /// Establish (or move) the named savepoint at the current undo
    /// position (`SAVEPOINT name`).
    pub fn savepoint(&mut self, name: Ident) {
        let shared = Arc::clone(&self.shared);
        let engine = shared.read();
        self.savepoint_locked(&engine, name);
    }

    fn savepoint_locked(&mut self, engine: &Engine, name: Ident) {
        let mark = self.mark_of(engine);
        self.savepoints.retain(|(n, _)| *n != name);
        self.savepoints.push((name, mark));
        self.stats.savepoints += 1;
    }

    /// Undo back to the named savepoint (`ROLLBACK TO name`). The target
    /// savepoint survives and can be rolled back to again; savepoints
    /// established after it are discarded.
    pub fn rollback_to_savepoint(&mut self, name: &Ident) -> Result<(), DbError> {
        let shared = Arc::clone(&self.shared);
        let mut engine = shared.write();
        self.rollback_to_savepoint_locked(&mut engine, name)
    }

    fn rollback_to_savepoint_locked(
        &mut self,
        engine: &mut Engine,
        name: &Ident,
    ) -> Result<(), DbError> {
        let index = self
            .savepoints
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| DbError::UnknownSavepoint(name.as_str().to_string()))?;
        let mark = self.savepoints[index].1;
        self.rollback_to_mark_locked(engine, mark);
        self.savepoints.truncate(index + 1);
        Ok(())
    }

    /// Deterministic rendering of the committed + uncommitted database
    /// state — schema and data, excluding statistics and caches. Two
    /// databases with identical dumps hold identical catalogs, heaps, OID
    /// directories and OID allocator positions; the fault-injection tests
    /// compare rollback outcomes this way.
    pub fn state_dump(&self) -> String {
        let engine = self.shared.read();
        format!("{}\n{}", engine.catalog.state_dump(), engine.storage.state_dump())
    }

    /// Execute a single statement.
    pub fn execute(&mut self, sql: &str) -> Result<Option<QueryResult>, DbError> {
        let stmts = self.cached_parse(sql)?;
        if stmts.len() == 1 {
            return self.execute_stmt(&stmts[0]);
        }
        // Not exactly one statement: surface the single-statement parser's
        // error (e.g. "trailing input") rather than guessing.
        let stmt = parse_statement(sql)?;
        self.execute_stmt(&stmt)
    }

    /// Execute one SELECT and return its result.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        match self.execute(sql)? {
            Some(result) => Ok(result),
            None => Err(DbError::Execution("statement is not a query".into())),
        }
    }

    /// Execute a parsed statement. Each statement runs under an implicit
    /// savepoint: if it fails, every mutation it already made is rolled
    /// back, so a failing statement has no effect at all (Oracle's
    /// statement-level atomicity).
    pub fn execute_stmt(&mut self, stmt: &Stmt) -> Result<Option<QueryResult>, DbError> {
        if self.trace.is_none() {
            return self.execute_stmt_inner(stmt);
        }
        let kind = stmt.kind();
        let before = self.stats;
        let start = Instant::now();
        let result = self.execute_stmt_inner(stmt);
        let nanos = start.elapsed().as_nanos() as u64;
        let delta = self.stats.since(&before);
        if let Some(tracer) = self.trace.as_mut() {
            let detail = match &result {
                Ok(_) => kind.to_string(),
                Err(e) => format!("{kind} — error: {e}"),
            };
            tracer.emit("execute", detail, nanos, delta);
            tracer.time(kind, nanos);
        }
        result
    }

    fn execute_stmt_inner(&mut self, stmt: &Stmt) -> Result<Option<QueryResult>, DbError> {
        let shared = Arc::clone(&self.shared);
        let mut engine = shared.write();
        self.execute_stmt_locked(&mut engine, stmt)
    }

    fn execute_stmt_locked(
        &mut self,
        engine: &mut Engine,
        stmt: &Stmt,
    ) -> Result<Option<QueryResult>, DbError> {
        self.stats.statements += 1;
        match stmt {
            Stmt::Commit => {
                self.commit_locked(engine, true)?;
                return Ok(None);
            }
            Stmt::Rollback { to: None } => {
                self.rollback_locked(engine);
                self.drain_index_maintenance(engine);
                return Ok(None);
            }
            Stmt::Rollback { to: Some(name) } => {
                self.rollback_to_savepoint_locked(engine, name)?;
                self.drain_index_maintenance(engine);
                return Ok(None);
            }
            Stmt::Savepoint { name } => {
                self.savepoint_locked(engine, name.clone());
                return Ok(None);
            }
            _ => {}
        }
        self.bracket(
            engine,
            |db, engine| db.dispatch_stmt(engine, stmt),
            || RedoOp::Stmt(stmt.clone()),
        )
    }

    /// The statement bracket — the one place an effect is made atomic and
    /// durable: mark, `run`, count the undo it produced, roll back to the
    /// mark on error, otherwise buffer `redo()` for the next COMMIT's log
    /// entry (durable databases only; SELECT / EXPLAIN and no-op DML
    /// produce no undo and are never logged), and fold index upkeep into
    /// the counters.
    fn bracket<T>(
        &mut self,
        engine: &mut Engine,
        run: impl FnOnce(&mut Database, &mut Engine) -> Result<T, DbError>,
        redo: impl FnOnce() -> RedoOp,
    ) -> Result<T, DbError> {
        let mark = self.mark_of(engine);
        let result = run(self, engine);
        let produced = (engine.storage.undo_len() - mark.storage)
            + (engine.catalog.undo_len() - mark.catalog);
        self.stats.undo_records += produced as u64;
        if result.is_err() {
            self.rollback_to_mark_locked(engine, mark);
        } else if produced > 0 {
            if let Some(d) = self.durability.as_mut() {
                d.pending.push((mark, redo()));
            }
        }
        self.drain_index_maintenance(engine);
        result
    }

    /// Fold the row operations storage spent maintaining secondary indexes
    /// (incremental updates + rebuild visits) into the session counters.
    fn drain_index_maintenance(&mut self, engine: &mut Engine) {
        self.stats.index_maintenance_ops += engine.storage.take_maintenance_ops();
    }

    fn dispatch_stmt(
        &mut self,
        engine: &mut Engine,
        stmt: &Stmt,
    ) -> Result<Option<QueryResult>, DbError> {
        if execute_ddl(&mut engine.catalog, &mut engine.storage, &mut self.stats, self.mode, stmt)?
        {
            return Ok(None);
        }
        match stmt {
            Stmt::Insert { table, columns, values } => {
                self.stats.inserts += 1;
                // An INSERT is a batch of one.
                execute_insert_batch(
                    &engine.catalog,
                    &mut engine.storage,
                    &mut self.stats,
                    self.mode,
                    table,
                    columns,
                    std::slice::from_ref(values),
                )?;
                Ok(None)
            }
            Stmt::Update { table, sets, where_clause } => {
                execute_update(
                    &engine.catalog,
                    &mut engine.storage,
                    &mut self.stats,
                    self.mode,
                    table,
                    sets,
                    where_clause,
                )?;
                Ok(None)
            }
            Stmt::Delete { table, where_clause } => {
                execute_delete(
                    &engine.catalog,
                    &mut engine.storage,
                    &mut self.stats,
                    self.mode,
                    table,
                    where_clause,
                )?;
                Ok(None)
            }
            Stmt::Select(_) | Stmt::Explain(_) => {
                let mut ctx =
                    ExecCtx::new(&engine.catalog, &engine.storage, &mut self.stats, self.mode);
                execute_read(&mut ctx, stmt).map(Some)
            }
            // Every other variant is DDL, which `execute_ddl` handles and
            // returns `true` for; reaching here would mean a new Stmt
            // variant was added without a dispatch arm.
            other => Err(DbError::Execution(format!(
                "statement kind {} fell through execution dispatch",
                other.kind()
            ))),
        }
    }

    /// Number of rows in a table (0 if absent) — used heavily by tests and
    /// the fragmentation experiments.
    pub fn row_count(&self, table: &str) -> usize {
        self.shared.read().storage.row_count(&Ident::internal(table))
    }

    /// Convenience: the single value of a single-row, single-column query.
    pub fn query_scalar(&mut self, sql: &str) -> Result<Value, DbError> {
        let result = self.query(sql)?;
        result
            .scalar()
            .cloned()
            .ok_or_else(|| DbError::Execution("query did not return a single scalar".into()))
    }

    // -- bulk ingest ----------------------------------------------------------

    /// Execute an [`InsertBatch`] as one unit: the catalog is resolved
    /// once, every row is validated against the pre-batch snapshot, rows
    /// are appended in one storage call with a block OID reservation, and a
    /// single undo record brackets the batch (so enclosing
    /// [`RecoveryPolicy::Atomic`] marks roll it back exactly like the
    /// equivalent statement sequence). The resulting database state is
    /// byte-identical to executing the rows as individual INSERTs — see
    /// [`execute_insert_batch`] for the subquery-visibility contract.
    /// Returns the number of rows inserted; emits a `batch` trace span.
    pub fn execute_batch(&mut self, batch: &InsertBatch) -> Result<usize, DbError> {
        // The detail is formatted only when tracing: most batches are one row.
        let span = self.trace.as_ref().and_then(|_| {
            self.trace_begin("batch", format!("{} rows into {}", batch.rows.len(), batch.table))
        });
        let result = self.execute_batch_inner(batch);
        self.trace_end(span);
        result
    }

    fn execute_batch_inner(&mut self, batch: &InsertBatch) -> Result<usize, DbError> {
        let shared = Arc::clone(&self.shared);
        let mut engine = shared.write();
        self.execute_batch_locked(&mut engine, batch)
    }

    fn execute_batch_locked(
        &mut self,
        engine: &mut Engine,
        batch: &InsertBatch,
    ) -> Result<usize, DbError> {
        self.stats.statements += 1;
        self.stats.inserts += batch.rows.len() as u64;
        self.bracket(
            engine,
            |db, engine| {
                let count = execute_insert_batch(
                    &engine.catalog,
                    &mut engine.storage,
                    &mut db.stats,
                    db.mode,
                    &batch.table,
                    &batch.columns,
                    &batch.rows,
                )?;
                db.stats.batched_rows += count as u64;
                Ok(count)
            },
            || RedoOp::Batch(batch.clone()),
        )
    }
}

/// Re-register with the freshly restored storage every index a snapshot's
/// catalog lists ([`crate::catalog::Catalog::indexes_on`]: each table's key
/// indexes, exactly as CREATE TABLE registered them, and its recorded
/// `CREATE INDEX`es). Index payloads are not serialized — they are derived
/// state, rebuilt from the heaps.
fn rebuild_secondary_indexes(engine: &mut Engine) -> Result<(), DbError> {
    let Engine { catalog, storage } = engine;
    let corrupt = |def: &crate::catalog::IndexDef, why: String| {
        DbError::CorruptDurableState(format!(
            "snapshot index {} on table {}: {why}",
            def.name, def.table
        ))
    };
    let (_, _, _, declared, _) = catalog.snapshot_parts();
    if let Some(orphan) = declared.values().find(|def| catalog.get_table(&def.table).is_none()) {
        return Err(corrupt(orphan, "the table is missing".into()));
    }
    for table in catalog.table_names() {
        for def in catalog.indexes_on(table) {
            let positions =
                index_positions(catalog, def).map_err(|e| corrupt(def, e.to_string()))?;
            storage.register_index_unlogged(def.name.clone(), table.clone(), positions);
        }
    }
    Ok(())
}

/// The plan-cache lookup shared by the writing [`Database`] and
/// [`crate::mvcc::ReadSession`]s (each owns a private cache — the cache is
/// per-connection state). Non-INSERT texts hit on the verbatim string;
/// INSERT texts hit on their literal-normalized shape, with the template's
/// literal slots rebound per text. Parse errors are not cached.
pub(crate) fn cached_parse_with(
    plan_cache: &mut PlanCache,
    stats: &mut ExecStats,
    sql: &str,
) -> Result<Arc<Vec<Stmt>>, DbError> {
    plan_cache.tick += 1;
    let tick = plan_cache.tick;
    let PlanCache { entries, key, lits, .. } = plan_cache;
    let shaped = parameterize_into(sql, key, lits);
    if shaped {
        if let Some(entry) = entries.get_mut(key.as_str()) {
            entry.last_used = tick;
            if let Plan::Template(template) = &mut entry.plan {
                // In place while the cache holds the template's only
                // handle; while a caller still holds an earlier hit's
                // statements, `make_mut` rebinds a copy that replaces it.
                if rebind(Arc::make_mut(template).as_mut_slice(), lits.drain(..)) {
                    stats.plan_cache_hits += 1;
                    return Ok(template.clone());
                }
                // Only a template that was never verified fails to rebind,
                // and it may be half-bound now: drop it and look the text
                // up afresh, which parses it in full.
                entries.remove(key.as_str());
                return cached_parse_with(plan_cache, stats, sql);
            }
            // Opaque shape: fall through to the verbatim path.
        }
    }
    if let Some(entry) = entries.get_mut(sql) {
        if let Plan::Exact(stmts) = &entry.plan {
            let stmts = stmts.clone();
            entry.last_used = tick;
            stats.plan_cache_hits += 1;
            return Ok(stmts);
        }
    }
    stats.plan_cache_misses += 1;
    let mut parsed = parse_script(sql)?;
    if shaped {
        if slots_match(&mut parsed, lits) {
            let stmts = Arc::new(parsed);
            let key = key.clone();
            plan_cache.insert(key, Plan::Template(stmts.clone()), tick);
            return Ok(stmts);
        }
        let key = key.clone();
        plan_cache.insert(key, Plan::Opaque, tick);
    }
    let stmts = Arc::new(parsed);
    plan_cache.insert(sql.to_string(), Plan::Exact(stmts.clone()), tick);
    Ok(stmts)
}

/// Render nanoseconds with a unit that keeps the mantissa short.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::new(DbMode::Oracle9)
    }

    /// §2.1: object types as attribute domains + object tables.
    #[test]
    fn section_2_1_object_types_and_tables() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE Type_Professor AS OBJECT( PName VARCHAR(80), Subject VARCHAR(120));
             CREATE TYPE Type_Course AS OBJECT( Name VARCHAR(100), Professor Type_Professor);
             CREATE TABLE TabProfessor OF Type_Professor( PName PRIMARY KEY);
             CREATE TABLE Course_Offering( Department VARCHAR(120), Course Type_Course);
             INSERT INTO Course_Offering VALUES ('CS',
                Type_Course ('CAD Intro', Type_Professor ('Jaeger','CAD')));",
        )
        .unwrap();
        let rows = d
            .query("SELECT c.Course.Professor.PName FROM Course_Offering c WHERE c.Department = 'CS'")
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Jaeger")]]);
    }

    /// §2.2: collection types, both flavours.
    #[test]
    fn section_2_2_collections() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE TypeVA_Subject AS VARRAY(5) OF VARCHAR(200);
             CREATE TYPE Type_TabSubject AS TABLE OF VARCHAR(200);
             CREATE TABLE TabProfessor (
                Name VARCHAR(80),
                Subject Type_TabSubject)
             NESTED TABLE Subject STORE AS TabSubject_List;
             INSERT INTO TabProfessor VALUES ('Kudrass',
                Type_TabSubject('Database Systems', 'Operating Systems'));",
        )
        .unwrap();
        let rows = d
            .query(
                "SELECT s.COLUMN_VALUE FROM TabProfessor p, TABLE(p.Subject) s \
                 WHERE p.Name = 'Kudrass'",
            )
            .unwrap();
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.rows[0][0], Value::str("Database Systems"));
    }

    #[test]
    fn varray_limit_is_enforced() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE TypeVA_S AS VARRAY(2) OF VARCHAR(10);
             CREATE TABLE T (x TypeVA_S);",
        )
        .unwrap();
        let err = d
            .execute("INSERT INTO T VALUES (TypeVA_S('a','b','c'))")
            .unwrap_err();
        assert!(matches!(err, DbError::VarrayLimitExceeded { max: 2, actual: 3, .. }));
    }

    /// §2.3: REFs between object tables.
    #[test]
    fn section_2_3_object_references() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE Type_Professor AS OBJECT( PName VARCHAR(200), Subject VARCHAR(200));
             CREATE TYPE Type_Course AS OBJECT( Name VARCHAR(200), Prof_Ref REF Type_Professor);
             CREATE TABLE TabProfessor OF Type_Professor;
             CREATE TABLE TabCourse OF Type_Course;
             INSERT INTO TabProfessor VALUES (Type_Professor('Jaeger', 'CAD'));
             INSERT INTO TabCourse VALUES (Type_Course('CAD Intro',
                (SELECT REF(p) FROM TabProfessor p WHERE p.PName = 'Jaeger')));",
        )
        .unwrap();
        // Implicit dot navigation through the REF.
        let rows = d.query("SELECT c.Prof_Ref.Subject FROM TabCourse c").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("CAD")]]);
        // Explicit DEREF.
        let rows = d.query("SELECT DEREF(c.Prof_Ref) FROM TabCourse c").unwrap();
        assert!(matches!(rows.rows[0][0], Value::Obj { .. }));
        assert!(d.stats().derefs >= 2);
    }

    /// §4.2 example: deep single INSERT with nested collections (Oracle 9).
    #[test]
    fn section_4_2_nested_collection_insert() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE TypeVA_Subject AS VARRAY(100) OF VARCHAR(4000);
             CREATE TYPE Type_Professor AS OBJECT(
                attrPName VARCHAR(4000), attrSubject TypeVA_Subject, attrDept VARCHAR(4000));
             CREATE TYPE TypeVA_Professor AS VARRAY(100) OF Type_Professor;
             CREATE TYPE Type_Course AS OBJECT(
                attrName VARCHAR(4000), attrProfessor TypeVA_Professor, attrCreditPts VARCHAR(4000));
             CREATE TYPE TypeVA_Course AS VARRAY(100) OF Type_Course;
             CREATE TYPE Type_Student AS OBJECT(
                attrStudNr VARCHAR(4000), attrLName VARCHAR(4000), attrFName VARCHAR(4000),
                attrCourse TypeVA_Course);
             CREATE TYPE TypeVA_Student AS VARRAY(100) OF Type_Student;
             CREATE TABLE TabUniversity(
                attrStudyCourse VARCHAR(4000), attrStudent TypeVA_Student);",
        )
        .unwrap();
        let before = d.stats();
        d.execute(
            "INSERT INTO TabUniversity VALUES('Computer Science',
                TypeVA_Student(
                  Type_Student('23374','Conrad','Matthias',
                    TypeVA_Course(
                      Type_Course('Database Systems II',
                        TypeVA_Professor(
                          Type_Professor('Kudrass',
                            TypeVA_Subject('Database Systems','Operat. Systems'),
                            'Computer Science')), '4'),
                      Type_Course('CAD Intro',
                        TypeVA_Professor(
                          Type_Professor('Jaeger',
                            TypeVA_Subject('CAD','CAE'), 'Computer Science')), '4'))),
                  Type_Student('00011','Meier','Ralf', TypeVA_Course())))",
        )
        .unwrap();
        let delta = d.stats().since(&before);
        // The paper's headline: ONE insert statement for the whole document.
        assert_eq!(delta.inserts, 1);
        assert_eq!(delta.rows_inserted, 1);

        // The paper's §4.1 query, adapted: family names of students
        // subscribed to a course of Professor Jaeger, without joins.
        let rows = d
            .query(
                "SELECT s.attrLName FROM TabUniversity u, TABLE(u.attrStudent) s, \
                 TABLE(s.attrCourse) c, TABLE(c.attrProfessor) p \
                 WHERE p.attrPName = 'Jaeger'",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]]);
    }

    /// §4.3: NOT NULL on object tables; CHECK over inner attributes rejects
    /// NULL parents too (the paper's "non-desired error message").
    #[test]
    fn section_4_3_constraints() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE Type_Address AS OBJECT( attrStreet VARCHAR(4000), attrCity VARCHAR(4000));
             CREATE TYPE Type_Course AS OBJECT( attrName VARCHAR(4000), attrAddress Type_Address);
             CREATE TABLE TabCourse OF Type_Course(
                attrName NOT NULL,
                CHECK (attrAddress.attrStreet IS NOT NULL));",
        )
        .unwrap();
        // Valid: full address.
        d.execute("INSERT INTO TabCourse VALUES('DB', Type_Address('Main St','Leipzig'))")
            .unwrap();
        // Desired error: address present but street NULL.
        let err = d
            .execute("INSERT INTO TabCourse VALUES('CAD Intro', Type_Address(NULL,'Leipzig'))")
            .unwrap_err();
        assert!(matches!(err, DbError::CheckViolation { .. }));
        // The paper's *non-desired* error: NULL address also violates the
        // CHECK, because NULL.attrStreet evaluates to NULL → IS NOT NULL is
        // FALSE.
        let err = d
            .execute("INSERT INTO TabCourse VALUES('Operating Systems', NULL)")
            .unwrap_err();
        assert!(matches!(err, DbError::CheckViolation { .. }));
        // NOT NULL on the simple column.
        let err = d
            .execute("INSERT INTO TabCourse VALUES(NULL, Type_Address('X','Y'))")
            .unwrap_err();
        assert!(matches!(err, DbError::NotNullViolation { .. }));
    }

    #[test]
    fn primary_key_enforced_on_object_tables() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE T AS OBJECT(a VARCHAR(10), b VARCHAR(10));
             CREATE TABLE Tab OF T(a PRIMARY KEY);
             INSERT INTO Tab VALUES (T('1','x'));",
        )
        .unwrap();
        let err = d.execute("INSERT INTO Tab VALUES (T('1','y'))").unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        let err = d.execute("INSERT INTO Tab VALUES (T(NULL,'y'))").unwrap_err();
        assert!(matches!(err, DbError::NotNullViolation { .. }));
    }

    #[test]
    fn oracle8_mode_rejects_nested_collection_ddl() {
        let mut d = Database::new(DbMode::Oracle8);
        d.execute("CREATE TYPE TypeVA_S AS VARRAY(9) OF VARCHAR(4000)").unwrap();
        let err = d
            .execute("CREATE TYPE TypeVA_Outer AS VARRAY(9) OF TypeVA_S")
            .unwrap_err();
        assert!(matches!(err, DbError::NestedCollectionNotSupported { .. }));
        // Same script succeeds on Oracle 9.
        let mut d9 = db();
        d9.execute("CREATE TYPE TypeVA_S AS VARRAY(9) OF VARCHAR(4000)").unwrap();
        d9.execute("CREATE TYPE TypeVA_Outer AS VARRAY(9) OF TypeVA_S").unwrap();
    }

    #[test]
    fn varchar_length_limit_enforced() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE T AS OBJECT(x VARCHAR(5));
             CREATE TABLE Tab OF T;",
        )
        .unwrap();
        let err = d.execute("INSERT INTO Tab VALUES (T('toolongvalue'))").unwrap_err();
        assert!(matches!(err, DbError::ValueTooLarge { max: 5, .. }));
    }

    #[test]
    fn forward_declaration_and_drop_force_cycle() {
        // §6.2's recursive Professor/Dept structure.
        let mut d = db();
        d.execute_script(
            "CREATE TYPE Type_Professor;
             CREATE TYPE TabRefProfessor AS TABLE OF REF Type_Professor;
             CREATE TYPE Type_Dept AS OBJECT(
                attrDName VARCHAR(4000), attrProfessor TabRefProfessor);
             CREATE TYPE Type_Professor AS OBJECT(
                attrPName VARCHAR(4000), attrDept Type_Dept);",
        )
        .unwrap();
        // Dropping a depended-on type requires FORCE.
        let err = d.execute("DROP TYPE Type_Dept").unwrap_err();
        assert!(matches!(err, DbError::DependentTypeExists { .. }));
        d.execute("DROP TYPE Type_Dept FORCE").unwrap();
    }

    #[test]
    fn views_execute_their_stored_query() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE T (a VARCHAR(10), b NUMBER);
             INSERT INTO T VALUES ('x', 1);
             INSERT INTO T VALUES ('y', 2);
             CREATE VIEW V AS SELECT t.a AS name FROM T t WHERE t.b > 1;",
        )
        .unwrap();
        let rows = d.query("SELECT v.name FROM V v").unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("y")]]);
    }

    #[test]
    fn cast_multiset_builds_collections_from_joins() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE TypeVA_Subject AS VARRAY(10) OF VARCHAR(100);
             CREATE TABLE tabProfessor (IDProfessor NUMBER, attrPName VARCHAR(100));
             CREATE TABLE tabSubject (IDProfessor NUMBER, attrSubject VARCHAR(100));
             INSERT INTO tabProfessor VALUES (1, 'Kudrass');
             INSERT INTO tabSubject VALUES (1, 'Database Systems');
             INSERT INTO tabSubject VALUES (1, 'Operating Systems');
             INSERT INTO tabSubject VALUES (2, 'Other');",
        )
        .unwrap();
        let rows = d
            .query(
                "SELECT p.attrPName, CAST (MULTISET (SELECT s.attrSubject FROM tabSubject s \
                 WHERE p.IDProfessor = s.IDProfessor) AS TypeVA_Subject) FROM tabProfessor p",
            )
            .unwrap();
        let Value::Coll { elements, .. } = &rows.rows[0][1] else {
            panic!("expected collection")
        };
        assert_eq!(elements.len(), 2);
    }

    #[test]
    fn count_star_and_order_by_and_distinct() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE T (a VARCHAR(5), b NUMBER);
             INSERT INTO T VALUES ('b', 2);
             INSERT INTO T VALUES ('a', 1);
             INSERT INTO T VALUES ('a', 3);",
        )
        .unwrap();
        assert_eq!(d.query_scalar("SELECT COUNT(*) FROM T").unwrap(), Value::Num(3.0));
        let rows = d.query("SELECT t.a FROM T t ORDER BY t.b DESC").unwrap();
        assert_eq!(rows.rows[0][0], Value::str("a"));
        let distinct = d.query("SELECT DISTINCT t.a FROM T t ORDER BY t.a").unwrap();
        assert_eq!(distinct.rows.len(), 2);
    }

    #[test]
    fn delete_with_and_without_where() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE T (a NUMBER);
             INSERT INTO T VALUES (1); INSERT INTO T VALUES (2); INSERT INTO T VALUES (3);",
        )
        .unwrap();
        d.execute("DELETE FROM T WHERE a > 1").unwrap();
        assert_eq!(d.row_count("T"), 1);
        d.execute("DELETE FROM T").unwrap();
        assert_eq!(d.row_count("T"), 0);
    }

    #[test]
    fn join_statistics_are_tracked() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE A (x NUMBER); CREATE TABLE B (y NUMBER);
             INSERT INTO A VALUES (1); INSERT INTO A VALUES (2);
             INSERT INTO B VALUES (10);",
        )
        .unwrap();
        let before = d.stats();
        d.query("SELECT a.x, b.y FROM A a, B b").unwrap();
        let delta = d.stats().since(&before);
        assert_eq!(delta.join_queries, 1);
        assert_eq!(delta.join_pairs, 2); // 2 combos × 1 B-row each
        // Single-table query: no joins.
        let before = d.stats();
        d.query("SELECT a.x FROM A a").unwrap();
        assert_eq!(d.stats().since(&before).join_queries, 0);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let mut d = db();
        assert!(matches!(
            d.query("SELECT x FROM Nope"),
            Err(DbError::UnknownTable(_))
        ));
        d.execute("CREATE TABLE T (a NUMBER)").unwrap();
        d.execute("INSERT INTO T VALUES (1)").unwrap();
        assert!(matches!(
            d.query("SELECT t.bogus FROM T t"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn like_and_is_null_predicates() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE T (name VARCHAR(20));
             INSERT INTO T VALUES ('Jaeger');
             INSERT INTO T VALUES ('Kudrass');
             INSERT INTO T VALUES (NULL);",
        )
        .unwrap();
        let rows = d.query("SELECT t.name FROM T t WHERE t.name LIKE 'J%'").unwrap();
        assert_eq!(rows.rows.len(), 1);
        let nulls = d.query("SELECT COUNT(*) FROM T t WHERE t.name IS NULL").unwrap();
        assert_eq!(nulls.rows[0][0], Value::Num(1.0));
    }

    #[test]
    fn exists_subquery() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE A (x NUMBER); CREATE TABLE B (x NUMBER);
             INSERT INTO A VALUES (1); INSERT INTO A VALUES (2);
             INSERT INTO B VALUES (2);",
        )
        .unwrap();
        let rows = d
            .query("SELECT a.x FROM A a WHERE EXISTS (SELECT b.x FROM B b WHERE b.x = a.x)")
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Num(2.0)]]);
    }

    #[test]
    fn insert_with_column_list() {
        let mut d = db();
        d.execute("CREATE TABLE T (a NUMBER, b VARCHAR(5), c NUMBER)").unwrap();
        d.execute("INSERT INTO T (c, a) VALUES (3, 1)").unwrap();
        let rows = d.query("SELECT * FROM T").unwrap();
        assert_eq!(rows.rows[0], vec![Value::Num(1.0), Value::Null, Value::Num(3.0)]);
    }

    #[test]
    fn select_star_names_an_empty_table() {
        let mut d = db();
        d.execute("CREATE TABLE T (a NUMBER, b VARCHAR(5))").unwrap();
        let rows = d.query("SELECT * FROM T").unwrap();
        assert_eq!(rows.columns, vec!["a", "b"]);
        assert!(rows.rows.is_empty());
    }

    #[test]
    fn dangling_ref_detected() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE T AS OBJECT(a VARCHAR(5));
             CREATE TABLE Tab OF T;
             CREATE TABLE Holder (r REF T);
             INSERT INTO Tab VALUES (T('x'));
             INSERT INTO Holder VALUES ((SELECT REF(t) FROM Tab t));",
        )
        .unwrap();
        d.execute("DELETE FROM Tab").unwrap();
        let err = d.query("SELECT DEREF(h.r) FROM Holder h").unwrap_err();
        assert!(matches!(err, DbError::DanglingRef));
    }

    #[test]
    fn update_sets_columns_and_nested_attributes() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE Type_Addr AS OBJECT(street VARCHAR(100), city VARCHAR(100));
             CREATE TYPE Type_P AS OBJECT(name VARCHAR(100), addr Type_Addr);
             CREATE TABLE TabP OF Type_P;
             INSERT INTO TabP VALUES (Type_P('Kudrass', Type_Addr('Main St', 'Leipzig')));
             INSERT INTO TabP VALUES (Type_P('Jaeger', Type_Addr('Side St', 'Halle')));",
        )
        .unwrap();
        // Top-level column.
        d.execute("UPDATE TabP SET name = 'Conrad' WHERE name = 'Kudrass'").unwrap();
        assert_eq!(
            d.query("SELECT p.name FROM TabP p WHERE p.name = 'Conrad'").unwrap().rows.len(),
            1
        );
        // Nested object attribute.
        d.execute("UPDATE TabP SET addr.city = 'Dresden' WHERE name = 'Jaeger'").unwrap();
        assert_eq!(
            d.query_scalar("SELECT p.addr.city FROM TabP p WHERE p.name = 'Jaeger'").unwrap(),
            Value::str("Dresden")
        );
        // Unaffected row untouched.
        assert_eq!(
            d.query_scalar("SELECT p.addr.city FROM TabP p WHERE p.name = 'Conrad'").unwrap(),
            Value::str("Leipzig")
        );
    }

    #[test]
    fn update_without_where_touches_all_rows() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE T (a NUMBER, b VARCHAR(10));
             INSERT INTO T VALUES (1, 'x'); INSERT INTO T VALUES (2, 'y');",
        )
        .unwrap();
        d.execute("UPDATE T SET b = 'z'").unwrap();
        let rows = d.query("SELECT t.b FROM T t").unwrap();
        assert!(rows.rows.iter().all(|r| r[0] == Value::str("z")));
    }

    #[test]
    fn update_uses_old_row_values_on_the_right_hand_side() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE T (a VARCHAR(20), b VARCHAR(20));
             INSERT INTO T VALUES ('old-a', 'old-b');",
        )
        .unwrap();
        d.execute("UPDATE T SET a = b, b = a").unwrap();
        let rows = d.query("SELECT t.a, t.b FROM T t").unwrap();
        // Swap semantics: both sides read the pre-update row.
        assert_eq!(rows.rows[0], vec![Value::str("old-b"), Value::str("old-a")]);
    }

    #[test]
    fn update_respects_not_null_and_check_constraints() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE T AS OBJECT(a VARCHAR(10), b NUMBER);
             CREATE TABLE Tab OF T(a NOT NULL, CHECK (b > 0));
             INSERT INTO Tab VALUES (T('x', 1));",
        )
        .unwrap();
        assert!(matches!(
            d.execute("UPDATE Tab SET a = NULL").unwrap_err(),
            DbError::NotNullViolation { .. }
        ));
        assert!(matches!(
            d.execute("UPDATE Tab SET b = 0").unwrap_err(),
            DbError::CheckViolation { .. }
        ));
        // Nothing was changed by the failed statements.
        assert_eq!(d.query_scalar("SELECT t.b FROM Tab t").unwrap(), Value::Num(1.0));
    }

    #[test]
    fn update_with_subquery_wires_refs() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE Type_P AS OBJECT(name VARCHAR(20), boss REF Type_P);
             CREATE TABLE TabP OF Type_P;
             INSERT INTO TabP VALUES (Type_P('Kudrass', NULL));
             INSERT INTO TabP VALUES (Type_P('Conrad', NULL));",
        )
        .unwrap();
        d.execute(
            "UPDATE TabP SET boss = (SELECT REF(x) FROM TabP x WHERE x.name = 'Kudrass') \
             WHERE name = 'Conrad'",
        )
        .unwrap();
        assert_eq!(
            d.query_scalar("SELECT p.boss.name FROM TabP p WHERE p.name = 'Conrad'").unwrap(),
            Value::str("Kudrass")
        );
    }

    #[test]
    fn plan_cache_reuses_parsed_statements() {
        let mut d = db();
        d.execute("CREATE TABLE T (a NUMBER)").unwrap();
        for _ in 0..10 {
            d.execute("INSERT INTO T VALUES (1)").unwrap();
        }
        // The CREATE and the first INSERT miss; the nine repeats hit.
        assert_eq!(d.stats().plan_cache_misses, 2);
        assert_eq!(d.stats().plan_cache_hits, 9);
        assert_eq!(d.row_count("T"), 10);

        // Scripts are cached whole, and cached plans survive DDL because
        // parsing is context-free.
        d.execute_script("INSERT INTO T VALUES (2); SELECT COUNT(*) FROM T;").unwrap();
        let results = d.execute_script("INSERT INTO T VALUES (2); SELECT COUNT(*) FROM T;").unwrap();
        assert_eq!(d.stats().plan_cache_hits, 10);
        assert_eq!(results[0].rows[0][0], Value::Num(12.0));
    }

    #[test]
    fn plan_cache_rebinds_insert_literals() {
        let mut d = db();
        d.execute("CREATE TABLE T (a NUMBER, b VARCHAR(10))").unwrap();
        for i in 0..20 {
            d.execute(&format!("INSERT INTO T VALUES ({i}, 'v{i}')")).unwrap();
        }
        // Every text is distinct, but the shape is one: a single template
        // miss, nineteen rebind hits.
        assert_eq!(d.stats().plan_cache_misses, 2);
        assert_eq!(d.stats().plan_cache_hits, 19);
        // The literals were rebound per text, not replayed from the first.
        assert_eq!(
            d.query_scalar("SELECT COUNT(*) FROM T t WHERE t.a = 17 AND t.b = 'v17'").unwrap(),
            Value::Num(1.0)
        );
        assert_eq!(d.query_scalar("SELECT COUNT(*) FROM T").unwrap(), Value::Num(20.0));
    }

    #[test]
    fn plan_cache_rebinds_constructor_and_subquery_inserts() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE Type_P AS OBJECT(name VARCHAR(20), subject VARCHAR(20));
             CREATE TYPE Type_C AS OBJECT(name VARCHAR(20), prof REF Type_P);
             CREATE TABLE TabP OF Type_P;
             CREATE TABLE TabC OF Type_C;",
        )
        .unwrap();
        for (prof, subject) in [("Kudrass", "DB"), ("Jaeger", "CAD")] {
            d.execute(&format!("INSERT INTO TabP VALUES (Type_P('{prof}', '{subject}'))"))
                .unwrap();
            d.execute(&format!(
                "INSERT INTO TabC VALUES (Type_C('{subject} Intro',
                   (SELECT REF(p) FROM TabP p WHERE p.name = '{prof}')))"
            ))
            .unwrap();
        }
        // Second round of each shape rebinds through the cache, and the
        // subquery literal is rebound too: each course REFs its own prof.
        assert_eq!(d.stats().plan_cache_hits, 2);
        assert_eq!(
            d.query_scalar("SELECT c.prof.name FROM TabC c WHERE c.name = 'CAD Intro'").unwrap(),
            Value::str("Jaeger")
        );
    }

    #[test]
    fn plan_cache_leaves_folded_negative_shapes_verbatim() {
        let mut d = db();
        d.execute("CREATE TABLE T (a NUMBER)").unwrap();
        d.execute("INSERT INTO T VALUES (-1)").unwrap();
        // Same shape, different literal: the `-` fold makes it
        // untemplatable, so this is a miss …
        d.execute("INSERT INTO T VALUES (-2)").unwrap();
        // … but the verbatim repeat still hits the exact entry.
        d.execute("INSERT INTO T VALUES (-2)").unwrap();
        assert_eq!(d.stats().plan_cache_hits, 1);
        let rows = d.query("SELECT t.a FROM T t ORDER BY t.a").unwrap();
        assert_eq!(
            rows.rows,
            vec![vec![Value::Num(-2.0)], vec![Value::Num(-2.0)], vec![Value::Num(-1.0)]]
        );
    }

    #[test]
    fn plan_cache_does_not_cache_parse_errors() {
        let mut d = db();
        assert!(d.execute("SELEKT nonsense").is_err());
        assert!(d.execute("SELEKT nonsense").is_err());
        assert_eq!(d.stats().plan_cache_hits, 0);
        assert_eq!(d.stats().plan_cache_misses, 2);
    }

    #[test]
    fn plan_cache_hit_leaves_held_statements_alone() {
        let mut cache = PlanCache::default();
        let mut stats = ExecStats::default();
        let text = |i: u32| format!("INSERT INTO T VALUES ({i}, 'v{i}')");
        let mut parse = |i: u32| cached_parse_with(&mut cache, &mut stats, &text(i)).unwrap();
        // A miss, then two hits while the caller still holds the earlier
        // statements: each hit rebinds a copy, never what is held.
        let first = parse(1);
        let second = parse(2);
        let third = parse(3);
        for (held, i) in [(&first, 1), (&second, 2), (&third, 3)] {
            assert_eq!(**held, parse_script(&text(i)).unwrap());
        }
        assert!(!Arc::ptr_eq(&first, &second) && !Arc::ptr_eq(&second, &third));
        // Once nothing else holds it, the cached copy is rebound in place.
        drop((first, second, third));
        let fourth = parse(4);
        assert_eq!(*fourth, parse_script(&text(4)).unwrap());
        let Some(Plan::Template(template)) = cache.entries.values().map(|e| &e.plan).next() else {
            panic!("the shape is not templated: {:?}", cache.entries);
        };
        assert!(Arc::ptr_eq(template, &fourth));
        assert_eq!((stats.plan_cache_hits, stats.plan_cache_misses), (3, 1));
    }

    #[test]
    fn plan_cache_evicts_a_template_that_fails_to_rebind() {
        let mut d = db();
        d.execute("CREATE TABLE T (a NUMBER, b VARCHAR(10))").unwrap();
        let sql = "INSERT INTO T VALUES (7, 'b')";
        // Under this text's shape, a template with a slot too many — one
        // that was never verified. Rebinding fills two of its three slots.
        let (key, _) = crate::sql::param::parameterize(sql).unwrap();
        let wrong = parse_script("INSERT INTO T VALUES (1, 'a', 2)").unwrap();
        d.plan_cache.insert(key.clone(), Plan::Template(Arc::new(wrong)), 0);
        let before = d.stats();
        d.execute(sql).unwrap();
        let delta = d.stats().since(&before);
        assert_eq!((delta.plan_cache_hits, delta.plan_cache_misses), (0, 1));
        // The half-bound template is gone; the text parsed in full and
        // templated its own shape.
        match &d.plan_cache.entries[&key].plan {
            Plan::Template(template) => assert_eq!(**template, parse_script(sql).unwrap()),
            other => panic!("{other:?}"),
        }
        d.execute("INSERT INTO T VALUES (8, 'c')").unwrap();
        assert_eq!(d.stats().since(&before).plan_cache_hits, 1);
        let rows = d.query("SELECT t.a, t.b FROM T t ORDER BY t.a").unwrap().rows;
        assert_eq!(rows, vec![
            vec![Value::Num(7.0), Value::str("b")],
            vec![Value::Num(8.0), Value::str("c")]
        ]);
    }

    #[test]
    fn plan_cache_counts_hits_and_misses_per_text() {
        let mut d = db();
        // (text, hit?) — two INSERT shapes, a shape the `-` fold makes
        // opaque (cached by verbatim text only), DDL and a SELECT.
        let steps = [
            ("CREATE TABLE T (a NUMBER, b VARCHAR(10))", false),
            ("CREATE TABLE U (a NUMBER)", false),
            ("INSERT INTO T VALUES (1, 'a')", false),
            ("INSERT INTO T VALUES (2, 'b')", true),
            ("INSERT INTO U VALUES (3)", false),
            ("INSERT INTO U VALUES (4)", true),
            ("INSERT INTO U VALUES (-5)", false),
            ("INSERT INTO U VALUES (-6)", false),
            ("INSERT INTO U VALUES (-6)", true),
            ("SELECT COUNT(*) FROM U", false),
            ("SELECT COUNT(*) FROM U", true),
            ("INSERT INTO T VALUES (5, 'e')", true),
            ("INSERT INTO U VALUES (-5)", true),
            ("INSERT INTO U VALUES (6)", true),
        ];
        for (sql, hit) in steps {
            let before = d.stats();
            d.execute(sql).unwrap();
            let delta = d.stats().since(&before);
            assert_eq!((delta.plan_cache_hits, delta.plan_cache_misses), (hit as u64, !hit as u64), "{sql}");
        }
        assert_eq!(d.query("SELECT t.a FROM T t ORDER BY t.a").unwrap().rows, vec![
            vec![Value::Num(1.0)],
            vec![Value::Num(2.0)],
            vec![Value::Num(5.0)]
        ]);
        assert_eq!(d.query_scalar("SELECT COUNT(*) FROM U").unwrap(), Value::Num(7.0));
    }

    #[test]
    fn check_beside_execute_agrees_with_the_executor() {
        let errors = |diags: &[Diagnostic]| {
            diags.iter().filter(|x| x.severity == crate::Severity::Error).count()
        };
        let mut d = db();
        let script = "CREATE TYPE Type_P AS OBJECT(name VARCHAR(10), boss REF Type_P);
             CREATE TABLE TabP OF Type_P;
             INSERT INTO TabP VALUES (Type_P('x', NULL));";
        // The REF column draws an unscoped-ref warning; nothing is an error,
        // and execution goes through untouched.
        let diags = d.check(script).unwrap();
        assert_eq!(errors(&diags), 0);
        assert!(!diags.is_empty());
        d.execute_script(script).unwrap();
        assert_eq!(d.row_count("TabP"), 1);
        // A statement the executor rejects is also an analyzer error.
        let bad = "INSERT INTO Nope VALUES (1)";
        assert_eq!(errors(&d.check(bad).unwrap()), 1);
        let err = d.execute(bad).unwrap_err();
        assert!(matches!(err, DbError::UnknownTable(_)));
    }

    #[test]
    fn check_reports_against_the_live_catalog_without_executing() {
        let mut d = db();
        d.execute("CREATE TABLE T (a NUMBER)").unwrap();
        let diags = d.check("INSERT INTO T VALUES (1, 2);").unwrap();
        assert!(diags.iter().any(|x| x.code == "insert-arity"), "{diags:?}");
        assert_eq!(d.row_count("T"), 0);
        // A script extending the catalog checks against its own DDL.
        let diags = d.check("CREATE TABLE U (b NUMBER); INSERT INTO U VALUES (3);").unwrap();
        assert!(diags.is_empty(), "{diags:?}");
        assert!(d.catalog().get_table(&Ident::internal("U")).is_none());
    }

    #[test]
    fn statement_counter_counts_everything() {
        let mut d = db();
        d.execute_script(
            "CREATE TABLE T (a NUMBER); INSERT INTO T VALUES (1); SELECT COUNT(*) FROM T;",
        )
        .unwrap();
        assert_eq!(d.stats().statements, 3);
        assert_eq!(d.stats().inserts, 1);
        assert_eq!(d.stats().tables_created, 1);
    }

    #[test]
    fn rollback_undoes_everything_since_the_last_commit() {
        let mut d = db();
        d.execute_script("CREATE TABLE T (a NUMBER); INSERT INTO T VALUES (1); COMMIT;").unwrap();
        let committed = d.state_dump();
        d.execute_script(
            "INSERT INTO T VALUES (2);
             CREATE TYPE Type_X AS OBJECT (a NUMBER);
             DELETE FROM T WHERE a = 1;",
        )
        .unwrap();
        assert_eq!(d.row_count("T"), 1);
        d.execute("ROLLBACK").unwrap();
        assert_eq!(d.state_dump(), committed);
        assert_eq!(d.row_count("T"), 1);
        assert!(d.catalog().get_type(&Ident::internal("Type_X")).is_none());
        assert_eq!(d.query_scalar("SELECT t.a FROM T t").unwrap(), Value::Num(1.0));
    }

    #[test]
    fn savepoints_nest_and_survive_partial_rollback() {
        let mut d = db();
        d.execute_script("CREATE TABLE T (a NUMBER); COMMIT").unwrap();
        d.execute_script(
            "INSERT INTO T VALUES (1);
             SAVEPOINT one;
             INSERT INTO T VALUES (2);
             SAVEPOINT two;
             INSERT INTO T VALUES (3);",
        )
        .unwrap();
        d.execute("ROLLBACK TO two").unwrap();
        assert_eq!(d.row_count("T"), 2);
        // `two` survives the rollback and can be targeted again (Oracle).
        d.execute("INSERT INTO T VALUES (30)").unwrap();
        d.execute("ROLLBACK TO two").unwrap();
        assert_eq!(d.row_count("T"), 2);
        d.execute("ROLLBACK TO one").unwrap();
        assert_eq!(d.row_count("T"), 1);
        // `two` was discarded by rolling back past it.
        let err = d.execute("ROLLBACK TO two").unwrap_err();
        assert!(matches!(err, DbError::UnknownSavepoint(name) if name == "two"));
        assert_eq!(d.stats().savepoints, 2);
    }

    #[test]
    fn commit_discards_savepoints_and_seals_changes() {
        let mut d = db();
        d.execute_script("CREATE TABLE T (a NUMBER); SAVEPOINT sp; INSERT INTO T VALUES (1); COMMIT")
            .unwrap();
        assert!(matches!(
            d.execute("ROLLBACK TO sp").unwrap_err(),
            DbError::UnknownSavepoint(_)
        ));
        d.execute("ROLLBACK").unwrap();
        assert_eq!(d.row_count("T"), 1, "committed work survives ROLLBACK");
    }

    #[test]
    fn failing_statement_rolls_back_only_itself() {
        let mut d = db();
        d.execute_script("CREATE TABLE T (a NUMBER NOT NULL); INSERT INTO T VALUES (1)").unwrap();
        let before = d.state_dump();
        let rollbacks = d.stats().txn_rollbacks;
        let err = d.execute("INSERT INTO T VALUES (NULL)").unwrap_err();
        assert!(matches!(err, DbError::NotNullViolation { .. }));
        assert_eq!(d.state_dump(), before);
        assert_eq!(d.stats().txn_rollbacks, rollbacks + 1);
        d.storage().check_oid_directory().unwrap();
    }

    #[test]
    fn atomic_policy_rolls_back_the_whole_script() {
        let mut d = db();
        d.execute("CREATE TABLE Keep (a NUMBER)").unwrap();
        d.commit().unwrap();
        let initial = d.state_dump();
        let outcome = d
            .execute_script_with(
                "CREATE TYPE Type_P AS OBJECT (a VARCHAR(5));
                 CREATE TABLE TabP OF Type_P;
                 INSERT INTO TabP VALUES (Type_P('ok'));
                 INSERT INTO TabP VALUES (Type_P('way too long'));",
                RecoveryPolicy::Atomic,
            )
            .unwrap();
        assert!(outcome.rolled_back);
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.errors[0].statement, 3);
        assert_eq!(outcome.errors[0].kind, "INSERT");
        assert_eq!(outcome.executed, 3);
        assert_eq!(d.state_dump(), initial, "atomic failure leaves no trace");
        d.storage().check_oid_directory().unwrap();
    }

    #[test]
    fn abort_on_error_keeps_the_prefix_and_reports_the_index() {
        let mut d = db();
        let outcome = d
            .execute_script_with(
                "CREATE TABLE T (a NUMBER);
                 INSERT INTO T VALUES (1);
                 INSERT INTO Missing VALUES (2);
                 INSERT INTO T VALUES (3);",
                RecoveryPolicy::AbortOnError,
            )
            .unwrap();
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.errors[0].statement, 2);
        assert_eq!(outcome.executed, 2);
        assert!(!outcome.rolled_back);
        assert_eq!(d.row_count("T"), 1, "statement 3 never ran");
    }

    #[test]
    fn continue_on_error_collects_every_failure() {
        let mut d = db();
        let outcome = d
            .execute_script_with(
                "CREATE TABLE T (a NUMBER);
                 INSERT INTO Missing VALUES (1);
                 INSERT INTO T VALUES (2);
                 INSERT INTO Missing2 VALUES (3);
                 INSERT INTO T VALUES (4);",
                RecoveryPolicy::ContinueOnError,
            )
            .unwrap();
        assert_eq!(outcome.errors.len(), 2);
        assert_eq!(
            outcome.errors.iter().map(|e| e.statement).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(outcome.executed, 3);
        assert_eq!(d.row_count("T"), 2, "good statements all applied");
    }

    #[test]
    fn rollback_restores_updates_and_drops() {
        let mut d = db();
        d.execute_script(
            "CREATE TYPE Type_P AS OBJECT (PName VARCHAR(80));
             CREATE TABLE TabP OF Type_P (PName PRIMARY KEY);
             INSERT INTO TabP VALUES (Type_P('Jaeger'));
             COMMIT;",
        )
        .unwrap();
        let committed = d.state_dump();
        d.execute("UPDATE TabP SET PName = 'Kudrass'").unwrap();
        assert_eq!(
            d.query_scalar("SELECT p.PName FROM TabP p").unwrap(),
            Value::str("Kudrass")
        );
        d.execute("DROP TABLE TabP").unwrap();
        d.execute("DROP TYPE Type_P").unwrap();
        d.execute("ROLLBACK").unwrap();
        assert_eq!(d.state_dump(), committed);
        assert_eq!(
            d.query_scalar("SELECT p.PName FROM TabP p").unwrap(),
            Value::str("Jaeger")
        );
        d.storage().check_oid_directory().unwrap();
    }

    #[test]
    fn undo_records_are_counted() {
        let mut d = db();
        d.execute_script("CREATE TABLE T (a NUMBER); INSERT INTO T VALUES (1)").unwrap();
        // CREATE TABLE logs a catalog + a storage record, INSERT one more.
        assert!(d.stats().undo_records >= 3, "{}", d.stats().undo_records);
    }

    #[test]
    fn explain_renders_a_plan_without_executing() {
        let mut d = db();
        d.execute_script("CREATE TABLE T (a NUMBER); INSERT INTO T VALUES (1)").unwrap();
        let before = d.state_dump();
        let plan = d.query("EXPLAIN INSERT INTO T VALUES (2)").unwrap();
        assert_eq!(plan.columns, vec!["PLAN"]);
        assert!(plan.rows[0][0].as_str().unwrap().starts_with("EXPLAIN (Oracle9)"));
        // EXPLAIN never runs its target.
        assert_eq!(d.state_dump(), before);
        assert_eq!(d.row_count("T"), 1);
        // The Oracle spelling parses too.
        d.query("EXPLAIN PLAN FOR SELECT * FROM T").unwrap();
    }

    #[test]
    fn tracing_emits_parse_and_execute_events_with_deltas() {
        use crate::trace::TraceHandle;
        let mut d = db();
        let (handle, ring) = TraceHandle::ring(64);
        d.set_trace_sink(Some(handle));
        assert!(d.trace_enabled());
        d.execute("CREATE TABLE T (a NUMBER)").unwrap();
        d.execute("INSERT INTO T VALUES (1)").unwrap();
        d.execute("INSERT INTO T VALUES (2)").unwrap();
        let ring = ring.lock().unwrap();
        let events: Vec<_> = ring.events().collect();
        // Each statement contributes one parse and one execute event.
        assert_eq!(events.len(), 6);
        assert!(events.iter().map(|e| e.seq).eq(0..6));
        assert_eq!(events[0].phase, "parse");
        assert_eq!(events[0].detail, "plan-cache miss — parsed");
        assert_eq!(events[1].phase, "execute");
        assert_eq!(events[1].detail, "CREATE TABLE");
        // The second INSERT's text rebinds through the plan cache.
        assert_eq!(events[4].detail, "plan-cache hit");
        assert_eq!(events[4].delta.plan_cache_hits, 1);
        // Execute events carry the statement's counter delta.
        assert_eq!(events[3].delta.inserts, 1);
        assert_eq!(events[3].delta.rows_inserted, 1);
    }

    #[test]
    fn pipeline_spans_bracket_counter_deltas() {
        use crate::trace::TraceHandle;
        let mut d = db();
        let (handle, ring) = TraceHandle::ring(16);
        d.set_trace_sink(Some(handle));
        d.execute("CREATE TABLE T (a NUMBER)").unwrap();
        let span = d.trace_begin("load", "doc.xml");
        d.execute("INSERT INTO T VALUES (1)").unwrap();
        d.execute("INSERT INTO T VALUES (2)").unwrap();
        d.trace_end(span);
        let ring = ring.lock().unwrap();
        let load = ring.events().find(|e| e.phase == "load").unwrap();
        assert_eq!(load.detail, "doc.xml");
        assert_eq!(load.delta.inserts, 2);
        assert_eq!(load.delta.statements, 2);
    }

    #[test]
    fn stats_report_renders_counters_and_timings() {
        use crate::trace::TraceHandle;
        let mut d = db();
        // Without tracing: counters only.
        d.execute("CREATE TABLE T (a NUMBER)").unwrap();
        let report = d.stats_report();
        assert!(
            report.lines().any(|l| l.starts_with("statements") && l.ends_with(" 1")),
            "{report}"
        );
        assert!(!report.contains("histograms"), "{report}");
        // With tracing: per-kind histograms appear.
        let (handle, _ring) = TraceHandle::ring(4);
        d.set_trace_sink(Some(handle));
        d.execute("INSERT INTO T VALUES (1)").unwrap();
        let report = d.stats_report();
        assert!(report.contains("histograms"), "{report}");
        assert!(report.contains("INSERT"), "{report}");
        assert!(report.contains("parse"), "{report}");
    }

    /// Satellite guarantee: with no sink installed, the traced code paths
    /// leave both the observable state and every counter byte-identical to
    /// the seed behaviour — tracing is free when off.
    #[test]
    fn disabled_tracing_is_invisible_to_state_and_counters() {
        let script = "CREATE TYPE Type_P AS OBJECT(name VARCHAR(20), boss REF Type_P);
             CREATE TABLE TabP OF Type_P;
             INSERT INTO TabP VALUES (Type_P('Kudrass', NULL));
             INSERT INTO TabP VALUES (Type_P('Conrad', NULL));
             SELECT p.name FROM TabP p WHERE p.name = 'Conrad';";
        let mut plain = db();
        plain.execute_script(script).unwrap();
        let mut touched = db();
        // Install a sink, then remove it: the wrapper paths were compiled
        // in either way, and must not leave a residue.
        let (handle, _ring) = crate::trace::TraceHandle::ring(4);
        touched.set_trace_sink(Some(handle));
        touched.set_trace_sink(None);
        assert!(!touched.trace_enabled());
        touched.execute_script(script).unwrap();
        assert_eq!(plain.state_dump(), touched.state_dump());
        assert_eq!(plain.stats(), touched.stats());
    }

    /// The PR 9 split's whole point: a `Database` (and its read sessions)
    /// can cross threads. Compile-time assertion — if a non-`Send` type
    /// (`Rc`, `RefCell`, raw pointer) sneaks back into the session state,
    /// this line stops building.
    #[test]
    fn database_and_read_session_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Database>();
        assert_send::<crate::mvcc::ReadSession>();
    }

    /// Clone semantics under the shared-state split: a clone deep-copies
    /// the engine into a fresh `SharedState`, so two handles never race
    /// one engine — mutations on either side are invisible to the other.
    #[test]
    fn cloned_database_shares_nothing_with_its_original() {
        let mut original = db();
        original
            .execute_script(
                "CREATE TYPE Type_P AS OBJECT(name VARCHAR(20));
                 CREATE TABLE TabP OF Type_P;
                 INSERT INTO TabP VALUES (Type_P('Kudrass'));",
            )
            .unwrap();
        let mut cloned = original.clone();
        assert_eq!(original.state_dump(), cloned.state_dump());

        // Diverge both sides; each must see only its own writes.
        original.execute("INSERT INTO TabP VALUES (Type_P('Conrad'))").unwrap();
        cloned.execute("DELETE FROM TabP WHERE name = 'Kudrass'").unwrap();
        assert_eq!(original.row_count("TabP"), 2);
        assert_eq!(cloned.row_count("TabP"), 0);

        // And the engines really are distinct allocations: mutating the
        // clone from another thread while the original reads is fine.
        let handle = std::thread::spawn(move || {
            cloned.execute("INSERT INTO TabP VALUES (Type_P('Thread'))").unwrap();
            cloned.row_count("TabP")
        });
        assert_eq!(original.row_count("TabP"), 2);
        assert_eq!(handle.join().unwrap(), 1);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlord-session-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Regression (PR 9): `set_snapshot_every(0)` used to leave the WAL
    /// unbounded with no way to compact it or even see its size. Now
    /// `stats_report` exposes the log's entry count and byte length, a
    /// reopen after N commits recovers correctly (replaying all N), and
    /// [`Database::close`] compacts the log on clean shutdown.
    #[test]
    fn unbounded_wal_is_observable_and_close_compacts_it() {
        let dir = temp_dir("walbound");
        let mut d = Database::open(&dir, DbMode::Oracle9).unwrap();
        d.set_snapshot_every(0);
        d.execute_script(
            "CREATE TYPE Type_P AS OBJECT(name VARCHAR(20));
             CREATE TABLE TabP OF Type_P;",
        )
        .unwrap();
        d.commit().unwrap();
        for i in 0..5 {
            d.execute(&format!("INSERT INTO TabP VALUES (Type_P('p{i}'))")).unwrap();
            d.commit().unwrap();
        }
        let report = d.stats_report();
        assert!(report.contains("wal_entries          6"), "{report}");
        assert!(report.contains("wal_bytes"), "{report}");
        assert!(report.contains("snapshot_every       0"), "{report}");
        let dump = d.state_dump();
        drop(d); // crash: no snapshot was ever written

        // Recovery replays the whole history from the unbounded log.
        let reopened = Database::open(&dir, DbMode::Oracle9).unwrap();
        let report = *reopened.recovery_report().unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.entries_replayed, 6);
        assert_eq!(reopened.state_dump(), dump);
        assert_eq!(reopened.row_count("TabP"), 5);

        // Clean shutdown compacts: the next open loads the snapshot and
        // replays nothing.
        reopened.close().unwrap();
        let d = Database::open(&dir, DbMode::Oracle9).unwrap();
        let report = *d.recovery_report().unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.entries_replayed, 0);
        assert_eq!(d.state_dump(), dump);
        let rendered = d.stats_report();
        assert!(rendered.contains("wal_entries          0"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
