//! # xmlord-ordb — an embedded object-relational database engine
//!
//! Substrate **S3** of the reproduction of *Kudrass & Conrad (EDBT 2002)*:
//! the role Oracle 8i/9i plays in the paper. The mapping layer generates SQL
//! *text* ("This script can be executed afterwards without any modification
//! to create and populate the database tables", §4) — so this crate is a real
//! SQL engine, not an API shim: lexer, parser, catalog, storage and executor
//! for the Oracle-flavoured object-relational subset the paper exercises:
//!
//! * `CREATE TYPE … AS OBJECT` (§2.1), `AS VARRAY(n) OF …` and
//!   `AS TABLE OF …` (§2.2), incomplete forward type declarations (§6.2),
//! * object tables (`CREATE TABLE t OF type`) with column constraints,
//!   relational tables, `NESTED TABLE … STORE AS` (§2.2),
//! * `REF type` columns with `SCOPE FOR` (§2.3), `DEREF`, implicit
//!   dot-navigation through object and REF attributes,
//! * `INSERT` with nested type constructors (§4.1/§4.2), scalar subqueries
//!   (`SELECT REF(p) …`) for the Oracle 8 workaround,
//! * `SELECT` with dot-notation paths, `TABLE(…)` collection un-nesting,
//!   `CAST(MULTISET(…) AS type)` (§6.3), object views,
//! * `NOT NULL`, `PRIMARY KEY` and table-level `CHECK` constraints with the
//!   §4.3 semantics (a CHECK over an attribute of a NULL object evaluates to
//!   UNKNOWN, and UNKNOWN *passes* — so the constraint silently admits the
//!   NULL row; [`analyze`] flags this quirk as the `check-null-object` lint),
//! * two compatibility modes (§2.2): [`DbMode::Oracle8`] rejects collections
//!   whose element type is another collection or a LOB; [`DbMode::Oracle9`]
//!   accepts arbitrary nesting.
//!
//! Everything is deterministic and in-memory. [`stats::ExecStats`] counts
//! statements, rows and join work so the benchmark harness can report the
//! paper's qualitative comparisons as numbers.
//!
//! ## Engine internals & performance counters
//!
//! Six fast paths keep the execution substrate from dominating the
//! storage-strategy comparisons (the standing benchmark reports their
//! counters):
//!
//! * **Pipelined FROM** — [`exec::select`] enumerates a FROM clause
//!   depth-first on an explicit stack: each position has a cursor (scan,
//!   hash probe, index probe, OID probe, view rows or a lateral `TABLE(…)`
//!   expansion) and one frame, refilled in place for a candidate that
//!   passes its `column op literal` filters — tested on the stored block
//!   first — and each complete combination goes straight to the residual
//!   filter and projection (or a `COUNT(*)` tally). Nothing is stored per
//!   combination, and memory is O(FROM items) plus the hash builds, which
//!   hold row numbers, plus the result — so the §4.1 query allocates per
//!   result row, not per un-nested element or scanned row, on Oracle 9
//!   and on Oracle 8 (`tests/unnest_alloc.rs`).
//!
//! * **OID directory** — [`storage::Storage`] maintains a hash index
//!   `Oid → (table, row slot)` incrementally across inserts, deletes (the
//!   index is re-slotted when `delete_rows` compacts a table) and
//!   `DROP TABLE`, so a REF dereference is an O(1) slot access instead of a
//!   scan over every object table. Dangling REFs still surface as
//!   [`DbError::DanglingRef`]. Counter: `oid_index_hits`; the invariant is
//!   checkable via `Storage::check_oid_directory`.
//! * **Hash equi-joins** — when a scheduled WHERE conjunct equates columns
//!   of already-bound FROM items with the item being joined,
//!   [`exec::select`] builds a hash table over the new item's rows keyed by
//!   [`storage::key_hash`] and probes it once per outer combination;
//!   non-equi conjuncts and `TABLE(…)` lateral un-nesting keep the nested
//!   loop. Join hashes are a conservative prefilter (SQL equality coerces
//!   numeric strings, so candidates are re-verified with the full
//!   predicate), which makes a hash join return the rows a nested loop
//!   would, in the same order — `tests/hashjoin_prop.rs` and, with
//!   `TABLE(…)` levels, `tests/unnest_prop.rs` diff it against the plain
//!   nested-loop evaluator in the test kit, `xmlord_testkit::nested_loop`.
//!   Counters:
//!   `hash_join_builds`, `hash_join_probes`, and `join_pairs` counts only
//!   the pairings actually formed.
//! * **Indexes** — a table's indexes are one inventory,
//!   [`catalog::Catalog::indexes_on`]: the index behind each PRIMARY KEY /
//!   UNIQUE constraint (its [`catalog::IndexDef`] derived from the table
//!   definition as it enters the catalog, never stored; its buckets
//!   registered by CREATE TABLE under
//!   [`storage::key_index_name`]) and the ones `CREATE INDEX` declared
//!   (stored). The planner (`exec::plan`), `EXPLAIN`, the analyzer's
//!   shadow catalog and recovery read that list; an equality on all of an
//!   index's columns is a probe instead of a scan or hash build, costed
//!   at one row for a key. Of several covered indexes the planner takes
//!   the lowest `ANALYZE` estimate, or without statistics a key, then one
//!   keyed by earlier FROM items over one keyed by constants only.
//!   Buckets are a [`storage::key_hash`] prefilter, re-verified like join
//!   keys, maintained on every mutation and undo path, and refused when
//!   they trail the table's version. Counters: `index_scans`,
//!   `index_maintenance_ops`.
//! * **OID probes and seeded join orders** — `REF(b) = e` with `e` bound
//!   earlier is answered by the OID directory: at most one row, kept only
//!   if it lives in `b`'s table (counters `oid_index_hits`, `rows_scanned`,
//!   `join_pairs`). When one FROM item has a constant equality filter and
//!   every other item attaches by such a one-row probe (an OID probe or a
//!   key fully keyed by the items placed), the join starts at the filter
//!   and walks outward — the §4.1 query on Oracle 8 starts at the
//!   professor's name and walks the back-pointing REFs *up* — unless
//!   another item has a better constant-key access (a key lookup stays
//!   first). Chosen from the catalog alone, with or without statistics;
//!   a reordered plan returns the FROM-order nested loop's rows, in its
//!   order, by sorting its result rows on their FROM-order heap slots.
//! * **Plan cache** — [`Database`] parses through a small LRU statement
//!   cache. Non-INSERT texts hit on the verbatim string; INSERT texts hit
//!   on a literal-normalized *shape* whose cached template is re-bound with
//!   each text's own literals ([`sql::param`]) — in place, while no caller
//!   still holds an earlier hit's statements — so a generated load
//!   script's thousands of near-identical INSERTs pay the parser once and
//!   each one after costs a byte scan of its text.
//!   Parsing is context-free (constructors resolve at execution time), so
//!   entries survive DDL. Counters: `plan_cache_hits`, `plan_cache_misses`.
//!
//! None of this changes Oracle 8 vs Oracle 9 semantics: [`DbMode`] gates
//! DDL validation and value construction, while the fast paths only change
//! how rows are located, paired, and parsed texts reused.
//!
//! ## Transactions & recovery
//!
//! Every mutation in [`storage`] and [`catalog`] logs its inverse, which
//! gives the engine Oracle-style transaction control: each statement runs
//! under an implicit savepoint (a failing statement rolls back exactly its
//! own effects — statement-level atomicity), and `COMMIT`, `ROLLBACK`,
//! `SAVEPOINT name` and `ROLLBACK TO name` are real statements. Script
//! execution takes an explicit [`RecoveryPolicy`]: `Atomic` (the whole
//! script rolls back on any error), `AbortOnError` (stop at the first
//! error, reported with its statement index), or `ContinueOnError`
//! (SQL*Plus-style error collection). Rollback restores storage
//! byte-identically — heaps, the OID directory *and* the OID allocator —
//! so `Storage::check_oid_directory` holds across arbitrary
//! rollback/replay sequences. Counters: `txn_rollbacks`, `undo_records`,
//! `savepoints`.
//!
//! ## Bulk loading
//!
//! A generated load script is thousands of near-identical single-row
//! INSERTs; executing them as SQL text pays the parser and catalog
//! resolution per row. Two fast paths remove that cost (PR 5):
//!
//! * **Batched inserts** — [`Database::execute_batch`] takes an
//!   [`InsertBatch`] (one table, many rows): the catalog is resolved once,
//!   OIDs are reserved in one block, rows are appended in a single storage
//!   call under one undo bracket (all-or-nothing, same semantics as
//!   `RecoveryPolicy::Atomic`). A single-row INSERT is the one-row case of
//!   the same function. Counter: `batched_rows`. Storage is frozen while
//!   a batch evaluates, so every subquery in it reads the pre-batch state,
//!   once per row.
//! * **Key REFs** — the Oracle 8 REF wiring
//!   `(SELECT REF(x) FROM TabCourse x WHERE x.IDCourse = 'doc1#4')` reaches
//!   the engine as [`sql::ast::KeyRef`], the table, key path and key
//!   rather than a SELECT. On a one-column key with a fresh index it is
//!   one probe of that index, counted as the planned probe counts it
//!   (`index_scans`, `rows_scanned`); anything else runs its subquery.
//!   Printed, logged and analysed it *is* that subquery.
//! * **Deterministic parallel front end** — the `xml2ordb` pipeline
//!   shreds documents on a worker pool and feeds the resulting batches to
//!   a single writer in submission order, so any worker count produces a
//!   byte-identical database.
//!
//! The batched delivery is differentially tested against plain SQL text
//! (`tests/bulk_prop.rs`): same rows, same state dump, same errors.
//!
//! On every delivery a key — a PRIMARY KEY / UNIQUE constraint or a
//! `CREATE UNIQUE INDEX` — is enforced through its index of the inventory
//! above, which INSERT, batch and UPDATE probe alike: nothing scans the
//! heap per row and nothing is cached per connection (`tests/key_prop.rs`
//! checks all of them against a model).
//!
//! ## Static analysis (`sqlcheck`)
//!
//! [`analyze`] checks a generated script *before* execution: it binds every
//! statement against a shadow catalog (evolved by the script's own DDL
//! through the executor's code path), resolves names and dot paths, judges
//! every value that does not depend on the data with the executor's own
//! constructors, built-ins, coercions and INSERT row path, gates
//! nested-collection DDL by [`DbMode`], and lints for unscoped REFs, REF
//! types with no target table, the §4.3 CHECK quirk and dead/shadowed
//! aliases. Diagnostics carry
//! character spans and render rustc-style ([`analyze::Diagnostic::render`]).
//! [`Severity::Error`](analyze::Severity) findings are guaranteed to match
//! an executor rejection (see the module docs for the differential
//! contract); [`Database::check`] runs it against the live catalog without
//! executing anything.
//!
//! ```
//! use xmlord_ordb::{Database, DbMode, Value};
//!
//! let mut db = Database::new(DbMode::Oracle9);
//! db.execute_script(
//!     "CREATE TYPE Type_Professor AS OBJECT (PName VARCHAR(80), Subject VARCHAR(120));
//!      CREATE TABLE TabProfessor OF Type_Professor (PName PRIMARY KEY);
//!      INSERT INTO TabProfessor VALUES (Type_Professor('Jaeger', 'CAD'));",
//! ).unwrap();
//! let rows = db.query("SELECT p.PName FROM TabProfessor p WHERE p.Subject = 'CAD'").unwrap();
//! assert_eq!(rows.rows[0][0], Value::Str("Jaeger".into()));
//! ```

pub mod analyze;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod ident;
pub mod mode;
pub mod mvcc;
pub mod scope;
pub mod session;
pub mod snapshot;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod trace;
pub mod types;
pub mod value;
pub mod wal;

pub use analyze::{Analyzer, Diagnostic, Severity};
pub use catalog::{Catalog, TableDef, TypeDef, ViewDef};
pub use error::DbError;
pub use exec::dml::InsertBatch;
pub use ident::Ident;
pub use mode::DbMode;
pub use mvcc::ReadSession;
pub use session::{
    CatalogRef, Database, QueryResult, RecoveryPolicy, RecoveryReport, ResultMode,
    ScriptError, ScriptOutcome, SpanToken, StorageRef, TxnMark,
};
pub use stats::ExecStats;
pub use trace::{CallbackSink, RingBufferSink, TraceEvent, TraceHandle, TraceSink};
pub use types::SqlType;
pub use value::{Oid, Value};
