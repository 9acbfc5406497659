//! In-memory row storage with an indexed OID directory for row objects.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::error::DbError;
use crate::ident::Ident;
use crate::value::{Oid, Value};

/// One stored row. `values` parallels the table's column list; rows of
/// object tables additionally carry the OID that REFs target (§2.3).
///
/// The values are one immutable shared block: nothing mutates a block in
/// place ([`Storage::write_row_values`] replaces the whole block), so a
/// snapshot reader, an undo record and a scan frame each hold the writer's
/// block by pointer, and cloning a `Row` never copies a value.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub oid: Option<Oid>,
    pub values: Arc<Vec<Value>>,
}

/// All rows of one table.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    pub rows: Vec<Row>,
}

/// Where an OID lives: its owning table and the row's current slot in that
/// table's heap. Slots are kept current by [`Storage::delete_rows`]
/// compaction, so [`Storage::resolve_oid`] is a map lookup plus a direct
/// index — never a row scan.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OidEntry {
    table: Ident,
    slot: usize,
}

/// Inverse of one storage mutation. Every mutating method pushes one of
/// these; [`Storage::rollback_to`] pops and applies them in reverse, which
/// restores the heaps, the OID directory, *and* the OID allocator to the
/// pre-mutation state (rollback is byte-identical, not merely equivalent).
#[derive(Debug, Clone)]
enum StorageUndo {
    /// Inverse of [`Storage::insert_rows`] (and so of
    /// [`Storage::insert_row`]): pop the appended block of rows and restore
    /// the OID allocator position. One record brackets the whole batch, so
    /// a batched load writes O(1) undo instead of O(rows).
    Appended { table: Ident, count: usize, prev_next_oid: u64 },
    /// Inverse of [`Storage::delete_rows`]: re-insert the removed rows at
    /// their original slots (ascending order), then re-slot the directory.
    Deleted { table: Ident, removed: Vec<(usize, Row)> },
    /// Inverse of [`Storage::write_row_values`]: restore the old values.
    Wrote { table: Ident, slot: usize, values: Arc<Vec<Value>> },
    /// Inverse of [`Storage::create_table`]: remove the (empty) heap.
    Created { table: Ident },
    /// Inverse of [`Storage::drop_table`]: restore the heap and re-register
    /// its rows' OIDs.
    Dropped { table: Ident, data: TableData },
    /// Inverse of [`Storage::create_index`]: retire the structure.
    CreatedIndex { name: Ident },
    /// Inverse of [`Storage::drop_index`]: re-register the index and
    /// rebuild its buckets from the heap (cheaper to rebuild than to carry
    /// the buckets in the undo record, and provably consistent).
    DroppedIndex { name: Ident, table: Ident, cols: Vec<usize> },
}

/// Pass-through hasher for maps keyed by a [`key_hash`]: the key is already
/// a SipHash of the indexed values, so hashing it a second time buys
/// nothing. (What an outside party controls is the *values*; the key their
/// hash lands on is as hard to steer here as in the default map.)
#[derive(Debug, Clone, Copy, Default)]
struct KeyHashPassThrough(u64);

impl Hasher for KeyHashPassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are ever hashed (`write_u64`); fold anything else
        // so a misuse is slow, not wrong.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// [`key_hash`] → ascending row slots.
type SlotBuckets = HashMap<u64, Vec<usize>, BuildHasherDefault<KeyHashPassThrough>>;

/// A persistent secondary index: hashed key → ascending row slots. Keys
/// hash the indexed columns' join-key identity ([`key_hash`]), so the
/// buckets are a *prefilter* exactly like the executor's hash joins —
/// callers must re-verify the predicate on every candidate slot (sql_eq is
/// not injective over hashes: `'04' = 4` but `'04' <> '4'`).
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    table: Ident,
    /// Column positions (into `Row::values`) forming the key, in order.
    cols: Vec<usize>,
    /// Key hash → row slots, each bucket sorted ascending so index-driven
    /// scans enumerate rows in heap order.
    buckets: SlotBuckets,
    /// The table version the buckets correspond to. Probes refuse to answer
    /// when this trails [`Storage::table_version`] — the safety valve that
    /// turns any missed maintenance path into a full scan instead of a
    /// wrong answer.
    version: u64,
}

impl SecondaryIndex {
    pub fn table(&self) -> &Ident {
        &self.table
    }

    pub fn cols(&self) -> &[usize] {
        &self.cols
    }
}

/// Hash the join-key identity of a candidate key; `None` when any component
/// is NULL or has no join key (objects, collections). Shared by index
/// maintenance, the planner's probes and the DML uniqueness check, so a
/// probe key always lands in the bucket maintenance filed it under.
pub fn key_hash<'v>(key: impl IntoIterator<Item = &'v Value>) -> Option<u64> {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in key {
        if v.is_null() || !v.hash_join_key(&mut h) {
            return None;
        }
    }
    Some(h.finish())
}

/// The name of the index behind the `ordinal`-th PRIMARY KEY / UNIQUE
/// constraint of `table` — in storage and, derived from the table
/// definition, in [`crate::catalog::Catalog::indexes_on`], which is how the
/// planner, `EXPLAIN` (as `T(cols) PRIMARY KEY`) and recovery find it. A
/// key *is* a maintained index: CREATE TABLE registers one per constraint,
/// DROP TABLE retires them with the table's other indexes. The name
/// contains a double quote, which no SQL identifier — bare or quoted — can
/// spell, so `CREATE INDEX` / `DROP INDEX` can neither collide with nor drop
/// it, and since the definition is derived rather than stored it appears in
/// no dump, snapshot or log record. It sorts before every declared name, so
/// [`Storage::find_fresh_index`] prefers a key to a declared index on the
/// same columns, as the planner does.
pub fn key_index_name(table: &Ident, ordinal: usize) -> Ident {
    Ident::internal(&format!("\"{}\"#{ordinal}", table.key()))
}

/// Tables opened for equality lookups on one key column — the access path
/// every document reconstructor runs on ([`Storage::keyed_reader`] for one
/// table, [`Storage::keyed_reader_over`] for several that share the key
/// column's position). A lookup ([`KeyedReader::lookup`]) yields `(table,
/// slot)` pairs in table order, then heap order.
///
/// How a lookup is answered is decided once, at open (the storage borrow
/// pins the tables, so the decision cannot go stale):
///
/// 1. when every table has a fresh [`SecondaryIndex`] on exactly the key
///    column, each table's index is probed;
/// 2. otherwise one pass over each heap, on the first lookup, builds one
///    key-hash → `(table, slot)` multimap that serves every later lookup;
/// 3. with `bulk == false` every lookup scans every heap — the quadratic
///    reference the differential suites diff the other two against.
///
/// All three enumerate the same order. Index buckets and the multimap are
/// [`key_hash`] prefilters, so every candidate is re-verified with
/// [`Value::sql_eq`]; a NULL key (stored or asked for) never matches.
/// [`KeyedReader::first_slot`] is the same lookup for a one-table reader
/// that will ask once: it never builds the multimap.
#[derive(Debug)]
pub struct KeyedReader<'a> {
    tables: Vec<&'a [Row]>,
    key_col: usize,
    access: KeyedAccess<'a>,
    /// Full passes over a heap: one per table and lookup when scanning,
    /// one per table for the multimap build.
    pub table_scans: u64,
    /// Index probes: one per table and lookup.
    pub index_probes: u64,
}

#[derive(Debug)]
enum KeyedAccess<'a> {
    /// One fresh index per table, in table order.
    Index(Vec<&'a SecondaryIndex>),
    Multimap(Option<Multimap>),
    Scan,
}

/// [`key_hash`] → a chain of `(table, slot)` links in table order, then
/// heap order: no allocation per key.
#[derive(Debug, Default)]
struct Multimap {
    /// First and last link of each key's chain.
    chains: HashMap<u64, (u32, u32), BuildHasherDefault<KeyHashPassThrough>>,
    links: Vec<Link>,
}

#[derive(Debug, Clone, Copy)]
struct Link {
    table: u32,
    slot: u32,
    /// The next link of the same key; [`Link::END`] ends the chain.
    next: u32,
}

impl Link {
    const END: u32 = u32::MAX;
}

impl Multimap {
    /// One pass per table; links arrive in table order, then ascending
    /// slot, so appending to each chain keeps the lookup order.
    fn build(tables: &[&[Row]], key_col: usize) -> Multimap {
        let mut map = Multimap::default();
        for (table, rows) in tables.iter().enumerate() {
            for (slot, row) in rows.iter().enumerate() {
                let Some(h) = row.values.get(key_col).and_then(|v| key_hash([v])) else {
                    continue;
                };
                let at = u32::try_from(map.links.len()).expect("under 2^32 keyed rows");
                let link = Link {
                    table: u32::try_from(table).expect("under 2^32 tables"),
                    slot: u32::try_from(slot).expect("under 2^32 rows per table"),
                    next: Link::END,
                };
                map.links.push(link);
                match map.chains.entry(h) {
                    Entry::Occupied(mut chain) => {
                        let (_, last) = chain.get_mut();
                        map.links[*last as usize].next = at;
                        *last = at;
                    }
                    Entry::Vacant(chain) => {
                        chain.insert((at, at));
                    }
                }
            }
        }
        map
    }

    fn chain(&self, hash: Option<u64>) -> Chain<'_> {
        let at = hash.and_then(|h| self.chains.get(&h)).map_or(Link::END, |&(first, _)| first);
        Chain { links: &self.links, at }
    }
}

/// One key's links, followed from the first.
struct Chain<'m> {
    links: &'m [Link],
    at: u32,
}

impl Iterator for Chain<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let link = self.links.get(self.at as usize)?;
        self.at = link.next;
        Some((link.table as usize, link.slot as usize))
    }
}

/// The candidates of one lookup, before the [`Value::sql_eq`] re-check.
enum Candidates<B, C, H> {
    Buckets(B),
    Chain(C),
    Heaps(H),
}

impl<B, C, H> Iterator for Candidates<B, C, H>
where
    B: Iterator<Item = (usize, usize)>,
    C: Iterator<Item = (usize, usize)>,
    H: Iterator<Item = (usize, usize)>,
{
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        match self {
            Candidates::Buckets(it) => it.next(),
            Candidates::Chain(it) => it.next(),
            Candidates::Heaps(it) => it.next(),
        }
    }
}

impl<'a> KeyedReader<'a> {
    /// The rows of a one-table reader; the slots
    /// [`KeyedReader::each_slot`] yields index into this.
    pub fn rows(&self) -> &'a [Row] {
        self.table_rows(0)
    }

    /// The rows of the `table`-th table the reader was opened over.
    pub fn table_rows(&self, table: usize) -> &'a [Row] {
        self.tables[table]
    }

    /// `(table, slot)` of the rows whose key column equals `key`: table
    /// order, then heap order.
    pub fn lookup<'k>(&'k mut self, key: &'k Value) -> impl Iterator<Item = (usize, usize)> + 'k {
        self.matching(key, true)
    }

    /// The slots of [`KeyedReader::lookup`] on a one-table reader.
    pub fn each_slot<'k>(&'k mut self, key: &'k Value) -> impl Iterator<Item = usize> + 'k {
        debug_assert_eq!(self.tables.len(), 1, "each_slot on a multi-table reader");
        self.matching(key, true).map(|(_, slot)| slot)
    }

    /// The first of [`KeyedReader::each_slot`] — for a one-table reader
    /// opened to answer one lookup (a document's root row, its metadata
    /// row). Without an index or an already-built multimap this is one pass
    /// that stops at the first match, instead of a multimap built for a
    /// single probe.
    pub fn first_slot(&mut self, key: &Value) -> Option<usize> {
        debug_assert_eq!(self.tables.len(), 1, "first_slot on a multi-table reader");
        self.matching(key, false).next().map(|(_, slot)| slot)
    }

    /// The matching `(table, slot)` pairs, lazily and in lookup order: the
    /// candidates — index buckets, the multimap's chain, or without either
    /// every heap — re-verified with [`Value::sql_eq`]. Counts the access;
    /// the multimap is built on first use when `build`.
    fn matching<'k>(
        &'k mut self,
        key: &'k Value,
        build: bool,
    ) -> impl Iterator<Item = (usize, usize)> + 'k {
        let KeyedReader { tables, key_col, access, table_scans, index_probes } = self;
        let (tables, key_col) = (tables.as_slice(), *key_col);
        let hash = key_hash([key]);
        let candidates = match access {
            KeyedAccess::Index(indexes) => {
                *index_probes += indexes.len() as u64;
                Candidates::Buckets(indexes.iter().enumerate().flat_map(move |(table, index)| {
                    let bucket = hash.and_then(|h| index.buckets.get(&h));
                    bucket.map_or(&[][..], Vec::as_slice).iter().map(move |&slot| (table, slot))
                }))
            }
            KeyedAccess::Multimap(map) if build || map.is_some() => {
                let map = map.get_or_insert_with(|| {
                    *table_scans += tables.len() as u64;
                    Multimap::build(tables, key_col)
                });
                Candidates::Chain(map.chain(hash))
            }
            KeyedAccess::Multimap(_) | KeyedAccess::Scan => {
                *table_scans += tables.len() as u64;
                Candidates::Heaps(
                    tables
                        .iter()
                        .enumerate()
                        .flat_map(|(table, rows)| (0..rows.len()).map(move |slot| (table, slot))),
                )
            }
        };
        candidates.filter(move |&(table, slot)| {
            tables[table][slot].values.get(key_col).and_then(|v| v.sql_eq(key)) == Some(true)
        })
    }
}

/// The storage layer: table heaps plus the OID directory.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    tables: BTreeMap<Ident, TableData>,
    /// OID → (table, row slot). Maintained incrementally: inserts append,
    /// deletes re-slot the compacted table, `drop_table` removes the
    /// table's entries wholesale.
    oid_directory: HashMap<Oid, OidEntry>,
    next_oid: u64,
    /// Undo log since the last commit. Truncated by [`Storage::commit`],
    /// replayed backwards by [`Storage::rollback_to`].
    undo: Vec<StorageUndo>,
    /// Monotonic per-table mutation counters. Every path that can change a
    /// table's rows or existence bumps its counter (including undo replay
    /// and `table_mut` handouts), so "version unchanged" proves the table's
    /// rows are bit-identical. Entries are never removed: a
    /// dropped-and-recreated table continues its old counter rather than
    /// restarting at a value a stale reader might still hold.
    versions: HashMap<Ident, u64>,
    /// Secondary indexes by index name, maintained eagerly on every
    /// mutation path (including undo replay). Excluded from
    /// [`Storage::state_dump`]: index presence must never change what a
    /// rollback-equivalence check observes.
    indexes: BTreeMap<Ident, SecondaryIndex>,
    /// Key insertions/removals/rebuild-row operations performed — drained
    /// into [`crate::stats::ExecStats::index_maintenance_ops`] by the
    /// session after each statement.
    maintenance_ops: u64,
    /// Bumped once per [`Storage::commit`] that made changes durable-
    /// visible (non-empty undo log). Snapshot readers key their caches on
    /// this: uncommitted churn and rollbacks never move it, so a reader
    /// cache built at epoch E stays valid until the writer actually
    /// commits something.
    committed_epoch: u64,
    /// Per-table [`Storage::table_version`] values as of each table's most
    /// recent committed change. A reader whose pinned version matches
    /// holds that table's committed rows bit-identically.
    committed_versions: HashMap<Ident, u64>,
    /// Per-table [`Storage::table_version`] of the most recent mutation
    /// that was *not* a plain append: delete, rewrite, create/drop,
    /// `table_mut` handout, any undo replay. Appends do not move it, so
    /// "not past the version a reader pinned" proves the reader's heap is
    /// a prefix of this one ([`Storage::committed_appends`]). Like
    /// `versions`, entries are never removed.
    reshaped_versions: HashMap<Ident, u64>,
}

impl Storage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance `table`'s mutation counter for an append.
    fn touch_appended(&mut self, table: &Ident) -> u64 {
        let version = self.versions.entry(table.clone()).or_insert(0);
        *version += 1;
        *version
    }

    /// Advance `table`'s mutation counter for anything but an append.
    fn touch(&mut self, table: &Ident) {
        let version = self.touch_appended(table);
        self.reshaped_versions.insert(table.clone(), version);
    }

    /// Mutation counter for one table — see the `versions` field.
    pub fn table_version(&self, table: &Ident) -> u64 {
        self.versions.get(table).copied().unwrap_or(0)
    }

    pub fn create_table(&mut self, name: Ident) {
        if !self.tables.contains_key(&name) {
            self.touch(&name);
            self.undo.push(StorageUndo::Created { table: name.clone() });
            self.tables.insert(name, TableData::default());
        }
    }

    pub fn drop_table(&mut self, name: &Ident) {
        if let Some(data) = self.tables.remove(name) {
            for row in &data.rows {
                if let Some(oid) = row.oid {
                    self.oid_directory.remove(&oid);
                }
            }
            self.touch(name);
            // Retire this table's indexes, logging them *before* the heap
            // record: undo replays newest-first, so the heap is restored
            // before each index rebuild reads it.
            let doomed: Vec<Ident> = self
                .indexes
                .iter()
                .filter(|(_, idx)| &idx.table == name)
                .map(|(n, _)| n.clone())
                .collect();
            for index_name in doomed {
                // The names were collected from `indexes` just above with no
                // intervening mutation, so the entry must still be present —
                // but a panic here would poison recovery, so a (impossible)
                // miss degrades to skipping the undo record instead.
                let Some(idx) = self.indexes.remove(&index_name) else {
                    debug_assert!(false, "index {index_name} vanished between collect and remove");
                    continue;
                };
                self.undo.push(StorageUndo::DroppedIndex {
                    name: index_name,
                    table: idx.table,
                    cols: idx.cols,
                });
            }
            self.undo.push(StorageUndo::Dropped { table: name.clone(), data });
        }
    }

    pub fn table(&self, name: &Ident) -> Option<&TableData> {
        self.tables.get(name)
    }

    /// Mutable access to a table's rows.
    ///
    /// Callers must not add or remove rows through this handle — row
    /// *slots* back the OID directory; structural changes go through
    /// [`Storage::insert_row`] / [`Storage::delete_rows`], which keep the
    /// directory consistent. A row's values are a shared block
    /// ([`Row::values`]): replace the block, never write through it.
    pub fn table_mut(&mut self, name: &Ident) -> Option<&mut TableData> {
        if self.tables.contains_key(name) {
            // The handle may be used to rewrite values; assume it will be.
            self.touch(name);
        }
        self.tables.get_mut(name)
    }

    /// Append a row; if `with_oid`, allocate a fresh OID for it. One
    /// [`Storage::insert_rows`] call of one row.
    pub fn insert_row(
        &mut self,
        table: &Ident,
        values: Vec<Value>,
        with_oid: bool,
    ) -> Result<Option<Oid>, DbError> {
        self.insert_rows(table, vec![values], with_oid)?;
        Ok(with_oid.then_some(Oid(self.next_oid)))
    }

    /// Append a block of rows in one call; if `with_oid`, reserve an OID
    /// block from the allocator and assign OIDs in row order. The result is
    /// byte-identical to calling [`Storage::insert_row`] once per row (same
    /// OIDs, same heap order, same allocator position) but logs a single
    /// undo record for the whole block.
    pub fn insert_rows(
        &mut self,
        table: &Ident,
        rows: Vec<Vec<Value>>,
        with_oid: bool,
    ) -> Result<usize, DbError> {
        let data = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.as_str().to_string()))?;
        let count = rows.len();
        if count == 0 {
            return Ok(0);
        }
        let prev_next_oid = self.next_oid;
        let base_slot = data.rows.len();
        for (i, values) in rows.into_iter().enumerate() {
            let oid = if with_oid {
                self.next_oid += 1;
                let oid = Oid(self.next_oid);
                self.oid_directory
                    .insert(oid, OidEntry { table: table.clone(), slot: base_slot + i });
                Some(oid)
            } else {
                None
            };
            data.rows.push(Row { oid, values: Arc::new(values) });
        }
        let prev_version = self.table_version(table);
        self.touch_appended(table);
        self.undo.push(StorageUndo::Appended {
            table: table.clone(),
            count,
            prev_next_oid,
        });
        self.index_appended(table, base_slot, prev_version);
        Ok(count)
    }

    /// Overwrite one row's values in place, logging the old values for
    /// rollback. UPDATE's write phase goes through here rather than
    /// [`Storage::table_mut`] so the mutation is undoable.
    pub fn write_row_values(
        &mut self,
        table: &Ident,
        slot: usize,
        values: Vec<Value>,
    ) -> Result<(), DbError> {
        let data = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownTable(table.as_str().to_string()))?;
        let row = data.rows.get_mut(slot).ok_or_else(|| {
            DbError::Execution(format!("row slot {slot} out of range for table {table}"))
        })?;
        let old = std::mem::replace(&mut row.values, Arc::new(values));
        let prev_version = self.table_version(table);
        self.touch(table);
        self.index_rewrote(table, slot, &old, prev_version);
        self.undo.push(StorageUndo::Wrote { table: table.clone(), slot, values: old });
        Ok(())
    }

    /// Find the row object behind an OID — an O(1) directory lookup plus a
    /// direct slot access (no table scan).
    pub fn resolve_oid(&self, oid: Oid) -> Option<(&Ident, &Row)> {
        self.resolve_oid_slot(oid).map(|(table, _, row)| (table, row))
    }

    /// [`Storage::resolve_oid`] with the row's heap slot, which the
    /// executor's OID probe keeps to restore FROM-order enumeration.
    pub(crate) fn resolve_oid_slot(&self, oid: Oid) -> Option<(&Ident, usize, &Row)> {
        let entry = self.oid_directory.get(&oid)?;
        let data = self.tables.get(&entry.table)?;
        let row = data.rows.get(entry.slot)?;
        debug_assert_eq!(row.oid, Some(oid), "OID directory slot out of sync");
        if row.oid != Some(oid) {
            // Defensive fallback: a caller mutated rows structurally through
            // `table_mut` (forbidden, but cheap to survive) — scan once.
            let slot = data.rows.iter().position(|r| r.oid == Some(oid))?;
            return Some((&entry.table, slot, &data.rows[slot]));
        }
        Some((&entry.table, entry.slot, row))
    }

    /// Remove rows matching `pred`; returns how many were removed. The OID
    /// directory is repaired in the same pass: removed OIDs are dropped and
    /// the surviving rows of the compacted table are re-slotted.
    pub fn delete_rows(&mut self, table: &Ident, mut pred: impl FnMut(&Row) -> bool) -> usize {
        let Some(data) = self.tables.get_mut(table) else { return 0 };
        let before = std::mem::take(&mut data.rows);
        let mut removed_rows = Vec::new();
        for (slot, row) in before.into_iter().enumerate() {
            if pred(&row) {
                removed_rows.push((slot, row));
            } else {
                data.rows.push(row);
            }
        }
        let removed = removed_rows.len();
        if removed > 0 {
            for (_, row) in &removed_rows {
                if let Some(oid) = row.oid {
                    self.oid_directory.remove(&oid);
                }
            }
            // Compaction shifted the survivors; restore slot invariants.
            for (slot, row) in data.rows.iter().enumerate() {
                if let Some(oid) = row.oid {
                    if let Some(entry) = self.oid_directory.get_mut(&oid) {
                        entry.slot = slot;
                    }
                }
            }
            self.touch(table);
            self.undo
                .push(StorageUndo::Deleted { table: table.clone(), removed: removed_rows });
            // Compaction shifted slots; incremental repair cannot keep the
            // buckets' slot numbers right, so rebuild.
            self.rebuild_stale_indexes(table);
        }
        removed
    }

    /// Position in the undo log; pass it back to [`Storage::rollback_to`].
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Make everything since the last commit permanent by discarding the
    /// undo log. Also publishes the commit to snapshot readers: the
    /// committed epoch advances and every affected table's committed
    /// version is pinned at its current mutation counter.
    pub fn commit(&mut self) {
        if self.undo.is_empty() {
            return;
        }
        let mut affected: std::collections::BTreeSet<&Ident> = std::collections::BTreeSet::new();
        for op in &self.undo {
            match op {
                StorageUndo::Appended { table, .. }
                | StorageUndo::Deleted { table, .. }
                | StorageUndo::Wrote { table, .. }
                | StorageUndo::Created { table }
                | StorageUndo::Dropped { table, .. } => {
                    affected.insert(table);
                }
                // Index structure is derived state rebuilt by readers from
                // catalog definitions; it does not move committed row data.
                StorageUndo::CreatedIndex { .. } | StorageUndo::DroppedIndex { .. } => {}
            }
        }
        let pinned: Vec<(Ident, u64)> = affected
            .into_iter()
            .map(|t| (t.clone(), self.versions.get(t).copied().unwrap_or(0)))
            .collect();
        for (t, v) in pinned {
            self.committed_versions.insert(t, v);
        }
        self.committed_epoch += 1;
        self.undo.clear();
    }

    // -- committed-state reconstruction (MVCC snapshot reads) -----------------

    /// Commit counter — see the `committed_epoch` field.
    pub fn committed_epoch(&self) -> u64 {
        self.committed_epoch
    }

    /// Tables that exist in the *committed* state, with their committed
    /// versions — the live table set corrected by the uncommitted undo
    /// tail (an uncommitted CREATE is not yet visible; an uncommitted DROP
    /// still is). A table's committed version is its version as of its
    /// most recent committed change (0 for tables never touched by a
    /// commit since this storage was built).
    pub fn committed_tables(&self) -> Vec<(Ident, u64)> {
        let mut names: std::collections::BTreeSet<Ident> = self.tables.keys().cloned().collect();
        for op in self.undo.iter().rev() {
            match op {
                StorageUndo::Created { table } => {
                    names.remove(table);
                }
                StorageUndo::Dropped { table, .. } => {
                    names.insert(table.clone());
                }
                _ => {}
            }
        }
        names
            .into_iter()
            .map(|t| {
                let v = self.committed_versions.get(&t).copied().unwrap_or(0);
                (t, v)
            })
            .collect()
    }

    /// Reconstruct one table's heap as of the last commit by applying the
    /// uncommitted undo tail (newest first) to a clone of the live heap —
    /// the undo log *is* the delta between live and committed state.
    /// `None` means the table does not exist in the committed state. The
    /// writer is never blocked beyond the shared read lock the caller
    /// already holds, and the live storage is untouched.
    pub fn committed_heap(&self, table: &Ident) -> Option<TableData> {
        let mut heap = self.tables.get(table).cloned();
        for op in self.undo.iter().rev() {
            match op {
                StorageUndo::Appended { table: t, count, .. } if t == table => {
                    if let Some(data) = heap.as_mut() {
                        data.rows.truncate(data.rows.len().saturating_sub(*count));
                    }
                }
                StorageUndo::Deleted { table: t, removed } if t == table => {
                    if let Some(data) = heap.as_mut() {
                        for (slot, row) in removed {
                            let at = (*slot).min(data.rows.len());
                            data.rows.insert(at, row.clone());
                        }
                    }
                }
                StorageUndo::Wrote { table: t, slot, values } if t == table => {
                    if let Some(row) = heap.as_mut().and_then(|d| d.rows.get_mut(*slot)) {
                        row.values = Arc::clone(values);
                    }
                }
                StorageUndo::Created { table: t } if t == table => {
                    heap = None;
                }
                StorageUndo::Dropped { table: t, data } if t == table => {
                    heap = Some(data.clone());
                }
                _ => {}
            }
        }
        heap
    }

    /// The committed rows a snapshot reader is missing, when appending them
    /// is all its copy of `table` needs: the reader holds the committed
    /// heap as of committed version `pinned` (`held` rows), and nothing but
    /// appends touched the table since — so this heap is the reader's plus
    /// appended rows, the last of them possibly uncommitted. `None` when
    /// anything else happened (or the table is gone): the reader falls back
    /// to [`Storage::committed_heap`].
    pub fn committed_appends(&self, table: &Ident, pinned: u64, held: usize) -> Option<&[Row]> {
        if self.reshaped_versions.get(table).copied().unwrap_or(0) > pinned {
            return None;
        }
        let uncommitted: usize = self
            .undo
            .iter()
            .map(|op| match op {
                StorageUndo::Appended { table: t, count, .. } if t == table => *count,
                _ => 0,
            })
            .sum();
        let rows = &self.tables.get(table)?.rows;
        rows.get(held..rows.len().checked_sub(uncommitted)?)
    }

    /// The OID allocator position as of the last commit: the oldest
    /// uncommitted insert's pre-image, or the live position when nothing
    /// uncommitted allocated.
    pub fn committed_next_oid(&self) -> u64 {
        self.undo
            .iter()
            .find_map(|op| match op {
                StorageUndo::Appended { prev_next_oid, .. } => Some(*prev_next_oid),
                _ => None,
            })
            .unwrap_or(self.next_oid)
    }

    /// Replace one table of a *reader cache* storage with a reconstructed
    /// committed heap (`None` removes the table). The OID directory is
    /// repaired from the old and new heaps, the table's mutation counter
    /// advances, and its secondary indexes rebuild. Not undo-logged —
    /// snapshot caches have no transactions to roll back.
    pub fn install_table_snapshot(&mut self, table: &Ident, heap: Option<TableData>) {
        if let Some(old) = self.tables.remove(table) {
            for row in &old.rows {
                if let Some(oid) = row.oid {
                    self.oid_directory.remove(&oid);
                }
            }
        }
        if let Some(data) = heap {
            for (slot, row) in data.rows.iter().enumerate() {
                if let Some(oid) = row.oid {
                    self.oid_directory.insert(oid, OidEntry { table: table.clone(), slot });
                }
            }
            self.tables.insert(table.clone(), data);
        }
        self.touch(table);
        self.rebuild_stale_indexes(table);
    }

    /// Append committed rows to one table of a *reader cache* storage — the
    /// counterpart of [`Storage::install_table_snapshot`] for a table that
    /// only grew ([`Storage::committed_appends`]). The rows keep the
    /// writer's OIDs and share its value blocks; the directory and the
    /// table's indexes extend by exactly these rows, through the same
    /// incremental maintenance an insert uses. Not undo-logged.
    pub fn append_table_snapshot(&mut self, table: &Ident, rows: &[Row]) {
        let Some(data) = self.tables.get_mut(table) else { return };
        let base_slot = data.rows.len();
        for (i, row) in rows.iter().enumerate() {
            if let Some(oid) = row.oid {
                self.oid_directory
                    .insert(oid, OidEntry { table: table.clone(), slot: base_slot + i });
            }
        }
        data.rows.extend_from_slice(rows);
        let prev_version = self.table_version(table);
        self.touch_appended(table);
        self.index_appended(table, base_slot, prev_version);
    }

    /// Set the OID allocator position on a reader cache (paired with
    /// [`Storage::install_table_snapshot`] /
    /// [`Storage::append_table_snapshot`]).
    pub fn set_next_oid(&mut self, next_oid: u64) {
        self.next_oid = next_oid;
    }

    /// Undo every mutation logged after `mark` (in reverse order). A mark
    /// at or beyond the current log length — e.g. one taken before an
    /// intervening [`Storage::commit`] — is a no-op.
    pub fn rollback_to(&mut self, mark: usize) {
        // Index rebuilds are deferred to one pass per affected table —
        // rolling back n inserts must not cost n rebuilds.
        let mut affected: std::collections::BTreeSet<Ident> = std::collections::BTreeSet::new();
        while self.undo.len() > mark {
            // The loop guard proves the log is non-empty, so pop cannot
            // miss; if it somehow did, stopping the replay loop is strictly
            // safer than panicking mid-rollback.
            let Some(op) = self.undo.pop() else {
                debug_assert!(false, "undo.len() > mark implies a poppable record");
                break;
            };
            match &op {
                StorageUndo::Appended { table, .. }
                | StorageUndo::Deleted { table, .. }
                | StorageUndo::Wrote { table, .. }
                | StorageUndo::Created { table }
                | StorageUndo::Dropped { table, .. }
                | StorageUndo::DroppedIndex { table, .. } => {
                    affected.insert(table.clone());
                }
                StorageUndo::CreatedIndex { .. } => {}
            }
            self.apply_undo(op);
        }
        for table in affected {
            self.rebuild_stale_indexes(&table);
        }
    }

    fn apply_undo(&mut self, op: StorageUndo) {
        match &op {
            StorageUndo::Appended { table, .. }
            | StorageUndo::Deleted { table, .. }
            | StorageUndo::Wrote { table, .. }
            | StorageUndo::Created { table }
            | StorageUndo::Dropped { table, .. } => {
                let table = table.clone();
                self.touch(&table);
            }
            StorageUndo::CreatedIndex { .. } | StorageUndo::DroppedIndex { .. } => {}
        }
        match op {
            StorageUndo::Appended { table, count, prev_next_oid } => {
                if let Some(data) = self.tables.get_mut(&table) {
                    for _ in 0..count {
                        if let Some(row) = data.rows.pop() {
                            if let Some(oid) = row.oid {
                                self.oid_directory.remove(&oid);
                            }
                        }
                    }
                }
                self.next_oid = prev_next_oid;
            }
            StorageUndo::Deleted { table, removed } => {
                if let Some(data) = self.tables.get_mut(&table) {
                    // Ascending original slots: each insert lands exactly
                    // where the row used to live.
                    for (slot, row) in removed {
                        let at = slot.min(data.rows.len());
                        data.rows.insert(at, row);
                    }
                    for (slot, row) in data.rows.iter().enumerate() {
                        if let Some(oid) = row.oid {
                            self.oid_directory
                                .insert(oid, OidEntry { table: table.clone(), slot });
                        }
                    }
                }
            }
            StorageUndo::Wrote { table, slot, values } => {
                if let Some(row) =
                    self.tables.get_mut(&table).and_then(|d| d.rows.get_mut(slot))
                {
                    row.values = values;
                }
            }
            StorageUndo::Created { table } => {
                if let Some(data) = self.tables.remove(&table) {
                    for row in &data.rows {
                        if let Some(oid) = row.oid {
                            self.oid_directory.remove(&oid);
                        }
                    }
                }
            }
            StorageUndo::Dropped { table, data } => {
                for (slot, row) in data.rows.iter().enumerate() {
                    if let Some(oid) = row.oid {
                        self.oid_directory.insert(oid, OidEntry { table: table.clone(), slot });
                    }
                }
                self.tables.insert(table, data);
            }
            StorageUndo::CreatedIndex { name } => {
                self.indexes.remove(&name);
            }
            StorageUndo::DroppedIndex { name, table, cols } => {
                // Re-register with a sentinel-stale version; the caller's
                // deferred rebuild pass (or the next probe's freshness
                // check) makes it usable again.
                self.indexes.insert(
                    name,
                    SecondaryIndex { table, cols, buckets: SlotBuckets::default(), version: u64::MAX },
                );
            }
        }
    }

    /// Deterministic rendering of the full storage state — heaps in table
    /// order, the OID directory sorted by OID, and the allocator position.
    /// Two storages with byte-identical dumps hold identical data; the
    /// fault-injection tests compare rollback results this way.
    pub fn state_dump(&self) -> String {
        let mut oids: Vec<_> = self.oid_directory.iter().collect();
        oids.sort_by_key(|(oid, _)| oid.0);
        format!(
            "tables: {:?}\noids: {:?}\nnext_oid: {}",
            self.tables, oids, self.next_oid
        )
    }

    pub fn row_count(&self, table: &Ident) -> usize {
        self.tables.get(table).map(|d| d.rows.len()).unwrap_or(0)
    }

    /// Total rows across all tables (for fragmentation experiments, E8).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|d| d.rows.len()).sum()
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of live entries in the OID directory (tests and experiments).
    pub fn oid_directory_len(&self) -> usize {
        self.oid_directory.len()
    }

    /// Check every directory entry against the heap it points into: the
    /// slot must exist and hold the row carrying that OID, and every row
    /// OID must appear in the directory. Used by invariant tests; O(total
    /// rows).
    pub fn check_oid_directory(&self) -> Result<(), String> {
        for (oid, entry) in &self.oid_directory {
            let data = self
                .tables
                .get(&entry.table)
                .ok_or_else(|| format!("{oid} points at dropped table {}", entry.table))?;
            let row = data
                .rows
                .get(entry.slot)
                .ok_or_else(|| format!("{oid} points at stale slot {}", entry.slot))?;
            if row.oid != Some(*oid) {
                return Err(format!(
                    "{oid} slot {} holds {:?} instead",
                    entry.slot, row.oid
                ));
            }
        }
        let live_rows: usize = self
            .tables
            .values()
            .map(|d| d.rows.iter().filter(|r| r.oid.is_some()).count())
            .sum();
        if live_rows != self.oid_directory.len() {
            return Err(format!(
                "{} rows carry OIDs but the directory has {} entries",
                live_rows,
                self.oid_directory.len()
            ));
        }
        Ok(())
    }

    /// Check every secondary index against the heap it covers: its table
    /// must exist (no index outlives its table) and buckets that claim to
    /// be current must equal a rebuild from the heap. Used by invariant
    /// tests; O(indexes × rows).
    pub fn check_indexes(&self) -> Result<(), String> {
        for (name, idx) in &self.indexes {
            let data = self
                .tables
                .get(&idx.table)
                .ok_or_else(|| format!("index {name} outlived its table {}", idx.table))?;
            if idx.version != self.table_version(&idx.table) {
                continue;
            }
            let mut rebuilt = idx.clone();
            Self::rebuild_one(&mut rebuilt, Some(data), idx.version);
            if rebuilt.buckets != idx.buckets {
                return Err(format!("index {name} disagrees with the heap of {}", idx.table));
            }
        }
        Ok(())
    }

    // -- snapshot support -----------------------------------------------------

    /// Iterate table heaps in canonical (name) order, for snapshot encoding.
    pub fn heaps(&self) -> impl Iterator<Item = (&Ident, &TableData)> {
        self.tables.iter()
    }

    /// Current OID allocator position (the last allocated OID value).
    pub fn next_oid(&self) -> u64 {
        self.next_oid
    }

    /// Reconstruct a storage from decoded snapshot parts: table heaps plus
    /// the allocator position. The OID directory is *not* carried in the
    /// snapshot — it is rebuilt here from the heaps, which both shrinks the
    /// snapshot and guarantees the directory invariant holds by
    /// construction. Hostile inputs (duplicate OIDs, OIDs beyond the
    /// allocator) are rejected as [`DbError::CorruptDurableState`], never
    /// panicked on.
    pub fn from_parts(
        tables: BTreeMap<Ident, TableData>,
        next_oid: u64,
    ) -> Result<Storage, DbError> {
        let mut oid_directory = HashMap::new();
        for (name, data) in &tables {
            for (slot, row) in data.rows.iter().enumerate() {
                if let Some(oid) = row.oid {
                    if oid.0 == 0 || oid.0 > next_oid {
                        return Err(DbError::CorruptDurableState(format!(
                            "snapshot row carries {oid} beyond allocator position {next_oid}"
                        )));
                    }
                    let prev = oid_directory
                        .insert(oid, OidEntry { table: name.clone(), slot });
                    if let Some(prev) = prev {
                        return Err(DbError::CorruptDurableState(format!(
                            "snapshot assigns {oid} to both {} and {name}",
                            prev.table
                        )));
                    }
                }
            }
        }
        Ok(Storage {
            tables,
            oid_directory,
            next_oid,
            undo: Vec::new(),
            versions: HashMap::new(),
            indexes: BTreeMap::new(),
            maintenance_ops: 0,
            committed_epoch: 0,
            committed_versions: HashMap::new(),
            reshaped_versions: HashMap::new(),
        })
    }

    /// Register a secondary index without touching the undo log — recovery
    /// re-creates indexes from catalog definitions after restoring heaps,
    /// and that re-registration must not be undoable (there is nothing to
    /// roll back to). Buckets are built immediately.
    pub fn register_index_unlogged(&mut self, name: Ident, table: Ident, cols: Vec<usize>) {
        self.indexes.insert(
            name,
            SecondaryIndex { table: table.clone(), cols, buckets: SlotBuckets::default(), version: u64::MAX },
        );
        self.rebuild_stale_indexes(&table);
    }

    // -- secondary indexes ----------------------------------------------------

    /// Register and build a secondary index over column positions `cols` of
    /// `table` (undo-logged: rollback retires it again).
    pub fn create_index(&mut self, name: Ident, table: Ident, cols: Vec<usize>) {
        self.undo.push(StorageUndo::CreatedIndex { name: name.clone() });
        self.indexes.insert(
            name,
            SecondaryIndex { table: table.clone(), cols, buckets: SlotBuckets::default(), version: u64::MAX },
        );
        self.rebuild_stale_indexes(&table);
    }

    /// Retire an index (undo-logged: rollback re-registers and rebuilds it).
    pub fn drop_index(&mut self, name: &Ident) {
        if let Some(idx) = self.indexes.remove(name) {
            self.undo.push(StorageUndo::DroppedIndex {
                name: name.clone(),
                table: idx.table,
                cols: idx.cols,
            });
        }
    }

    pub fn get_index(&self, name: &Ident) -> Option<&SecondaryIndex> {
        self.indexes.get(name)
    }

    /// Probe an index with a [`key_hash`] value. `Some(slots)` — possibly
    /// empty — means the index answered: `slots` are ascending heap slots
    /// of *candidate* rows (hash prefilter; re-verify the predicate).
    /// `None` means the index is missing or its buckets trail the table
    /// version (the safety valve) — fall back to a full scan.
    pub fn index_probe(&self, name: &Ident, key: u64) -> Option<&[usize]> {
        let idx = self.indexes.get(name)?;
        if idx.version != self.table_version(&idx.table) {
            return None;
        }
        Some(idx.buckets.get(&key).map(|b| b.as_slice()).unwrap_or(&[]))
    }

    /// Is the named index present with buckets current for its table?
    pub fn index_is_fresh(&self, name: &Ident) -> bool {
        self.indexes
            .get(name)
            .is_some_and(|idx| idx.version == self.table_version(&idx.table))
    }

    /// Find a *fresh* secondary index keyed on exactly the column positions
    /// `cols` of `table` — the lookup the retriever uses to decide between
    /// an index probe and a hash-build scan. Returns the index name for
    /// [`Storage::index_probe`] calls.
    pub fn find_fresh_index(&self, table: &Ident, cols: &[usize]) -> Option<&Ident> {
        let version = self.table_version(table);
        self.indexes.iter().find_map(|(name, idx)| {
            (idx.table == *table && idx.cols == cols && idx.version == version).then_some(name)
        })
    }

    /// Open `table` for equality lookups on column position `key_col` —
    /// see [`KeyedReader`] for how lookups are answered. `None` when the
    /// table does not exist.
    pub fn keyed_reader(&self, table: &Ident, key_col: usize, bulk: bool) -> Option<KeyedReader<'_>> {
        self.keyed_reader_over(std::slice::from_ref(table), key_col, bulk)
    }

    /// Open `tables`, in this order, for equality lookups on column position
    /// `key_col` of each — one reader whose lookup spans them all. `None`
    /// when a table does not exist.
    pub fn keyed_reader_over(
        &self,
        tables: &[Ident],
        key_col: usize,
        bulk: bool,
    ) -> Option<KeyedReader<'_>> {
        let heaps = tables
            .iter()
            .map(|table| Some(self.tables.get(table)?.rows.as_slice()))
            .collect::<Option<Vec<_>>>()?;
        let indexes = bulk.then(|| {
            tables
                .iter()
                .map(|table| {
                    let name = self.find_fresh_index(table, &[key_col])?;
                    self.indexes.get(name)
                })
                .collect::<Option<Vec<_>>>()
        });
        let access = match indexes {
            None => KeyedAccess::Scan,
            Some(Some(indexes)) => KeyedAccess::Index(indexes),
            Some(None) => KeyedAccess::Multimap(None),
        };
        Some(KeyedReader { tables: heaps, key_col, access, table_scans: 0, index_probes: 0 })
    }

    /// Drain the maintenance-operation counter (key insertions/removals and
    /// rebuild row visits since the last drain).
    pub fn take_maintenance_ops(&mut self) -> u64 {
        std::mem::take(&mut self.maintenance_ops)
    }

    /// Key hash of one row for an index's column positions; `None` when any
    /// key component is NULL or unhashable (such rows are unindexed — an
    /// equality predicate can never select them).
    fn values_key(cols: &[usize], values: &[Value]) -> Option<u64> {
        key_hash(cols.iter().map(|&c| values.get(c).unwrap_or(&Value::Null)))
    }

    /// Index maintenance after rows were appended at `base_slot..`: fresh
    /// indexes extend incrementally, stale ones rebuild.
    fn index_appended(&mut self, table: &Ident, base_slot: usize, prev_version: u64) {
        if self.indexes.is_empty() {
            return;
        }
        let version = self.table_version(table);
        let mut indexes = std::mem::take(&mut self.indexes);
        let mut ops = 0u64;
        if let Some(data) = self.tables.get(table) {
            for idx in indexes.values_mut().filter(|i| &i.table == table) {
                if idx.version == prev_version {
                    for slot in base_slot..data.rows.len() {
                        if let Some(h) = Self::values_key(&idx.cols, &data.rows[slot].values) {
                            // Appends arrive in ascending slot order, so a
                            // plain push keeps buckets sorted.
                            idx.buckets.entry(h).or_default().push(slot);
                        }
                        ops += 1;
                    }
                    idx.version = version;
                } else {
                    ops += Self::rebuild_one(idx, Some(data), version);
                }
            }
        }
        self.indexes = indexes;
        self.maintenance_ops += ops;
    }

    /// Index maintenance after one row's values were overwritten in place.
    fn index_rewrote(&mut self, table: &Ident, slot: usize, old_values: &[Value], prev_version: u64) {
        if self.indexes.is_empty() {
            return;
        }
        let version = self.table_version(table);
        let mut indexes = std::mem::take(&mut self.indexes);
        let mut ops = 0u64;
        if let Some(data) = self.tables.get(table) {
            for idx in indexes.values_mut().filter(|i| &i.table == table) {
                if idx.version == prev_version {
                    if let Some(h) = Self::values_key(&idx.cols, old_values) {
                        if let Some(bucket) = idx.buckets.get_mut(&h) {
                            if let Ok(pos) = bucket.binary_search(&slot) {
                                bucket.remove(pos);
                            }
                            if bucket.is_empty() {
                                idx.buckets.remove(&h);
                            }
                        }
                        ops += 1;
                    }
                    if let Some(row) = data.rows.get(slot) {
                        if let Some(h) = Self::values_key(&idx.cols, &row.values) {
                            let bucket = idx.buckets.entry(h).or_default();
                            if let Err(pos) = bucket.binary_search(&slot) {
                                bucket.insert(pos, slot);
                            }
                            ops += 1;
                        }
                    }
                    idx.version = version;
                } else {
                    ops += Self::rebuild_one(idx, Some(data), version);
                }
            }
        }
        self.indexes = indexes;
        self.maintenance_ops += ops;
    }

    /// Rebuild every index on `table` whose buckets trail the table version
    /// (after slot-shifting operations: deletes, undo replay, index
    /// creation).
    fn rebuild_stale_indexes(&mut self, table: &Ident) {
        if self.indexes.is_empty() {
            return;
        }
        let version = self.table_version(table);
        let mut indexes = std::mem::take(&mut self.indexes);
        let mut ops = 0u64;
        let data = self.tables.get(table);
        for idx in indexes.values_mut().filter(|i| &i.table == table) {
            if idx.version != version {
                ops += Self::rebuild_one(idx, data, version);
            }
        }
        self.indexes = indexes;
        self.maintenance_ops += ops;
    }

    /// Rebuild one index's buckets from its table heap; returns the number
    /// of row visits.
    fn rebuild_one(idx: &mut SecondaryIndex, data: Option<&TableData>, version: u64) -> u64 {
        idx.buckets.clear();
        let mut ops = 0u64;
        if let Some(data) = data {
            for (slot, row) in data.rows.iter().enumerate() {
                if let Some(h) = Self::values_key(&idx.cols, &row.values) {
                    idx.buckets.entry(h).or_default().push(slot);
                }
                ops += 1;
            }
        }
        idx.version = version;
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Ident {
        Ident::new(s).unwrap()
    }

    #[test]
    fn insert_and_lookup_with_oids() {
        let mut st = Storage::new();
        st.create_table(id("Tab"));
        let oid = st.insert_row(&id("Tab"), vec![Value::str("x")], true).unwrap().unwrap();
        let (table, row) = st.resolve_oid(oid).unwrap();
        assert!(table.eq_str("Tab"));
        assert_eq!(row.values[0], Value::str("x"));
    }

    #[test]
    fn oids_are_unique_and_monotonic() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        let a = st.insert_row(&id("T"), vec![], true).unwrap().unwrap();
        let b = st.insert_row(&id("T"), vec![], true).unwrap().unwrap();
        assert!(b > a);
    }

    #[test]
    fn relational_rows_have_no_oid() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        let oid = st.insert_row(&id("T"), vec![Value::Null], false).unwrap();
        assert!(oid.is_none());
    }

    #[test]
    fn insert_into_missing_table_fails() {
        let mut st = Storage::new();
        assert!(st.insert_row(&id("Nope"), vec![], false).is_err());
    }

    #[test]
    fn delete_cleans_oid_directory() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        let oid = st.insert_row(&id("T"), vec![Value::Num(1.0)], true).unwrap().unwrap();
        let removed = st.delete_rows(&id("T"), |r| r.values[0] == Value::Num(1.0));
        assert_eq!(removed, 1);
        assert!(st.resolve_oid(oid).is_none());
        assert_eq!(st.row_count(&id("T")), 0);
        st.check_oid_directory().unwrap();
    }

    #[test]
    fn delete_compaction_reslots_survivors() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        let oids: Vec<Oid> = (0..6)
            .map(|i| st.insert_row(&id("T"), vec![Value::Num(i as f64)], true).unwrap().unwrap())
            .collect();
        // Remove the even-valued rows; surviving rows shift down.
        let removed = st.delete_rows(&id("T"), |r| match &r.values[0] {
            Value::Num(n) => (*n as i64) % 2 == 0,
            _ => false,
        });
        assert_eq!(removed, 3);
        st.check_oid_directory().unwrap();
        for (i, oid) in oids.iter().enumerate() {
            let resolved = st.resolve_oid(*oid);
            if i % 2 == 0 {
                assert!(resolved.is_none(), "row {i} was deleted");
            } else {
                let (_, row) = resolved.expect("surviving row resolves");
                assert_eq!(row.values[0], Value::Num(i as f64));
            }
        }
    }

    #[test]
    fn drop_table_cleans_oid_directory() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        let oid = st.insert_row(&id("T"), vec![], true).unwrap().unwrap();
        st.drop_table(&id("T"));
        assert!(st.resolve_oid(oid).is_none());
        assert_eq!(st.table_count(), 0);
        assert_eq!(st.oid_directory_len(), 0);
    }

    #[test]
    fn rollback_of_insert_restores_allocator_and_directory() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        st.commit();
        let dump = st.state_dump();
        let mark = st.undo_len();
        let oid = st.insert_row(&id("T"), vec![Value::Num(1.0)], true).unwrap().unwrap();
        st.rollback_to(mark);
        assert!(st.resolve_oid(oid).is_none());
        assert_eq!(st.state_dump(), dump, "rollback is byte-identical");
        st.check_oid_directory().unwrap();
        // The allocator was rewound, so the next insert reuses the OID.
        let again = st.insert_row(&id("T"), vec![Value::Num(2.0)], true).unwrap().unwrap();
        assert_eq!(again, oid);
    }

    #[test]
    fn rollback_of_delete_restores_original_slots() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        let oids: Vec<Oid> = (0..6)
            .map(|i| st.insert_row(&id("T"), vec![Value::Num(i as f64)], true).unwrap().unwrap())
            .collect();
        st.commit();
        let dump = st.state_dump();
        let mark = st.undo_len();
        st.delete_rows(&id("T"), |r| matches!(&r.values[0], Value::Num(n) if (*n as i64) % 2 == 0));
        st.check_oid_directory().unwrap();
        st.rollback_to(mark);
        assert_eq!(st.state_dump(), dump);
        st.check_oid_directory().unwrap();
        for (i, oid) in oids.iter().enumerate() {
            let (_, row) = st.resolve_oid(*oid).expect("revived row resolves");
            assert_eq!(row.values[0], Value::Num(i as f64));
        }
    }

    #[test]
    fn rollback_of_drop_and_write_restores_everything() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        st.insert_row(&id("T"), vec![Value::str("old")], true).unwrap();
        st.commit();
        let dump = st.state_dump();
        let mark = st.undo_len();
        st.write_row_values(&id("T"), 0, vec![Value::str("new")]).unwrap();
        st.drop_table(&id("T"));
        st.create_table(id("T"));
        st.rollback_to(mark);
        assert_eq!(st.state_dump(), dump);
        st.check_oid_directory().unwrap();
    }

    #[test]
    fn bulk_insert_matches_sequential_inserts_byte_for_byte() {
        let rows = || vec![vec![Value::Num(1.0)], vec![Value::str("a")], vec![Value::Null]];
        let mut seq = Storage::new();
        seq.create_table(id("T"));
        for values in rows() {
            seq.insert_row(&id("T"), values, true).unwrap();
        }
        let mut bulk = Storage::new();
        bulk.create_table(id("T"));
        assert_eq!(bulk.insert_rows(&id("T"), rows(), true).unwrap(), 3);
        assert_eq!(bulk.state_dump(), seq.state_dump());
        bulk.check_oid_directory().unwrap();
        // One undo record brackets the whole block…
        assert_eq!(bulk.undo_len(), seq.undo_len() - 2);
        // …and rolling it back restores the pre-batch state exactly.
        let mut st = Storage::new();
        st.create_table(id("T"));
        st.commit();
        let dump = st.state_dump();
        let mark = st.undo_len();
        st.insert_rows(&id("T"), rows(), true).unwrap();
        st.rollback_to(mark);
        assert_eq!(st.state_dump(), dump);
        st.check_oid_directory().unwrap();
        // Empty batches are free: no rows, no undo record.
        assert_eq!(st.insert_rows(&id("T"), Vec::new(), true).unwrap(), 0);
        assert_eq!(st.undo_len(), mark);
    }

    fn probe_values(st: &Storage, index: &str, key: &[&Value]) -> Option<Vec<usize>> {
        st.index_probe(&id(index), key_hash(key.iter().copied()).unwrap()).map(|s| s.to_vec())
    }

    #[test]
    fn secondary_index_tracks_all_mutation_paths() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        for name in ["a", "b", "a", "c"] {
            st.insert_row(&id("T"), vec![Value::str(name), Value::Num(1.0)], false).unwrap();
        }
        st.create_index(id("Ix"), id("T"), vec![0]);
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("a")]), Some(vec![0, 2]));
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("zzz")]), Some(vec![]));
        // Inserts extend incrementally (single and bulk).
        st.insert_row(&id("T"), vec![Value::str("a"), Value::Num(2.0)], false).unwrap();
        st.insert_rows(&id("T"), vec![vec![Value::str("b"), Value::Null]], false).unwrap();
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("a")]), Some(vec![0, 2, 4]));
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("b")]), Some(vec![1, 5]));
        // In-place rewrites re-key the row.
        st.write_row_values(&id("T"), 0, vec![Value::str("c"), Value::Num(9.0)]).unwrap();
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("a")]), Some(vec![2, 4]));
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("c")]), Some(vec![0, 3]));
        // NULL keys are unindexed.
        st.write_row_values(&id("T"), 5, vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("b")]), Some(vec![1]));
        // Deletes compact + rebuild.
        st.delete_rows(&id("T"), |r| r.values[0] == Value::str("c"));
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("a")]), Some(vec![1, 2]));
        assert!(st.index_is_fresh(&id("Ix")));
        // Dropping the index retires it.
        st.drop_index(&id("Ix"));
        assert_eq!(st.index_probe(&id("Ix"), 0), None);
    }

    #[test]
    fn secondary_index_survives_rollback_and_stays_out_of_state_dump() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        st.insert_row(&id("T"), vec![Value::str("a")], true).unwrap();
        st.commit();
        let plain_dump = st.state_dump();
        st.create_index(id("Ix"), id("T"), vec![0]);
        // Index presence must not perturb the rollback-equivalence dump.
        assert_eq!(st.state_dump(), plain_dump);
        let mark = st.undo_len();
        // Mutate through every path, then roll back: buckets must match a
        // freshly built index over the restored heap.
        st.insert_row(&id("T"), vec![Value::str("b")], true).unwrap();
        st.write_row_values(&id("T"), 0, vec![Value::str("z")]).unwrap();
        st.delete_rows(&id("T"), |r| r.values[0] == Value::str("b"));
        st.drop_index(&id("Ix"));
        st.rollback_to(mark);
        assert_eq!(st.state_dump(), plain_dump);
        assert!(st.index_is_fresh(&id("Ix")));
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("a")]), Some(vec![0]));
        assert_eq!(probe_values(&st, "Ix", &[&Value::str("z")]), Some(vec![]));
        // Rolling back past the creation retires the index.
        st.rollback_to(0);
        assert_eq!(st.index_probe(&id("Ix"), 0), None);
        // DROP TABLE retires indexes; rollback restores and rebuilds them.
        st.create_index(id("Ix2"), id("T"), vec![0]);
        st.commit();
        let mark = st.undo_len();
        st.drop_table(&id("T"));
        assert_eq!(st.index_probe(&id("Ix2"), 0), None);
        st.rollback_to(mark);
        assert_eq!(probe_values(&st, "Ix2", &[&Value::str("a")]), Some(vec![0]));
    }

    #[test]
    fn maintenance_ops_accumulate_and_drain() {
        let mut st = Storage::new();
        st.create_table(id("T"));
        st.insert_row(&id("T"), vec![Value::str("a")], false).unwrap();
        assert_eq!(st.take_maintenance_ops(), 0, "no index yet");
        st.create_index(id("Ix"), id("T"), vec![0]);
        assert_eq!(st.take_maintenance_ops(), 1, "initial build visits each row");
        st.insert_row(&id("T"), vec![Value::str("b")], false).unwrap();
        assert_eq!(st.take_maintenance_ops(), 1);
        assert_eq!(st.take_maintenance_ops(), 0, "drained");
    }

    #[test]
    fn totals() {
        let mut st = Storage::new();
        st.create_table(id("A"));
        st.create_table(id("B"));
        st.insert_row(&id("A"), vec![], false).unwrap();
        st.insert_row(&id("B"), vec![], false).unwrap();
        st.insert_row(&id("B"), vec![], false).unwrap();
        assert_eq!(st.total_rows(), 3);
        assert_eq!(st.table_count(), 2);
    }
}
