//! Snapshot files: a canonical, checksummed image of [`Catalog`] +
//! [`Storage`] taken at a commit point.
//!
//! A snapshot bounds recovery time — on open, the engine restores the
//! latest snapshot and replays only the WAL entries past the snapshot's
//! recorded sequence number, instead of the whole log from genesis.
//!
//! ## Canonical encoding
//!
//! The encoding is *byte-reproducible*: equivalent database states encode
//! to identical bytes. Every map travels in `BTreeMap` (name) order, rows
//! in heap order, floats as raw bits. Two structures are deliberately NOT
//! serialized and are rebuilt deterministically on restore:
//!
//! * the OID directory — derived from the heaps by
//!   [`Storage::from_parts`], which also re-proves the directory invariant
//!   on hostile input instead of trusting serialized slots;
//! * secondary-index buckets (`HashMap`s with nondeterministic iteration
//!   order) — rebuilt from catalog [`IndexDef`]s over the restored heaps.
//!
//! ## Format
//!
//! ```text
//! file    := magic[8] crc[u32 le] payload
//! magic   := b"XORDSNP\x01"
//! payload := mode[1] last_seq[u64] next_oid[u64]
//!            types tables views indexes stats heaps
//! ```
//!
//! The CRC covers the whole payload; a torn or corrupted snapshot fails the
//! checksum and recovery reports [`DbError::CorruptDurableState`] rather
//! than loading half a database. Files are written to a temp name, fsynced,
//! then atomically renamed — a crash mid-write leaves the previous snapshot
//! intact.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crate::catalog::{
    Catalog, ColumnDef, IndexDef, TableDef, TableStats, TypeDef, ViewDef,
};
use crate::error::DbError;
use crate::mode::DbMode;
use crate::storage::{Row, Storage, TableData};
use crate::value::Oid;
use crate::wal::{self, crc32};

/// Snapshot file magic: "XORDSNP" + format version 1.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"XORDSNP\x01";

fn corrupt(msg: impl Into<String>) -> DbError {
    DbError::CorruptDurableState(msg.into())
}

fn io_err(context: &str, e: std::io::Error) -> DbError {
    DbError::Io(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// Catalog-definition codec (builds on the WAL's AST codec)
// ---------------------------------------------------------------------------

fn encode_type_def(e: &mut wal::Enc, def: &TypeDef) {
    match def {
        TypeDef::Object { name, attrs, incomplete } => {
            e.u8(0);
            e.ident(name);
            e.bool(*incomplete);
            e.u32(attrs.len() as u32);
            for (a, t) in attrs {
                e.ident(a);
                wal::encode_sql_type(e, t);
            }
        }
        TypeDef::Varray { name, elem, max } => {
            e.u8(1);
            e.ident(name);
            e.u32(*max);
            wal::encode_sql_type(e, elem);
        }
        TypeDef::NestedTable { name, elem } => {
            e.u8(2);
            e.ident(name);
            wal::encode_sql_type(e, elem);
        }
    }
}

fn decode_type_def(d: &mut wal::Dec) -> Result<TypeDef, DbError> {
    match d.u8()? {
        0 => {
            let name = d.ident()?;
            let incomplete = d.bool()?;
            let n = d.len()?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let a = d.ident()?;
                let t = wal::decode_sql_type(d)?;
                attrs.push((a, t));
            }
            Ok(TypeDef::Object { name, attrs, incomplete })
        }
        1 => {
            let name = d.ident()?;
            let max = d.u32()?;
            let elem = wal::decode_sql_type(d)?;
            Ok(TypeDef::Varray { name, elem, max })
        }
        2 => {
            let name = d.ident()?;
            let elem = wal::decode_sql_type(d)?;
            Ok(TypeDef::NestedTable { name, elem })
        }
        t => Err(corrupt(format!("invalid TypeDef tag {t}"))),
    }
}

fn encode_table_def(e: &mut wal::Enc, def: &TableDef) {
    match def {
        TableDef::Object { name, of_type, constraints } => {
            e.u8(0);
            e.ident(name);
            e.ident(of_type);
            wal::encode_constraints(e, constraints);
        }
        TableDef::Relational { name, columns, constraints, nested_table_stores } => {
            e.u8(1);
            e.ident(name);
            e.u32(columns.len() as u32);
            for c in columns {
                e.ident(&c.name);
                wal::encode_sql_type(e, &c.sql_type);
            }
            wal::encode_constraints(e, constraints);
            e.u32(nested_table_stores.len() as u32);
            for (col, store) in nested_table_stores {
                e.ident(col);
                e.ident(store);
            }
        }
    }
}

fn decode_table_def(d: &mut wal::Dec) -> Result<TableDef, DbError> {
    match d.u8()? {
        0 => {
            let name = d.ident()?;
            let of_type = d.ident()?;
            let constraints = wal::decode_constraints(d, 0)?;
            Ok(TableDef::Object { name, of_type, constraints })
        }
        1 => {
            let name = d.ident()?;
            let n = d.len()?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                let cname = d.ident()?;
                let sql_type = wal::decode_sql_type(d)?;
                columns.push(ColumnDef { name: cname, sql_type });
            }
            let constraints = wal::decode_constraints(d, 0)?;
            let n = d.len()?;
            let mut nested_table_stores = Vec::with_capacity(n);
            for _ in 0..n {
                let col = d.ident()?;
                let store = d.ident()?;
                nested_table_stores.push((col, store));
            }
            Ok(TableDef::Relational { name, columns, constraints, nested_table_stores })
        }
        t => Err(corrupt(format!("invalid TableDef tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Whole-database encode / decode
// ---------------------------------------------------------------------------

/// Decoded contents of a snapshot file.
#[derive(Debug)]
pub struct SnapshotData {
    pub mode: DbMode,
    /// WAL sequence number of the last entry folded into this snapshot;
    /// recovery replays only entries strictly above it.
    pub last_seq: u64,
    pub catalog: Catalog,
    pub storage: Storage,
}

/// Encode the full database image (checksummed, magic-prefixed — ready to
/// write to disk).
pub fn encode_snapshot(
    mode: DbMode,
    last_seq: u64,
    catalog: &Catalog,
    storage: &Storage,
) -> Vec<u8> {
    let mut e = wal::Enc::new();
    e.u8(match mode {
        DbMode::Oracle8 => 0,
        DbMode::Oracle9 => 1,
    });
    e.u64(last_seq);
    e.u64(storage.next_oid());

    let (types, tables, views, indexes, stats) = catalog.snapshot_parts();
    e.u32(types.len() as u32);
    for def in types.values() {
        encode_type_def(&mut e, def);
    }
    e.u32(tables.len() as u32);
    for def in tables.values() {
        encode_table_def(&mut e, def);
    }
    e.u32(views.len() as u32);
    for def in views.values() {
        e.ident(&def.name);
        wal::encode_select(&mut e, &def.query);
    }
    e.u32(indexes.len() as u32);
    for def in indexes.values() {
        e.ident(&def.name);
        e.ident(&def.table);
        wal::encode_idents(&mut e, &def.columns);
        e.bool(def.unique);
    }
    e.u32(stats.len() as u32);
    for (table, st) in stats {
        e.ident(table);
        e.u64(st.rows);
        e.u32(st.distinct.len() as u32);
        for (col, ndv) in &st.distinct {
            e.ident(col);
            e.u64(*ndv);
        }
    }

    let heaps: Vec<_> = storage.heaps().collect();
    e.u32(heaps.len() as u32);
    for (name, data) in heaps {
        e.ident(name);
        e.u32(data.rows.len() as u32);
        for row in &data.rows {
            match row.oid {
                None => e.u8(0),
                Some(Oid(o)) => {
                    e.u8(1);
                    e.u64(o);
                }
            }
            e.u32(row.values.len() as u32);
            for v in row.values.iter() {
                wal::encode_value(&mut e, v);
            }
        }
    }

    let payload = e.out;
    let mut file = Vec::with_capacity(12 + payload.len());
    file.extend_from_slice(&SNAPSHOT_MAGIC);
    file.extend_from_slice(&crc32(&payload).to_le_bytes());
    file.extend_from_slice(&payload);
    file
}

/// Decode and validate a snapshot image. All failure modes — wrong magic,
/// checksum mismatch, undecodable payload, invariant-violating contents —
/// are typed errors; hostile bytes can never panic this path.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotData, DbError> {
    if bytes.len() < 12 {
        return Err(corrupt(format!("snapshot too short: {} bytes", bytes.len())));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt("snapshot file has wrong magic bytes"));
    }
    let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Err(corrupt("snapshot checksum mismatch"));
    }
    let mut d = wal::Dec::new(payload);
    let mode = match d.u8()? {
        0 => DbMode::Oracle8,
        1 => DbMode::Oracle9,
        t => return Err(corrupt(format!("invalid mode byte {t} in snapshot"))),
    };
    let last_seq = d.u64()?;
    let next_oid = d.u64()?;

    let mut types = BTreeMap::new();
    for _ in 0..d.len()? {
        let def = decode_type_def(&mut d)?;
        types.insert(def.name().clone(), def);
    }
    let mut tables = BTreeMap::new();
    for _ in 0..d.len()? {
        let def = decode_table_def(&mut d)?;
        tables.insert(def.name().clone(), def);
    }
    let mut views = BTreeMap::new();
    for _ in 0..d.len()? {
        let name = d.ident()?;
        let query = wal::decode_select(&mut d, 0)?;
        views.insert(name.clone(), ViewDef { name, query });
    }
    let mut indexes = BTreeMap::new();
    for _ in 0..d.len()? {
        let name = d.ident()?;
        let table = d.ident()?;
        let columns = wal::decode_idents(&mut d)?;
        let unique = d.bool()?;
        indexes.insert(name.clone(), IndexDef { name, table, columns, unique, key: None });
    }
    let mut stats = BTreeMap::new();
    for _ in 0..d.len()? {
        let table = d.ident()?;
        let rows = d.u64()?;
        let mut distinct = BTreeMap::new();
        for _ in 0..d.len()? {
            let col = d.ident()?;
            let ndv = d.u64()?;
            distinct.insert(col, ndv);
        }
        stats.insert(table, TableStats { rows, distinct });
    }

    let mut heaps = BTreeMap::new();
    for _ in 0..d.len()? {
        let name = d.ident()?;
        let row_count = d.len()?;
        let mut data = TableData::default();
        data.rows.reserve(row_count);
        for _ in 0..row_count {
            let oid = match d.u8()? {
                0 => None,
                1 => Some(Oid(d.u64()?)),
                t => return Err(corrupt(format!("invalid Option tag {t}"))),
            };
            let n = d.len()?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(wal::decode_value(&mut d, 0)?);
            }
            data.rows.push(Row { oid, values: values.into() });
        }
        heaps.insert(name, data);
    }
    if !d.is_empty() {
        return Err(corrupt(format!("{} trailing bytes after snapshot", d.remaining())));
    }

    let catalog = Catalog::from_parts(types, tables, views, indexes, stats);
    let storage = Storage::from_parts(heaps, next_oid)?;
    Ok(SnapshotData { mode, last_seq, catalog, storage })
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Write `bytes` to `dir/name` atomically: temp file, fsync, rename, then
/// fsync the directory so the rename itself is durable. A crash at any
/// point leaves either the old file or the new one — never a mix.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), DbError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let dst = dir.join(name);
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| io_err("create snapshot temp file", e))?;
    f.write_all(bytes).map_err(|e| io_err("write snapshot", e))?;
    f.sync_all().map_err(|e| io_err("fsync snapshot", e))?;
    drop(f);
    std::fs::rename(&tmp, &dst).map_err(|e| io_err("rename snapshot into place", e))?;
    if let Ok(d) = File::open(dir) {
        // Directory fsync can fail on exotic filesystems; the rename is
        // already visible, so best-effort is acceptable here.
        let _ = d.sync_all();
    }
    Ok(())
}

/// Read a snapshot file fully; `Ok(None)` when it does not exist (fresh
/// database or WAL-only recovery).
pub fn read_snapshot_file(path: &Path) -> Result<Option<Vec<u8>>, DbError> {
    match File::open(path) {
        Ok(mut f) => {
            let mut buf = Vec::new();
            f.read_to_end(&mut buf).map_err(|e| io_err("read snapshot", e))?;
            Ok(Some(buf))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err("open snapshot", e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Constraint;
    use crate::ident::Ident;
    use crate::value::Value;

    fn id(s: &str) -> Ident {
        Ident::new(s).unwrap()
    }

    fn sample_state() -> (Catalog, Storage) {
        let mut cat = Catalog::new();
        cat.create_type(
            TypeDef::Object {
                name: id("T"),
                attrs: vec![(id("A"), crate::types::SqlType::Varchar(10))],
                incomplete: false,
            },
            DbMode::Oracle9,
        )
        .unwrap();
        cat.create_table(TableDef::Object {
            name: id("Tab"),
            of_type: id("T"),
            constraints: vec![Constraint::PrimaryKey(vec![id("A")])],
        })
        .unwrap();
        cat.create_index(IndexDef {
            name: id("Ix"),
            table: id("Tab"),
            columns: vec![id("A")],
            unique: true,
            key: None,
        })
        .unwrap();
        cat.set_table_stats(
            id("Tab"),
            TableStats { rows: 2, distinct: [(id("A"), 2u64)].into_iter().collect() },
        );
        cat.commit();
        let mut st = Storage::new();
        st.create_table(id("Tab"));
        st.insert_row(&id("Tab"), vec![Value::str("x")], true).unwrap();
        st.insert_row(&id("Tab"), vec![Value::Num(0.1 + 0.2)], true).unwrap();
        st.commit();
        (cat, st)
    }

    #[test]
    fn snapshot_roundtrips_catalog_and_storage() {
        let (cat, st) = sample_state();
        let bytes = encode_snapshot(DbMode::Oracle9, 7, &cat, &st);
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.mode, DbMode::Oracle9);
        assert_eq!(snap.last_seq, 7);
        assert_eq!(snap.catalog.state_dump(), cat.state_dump());
        assert_eq!(snap.storage.state_dump(), st.state_dump());
        assert_eq!(snap.catalog.index_count(), 1);
        assert_eq!(snap.catalog.table_stats(&id("Tab")).unwrap().rows, 2);
        snap.storage.check_oid_directory().unwrap();
    }

    #[test]
    fn snapshot_encoding_is_byte_reproducible() {
        // Two independently-built equivalent states must encode identically
        // (the determinism regression the differential gates rely on).
        let (cat_a, st_a) = sample_state();
        let (cat_b, st_b) = sample_state();
        let a = encode_snapshot(DbMode::Oracle9, 3, &cat_a, &st_a);
        let b = encode_snapshot(DbMode::Oracle9, 3, &cat_b, &st_b);
        assert_eq!(a, b);
    }

    #[test]
    fn corrupted_snapshots_are_rejected_not_misread() {
        let (cat, st) = sample_state();
        let good = encode_snapshot(DbMode::Oracle8, 1, &cat, &st);
        // Flip each byte in turn: decode must fail cleanly or (for the
        // checksum's own bytes) still never panic.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5A;
            assert!(decode_snapshot(&bad).is_err(), "flip at {i} must be rejected");
        }
        // Truncations at every length.
        for cut in 0..good.len() {
            assert!(decode_snapshot(&good[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn hostile_duplicate_oids_are_rejected() {
        let mut heaps = BTreeMap::new();
        let mut data = TableData::default();
        data.rows.push(Row { oid: Some(Oid(1)), values: Vec::new().into() });
        data.rows.push(Row { oid: Some(Oid(1)), values: Vec::new().into() });
        heaps.insert(id("T"), data);
        assert!(matches!(
            Storage::from_parts(heaps, 5),
            Err(DbError::CorruptDurableState(_))
        ));
        // And OIDs beyond the allocator position.
        let mut heaps = BTreeMap::new();
        let mut data = TableData::default();
        data.rows.push(Row { oid: Some(Oid(9)), values: Vec::new().into() });
        heaps.insert(id("T"), data);
        assert!(matches!(
            Storage::from_parts(heaps, 5),
            Err(DbError::CorruptDurableState(_))
        ));
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join(format!(
            "xmlord-snap-unit-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (cat, st) = sample_state();
        let bytes = encode_snapshot(DbMode::Oracle9, 2, &cat, &st);
        write_atomic(&dir, "snapshot.db", &bytes).unwrap();
        let back = read_snapshot_file(&dir.join("snapshot.db")).unwrap().unwrap();
        assert_eq!(back, bytes);
        assert!(read_snapshot_file(&dir.join("missing.db")).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
