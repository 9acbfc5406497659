//! Write-ahead log: the redo half of the engine's ARIES-style story.
//!
//! Every mutation in [`crate::storage`] and [`crate::catalog`] already logs
//! its *inverse* (undo). This module adds the *redo* record: a logical log
//! of committed statements, written and fsynced **before** the undo logs are
//! truncated at COMMIT, so a crash after the fsync can always re-derive the
//! committed state by replay.
//!
//! ## Why a logical log
//!
//! The log records the committed statements themselves (parsed ASTs and
//! [`InsertBatch`]es), not page images. The engine is deterministic — the
//! same statement stream against the same starting state produces a
//! byte-identical [`crate::Database::state_dump`], including OID allocation —
//! so statement replay *is* physical replay here, at a fraction of the log
//! volume. ASTs are encoded with a private binary codec rather than printed
//! SQL: `Value::Date` prints as `DATE '…'` (a literal form the expression
//! grammar cannot re-read everywhere), `Value::Ref` prints as `OID#n`, and
//! NaN degrades to `NULL`, so text round-tripping would be lossy where the
//! codec is exact (floats travel as raw bits).
//!
//! ## Format
//!
//! ```text
//! file   := header entry*
//! header := magic[8] mode[1]              -- b"XORDWAL\x01", 0=Oracle8 1=Oracle9
//! entry  := len[u32 le] crc[u32 le] payload[len]
//! payload:= seq[u64] op_count[u32] op*    -- one entry per COMMIT
//! ```
//!
//! Every entry is length-prefixed and CRC-checksummed. A torn tail write —
//! the crash case — fails the length or checksum test and is *truncated*,
//! never misread; see [`scan_wal`] for the torn-vs-hostile distinction.
//! Entry sequence numbers are strictly monotone; replay after a snapshot
//! skips entries at or below the snapshot's high-water mark, which makes the
//! crash window between "snapshot renamed into place" and "log reset"
//! harmless (the stale entries are simply skipped).
//!
//! All decoding paths are panic-free on hostile bytes: length fields are
//! bounds-checked, enum tags are rejected with
//! [`DbError::CorruptDurableState`], and recursion depth is capped so a
//! crafted deeply-nested expression cannot blow the stack.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use crate::catalog::Constraint;
use crate::error::DbError;
use crate::exec::dml::InsertBatch;
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::sql::ast::{
    BinOp, ColumnSpec, Expr, FromItem, SelectItem, SelectStmt, Stmt,
};
use crate::types::SqlType;
use crate::value::{Oid, Value};

/// Log file magic: "XORDWAL" + format version 1.
pub const WAL_MAGIC: [u8; 8] = *b"XORDWAL\x01";
/// Bytes before the first entry: magic + mode byte.
pub const HEADER_LEN: u64 = 9;
/// Maximum nesting depth accepted when decoding expressions/statements.
/// Deeper input is rejected as corrupt rather than recursed into — hostile
/// bytes must not be able to overflow the stack. 64 is an order of
/// magnitude beyond any AST the mapping layer generates (constructor
/// nesting follows DTD nesting), while 64 debug-build decode frames stay
/// comfortably inside a test thread's 2 MiB stack.
const MAX_DEPTH: u32 = 64;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes` (the checksum used for every log entry and for
/// snapshot files).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Primitive encode / decode
// ---------------------------------------------------------------------------

fn corrupt(msg: impl Into<String>) -> DbError {
    DbError::CorruptDurableState(msg.into())
}

/// Byte-slice cursor with bounds-checked reads. Every read returns
/// `Err(CorruptDurableState)` instead of panicking when the input is short.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "unexpected end of input: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DbError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DbError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DbError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, DbError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(corrupt(format!("invalid bool tag {t}"))),
        }
    }

    /// A length field that is about to size an allocation or a loop. The
    /// per-item floor of 1 byte bounds it by the remaining input, so hostile
    /// lengths cannot trigger huge allocations.
    pub(crate) fn len(&mut self) -> Result<usize, DbError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(corrupt(format!(
                "length {n} exceeds remaining input {}",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub(crate) fn string(&mut self) -> Result<String, DbError> {
        let n = self.len()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt("invalid UTF-8 in string"))
    }

    pub(crate) fn ident(&mut self) -> Result<Ident, DbError> {
        let s = self.string()?;
        // Ident::new re-applies the 30-char limit, so a corrupted length
        // cannot smuggle an oversized identifier past the engine invariant.
        Ident::new(&s)
    }
}

/// Byte-vector builder mirroring [`Dec`].
pub(crate) struct Enc {
    pub(crate) out: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc { out: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn ident(&mut self, id: &Ident) {
        self.str(id.as_str());
    }
}

fn next_depth(depth: u32) -> Result<u32, DbError> {
    if depth >= MAX_DEPTH {
        return Err(corrupt(format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    Ok(depth + 1)
}

// ---------------------------------------------------------------------------
// Value / type codec
// ---------------------------------------------------------------------------

pub(crate) fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Str(s) => {
            e.u8(1);
            e.str(s);
        }
        Value::Num(n) => {
            e.u8(2);
            e.f64(*n);
        }
        Value::Date(s) => {
            e.u8(3);
            e.str(s);
        }
        Value::Obj { type_name, attrs } => {
            e.u8(4);
            e.ident(type_name);
            e.u32(attrs.len() as u32);
            for a in attrs.iter() {
                encode_value(e, a);
            }
        }
        Value::Coll { type_name, elements } => {
            e.u8(5);
            e.ident(type_name);
            e.u32(elements.len() as u32);
            for el in elements.iter() {
                encode_value(e, el);
            }
        }
        Value::Ref(Oid(o)) => {
            e.u8(6);
            e.u64(*o);
        }
    }
}

pub(crate) fn decode_value(d: &mut Dec, depth: u32) -> Result<Value, DbError> {
    let depth = next_depth(depth)?;
    match d.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Str(d.string()?)),
        2 => Ok(Value::Num(d.f64()?)),
        3 => Ok(Value::Date(d.string()?)),
        4 => {
            let type_name = d.ident()?;
            let n = d.len()?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                attrs.push(decode_value(d, depth)?);
            }
            Ok(Value::Obj { type_name, attrs: Arc::new(attrs) })
        }
        5 => {
            let type_name = d.ident()?;
            let n = d.len()?;
            let mut elements = Vec::with_capacity(n);
            for _ in 0..n {
                elements.push(decode_value(d, depth)?);
            }
            Ok(Value::Coll { type_name, elements: Arc::new(elements) })
        }
        6 => Ok(Value::Ref(Oid(d.u64()?))),
        t => Err(corrupt(format!("invalid Value tag {t}"))),
    }
}

pub(crate) fn encode_sql_type(e: &mut Enc, t: &SqlType) {
    match t {
        SqlType::Varchar(n) => {
            e.u8(0);
            e.u32(*n);
        }
        SqlType::Char(n) => {
            e.u8(1);
            e.u32(*n);
        }
        SqlType::Number => e.u8(2),
        SqlType::Integer => e.u8(3),
        SqlType::Date => e.u8(4),
        SqlType::Clob => e.u8(5),
        SqlType::Object(n) => {
            e.u8(6);
            e.ident(n);
        }
        SqlType::Varray(n) => {
            e.u8(7);
            e.ident(n);
        }
        SqlType::NestedTable(n) => {
            e.u8(8);
            e.ident(n);
        }
        SqlType::Ref(n) => {
            e.u8(9);
            e.ident(n);
        }
    }
}

pub(crate) fn decode_sql_type(d: &mut Dec) -> Result<SqlType, DbError> {
    match d.u8()? {
        0 => Ok(SqlType::Varchar(d.u32()?)),
        1 => Ok(SqlType::Char(d.u32()?)),
        2 => Ok(SqlType::Number),
        3 => Ok(SqlType::Integer),
        4 => Ok(SqlType::Date),
        5 => Ok(SqlType::Clob),
        6 => Ok(SqlType::Object(d.ident()?)),
        7 => Ok(SqlType::Varray(d.ident()?)),
        8 => Ok(SqlType::NestedTable(d.ident()?)),
        9 => Ok(SqlType::Ref(d.ident()?)),
        t => Err(corrupt(format!("invalid SqlType tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Expression / statement codec
// ---------------------------------------------------------------------------

fn encode_binop(e: &mut Enc, op: BinOp) {
    let tag = match op {
        BinOp::Eq => 0,
        BinOp::Ne => 1,
        BinOp::Lt => 2,
        BinOp::Le => 3,
        BinOp::Gt => 4,
        BinOp::Ge => 5,
        BinOp::And => 6,
        BinOp::Or => 7,
        BinOp::Concat => 8,
    };
    e.u8(tag);
}

fn decode_binop(d: &mut Dec) -> Result<BinOp, DbError> {
    match d.u8()? {
        0 => Ok(BinOp::Eq),
        1 => Ok(BinOp::Ne),
        2 => Ok(BinOp::Lt),
        3 => Ok(BinOp::Le),
        4 => Ok(BinOp::Gt),
        5 => Ok(BinOp::Ge),
        6 => Ok(BinOp::And),
        7 => Ok(BinOp::Or),
        8 => Ok(BinOp::Concat),
        t => Err(corrupt(format!("invalid BinOp tag {t}"))),
    }
}

pub(crate) fn encode_idents(e: &mut Enc, ids: &[Ident]) {
    e.u32(ids.len() as u32);
    for id in ids {
        e.ident(id);
    }
}

pub(crate) fn decode_idents(d: &mut Dec) -> Result<Vec<Ident>, DbError> {
    let n = d.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.ident()?);
    }
    Ok(out)
}

fn encode_opt_ident(e: &mut Enc, id: &Option<Ident>) {
    match id {
        None => e.u8(0),
        Some(i) => {
            e.u8(1);
            e.ident(i);
        }
    }
}

fn decode_opt_ident(d: &mut Dec) -> Result<Option<Ident>, DbError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.ident()?)),
        t => Err(corrupt(format!("invalid Option tag {t}"))),
    }
}

pub(crate) fn encode_expr(e: &mut Enc, x: &Expr) {
    match x {
        Expr::Literal(v) => {
            e.u8(0);
            encode_value(e, v);
        }
        Expr::Path(parts) => {
            e.u8(1);
            encode_idents(e, parts);
        }
        Expr::Call { name, args } => {
            e.u8(2);
            e.ident(name);
            e.u32(args.len() as u32);
            for a in args {
                encode_expr(e, a);
            }
        }
        Expr::CountStar => e.u8(3),
        Expr::Binary { op, lhs, rhs } => {
            e.u8(4);
            encode_binop(e, *op);
            encode_expr(e, lhs);
            encode_expr(e, rhs);
        }
        Expr::Not(x) => {
            e.u8(5);
            encode_expr(e, x);
        }
        Expr::IsNull { expr, negated } => {
            e.u8(6);
            e.bool(*negated);
            encode_expr(e, expr);
        }
        Expr::Like { expr, pattern, negated } => {
            e.u8(7);
            e.str(pattern);
            e.bool(*negated);
            encode_expr(e, expr);
        }
        Expr::RefOf(id) => {
            e.u8(8);
            e.ident(id);
        }
        Expr::Deref(x) => {
            e.u8(9);
            encode_expr(e, x);
        }
        Expr::Subquery(q) => {
            e.u8(10);
            encode_select(e, q);
        }
        // Logged as the subquery it means, so the log format is unchanged;
        // replay evaluates that subquery, which reads what this did.
        Expr::KeyRef(key_ref) => {
            e.u8(10);
            encode_select(e, &key_ref.subquery());
        }
        Expr::CastMultiset { query, target } => {
            e.u8(11);
            e.ident(target);
            encode_select(e, query);
        }
        Expr::Exists(q) => {
            e.u8(12);
            encode_select(e, q);
        }
    }
}

pub(crate) fn decode_expr(d: &mut Dec, depth: u32) -> Result<Expr, DbError> {
    let depth = next_depth(depth)?;
    match d.u8()? {
        0 => Ok(Expr::Literal(decode_value(d, depth)?)),
        1 => Ok(Expr::Path(decode_idents(d)?)),
        2 => {
            let name = d.ident()?;
            let n = d.len()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(decode_expr(d, depth)?);
            }
            Ok(Expr::Call { name, args })
        }
        3 => Ok(Expr::CountStar),
        4 => {
            let op = decode_binop(d)?;
            let lhs = Box::new(decode_expr(d, depth)?);
            let rhs = Box::new(decode_expr(d, depth)?);
            Ok(Expr::Binary { op, lhs, rhs })
        }
        5 => Ok(Expr::Not(Box::new(decode_expr(d, depth)?))),
        6 => {
            let negated = d.bool()?;
            let expr = Box::new(decode_expr(d, depth)?);
            Ok(Expr::IsNull { expr, negated })
        }
        7 => {
            let pattern = d.string()?;
            let negated = d.bool()?;
            let expr = Box::new(decode_expr(d, depth)?);
            Ok(Expr::Like { expr, pattern, negated })
        }
        8 => Ok(Expr::RefOf(d.ident()?)),
        9 => Ok(Expr::Deref(Box::new(decode_expr(d, depth)?))),
        10 => Ok(Expr::Subquery(Box::new(decode_select(d, depth)?))),
        11 => {
            let target = d.ident()?;
            let query = Box::new(decode_select(d, depth)?);
            Ok(Expr::CastMultiset { query, target })
        }
        12 => Ok(Expr::Exists(Box::new(decode_select(d, depth)?))),
        t => Err(corrupt(format!("invalid Expr tag {t}"))),
    }
}

fn encode_opt_expr(e: &mut Enc, x: &Option<Expr>) {
    match x {
        None => e.u8(0),
        Some(x) => {
            e.u8(1);
            encode_expr(e, x);
        }
    }
}

fn decode_opt_expr(d: &mut Dec, depth: u32) -> Result<Option<Expr>, DbError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_expr(d, depth)?)),
        t => Err(corrupt(format!("invalid Option tag {t}"))),
    }
}

pub(crate) fn encode_select(e: &mut Enc, s: &SelectStmt) {
    e.bool(s.distinct);
    e.bool(s.star);
    e.u32(s.items.len() as u32);
    for it in &s.items {
        encode_expr(e, &it.expr);
        encode_opt_ident(e, &it.alias);
    }
    e.u32(s.from.len() as u32);
    for f in &s.from {
        match f {
            FromItem::Table { name, alias } => {
                e.u8(0);
                e.ident(name);
                encode_opt_ident(e, alias);
            }
            FromItem::CollectionTable { expr, alias } => {
                e.u8(1);
                encode_expr(e, expr);
                encode_opt_ident(e, alias);
            }
        }
    }
    encode_opt_expr(e, &s.where_clause);
    e.u32(s.order_by.len() as u32);
    for (x, asc) in &s.order_by {
        encode_expr(e, x);
        e.bool(*asc);
    }
}

pub(crate) fn decode_select(d: &mut Dec, depth: u32) -> Result<SelectStmt, DbError> {
    let depth = next_depth(depth)?;
    let distinct = d.bool()?;
    let star = d.bool()?;
    let n = d.len()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let expr = decode_expr(d, depth)?;
        let alias = decode_opt_ident(d)?;
        items.push(SelectItem { expr, alias });
    }
    let n = d.len()?;
    let mut from = Vec::with_capacity(n);
    for _ in 0..n {
        from.push(match d.u8()? {
            0 => {
                let name = d.ident()?;
                let alias = decode_opt_ident(d)?;
                FromItem::Table { name, alias }
            }
            1 => {
                let expr = decode_expr(d, depth)?;
                let alias = decode_opt_ident(d)?;
                FromItem::CollectionTable { expr, alias }
            }
            t => return Err(corrupt(format!("invalid FromItem tag {t}"))),
        });
    }
    let where_clause = decode_opt_expr(d, depth)?;
    let n = d.len()?;
    let mut order_by = Vec::with_capacity(n);
    for _ in 0..n {
        let x = decode_expr(d, depth)?;
        let asc = d.bool()?;
        order_by.push((x, asc));
    }
    Ok(SelectStmt { distinct, items, star, from, where_clause, order_by })
}

fn encode_constraint(e: &mut Enc, c: &Constraint) {
    match c {
        Constraint::PrimaryKey(cols) => {
            e.u8(0);
            encode_idents(e, cols);
        }
        Constraint::NotNull(col) => {
            e.u8(1);
            e.ident(col);
        }
        Constraint::Check(x) => {
            e.u8(2);
            encode_expr(e, x);
        }
        Constraint::Unique(cols) => {
            e.u8(3);
            encode_idents(e, cols);
        }
    }
}

fn decode_constraint(d: &mut Dec, depth: u32) -> Result<Constraint, DbError> {
    match d.u8()? {
        0 => Ok(Constraint::PrimaryKey(decode_idents(d)?)),
        1 => Ok(Constraint::NotNull(d.ident()?)),
        2 => Ok(Constraint::Check(decode_expr(d, depth)?)),
        3 => Ok(Constraint::Unique(decode_idents(d)?)),
        t => Err(corrupt(format!("invalid Constraint tag {t}"))),
    }
}

pub(crate) fn encode_constraints(e: &mut Enc, cs: &[Constraint]) {
    e.u32(cs.len() as u32);
    for c in cs {
        encode_constraint(e, c);
    }
}

pub(crate) fn decode_constraints(d: &mut Dec, depth: u32) -> Result<Vec<Constraint>, DbError> {
    let n = d.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_constraint(d, depth)?);
    }
    Ok(out)
}

pub(crate) fn encode_stmt(e: &mut Enc, s: &Stmt) {
    match s {
        Stmt::CreateTypeForward { name } => {
            e.u8(0);
            e.ident(name);
        }
        Stmt::CreateObjectType { name, attrs } => {
            e.u8(1);
            e.ident(name);
            e.u32(attrs.len() as u32);
            for (a, t) in attrs {
                e.ident(a);
                encode_sql_type(e, t);
            }
        }
        Stmt::CreateVarrayType { name, max, elem } => {
            e.u8(2);
            e.ident(name);
            e.u32(*max);
            encode_sql_type(e, elem);
        }
        Stmt::CreateNestedTableType { name, elem } => {
            e.u8(3);
            e.ident(name);
            encode_sql_type(e, elem);
        }
        Stmt::CreateObjectTable { name, of_type, constraints } => {
            e.u8(4);
            e.ident(name);
            e.ident(of_type);
            encode_constraints(e, constraints);
        }
        Stmt::CreateRelationalTable { name, columns, constraints, nested_table_stores } => {
            e.u8(5);
            e.ident(name);
            e.u32(columns.len() as u32);
            for c in columns {
                e.ident(&c.name);
                encode_sql_type(e, &c.sql_type);
                e.bool(c.not_null);
                e.bool(c.primary_key);
            }
            encode_constraints(e, constraints);
            e.u32(nested_table_stores.len() as u32);
            for (col, store) in nested_table_stores {
                e.ident(col);
                e.ident(store);
            }
        }
        Stmt::CreateView { name, query, or_replace } => {
            e.u8(6);
            e.ident(name);
            e.bool(*or_replace);
            encode_select(e, query);
        }
        Stmt::CreateIndex { name, table, columns, unique } => {
            e.u8(7);
            e.ident(name);
            e.ident(table);
            encode_idents(e, columns);
            e.bool(*unique);
        }
        Stmt::DropIndex { name } => {
            e.u8(8);
            e.ident(name);
        }
        Stmt::AnalyzeTable { table } => {
            e.u8(9);
            e.ident(table);
        }
        Stmt::DropType { name, force } => {
            e.u8(10);
            e.ident(name);
            e.bool(*force);
        }
        Stmt::DropTable { name } => {
            e.u8(11);
            e.ident(name);
        }
        Stmt::DropView { name } => {
            e.u8(12);
            e.ident(name);
        }
        Stmt::Insert { table, columns, values } => {
            e.u8(13);
            e.ident(table);
            match columns {
                None => e.u8(0),
                Some(cols) => {
                    e.u8(1);
                    encode_idents(e, cols);
                }
            }
            e.u32(values.len() as u32);
            for v in values {
                encode_expr(e, v);
            }
        }
        Stmt::Select(q) => {
            e.u8(14);
            encode_select(e, q);
        }
        Stmt::Delete { table, where_clause } => {
            e.u8(15);
            e.ident(table);
            encode_opt_expr(e, where_clause);
        }
        Stmt::Update { table, sets, where_clause } => {
            e.u8(16);
            e.ident(table);
            e.u32(sets.len() as u32);
            for (path, x) in sets {
                encode_idents(e, path);
                encode_expr(e, x);
            }
            encode_opt_expr(e, where_clause);
        }
        Stmt::Commit => e.u8(17),
        Stmt::Rollback { to } => {
            e.u8(18);
            encode_opt_ident(e, to);
        }
        Stmt::Savepoint { name } => {
            e.u8(19);
            e.ident(name);
        }
        Stmt::Explain(inner) => {
            e.u8(20);
            encode_stmt(e, inner);
        }
    }
}

pub(crate) fn decode_stmt(d: &mut Dec, depth: u32) -> Result<Stmt, DbError> {
    let depth = next_depth(depth)?;
    match d.u8()? {
        0 => Ok(Stmt::CreateTypeForward { name: d.ident()? }),
        1 => {
            let name = d.ident()?;
            let n = d.len()?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let a = d.ident()?;
                let t = decode_sql_type(d)?;
                attrs.push((a, t));
            }
            Ok(Stmt::CreateObjectType { name, attrs })
        }
        2 => {
            let name = d.ident()?;
            let max = d.u32()?;
            let elem = decode_sql_type(d)?;
            Ok(Stmt::CreateVarrayType { name, max, elem })
        }
        3 => {
            let name = d.ident()?;
            let elem = decode_sql_type(d)?;
            Ok(Stmt::CreateNestedTableType { name, elem })
        }
        4 => {
            let name = d.ident()?;
            let of_type = d.ident()?;
            let constraints = decode_constraints(d, depth)?;
            Ok(Stmt::CreateObjectTable { name, of_type, constraints })
        }
        5 => {
            let name = d.ident()?;
            let n = d.len()?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                let cname = d.ident()?;
                let sql_type = decode_sql_type(d)?;
                let not_null = d.bool()?;
                let primary_key = d.bool()?;
                columns.push(ColumnSpec { name: cname, sql_type, not_null, primary_key });
            }
            let constraints = decode_constraints(d, depth)?;
            let n = d.len()?;
            let mut nested_table_stores = Vec::with_capacity(n);
            for _ in 0..n {
                let col = d.ident()?;
                let store = d.ident()?;
                nested_table_stores.push((col, store));
            }
            Ok(Stmt::CreateRelationalTable { name, columns, constraints, nested_table_stores })
        }
        6 => {
            let name = d.ident()?;
            let or_replace = d.bool()?;
            let query = decode_select(d, depth)?;
            Ok(Stmt::CreateView { name, query, or_replace })
        }
        7 => {
            let name = d.ident()?;
            let table = d.ident()?;
            let columns = decode_idents(d)?;
            let unique = d.bool()?;
            Ok(Stmt::CreateIndex { name, table, columns, unique })
        }
        8 => Ok(Stmt::DropIndex { name: d.ident()? }),
        9 => Ok(Stmt::AnalyzeTable { table: d.ident()? }),
        10 => {
            let name = d.ident()?;
            let force = d.bool()?;
            Ok(Stmt::DropType { name, force })
        }
        11 => Ok(Stmt::DropTable { name: d.ident()? }),
        12 => Ok(Stmt::DropView { name: d.ident()? }),
        13 => {
            let table = d.ident()?;
            let columns = match d.u8()? {
                0 => None,
                1 => Some(decode_idents(d)?),
                t => return Err(corrupt(format!("invalid Option tag {t}"))),
            };
            let n = d.len()?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(decode_expr(d, depth)?);
            }
            Ok(Stmt::Insert { table, columns, values })
        }
        14 => Ok(Stmt::Select(decode_select(d, depth)?)),
        15 => {
            let table = d.ident()?;
            let where_clause = decode_opt_expr(d, depth)?;
            Ok(Stmt::Delete { table, where_clause })
        }
        16 => {
            let table = d.ident()?;
            let n = d.len()?;
            let mut sets = Vec::with_capacity(n);
            for _ in 0..n {
                let path = decode_idents(d)?;
                let x = decode_expr(d, depth)?;
                sets.push((path, x));
            }
            let where_clause = decode_opt_expr(d, depth)?;
            Ok(Stmt::Update { table, sets, where_clause })
        }
        17 => Ok(Stmt::Commit),
        18 => Ok(Stmt::Rollback { to: decode_opt_ident(d)? }),
        19 => Ok(Stmt::Savepoint { name: d.ident()? }),
        20 => Ok(Stmt::Explain(Box::new(decode_stmt(d, depth)?))),
        t => Err(corrupt(format!("invalid Stmt tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Redo operations and log entries
// ---------------------------------------------------------------------------

/// One logged mutation: a statement that ran through the SQL front end, or
/// a batched insert that bypassed it.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// A successful, effect-producing statement.
    Stmt(Stmt),
    /// A successful [`crate::Database::execute_batch`] call.
    Batch(InsertBatch),
}

fn encode_redo_op(e: &mut Enc, op: &RedoOp) {
    match op {
        RedoOp::Stmt(s) => {
            e.u8(0);
            encode_stmt(e, s);
        }
        RedoOp::Batch(b) => {
            e.u8(1);
            e.ident(&b.table);
            match &b.columns {
                None => e.u8(0),
                Some(cols) => {
                    e.u8(1);
                    encode_idents(e, cols);
                }
            }
            e.u32(b.rows.len() as u32);
            for row in &b.rows {
                e.u32(row.len() as u32);
                for x in row {
                    encode_expr(e, x);
                }
            }
        }
    }
}

fn decode_redo_op(d: &mut Dec) -> Result<RedoOp, DbError> {
    match d.u8()? {
        0 => Ok(RedoOp::Stmt(decode_stmt(d, 0)?)),
        1 => {
            let table = d.ident()?;
            let columns = match d.u8()? {
                0 => None,
                1 => Some(decode_idents(d)?),
                t => return Err(corrupt(format!("invalid Option tag {t}"))),
            };
            let n = d.len()?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let m = d.len()?;
                let mut row = Vec::with_capacity(m);
                for _ in 0..m {
                    row.push(decode_expr(d, 0)?);
                }
                rows.push(row);
            }
            Ok(RedoOp::Batch(InsertBatch { table, columns, rows }))
        }
        t => Err(corrupt(format!("invalid RedoOp tag {t}"))),
    }
}

/// One committed transaction: all effect-producing operations between two
/// COMMIT barriers, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// Strictly monotone per log; replay skips entries at or below a
    /// snapshot's recorded sequence.
    pub seq: u64,
    pub ops: Vec<RedoOp>,
}

fn encode_entry_payload(entry: &WalEntry) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(entry.seq);
    e.u32(entry.ops.len() as u32);
    for op in &entry.ops {
        encode_redo_op(&mut e, op);
    }
    e.out
}

fn decode_entry_payload(bytes: &[u8]) -> Result<WalEntry, DbError> {
    let mut d = Dec::new(bytes);
    let seq = d.u64()?;
    let n = d.len()?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(decode_redo_op(&mut d)?);
    }
    if !d.is_empty() {
        return Err(corrupt(format!("{} trailing bytes after WAL entry", d.remaining())));
    }
    Ok(WalEntry { seq, ops })
}

// ---------------------------------------------------------------------------
// Scanning (recovery read path)
// ---------------------------------------------------------------------------

/// Result of scanning a log image: the decoded prefix plus where the valid
/// bytes end.
#[derive(Debug)]
pub struct WalScan {
    /// Mode byte from the header; `None` when the file is shorter than the
    /// header (treated as fully torn — an interrupted initial creation).
    pub mode: Option<DbMode>,
    /// All fully-durable entries, in log order.
    pub entries: Vec<WalEntry>,
    /// Byte offset of the end of the last valid entry (or the header). The
    /// file should be truncated here on reopen.
    pub valid_len: u64,
    /// Bytes past `valid_len` — a torn tail from an interrupted append.
    pub truncated_bytes: u64,
}

/// Decode a log image, separating three cases:
///
/// * **Torn tail** (crash mid-append): an incomplete frame, a length running
///   past end-of-file, or a CRC mismatch in the *last* readable frame. The
///   scan stops and reports the tail length; this is normal crash recovery,
///   not an error.
/// * **Hostile / corrupt interior**: a frame whose CRC *validates* but whose
///   payload does not decode, or a non-monotone sequence number. The fsync
///   discipline makes this impossible under crashes, so it is reported as
///   [`DbError::CorruptDurableState`] rather than silently truncated —
///   truncating here could drop durably-committed data.
/// * **Wrong file**: bad magic on a file big enough to have one.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan, DbError> {
    if (bytes.len() as u64) < HEADER_LEN {
        // Shorter than the header: creation itself was torn.
        return Ok(WalScan {
            mode: None,
            entries: Vec::new(),
            valid_len: 0,
            truncated_bytes: bytes.len() as u64,
        });
    }
    if bytes[..8] != WAL_MAGIC {
        return Err(corrupt("WAL file has wrong magic bytes"));
    }
    let mode = match bytes[8] {
        0 => DbMode::Oracle8,
        1 => DbMode::Oracle9,
        t => return Err(corrupt(format!("invalid mode byte {t} in WAL header"))),
    };
    let mut entries = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut last_seq = 0u64;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < 8 {
            break; // torn: frame header incomplete
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let Some(payload) = rest.get(8..8 + len) else {
            break; // torn: payload runs past end of file
        };
        if crc32(payload) != crc {
            break; // torn: append interrupted mid-payload
        }
        // Checksum is valid: from here on, failures are corruption, not
        // crash artifacts.
        let entry = decode_entry_payload(payload)
            .map_err(|e| corrupt(format!("checksummed WAL entry failed to decode: {e}")))?;
        if entry.seq <= last_seq {
            return Err(corrupt(format!(
                "non-monotone WAL sequence: {} after {last_seq}",
                entry.seq
            )));
        }
        last_seq = entry.seq;
        entries.push(entry);
        pos += 8 + len;
    }
    Ok(WalScan {
        mode: Some(mode),
        entries,
        valid_len: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
    })
}

// ---------------------------------------------------------------------------
// Writing (commit path)
// ---------------------------------------------------------------------------

fn io_err(context: &str, e: std::io::Error) -> DbError {
    DbError::Io(format!("{context}: {e}"))
}

/// Append-only log writer. Created fresh ([`WalWriter::create`]) or attached
/// to a recovered file ([`WalWriter::reopen`], which drops any torn tail).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    seq: u64,
    len_bytes: u64,
}

impl WalWriter {
    /// Create (or overwrite) the log at `path` with a fresh header.
    pub fn create(path: &Path, mode: DbMode) -> Result<WalWriter, DbError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create WAL", e))?;
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(&WAL_MAGIC);
        header[8] = match mode {
            DbMode::Oracle8 => 0,
            DbMode::Oracle9 => 1,
        };
        file.write_all(&header).map_err(|e| io_err("write WAL header", e))?;
        file.sync_data().map_err(|e| io_err("sync WAL header", e))?;
        Ok(WalWriter { file, seq: 0, len_bytes: HEADER_LEN })
    }

    /// Attach to an existing log whose scan reported `valid_len` good bytes
    /// and a last sequence of `seq`. Any torn tail past `valid_len` is cut
    /// off here, making recovery idempotent: a second scan sees a clean file.
    pub fn reopen(path: &Path, valid_len: u64, seq: u64) -> Result<WalWriter, DbError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open WAL", e))?;
        file.set_len(valid_len).map_err(|e| io_err("truncate torn WAL tail", e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek WAL", e))?;
        file.sync_data().map_err(|e| io_err("sync truncated WAL", e))?;
        Ok(WalWriter { file, seq, len_bytes: valid_len })
    }

    /// Sequence number of the last appended entry (0 if none yet).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Current on-disk length of the log in bytes (header included) —
    /// what [`crate::Database::stats_report`] exposes so a long-running
    /// server can watch its recovery debt grow.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Append one committed transaction and fsync. Returns the entry's
    /// sequence number. On success the entry is durable — this is the
    /// barrier COMMIT relies on before truncating the undo logs.
    pub fn append(&mut self, ops: &[RedoOp]) -> Result<u64, DbError> {
        let seq = self.seq + 1;
        let payload = encode_entry_payload(&WalEntry { seq, ops: ops.to_vec() });
        if payload.len() > u32::MAX as usize {
            return Err(DbError::Execution(format!(
                "WAL entry too large: {} bytes",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame).map_err(|e| io_err("append WAL entry", e))?;
        self.file.sync_data().map_err(|e| io_err("fsync WAL entry", e))?;
        self.seq = seq;
        self.len_bytes += frame.len() as u64;
        Ok(seq)
    }

    /// Discard all entries (after a snapshot has made them redundant),
    /// keeping the header and — crucially — the in-memory sequence counter,
    /// so post-snapshot entries stay above the snapshot's high-water mark.
    pub fn reset(&mut self) -> Result<(), DbError> {
        self.file.set_len(HEADER_LEN).map_err(|e| io_err("reset WAL", e))?;
        self.file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek WAL", e))?;
        self.file.sync_data().map_err(|e| io_err("sync reset WAL", e))?;
        self.len_bytes = HEADER_LEN;
        Ok(())
    }
}

/// Read a log file fully into memory; a missing file reads as empty (fresh
/// database, header not yet written).
pub fn read_wal_file(path: &Path) -> Result<Vec<u8>, DbError> {
    match File::open(path) {
        Ok(mut f) => {
            let mut buf = Vec::new();
            f.read_to_end(&mut buf).map_err(|e| io_err("read WAL", e))?;
            Ok(buf)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err("open WAL", e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Ident {
        Ident::new(s).unwrap()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    fn roundtrip_stmt(s: &Stmt) {
        let mut e = Enc::new();
        encode_stmt(&mut e, s);
        let mut d = Dec::new(&e.out);
        let back = decode_stmt(&mut d, 0).unwrap();
        assert!(d.is_empty(), "trailing bytes after {s:?}");
        assert_eq!(&back, s);
    }

    #[test]
    fn stmt_codec_roundtrips_every_variant() {
        use crate::sql::parse_script;
        let script = "
            CREATE TYPE TFwd;
            CREATE TYPE TObj AS OBJECT (A VARCHAR(10), B NUMBER, C REF TFwd);
            CREATE TYPE TVa AS VARRAY(5) OF NUMBER;
            CREATE TYPE TNt AS TABLE OF VARCHAR(20);
            CREATE TABLE TabO OF TObj (A PRIMARY KEY, CHECK (B > 0));
            CREATE TABLE TabR (X NUMBER PRIMARY KEY, Y TNt NOT NULL)
                NESTED TABLE Y STORE AS YStore;
            CREATE OR REPLACE VIEW V AS
                SELECT DISTINCT o.A AS Name FROM TabO o, TABLE(o.C) c
                WHERE o.B = 1 AND o.A LIKE 'x%' OR NOT (o.A IS NOT NULL)
                ORDER BY o.A DESC;
            CREATE UNIQUE INDEX Idx ON TabR (X, Y);
            DROP INDEX Idx;
            ANALYZE TABLE TabR COMPUTE STATISTICS;
            DROP TYPE TVa FORCE;
            DROP TABLE TabR;
            DROP VIEW V;
            INSERT INTO TabR (X, Y) VALUES (1, TNt('a', 'b'));
            INSERT INTO TabO VALUES (TObj('s', 4.5, NULL));
            SELECT COUNT(*) FROM TabO t WHERE EXISTS (SELECT t2.A FROM TabO t2);
            SELECT CAST(MULTISET(SELECT r.X FROM TabR r) AS TNt) FROM TabR z;
            SELECT REF(o), DEREF(o.C) FROM TabO o;
            DELETE FROM TabO WHERE TabO.A = 'x';
            UPDATE TabO SET A = 'y', B = 2 WHERE TabO.B < 9;
            COMMIT;
            ROLLBACK;
            ROLLBACK TO SAVEPOINT sp1;
            SAVEPOINT sp1;
            EXPLAIN PLAN FOR SELECT * FROM TabO;
        ";
        let stmts = parse_script(script).unwrap();
        assert!(stmts.len() >= 24, "parser should produce every variant");
        for s in &stmts {
            roundtrip_stmt(s);
        }
    }

    #[test]
    fn value_codec_is_exact_for_floats_dates_refs() {
        let values = [
            Value::Null,
            Value::Num(0.1 + 0.2), // not representable in short decimal
            Value::Num(f64::NAN),
            Value::Num(f64::NEG_INFINITY),
            Value::Num(-0.0),
            Value::Date("2002-03-26".into()),
            Value::Ref(Oid(u64::MAX)),
            Value::Obj {
                type_name: id("T"),
                attrs: Arc::new(vec![Value::Str("O'Hara".into()), Value::Coll {
                    type_name: id("C"),
                    elements: Arc::new(vec![Value::Num(1.0)]),
                }]),
            },
        ];
        for v in &values {
            let mut e = Enc::new();
            encode_value(&mut e, v);
            let back = decode_value(&mut Dec::new(&e.out), 0).unwrap();
            // Bit-exact comparison (NaN != NaN under PartialEq).
            match (v, &back) {
                (Value::Num(a), Value::Num(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, &back),
            }
        }
    }

    #[test]
    fn decoder_rejects_truncated_and_bad_tag_input_without_panicking() {
        let mut e = Enc::new();
        encode_value(&mut e, &Value::Str("hello".into()));
        let good = e.out;
        for cut in 0..good.len() {
            let r = decode_value(&mut Dec::new(&good[..cut]), 0);
            assert!(r.is_err(), "truncation at {cut} must error");
        }
        assert!(decode_value(&mut Dec::new(&[99]), 0).is_err());
        assert!(decode_stmt(&mut Dec::new(&[250, 0, 0]), 0).is_err());
    }

    #[test]
    fn decoder_caps_recursion_depth() {
        // NOT(NOT(NOT(... Literal NULL))) deeper than MAX_DEPTH.
        let mut bytes = vec![5u8; (MAX_DEPTH + 10) as usize]; // Expr tag 5 = Not
        bytes.push(0); // Expr tag 0 = Literal
        bytes.push(0); // Value tag 0 = Null
        let r = decode_expr(&mut Dec::new(&bytes), 0);
        assert!(matches!(r, Err(DbError::CorruptDurableState(_))));
    }

    #[test]
    fn hostile_length_fields_do_not_allocate_or_panic() {
        // Str with a 4 GiB length claim but 3 bytes of content.
        let mut bytes = vec![1u8]; // Value tag Str
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"abc");
        assert!(decode_value(&mut Dec::new(&bytes), 0).is_err());
    }

    fn entry_bytes(seq: u64, ops: &[RedoOp]) -> Vec<u8> {
        let payload = encode_entry_payload(&WalEntry { seq, ops: ops.to_vec() });
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    fn header(mode: DbMode) -> Vec<u8> {
        let mut h = WAL_MAGIC.to_vec();
        h.push(match mode {
            DbMode::Oracle8 => 0,
            DbMode::Oracle9 => 1,
        });
        h
    }

    #[test]
    fn scan_handles_empty_torn_and_valid_files() {
        // Fully torn creation.
        let s = scan_wal(b"XOR").unwrap();
        assert_eq!(s.valid_len, 0);
        assert_eq!(s.truncated_bytes, 3);
        assert!(s.mode.is_none());

        // Header only.
        let s = scan_wal(&header(DbMode::Oracle9)).unwrap();
        assert_eq!(s.mode, Some(DbMode::Oracle9));
        assert_eq!(s.valid_len, HEADER_LEN);
        assert!(s.entries.is_empty());

        // Two entries, then a torn third.
        let op = RedoOp::Stmt(Stmt::Commit);
        let mut file = header(DbMode::Oracle8);
        file.extend_from_slice(&entry_bytes(1, std::slice::from_ref(&op)));
        file.extend_from_slice(&entry_bytes(2, std::slice::from_ref(&op)));
        let full_len = file.len() as u64;
        let torn = entry_bytes(3, std::slice::from_ref(&op));
        file.extend_from_slice(&torn[..torn.len() - 2]);
        let s = scan_wal(&file).unwrap();
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.valid_len, full_len);
        assert_eq!(s.truncated_bytes, (torn.len() - 2) as u64);
    }

    #[test]
    fn scan_rejects_hostile_interior_but_truncates_torn_tail() {
        let op = RedoOp::Stmt(Stmt::Commit);
        // CRC-valid but undecodable payload → hard error.
        let garbage_payload = vec![200u8, 1, 2, 3];
        let mut file = header(DbMode::Oracle9);
        file.extend_from_slice(&(garbage_payload.len() as u32).to_le_bytes());
        file.extend_from_slice(&crc32(&garbage_payload).to_le_bytes());
        file.extend_from_slice(&garbage_payload);
        assert!(scan_wal(&file).is_err());

        // Non-monotone sequence → hard error.
        let mut file = header(DbMode::Oracle9);
        file.extend_from_slice(&entry_bytes(2, std::slice::from_ref(&op)));
        file.extend_from_slice(&entry_bytes(2, std::slice::from_ref(&op)));
        assert!(scan_wal(&file).is_err());

        // Wrong magic → hard error.
        assert!(scan_wal(b"NOTAWALFILE").is_err());

        // CRC mismatch in the last frame → torn, not error.
        let mut file = header(DbMode::Oracle9);
        file.extend_from_slice(&entry_bytes(1, std::slice::from_ref(&op)));
        let good_len = file.len() as u64;
        let mut bad = entry_bytes(2, std::slice::from_ref(&op));
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        file.extend_from_slice(&bad);
        let s = scan_wal(&file).unwrap();
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.valid_len, good_len);
    }

    #[test]
    fn writer_appends_are_scannable_and_reset_keeps_seq() {
        let dir = std::env::temp_dir().join(format!(
            "xmlord-wal-unit-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, DbMode::Oracle9).unwrap();
        assert_eq!(w.append(&[RedoOp::Stmt(Stmt::Commit)]).unwrap(), 1);
        assert_eq!(w.append(&[RedoOp::Stmt(Stmt::Commit)]).unwrap(), 2);
        let s = scan_wal(&read_wal_file(&path).unwrap()).unwrap();
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.entries[1].seq, 2);

        w.reset().unwrap();
        assert_eq!(w.append(&[RedoOp::Stmt(Stmt::Commit)]).unwrap(), 3);
        let s = scan_wal(&read_wal_file(&path).unwrap()).unwrap();
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].seq, 3, "seq must survive reset");
        std::fs::remove_dir_all(&dir).ok();
    }
}
