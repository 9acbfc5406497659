//! Statement execution: DDL, DML and queries.
//!
//! The executor is a set of free functions over `(Catalog, Storage,
//! ExecStats, DbMode)` so the [`crate::Database`] façade can split its
//! mutable borrows cleanly.

pub mod ddl;
pub mod dml;
pub mod eval;
pub mod explain;
pub(crate) mod plan;
pub mod select;

use std::sync::Arc;

use crate::catalog::TableDef;
use crate::error::DbError;
use crate::exec::eval::ExecCtx;
use crate::exec::select::{execute_select, QueryResult};
use crate::ident::Ident;
use crate::sql::ast::Stmt;
use crate::storage::Row;
use crate::value::{Oid, Value};

/// Run a read-only statement — SELECT or EXPLAIN — in `ctx`. The writer
/// ([`crate::Database`]) and every snapshot reader
/// ([`crate::mvcc::ReadSession`]) answer queries through this one function;
/// any other statement is [`DbError::ReadOnly`].
pub fn execute_read(ctx: &mut ExecCtx, stmt: &Stmt) -> Result<QueryResult, DbError> {
    match stmt {
        Stmt::Select(select) => execute_select(ctx, select, None),
        Stmt::Explain(inner) => explain::explain_stmt(ctx.catalog, ctx.mode, inner),
        other => Err(DbError::ReadOnly(other.kind())),
    }
}

/// One row binding visible during evaluation: `binding.column` paths resolve
/// against `columns`/`values`; `oid` is set for rows of object tables so
/// `REF(binding)` works.
///
/// Both lists are shared: `columns` is one list per FROM item, and `values`
/// is a block the heap holds — a table row's own
/// ([`crate::storage::Row::values`]) or, for `TABLE(t.coll)`, the `attrs` of
/// the collection element the frame un-nests — so a frame copies two
/// pointers, never a value.
#[derive(Debug, Clone)]
pub struct Frame {
    pub binding: Ident,
    pub columns: Arc<[Ident]>,
    pub values: Arc<Vec<Value>>,
    pub oid: Option<Oid>,
    /// Set when the row is an instance of an object type (object-table rows
    /// and object-valued collection elements): a bare `binding` reference in
    /// an expression then denotes the whole object.
    pub object_type: Option<Ident>,
    /// The row's heap slot for a table row (its position for a view row,
    /// 0 for a collection element): a reordered plan's sink records each
    /// result row's slots in FROM order and sorts the rows by them, which
    /// restores the nested loop's enumeration.
    pub slot: usize,
}

impl Frame {
    /// The frame of `row`, stored at heap `slot` of `table`, visible as
    /// `binding`: it shares the row's block.
    pub(crate) fn of_row(
        binding: &Ident,
        columns: &Arc<[Ident]>,
        table: &TableDef,
        row: &Row,
        slot: usize,
    ) -> Frame {
        Frame {
            binding: binding.clone(),
            columns: Arc::clone(columns),
            values: Arc::clone(&row.values),
            oid: row.oid,
            object_type: table.of_type().cloned(),
            slot,
        }
    }

    pub fn column_value(&self, name: &Ident) -> Option<&Value> {
        self.columns.iter().position(|c| c == name).map(|i| &self.values[i])
    }
}

/// Evaluation environment: the current row combination plus (for correlated
/// subqueries) the enclosing query's environment.
///
/// The executor owns one frame per FROM position and refills it in place;
/// no sink keeps a frame, so an environment borrows them.
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    pub frames: &'a [Frame],
    pub parent: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    pub const EMPTY: Env<'static> = Env { frames: &[], parent: None };

    pub fn new(frames: &'a [Frame]) -> Env<'a> {
        Env { frames, parent: None }
    }

    pub fn with_parent(frames: &'a [Frame], parent: &'a Env<'a>) -> Env<'a> {
        Env { frames, parent: Some(parent) }
    }

    /// Find a frame by binding name, innermost first.
    pub fn frame(&self, binding: &Ident) -> Option<&Frame> {
        self.frames
            .iter()
            .find(|f| &f.binding == binding)
            .or_else(|| self.parent.and_then(|p| p.frame(binding)))
    }

    /// Find the unique frame containing a column of this name (for
    /// unqualified column references). Searches the innermost scope first;
    /// ambiguity within one scope resolves to the first FROM item, like
    /// Oracle resolves unqualified names positionally.
    pub fn frame_with_column(&self, column: &Ident) -> Option<&Frame> {
        self.frames
            .iter()
            .find(|f| f.columns.iter().any(|c| c == column))
            .or_else(|| self.parent.and_then(|p| p.frame_with_column(column)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Ident {
        Ident::internal(s)
    }

    fn frame(binding: &str, cols: &[(&str, Value)]) -> Frame {
        Frame {
            binding: id(binding),
            columns: cols.iter().map(|(c, _)| id(c)).collect(),
            values: Arc::new(cols.iter().map(|(_, v)| v.clone()).collect()),
            oid: None,
            object_type: None,
            slot: 0,
        }
    }

    #[test]
    fn frame_lookup_by_binding_and_column() {
        let frames = vec![
            frame("a", &[("x", Value::Num(1.0))]),
            frame("b", &[("y", Value::Num(2.0))]),
        ];
        let env = Env::new(&frames);
        assert!(env.frame(&id("b")).is_some());
        assert!(env.frame(&id("zz")).is_none());
        assert_eq!(
            env.frame_with_column(&id("y")).unwrap().binding.as_str(),
            "b"
        );
    }

    #[test]
    fn parent_scopes_are_searched_outward() {
        let outer_frames = vec![frame("o", &[("deep", Value::str("v"))])];
        let outer = Env::new(&outer_frames);
        let inner_frames = vec![frame("i", &[("x", Value::Null)])];
        let inner = Env::with_parent(&inner_frames, &outer);
        assert!(inner.frame(&id("o")).is_some());
        assert!(inner.frame_with_column(&id("deep")).is_some());
    }

    #[test]
    fn inner_scope_shadows_outer() {
        let outer_frames = vec![frame("t", &[("x", Value::str("outer"))])];
        let outer = Env::new(&outer_frames);
        let inner_frames = vec![frame("t", &[("x", Value::str("inner"))])];
        let inner = Env::with_parent(&inner_frames, &outer);
        let f = inner.frame(&id("t")).unwrap();
        assert_eq!(f.values[0], Value::str("inner"));
    }
}
