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

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::DbError;
use crate::exec::eval::ExecCtx;
use crate::exec::select::{execute_select, QueryResult};
use crate::scope::{Bindings, Layout, Scope};
use crate::sql::ast::Stmt;
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

/// One FROM item's current row: its block — a table row's own
/// ([`crate::storage::Row::values`]) or, for `TABLE(t.coll)`, the `attrs` of
/// the collection element it un-nests — its OID for a row of an object
/// table, so `REF(binding)` works, and its slot. What the block's values
/// are called is the item's [`Layout`]'s business, so a frame never copies
/// a value.
///
/// The block is borrowed while it is one the heap holds — a table row read
/// from storage, an element of a collection read in place — so placing it
/// costs no reference-count write. It is owned only where nothing lasting
/// holds it: a view row, a scalar or NULL element's wrapper, and the
/// elements of a collection a REF step or a call materialised.
#[derive(Debug, Clone)]
pub struct Frame<'a> {
    pub values: Cow<'a, Arc<Vec<Value>>>,
    pub oid: Option<Oid>,
    /// The row's heap slot for a table row (its position for a view row,
    /// 0 for a collection element): a reordered plan's sink records each
    /// result row's slots in FROM order and sorts the rows by them, which
    /// restores the nested loop's enumeration.
    pub slot: usize,
}

/// Evaluation environment: the scope names resolve in, what the level's
/// names are bound to, the current row of each of its FROM items and, for a
/// correlated subquery, the enclosing query's environment.
///
/// `frames` are in execution order, one per position bound so far, and
/// `positions` maps each FROM item to its position. The executor owns one
/// frame per position and refills it in place; no sink keeps a frame, so an
/// environment borrows them.
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    pub scope: &'a Scope<'a>,
    pub bindings: &'a Bindings<'a>,
    pub frames: &'a [Frame<'a>],
    pub positions: &'a [usize],
    pub parent: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    /// No row at all: where `INSERT … VALUES` evaluates.
    pub const EMPTY: Env<'static> = Env {
        scope: &Scope::EMPTY,
        bindings: &Bindings::NONE,
        frames: &[],
        positions: &[],
        parent: None,
    };

    /// The environment of one FROM item's row — DML's target table, bound
    /// in `scope` — before the row is placed in it.
    pub(crate) fn row(scope: &'a Scope<'a>, bindings: &'a Bindings<'a>) -> Env<'a> {
        Env { scope, bindings, frames: &[], positions: &[0], parent: None }
    }

    /// The FROM item at `item` of the environment `depth` levels out, with
    /// its current row — `None` while its position is not bound yet.
    pub fn item(&self, depth: usize, item: usize) -> Option<(&'a Layout<'a>, &'a Frame<'a>)> {
        let mut env = *self;
        for _ in 0..depth {
            env = *env.parent?;
        }
        let layouts: &'a [Layout<'a>] = env.scope.layouts;
        Some((layouts.get(item)?, env.frames.get(*env.positions.get(item)?)?))
    }
}

/// The value of column `index` in `block`: NULL past its end, which is
/// where a NULL element of an object collection keeps its attributes.
pub(crate) fn cell(block: &[Value], index: usize) -> &Value {
    const NULL: &Value = &Value::Null;
    block.get(index).unwrap_or(NULL)
}
