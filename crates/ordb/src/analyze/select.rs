//! Static analysis of SELECT statements: FROM items through the layouts
//! [`crate::scope`] derives, lazy expression checks, and the alias lints.
//!
//! Mirrors `exec::select::execute_select`'s laziness precisely:
//!
//! * the **first** FROM item is always expanded (the combination list
//!   starts non-empty), so an unknown first table is an unconditional
//!   rejection — `Error` when the statement itself is eagerly evaluated;
//! * later FROM items are only expanded while earlier ones produced rows,
//!   so problems there are `Warning`s;
//! * select items, WHERE conjuncts and ORDER BY keys run per combination —
//!   always `Warning`s;
//! * `COUNT(*)` combined with other select items is rejected *after* FROM
//!   expansion regardless of row counts, so it may be an `Error`.

use crate::analyze::expr::analyze_expr;
use crate::analyze::StmtCx;
use crate::error::DbError;
use crate::exec::select::is_count;
use crate::ident::Ident;
use crate::scope::{layouts, Scope};
use crate::sql::ast::{Expr, FromItem, SelectStmt};

/// Analyze one SELECT. `outer` is the enclosing scope chain for subqueries;
/// `eager` means the executor runs this query unconditionally when the
/// statement executes (top-level SELECT, INSERT VALUES subquery, …).
pub(crate) fn analyze_select(
    cx: &mut StmtCx,
    outer: Option<&Scope>,
    stmt: &SelectStmt,
    eager: bool,
) {
    // 1. FROM: the layouts the executor derives, item by item. An item
    //    that cannot be read fails where the executor first reads it.
    let layouts = layouts(cx.catalog, stmt, outer);
    for (idx, (item, layout)) in stmt.from.iter().zip(&layouts).enumerate() {
        let eager_here = eager && idx == 0;
        let binding = &layout.binding;
        if layouts[..idx].iter().any(|l| l.binding == *binding) {
            cx.warn(
                "shadowed-alias",
                format!("FROM binding '{binding}' shadows an earlier binding of the same name"),
                cx.anchor_ident(binding),
            );
        }
        match item {
            FromItem::Table { name, .. } => match &layout.error {
                Some(DbError::ViewCycle(_)) => cx.report(
                    eager_here,
                    "view-cycle",
                    format!("view '{name}' is defined in terms of itself"),
                    cx.anchor_ident(name),
                ),
                Some(error @ DbError::ViewNesting(_)) => {
                    cx.report(eager_here, "view-nesting", error.to_string(), cx.anchor_ident(name))
                }
                Some(_) => cx.report(
                    eager_here,
                    "unknown-table",
                    format!("table or view '{name}' does not exist"),
                    cx.anchor_ident(name),
                ),
                None => {}
            },
            // Expanded per combination of the earlier items, which are all
            // its operand sees: lazy.
            FromItem::CollectionTable { expr, .. } => {
                analyze_expr(cx, &Scope::new(&layouts[..idx], outer), false, expr);
            }
        }
    }
    let scope = Scope::new(&layouts, outer);

    // 2. COUNT(*): legal only as the sole select item. The executor
    //    enforces this after FROM expansion, independent of row counts.
    if let Err(err) = is_count(stmt) {
        cx.reject(eager, &err, cx.anchor_kw("COUNT"));
    }

    // 3. Select items, WHERE, ORDER BY: evaluated per row — lazy.
    for item in &stmt.items {
        if matches!(item.expr, Expr::CountStar) {
            continue;
        }
        analyze_expr(cx, &scope, false, &item.expr);
    }
    if let Some(pred) = &stmt.where_clause {
        analyze_expr(cx, &scope, false, pred);
    }
    for (key, _) in &stmt.order_by {
        analyze_expr(cx, &scope, false, key);
    }

    // 4. Dead-alias lint.
    lint_dead_aliases(cx, stmt, &scope);
}

/// Dead-alias lint: an explicitly introduced alias that no path or `REF()`
/// of the statement resolves to. Suppressed for `SELECT *` (every item
/// contributes) and when some name is not pinned to an item by its alias:
/// an unqualified column (it may be meant for any item), an outer item's,
/// one that names nothing, or a subquery's.
fn lint_dead_aliases(cx: &mut StmtCx, stmt: &SelectStmt, scope: &Scope) {
    if stmt.star {
        return;
    }
    let mut used = vec![false; stmt.from.len()];
    let mut mark = |item: usize, head: &Ident| {
        used[item] = true;
        scope.layouts[item].binding == *head
    };
    let items = stmt.items.iter().map(|item| &item.expr);
    let mut exprs = items.chain(&stmt.where_clause).chain(stmt.order_by.iter().map(|(e, _)| e));
    let mut pinned = exprs.all(|expr| scope.reads(expr, &mut mark));
    for (idx, item) in stmt.from.iter().enumerate() {
        if let FromItem::CollectionTable { expr, .. } = item {
            let prefix = Scope::new(&scope.layouts[..idx], scope.parent);
            pinned = pinned && prefix.reads(expr, &mut mark);
        }
    }
    if !pinned {
        return;
    }
    for ((item, layout), used) in stmt.from.iter().zip(scope.layouts).zip(used) {
        let explicit_alias = match item {
            FromItem::Table { alias, .. } | FromItem::CollectionTable { alias, .. } => {
                alias.is_some()
            }
        };
        if explicit_alias && !used {
            let binding = &layout.binding;
            cx.warn(
                "dead-alias",
                format!("alias '{binding}' is introduced but never referenced"),
                cx.anchor_ident(binding),
            );
        }
    }
}
