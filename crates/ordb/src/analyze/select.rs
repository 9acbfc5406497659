//! Static analysis of SELECT statements: FROM resolution, scope building,
//! lazy expression checks, and the alias lints.
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

use crate::analyze::expr::{analyze_expr, path_declared_type, STy, ScopeFrame, Scopes};
use crate::analyze::StmtCx;
use crate::catalog::{Catalog, TableDef, TypeDef};
use crate::ident::Ident;
use crate::sql::ast::{Expr, FromItem, SelectStmt};
use crate::types::SqlType;

/// Analyze one SELECT. `outer` is the enclosing scope chain for subqueries;
/// `eager` means the executor runs this query unconditionally when the
/// statement executes (top-level SELECT, INSERT VALUES subquery, …).
pub(crate) fn analyze_select(
    cx: &mut StmtCx,
    outer: Option<&Scopes>,
    stmt: &SelectStmt,
    eager: bool,
) {
    // 1. FROM: build scope frames left to right (later items see earlier
    //    bindings, like the executor's lateral expansion).
    let mut frames: Vec<ScopeFrame> = Vec::new();
    for (idx, item) in stmt.from.iter().enumerate() {
        let eager_here = eager && idx == 0;
        let binding = item.binding();
        if frames.iter().any(|f| f.binding == binding) {
            cx.warn(
                "shadowed-alias",
                format!("FROM binding '{binding}' shadows an earlier binding of the same name"),
                cx.anchor_ident(&binding),
            );
        }
        let frame = match item {
            FromItem::Table { name, .. } => {
                if let Some(table) = cx.catalog.get_table(name) {
                    table_scope(cx.catalog, table, binding)
                } else if cx.catalog.get_view(name).is_some() {
                    // Views execute their stored query on expansion; the
                    // output column set is not modelled statically.
                    ScopeFrame::wildcard(binding)
                } else {
                    cx.report(
                        eager_here,
                        "unknown-table",
                        format!("table or view '{name}' does not exist"),
                        cx.anchor_ident(name),
                    );
                    ScopeFrame::wildcard(binding)
                }
            }
            FromItem::CollectionTable { expr, .. } => {
                // Expanded per combination of the earlier items: lazy.
                let scopes = Scopes { frames: &frames, parent: outer };
                let sty = analyze_expr(cx, &scopes, false, expr);
                let coll_type = match (&sty, expr) {
                    (STy::Collection(t), _) => Some(t.clone()),
                    (_, Expr::Path(parts)) => {
                        match path_declared_type(cx.catalog, &scopes, parts) {
                            Some(SqlType::Varray(t)) | Some(SqlType::NestedTable(t)) => Some(t),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                match coll_type {
                    Some(t) => collection_scope(cx.catalog, &t, binding),
                    None => ScopeFrame::wildcard(binding),
                }
            }
        };
        frames.push(frame);
    }
    let scopes = Scopes { frames: &frames, parent: outer };

    // 2. COUNT(*): legal only as the sole select item. The executor
    //    enforces this after FROM expansion, independent of row counts.
    let top_level_count = !stmt.star && stmt.items.iter().any(|i| matches!(i.expr, Expr::CountStar));
    if top_level_count && stmt.items.len() != 1 {
        cx.report(
            eager,
            "countstar-position",
            "COUNT(*) cannot be combined with other select items".into(),
            cx.anchor_kw("COUNT"),
        );
    }

    // 3. Select items, WHERE, ORDER BY: evaluated per row — lazy.
    for item in &stmt.items {
        if matches!(item.expr, Expr::CountStar) {
            continue;
        }
        analyze_expr(cx, &scopes, false, &item.expr);
    }
    if let Some(pred) = &stmt.where_clause {
        analyze_expr(cx, &scopes, false, pred);
    }
    for (key, _) in &stmt.order_by {
        analyze_expr(cx, &scopes, false, key);
    }

    // 4. Dead-alias lint: an explicitly-introduced alias no expression ever
    //    references. Suppressed for `SELECT *` (every frame contributes) and
    //    when any unqualified column path exists (it may implicitly use any
    //    frame).
    lint_dead_aliases(cx, stmt);
}

/// Scope frame for a catalog table, mirroring `expand_from_item`.
pub(crate) fn table_scope(catalog: &Catalog, table: &TableDef, binding: Ident) -> ScopeFrame {
    ScopeFrame {
        binding,
        columns: Some(catalog.table_columns(table).to_vec()),
        object_type: table.of_type().cloned(),
        has_oid: table.is_object_table(),
    }
}

/// Scope frame for `TABLE(collection)`: object elements expose their
/// attributes as columns; scalar elements appear as `COLUMN_VALUE`.
fn collection_scope(catalog: &Catalog, coll_type: &Ident, binding: Ident) -> ScopeFrame {
    let elem = catalog.get_type(coll_type).and_then(|d| d.element_type().cloned());
    match elem {
        Some(SqlType::Object(o)) => match catalog.get_type(&o) {
            Some(TypeDef::Object { attrs, .. }) => ScopeFrame {
                binding,
                columns: Some(attrs.clone()),
                object_type: Some(o.clone()),
                has_oid: false,
            },
            _ => ScopeFrame::wildcard(binding),
        },
        Some(scalar) => ScopeFrame {
            binding,
            columns: Some(vec![(Ident::internal("COLUMN_VALUE"), scalar)]),
            object_type: None,
            has_oid: false,
        },
        None => ScopeFrame::wildcard(binding),
    }
}

fn lint_dead_aliases(cx: &mut StmtCx, stmt: &SelectStmt) {
    if stmt.star {
        return;
    }
    let bindings: Vec<Ident> = stmt.from.iter().map(|f| f.binding()).collect();
    let mut used: Vec<bool> = vec![false; bindings.len()];
    let mut any_unqualified = false;
    {
        let mut mark = |name: &Ident| {
            let mut hit = false;
            for (i, b) in bindings.iter().enumerate() {
                if b == name {
                    used[i] = true;
                    hit = true;
                }
            }
            if !hit {
                any_unqualified = true;
            }
        };
        let mut walk_all = |exprs: &mut dyn Iterator<Item = &Expr>| {
            for e in exprs {
                walk_heads(e, &mut mark);
            }
        };
        walk_all(&mut stmt.items.iter().map(|i| &i.expr));
        walk_all(&mut stmt.where_clause.iter());
        walk_all(&mut stmt.order_by.iter().map(|(e, _)| e));
        walk_all(&mut stmt.from.iter().filter_map(|f| match f {
            FromItem::CollectionTable { expr, .. } => Some(expr),
            FromItem::Table { .. } => None,
        }));
    }
    if any_unqualified {
        return;
    }
    for (i, item) in stmt.from.iter().enumerate() {
        let explicit_alias = match item {
            FromItem::Table { alias, .. } => alias.is_some(),
            FromItem::CollectionTable { alias, .. } => alias.is_some(),
        };
        if explicit_alias && !used[i] {
            cx.warn(
                "dead-alias",
                format!("alias '{}' is introduced but never referenced", bindings[i]),
                cx.anchor_ident(&bindings[i]),
            );
        }
    }
}

/// Visit the head identifier of every `Path` / `RefOf` in an expression
/// tree, *excluding* subquery bodies (their paths resolve against their own
/// scopes first; treating them as uses would be wrong more often than not,
/// and missing a use only costs lint precision, never correctness).
/// Subquery bodies still mark uses of outer bindings conservatively: any
/// subquery suppresses the lint by marking everything used.
fn walk_heads(expr: &Expr, mark: &mut dyn FnMut(&Ident)) {
    match expr {
        Expr::Literal(_) | Expr::CountStar => {}
        Expr::Path(parts) => mark(&parts[0]),
        Expr::RefOf(alias) => mark(alias),
        Expr::Call { args, .. } => {
            for a in args {
                walk_heads(a, mark);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_heads(lhs, mark);
            walk_heads(rhs, mark);
        }
        Expr::Not(e) | Expr::IsNull { expr: e, .. } | Expr::Like { expr: e, .. } => {
            walk_heads(e, mark)
        }
        Expr::Deref(e) => walk_heads(e, mark),
        Expr::Subquery(q) | Expr::Exists(q) | Expr::CastMultiset { query: q, .. } => {
            // A correlated subquery may reference any outer binding.
            mark_subquery_frees(q, mark);
        }
        // Uncorrelated: it names no outer binding.
        Expr::KeyRef(_) => {}
    }
}

/// Conservatively mark every head inside a subquery as a potential use of
/// an outer binding (heads that match the subquery's own FROM bindings
/// resolve inward, but over-marking only makes the dead-alias lint quieter).
fn mark_subquery_frees(q: &SelectStmt, mark: &mut dyn FnMut(&Ident)) {
    for item in &q.items {
        walk_heads(&item.expr, mark);
    }
    if let Some(p) = &q.where_clause {
        walk_heads(p, mark);
    }
    for (e, _) in &q.order_by {
        walk_heads(e, mark);
    }
    for f in &q.from {
        if let FromItem::CollectionTable { expr, .. } = f {
            walk_heads(expr, mark);
        }
    }
}
