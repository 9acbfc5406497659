//! DDL lints: unscoped REFs, the §4.3 CHECK-on-nullable-object quirk, and
//! constraint/column sanity. All findings here are `Warning`s — each one
//! describes a schema that executes fine but behaves surprisingly.

use crate::analyze::StmtCx;
use crate::catalog::Constraint;
use crate::ident::Ident;
use crate::sql::ast::{ColumnSpec, Expr, Stmt};
use xmlord_diag::Span;
use crate::types::SqlType;

/// Lint one DDL statement against the *pre-statement* shadow catalog and
/// record REF target types for the end-of-script dangling-risk check.
pub(crate) fn lint_ddl(cx: &mut StmtCx, stmt: &Stmt, ref_targets: &mut Vec<(Ident, Span)>) {
    match stmt {
        Stmt::CreateObjectType { attrs, .. } => {
            for (attr_name, t) in attrs {
                lint_ref_site(cx, attr_name, t, ref_targets);
            }
        }
        Stmt::CreateVarrayType { name, elem, .. } | Stmt::CreateNestedTableType { name, elem } => {
            lint_ref_site(cx, name, elem, ref_targets);
        }
        Stmt::CreateRelationalTable { name, columns, constraints, .. } => {
            for spec in columns {
                lint_ref_site(cx, &spec.name, &spec.sql_type, ref_targets);
            }
            let cols: Vec<(Ident, SqlType)> = columns
                .iter()
                .map(|c| (c.name.clone(), cx.catalog.resolve_sql_type(c.sql_type.clone())))
                .collect();
            let not_null = inline_not_null(columns, constraints);
            lint_constraints(cx, name, &cols, &not_null, constraints);
        }
        Stmt::CreateObjectTable { name, of_type, constraints } => {
            // Columns are the attributes of the underlying object type
            // (created by an earlier statement, so the shadow catalog has
            // them; if not, applying this statement errors anyway).
            let cols: Vec<(Ident, SqlType)> = match cx.catalog.get_type(of_type) {
                Some(def) => def.object_attrs().to_vec(),
                None => return,
            };
            let not_null = inline_not_null(&[], constraints);
            lint_constraints(cx, name, &cols, &not_null, constraints);
        }
        _ => {}
    }
}

/// REF columns in this dialect are always unscoped (there is no
/// `SCOPE FOR` clause), so any REF may point at any object table — warn,
/// and remember the target type for the dangling-risk check.
fn lint_ref_site(
    cx: &mut StmtCx,
    site_name: &Ident,
    t: &SqlType,
    ref_targets: &mut Vec<(Ident, Span)>,
) {
    let SqlType::Ref(target) = t else { return };
    let span = cx.anchor_ident(site_name);
    cx.warn(
        "unscoped-ref",
        format!(
            "'{site_name}' is an unscoped REF {target}: without a SCOPE FOR clause it may \
             reference any object table (and dangle after deletions, §2.3)"
        ),
        span,
    );
    if !ref_targets.iter().any(|(t2, _)| t2 == target) {
        ref_targets.push((target.clone(), span));
    }
}

/// Column names constrained NOT NULL (inline markers plus table-level
/// constraints — a NULL there can never reach a CHECK evaluation).
fn inline_not_null(columns: &[ColumnSpec], constraints: &[Constraint]) -> Vec<Ident> {
    let mut out: Vec<Ident> = columns
        .iter()
        .filter(|c| c.not_null || c.primary_key)
        .map(|c| c.name.clone())
        .collect();
    for c in constraints {
        match c {
            Constraint::NotNull(col) => out.push(col.clone()),
            Constraint::PrimaryKey(cols) => out.extend(cols.iter().cloned()),
            _ => {}
        }
    }
    out
}

fn lint_constraints(
    cx: &mut StmtCx,
    table_name: &Ident,
    cols: &[(Ident, SqlType)],
    not_null: &[Ident],
    constraints: &[Constraint],
) {
    let known = |col: &Ident| cols.iter().any(|(c, _)| c == col);
    for constraint in constraints {
        match constraint {
            Constraint::NotNull(col) => {
                if !known(col) {
                    cx.warn(
                        "unknown-constraint-column",
                        format!(
                            "NOT NULL constraint on '{table_name}' references unknown column \
                             '{col}' — every INSERT will fail"
                        ),
                        cx.anchor_ident(col),
                    );
                }
            }
            Constraint::PrimaryKey(key) | Constraint::Unique(key) => {
                for col in key {
                    if !known(col) {
                        cx.warn(
                            "unknown-constraint-column",
                            format!(
                                "key constraint on '{table_name}' references unknown column \
                                 '{col}' — every INSERT will fail"
                            ),
                            cx.anchor_ident(col),
                        );
                    }
                }
            }
            Constraint::Check(expr) => lint_check(cx, table_name, cols, not_null, expr),
        }
    }
}

/// The §4.3 quirk: a CHECK over an attribute of a *nullable* object column
/// evaluates to UNKNOWN when the object is NULL, and UNKNOWN passes — the
/// constraint silently admits NULL rows it looks like it should reject.
fn lint_check(
    cx: &mut StmtCx,
    table_name: &Ident,
    cols: &[(Ident, SqlType)],
    not_null: &[Ident],
    expr: &Expr,
) {
    let mut paths: Vec<&[Ident]> = Vec::new();
    collect_check_paths(expr, &mut paths);
    let span = cx.anchor_kw("CHECK");
    for parts in paths {
        // `col.attr…` or `table.col.attr…`.
        let (col, deeper) = if parts.len() >= 2 && &parts[0] == table_name {
            (&parts[1], parts.len() >= 3)
        } else {
            (&parts[0], parts.len() >= 2)
        };
        let Some((_, col_type)) = cols.iter().find(|(c, _)| c == col) else {
            cx.warn(
                "unknown-constraint-column",
                format!("CHECK on '{table_name}' references unknown column '{col}'"),
                span,
            );
            continue;
        };
        let is_object = matches!(col_type, SqlType::Object(_) | SqlType::Ref(_));
        if deeper && is_object && !not_null.iter().any(|n| n == col) {
            cx.warn(
                "check-null-object",
                format!(
                    "CHECK navigates into nullable object column '{col}': when '{col}' is \
                     NULL the condition is UNKNOWN and the row is ACCEPTED (§4.3) — add \
                     '{col} IS NOT NULL' or a NOT NULL constraint to close the gap"
                ),
                span,
            );
        }
    }
}

/// Collect every dot path in a CHECK expression (subqueries excluded —
/// they evaluate against their own scopes).
fn collect_check_paths<'e>(expr: &'e Expr, out: &mut Vec<&'e [Ident]>) {
    match expr {
        Expr::Path(parts) => out.push(parts),
        Expr::Call { args, .. } => {
            for a in args {
                collect_check_paths(a, out);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_check_paths(lhs, out);
            collect_check_paths(rhs, out);
        }
        Expr::Not(e) | Expr::IsNull { expr: e, .. } | Expr::Like { expr: e, .. } => {
            collect_check_paths(e, out)
        }
        Expr::Deref(e) => collect_check_paths(e, out),
        Expr::Literal(_)
        | Expr::CountStar
        | Expr::RefOf(_)
        | Expr::Subquery(_)
        | Expr::KeyRef(_)
        | Expr::CastMultiset { .. }
        | Expr::Exists(_) => {}
    }
}
