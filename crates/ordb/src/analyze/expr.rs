//! Static expression analysis.
//!
//! Two questions per expression. The first is *eagerness*: does the
//! executor evaluate it unconditionally when the statement executes (→ a
//! definite failure may be reported as `Severity::Error`), or only per row
//! or behind a short-circuit (→ at most a `Warning`)? The `eager` flag
//! threaded through [`analyze_expr`] answers it per expression position, as
//! `exec::eval` evaluates:
//!
//! * `AND`/`OR` short-circuit, so only the left operand inherits eagerness;
//! * comparison, `||`, `NOT`, `IS NULL`, `LIKE`, `DEREF` and a call always
//!   evaluate their operands;
//! * `CAST(MULTISET …)` validates its target type *before* running the
//!   query; `EXISTS`/scalar subqueries run their query when evaluated.
//!
//! The second is the *value*, as far as it is the same whatever the data
//! ([`Fold`]). A literal folds, and so does a call, comparison, `||`,
//! `NOT`, `IS NULL` or `LIKE` whose operands all fold. A path, `REF()`,
//! `DEREF`, a subquery, `EXISTS`, a key REF, `CAST(MULTISET …)` and
//! `COUNT(*)` read rows or storage and never fold. The analyzer holds no
//! value rule of its own: a node whose operands folded is evaluated by
//! `exec::eval::eval_expr`, and a call whose operands did not all fold is
//! handed to `exec::eval::call` with NULL in place of each operand that did
//! not. NULL passes every constructor, built-in and coercion, so what the
//! executor rejects with those stand-ins it rejects with the real operands.
//! Both run against the shadow catalog and an empty storage, which a folded
//! node never reads.

use crate::analyze::{code_for, StmtCx};
use crate::catalog::TypeDef;
use crate::error::DbError;
use crate::exec::eval::{call, deref, eval_expr, multiset_target};
use crate::exec::Env;
use crate::ident::Ident;
use crate::scope::Scope;
use crate::sql::ast::{BinOp, Expr};
use crate::types::SqlType;
use crate::value::Value;

/// What the analyzer knows of an expression's value before any row is read.
#[derive(Debug, Clone)]
pub(crate) enum Fold {
    /// Nothing: the value depends on rows or storage, or the executor
    /// rejects the expression.
    Unknown,
    /// The value the executor computes, whatever the data.
    Value(Value),
    /// An object or collection a constructor built from operands that did
    /// not all fold: its type is the executor's, and its contents hold a
    /// stand-in NULL for each operand that was [`Fold::Unknown`].
    /// `known[i]` says whether operand `i` was anything else.
    Built(Value, Vec<bool>),
}

impl Fold {
    /// What the executor's functions are handed in this operand's place:
    /// what is known of its value, NULL when nothing is. A composite's type
    /// does not depend on its contents, so a built value stands for itself.
    pub(crate) fn stand_in(&self) -> Value {
        match self {
            Fold::Unknown => Value::Null,
            Fold::Value(v) | Fold::Built(v, _) => v.clone(),
        }
    }

    /// Is the stand-in more than a placeholder NULL?
    pub(crate) fn is_known(&self) -> bool {
        !matches!(self, Fold::Unknown)
    }

    /// Which of the `n` parts of a known object are known themselves.
    pub(crate) fn known_parts(&self, n: usize) -> Vec<bool> {
        match self {
            Fold::Built(_, known) => known.clone(),
            Fold::Unknown | Fold::Value(_) => vec![self.is_known(); n],
        }
    }

    fn folded(&self) -> bool {
        matches!(self, Fold::Value(_))
    }
}

/// No FROM item anywhere in the chain — the executor's `Env::EMPTY`
/// (INSERT VALUES position), where *any* path fails unconditionally.
fn is_empty_chain(scope: &Scope) -> bool {
    scope.layouts.is_empty() && scope.parent.is_none_or(is_empty_chain)
}

/// Any item in the chain that cannot be read (a missing table, a view on
/// a cycle)? It has no columns, so a name that resolves to nothing might
/// still have been meant for it — make no claims.
fn any_unreadable(scope: &Scope) -> bool {
    scope.layouts.iter().any(|l| l.error.is_some()) || scope.parent.is_some_and(any_unreadable)
}

/// Analyze one expression, emitting diagnostics, and return what is known
/// of its value.
pub(crate) fn analyze_expr(cx: &mut StmtCx, scope: &Scope, eager: bool, expr: &Expr) -> Fold {
    match expr {
        Expr::Literal(v) => Fold::Value(v.clone()),
        Expr::Path(parts) => {
            analyze_path(cx, scope, eager, parts);
            Fold::Unknown
        }
        Expr::Call { name, args } => analyze_call(cx, scope, eager, name, args),
        // Rejected wherever it is evaluated: only a select list holds it.
        Expr::CountStar => fold_node(cx, eager, expr, &[]),
        Expr::Binary { op: BinOp::And | BinOp::Or, lhs, rhs } => {
            // Short-circuit: the right operand may never be evaluated.
            analyze_expr(cx, scope, eager, lhs);
            analyze_expr(cx, scope, false, rhs);
            Fold::Unknown
        }
        Expr::Binary { lhs, rhs, .. } => {
            let operands = [analyze_expr(cx, scope, eager, lhs), analyze_expr(cx, scope, eager, rhs)];
            fold_node(cx, eager, expr, &operands)
        }
        Expr::Not(inner) | Expr::IsNull { expr: inner, .. } | Expr::Like { expr: inner, .. } => {
            let operand = analyze_expr(cx, scope, eager, inner);
            fold_node(cx, eager, expr, &[operand])
        }
        Expr::RefOf(alias) => {
            if is_empty_chain(scope) {
                // Executor: the binding resolves to nothing, unconditionally.
                cx.report(
                    eager,
                    "unknown-column",
                    format!("REF({alias}): no row binding '{alias}' in this context"),
                    cx.span,
                );
            } else {
                match scope.binding(alias).and_then(|(depth, item)| scope.layout(depth, item)) {
                    Some(l) if l.error.is_none() && !l.has_oid => cx.warn(
                        "ref-non-object",
                        format!("REF({alias}): '{alias}' is not a row of an object table"),
                        cx.span,
                    ),
                    Some(_) => {}
                    None if any_unreadable(scope) => {}
                    None => cx.warn(
                        "unknown-column",
                        format!("REF({alias}): no FROM binding named '{alias}'"),
                        cx.span,
                    ),
                }
            }
            Fold::Unknown
        }
        Expr::Deref(inner) => {
            let operand = analyze_expr(cx, scope, eager, inner).stand_in();
            // A folded value is never a REF, so the empty storage is not read.
            if let Err(err) = cx.exec(|ctx| deref(ctx, operand)) {
                cx.report(eager, "deref-non-ref", err.to_string(), cx.span);
            }
            Fold::Unknown
        }
        Expr::Subquery(query) | Expr::Exists(query) => {
            crate::analyze::select::analyze_select(cx, Some(scope), query, eager);
            Fold::Unknown
        }
        Expr::KeyRef(key_ref) => {
            let query = key_ref.subquery();
            crate::analyze::select::analyze_select(cx, Some(scope), &query, eager);
            Fold::Unknown
        }
        Expr::CastMultiset { query, target } => {
            // The executor validates the target type before running the
            // query — this check is as eager as the expression position.
            if let Err(err) = multiset_target(cx.catalog, target) {
                let code = match err {
                    DbError::TypeMismatch { .. } => "cast-target-not-collection",
                    _ => code_for(&err),
                };
                cx.report(eager, code, err.to_string(), cx.anchor_ident(target));
            }
            crate::analyze::select::analyze_select(cx, Some(scope), query, eager);
            Fold::Unknown
        }
    }
}

/// `node` evaluated by the executor in the empty environment once its
/// `operands` have all folded: its value, or its rejection reported. A node
/// with an operand that did not fold makes no claim.
fn fold_node(cx: &mut StmtCx, eager: bool, node: &Expr, operands: &[Fold]) -> Fold {
    if !operands.iter().all(Fold::folded) {
        return Fold::Unknown;
    }
    match cx.exec(|ctx| eval_expr(ctx, &Env::EMPTY, node)) {
        Ok(value) => Fold::Value(value),
        Err(err) => {
            cx.reject(eager, &err, cx.span);
            Fold::Unknown
        }
    }
}

/// A constructor or built-in call: the executor's [`call`] on what is known
/// of the arguments. Its value folds when they all did; a composite it
/// builds from some that did not keeps its type.
fn analyze_call(cx: &mut StmtCx, scope: &Scope, eager: bool, name: &Ident, args: &[Expr]) -> Fold {
    let operands: Vec<Fold> = args.iter().map(|a| analyze_expr(cx, scope, eager, a)).collect();
    let stand_ins = operands.iter().map(Fold::stand_in).collect();
    match cx.exec(|ctx| call(ctx, name, stand_ins)) {
        Err(err) => {
            cx.reject(eager, &err, cx.anchor_ident(name));
            Fold::Unknown
        }
        Ok(value) if operands.iter().all(Fold::folded) => Fold::Value(value),
        Ok(value @ (Value::Obj { .. } | Value::Coll { .. })) => {
            Fold::Built(value, operands.iter().map(Fold::is_known).collect())
        }
        Ok(_) => Fold::Unknown,
    }
}

/// Analyze a dot path for name-resolution problems: what the resolver
/// says it names, then its steps through declared types. All path
/// evaluation is per-row in the executor — except against the empty
/// environment, where resolution fails unconditionally.
pub(crate) fn analyze_path(cx: &mut StmtCx, scope: &Scope, eager: bool, parts: &[Ident]) {
    let full = || parts.iter().map(|p| p.as_str()).collect::<Vec<_>>().join(".");
    if is_empty_chain(scope) {
        cx.report(
            eager,
            "unknown-column",
            format!("column or path '{}' cannot be resolved here (no row context)", full()),
            cx.span,
        );
        return;
    }
    let span = cx.anchor_ident(&parts[0]);
    if let Some(found) = scope.resolve(parts) {
        if let Some(ty) = found.ty.filter(|_| found.column.is_some()) {
            walk_attrs(cx, ty.clone(), found.rest, &full());
        }
        return;
    }
    match scope.binding(&parts[0]) {
        Some((depth, item)) => {
            if scope.layout(depth, item).is_some_and(|layout| layout.error.is_none()) {
                cx.warn(
                    "unknown-column",
                    format!("'{}' has no column '{}' (in path '{}')", parts[0], parts[1], full()),
                    span,
                );
            }
        }
        None if any_unreadable(scope) => {}
        None => {
            cx.warn("unknown-column", format!("column or path '{}' does not exist", full()), span)
        }
    }
}

/// Walk the remaining path segments through declared attribute types,
/// warning on statically-impossible navigation. NULLs make every deeper
/// step data-dependent, so these never rise above `Warning`.
pub(crate) fn walk_attrs(cx: &mut StmtCx, start: SqlType, parts: &[Ident], full: &str) {
    let mut current = start;
    for part in parts {
        let span = cx.anchor_ident(part);
        let type_name = match &current {
            SqlType::Object(t) | SqlType::Ref(t) => t.clone(),
            SqlType::Varray(_) | SqlType::NestedTable(_) => {
                cx.warn(
                    "navigate-collection",
                    format!(
                        "cannot navigate '{part}' into a collection (in path '{full}'); \
                         un-nest it with TABLE(…) first"
                    ),
                    span,
                );
                return;
            }
            other => {
                cx.warn(
                    "navigate-scalar",
                    format!("cannot navigate '{part}' into scalar type {other} (in path '{full}')"),
                    span,
                );
                return;
            }
        };
        // Collection-typed names or missing types: no claim.
        let Some(TypeDef::Object { attrs, .. }) = cx.catalog.get_type(&type_name) else { return };
        match attrs.iter().find(|(n, _)| n == part) {
            Some((_, next)) => current = next.clone(),
            None => {
                cx.warn(
                    "unknown-column",
                    format!("type '{type_name}' has no attribute '{part}' (in path '{full}')"),
                    span,
                );
                return;
            }
        }
    }
}
