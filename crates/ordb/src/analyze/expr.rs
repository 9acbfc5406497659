//! Static expression analysis.
//!
//! The central question for every check is *eagerness*: does the executor
//! run the corresponding check unconditionally when the statement executes
//! (→ a definite failure may be reported as `Severity::Error`), or only
//! per-row / behind a short-circuit (→ at most a `Warning`)? The `eager`
//! flag threaded through [`analyze_expr`] answers it per expression
//! position, mirroring `exec::eval` exactly:
//!
//! * `AND`/`OR` short-circuit, so only the left operand inherits eagerness;
//! * comparison, `CONCAT`, `NOT`, `IS NULL`, `LIKE` always evaluate their
//!   operands;
//! * `CAST(MULTISET …)` validates its target type *before* running the
//!   query; `EXISTS`/scalar subqueries run their query when evaluated.

use crate::analyze::StmtCx;
use crate::catalog::TypeDef;
use crate::ident::Ident;
use crate::scope::Scope;
use crate::sql::ast::{BinOp, Expr};
use xmlord_diag::Span;
use crate::types::SqlType;
use crate::value::Value;

/// Static type of an expression — only shapes the analyzer can be *certain*
/// about. `Lit` carries the literal's concrete value so scalar coercion
/// outcomes can be replicated exactly; everything data-dependent (paths,
/// subqueries, built-in results) is `Unknown`, which makes no claims.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum STy {
    Unknown,
    Lit(Value),
    /// Result of a successful object constructor: definitely `Obj` of this
    /// type (or the statement was already rejected by the constructor).
    Object(Ident),
    /// Result of a collection constructor or `CAST(MULTISET …)`.
    Collection(Ident),
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

/// Analyze one expression, emitting diagnostics, and return its static type.
pub(crate) fn analyze_expr(cx: &mut StmtCx, scope: &Scope, eager: bool, expr: &Expr) -> STy {
    match expr {
        Expr::Literal(v) => STy::Lit(v.clone()),
        Expr::Path(parts) => {
            analyze_path(cx, scope, eager, parts);
            // Declared-typed values may still be NULL at runtime (and NULL
            // coerces to anything), so paths never support coercion claims.
            STy::Unknown
        }
        Expr::Call { name, args } => analyze_call(cx, scope, eager, name, args),
        Expr::CountStar => {
            cx.report(
                eager,
                "countstar-position",
                "COUNT(*) is only valid as a top-level select item".into(),
                cx.span,
            );
            STy::Unknown
        }
        Expr::Binary { op, lhs, rhs } => {
            match op {
                // Short-circuit: the right operand may never be evaluated.
                BinOp::And | BinOp::Or => {
                    analyze_expr(cx, scope, eager, lhs);
                    analyze_expr(cx, scope, false, rhs);
                }
                _ => {
                    analyze_expr(cx, scope, eager, lhs);
                    analyze_expr(cx, scope, eager, rhs);
                }
            }
            STy::Unknown
        }
        Expr::Not(inner) => {
            analyze_expr(cx, scope, eager, inner);
            STy::Unknown
        }
        Expr::IsNull { expr, .. } => {
            analyze_expr(cx, scope, eager, expr);
            STy::Unknown
        }
        Expr::Like { expr, .. } => {
            let sty = analyze_expr(cx, scope, eager, expr);
            if matches!(sty, STy::Object(_) | STy::Collection(_)) {
                cx.report(
                    eager,
                    "type-mismatch",
                    "LIKE requires a string, found an object/collection value".into(),
                    cx.span,
                );
            }
            STy::Unknown
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
            STy::Unknown
        }
        Expr::Deref(inner) => {
            let sty = analyze_expr(cx, scope, eager, inner);
            let non_ref = match &sty {
                STy::Lit(v) => !v.is_null(),
                STy::Object(_) | STy::Collection(_) => true,
                STy::Unknown => false,
            };
            if non_ref {
                cx.report(
                    eager,
                    "deref-non-ref",
                    "DEREF applied to an expression that is never a REF".into(),
                    cx.span,
                );
            }
            STy::Unknown
        }
        Expr::Subquery(query) => {
            crate::analyze::select::analyze_select(cx, Some(scope), query, eager);
            STy::Unknown
        }
        Expr::KeyRef(key_ref) => {
            let query = key_ref.subquery();
            crate::analyze::select::analyze_select(cx, Some(scope), &query, eager);
            STy::Unknown
        }
        Expr::Exists(query) => {
            crate::analyze::select::analyze_select(cx, Some(scope), query, eager);
            STy::Unknown
        }
        Expr::CastMultiset { query, target } => {
            // The executor validates the target type before running the
            // query — this check is as eager as the expression position.
            let span = cx.anchor_ident(target);
            let result = match cx.catalog.get_type(target) {
                None => {
                    cx.report(
                        eager,
                        "unknown-type",
                        format!("CAST target type '{target}' does not exist"),
                        span,
                    );
                    STy::Unknown
                }
                Some(def) if def.element_type().is_none() => {
                    cx.report(
                        eager,
                        "cast-target-not-collection",
                        format!("CAST(MULTISET …) target '{target}' is not a collection type"),
                        span,
                    );
                    STy::Unknown
                }
                Some(_) => STy::Collection(target.clone()),
            };
            crate::analyze::select::analyze_select(cx, Some(scope), query, eager);
            result
        }
    }
}

/// Analyze a constructor or built-in call, mirroring `eval_call`: a name
/// that exists in the catalog is a constructor, otherwise one of the five
/// built-ins, otherwise an unconditional `UnknownType` error.
fn analyze_call(
    cx: &mut StmtCx,
    scope: &Scope,
    eager: bool,
    name: &Ident,
    args: &[Expr],
) -> STy {
    let stys: Vec<STy> = args.iter().map(|a| analyze_expr(cx, scope, eager, a)).collect();
    let span = cx.anchor_ident(name);
    if let Some(def) = cx.catalog.get_type(name) {
        let def = def.clone();
        match def {
            TypeDef::Object { name, attrs, incomplete } => {
                if incomplete {
                    cx.report(
                        eager,
                        "incomplete-type",
                        format!("constructor {name}(…): type is an incomplete forward declaration"),
                        span,
                    );
                    return STy::Object(name);
                }
                if stys.len() != attrs.len() {
                    cx.report(
                        eager,
                        "constructor-arity",
                        format!(
                            "constructor {name}(…): expected {} arguments, got {}",
                            attrs.len(),
                            stys.len()
                        ),
                        span,
                    );
                    return STy::Object(name);
                }
                for (sty, (attr_name, attr_type)) in stys.iter().zip(&attrs) {
                    if let Some(msg) = static_coerce_error(sty, attr_type) {
                        cx.report(
                            eager,
                            "type-mismatch",
                            format!("constructor {name}(…), attribute '{attr_name}': {msg}"),
                            span,
                        );
                    }
                }
                STy::Object(name)
            }
            TypeDef::Varray { name, elem, max } => {
                if stys.len() > max as usize {
                    cx.report(
                        eager,
                        "varray-limit",
                        format!(
                            "VARRAY '{name}' limit exceeded: {} elements, maximum {max}",
                            stys.len()
                        ),
                        span,
                    );
                }
                check_elements(cx, eager, &name, &stys, &elem, span);
                STy::Collection(name)
            }
            TypeDef::NestedTable { name, elem } => {
                check_elements(cx, eager, &name, &stys, &elem, span);
                STy::Collection(name)
            }
        }
    } else {
        match name.key() {
            "UPPER" | "LOWER" | "LENGTH" | "TO_NUMBER" | "TO_CHAR" => {
                if args.len() != 1 {
                    cx.report(
                        eager,
                        "call-arity",
                        format!("{name} takes one argument"),
                        span,
                    );
                    return STy::Unknown;
                }
                let definite_mismatch = match name.key() {
                    "UPPER" | "LOWER" | "LENGTH" => match &stys[0] {
                        STy::Lit(Value::Str(_)) | STy::Lit(Value::Null) | STy::Unknown => false,
                        STy::Lit(_) | STy::Object(_) | STy::Collection(_) => true,
                    },
                    "TO_NUMBER" => match &stys[0] {
                        STy::Lit(Value::Null) | STy::Unknown => false,
                        STy::Lit(v) => v.as_num().is_none(),
                        STy::Object(_) | STy::Collection(_) => true,
                    },
                    _ => false, // TO_CHAR stringifies anything
                };
                if definite_mismatch {
                    cx.report(
                        eager,
                        "type-mismatch",
                        format!("{name}: argument can never have the required type"),
                        span,
                    );
                }
                STy::Unknown
            }
            _ => {
                cx.report(
                    eager,
                    "unknown-function",
                    format!("'{name}' is neither a type in the catalog nor a built-in function"),
                    span,
                );
                STy::Unknown
            }
        }
    }
}

fn check_elements(
    cx: &mut StmtCx,
    eager: bool,
    coll_name: &Ident,
    stys: &[STy],
    elem: &SqlType,
    span: Span,
) {
    for (i, sty) in stys.iter().enumerate() {
        if let Some(msg) = static_coerce_error(sty, elem) {
            cx.report(
                eager,
                "type-mismatch",
                format!("constructor {coll_name}(…), element {}: {msg}", i + 1),
                span,
            );
        }
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

/// Would `exec::eval::coerce` *definitely* fail coercing a value of static
/// type `sty` to `target`? Returns the failure message, or `None` when the
/// coercion might succeed (including for `Unknown` and NULL literals —
/// NULL coerces to anything). Scalar rules replicate `coerce` exactly,
/// including numeric `Display` via [`Value::Num`].
pub(crate) fn static_coerce_error(sty: &STy, target: &SqlType) -> Option<String> {
    let mismatch = |found: &str| Some(format!("expected {target}, found {found}"));
    match sty {
        STy::Unknown => None,
        STy::Object(t) => match target {
            SqlType::Object(e) if e == t => None,
            _ => mismatch(&format!("object of type {t}")),
        },
        STy::Collection(t) => match target {
            SqlType::Varray(e) | SqlType::NestedTable(e) if e == t => None,
            _ => mismatch(&format!("collection of type {t}")),
        },
        STy::Lit(v) => {
            if v.is_null() {
                return None;
            }
            match target {
                SqlType::Varchar(max) | SqlType::Char(max) => {
                    let text = match v {
                        Value::Str(s) => s.clone(),
                        Value::Num(n) => Value::Num(*n).to_string(),
                        Value::Date(s) => s.clone(),
                        _ => return mismatch("non-text value"),
                    };
                    let actual = text.chars().count();
                    if actual > *max as usize {
                        Some(format!("value of length {actual} exceeds {target}"))
                    } else {
                        None
                    }
                }
                SqlType::Clob => match v {
                    Value::Str(_) | Value::Num(_) => None,
                    _ => mismatch("non-text value"),
                },
                SqlType::Number | SqlType::Integer => match v.as_num() {
                    Some(_) => None,
                    None => mismatch("non-numeric value"),
                },
                SqlType::Date => match v {
                    Value::Str(_) | Value::Date(_) => None,
                    _ => mismatch("non-date value"),
                },
                SqlType::Object(_)
                | SqlType::Varray(_)
                | SqlType::NestedTable(_)
                | SqlType::Ref(_) => mismatch("scalar literal"),
            }
        }
    }
}
