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
use crate::catalog::{Catalog, TypeDef};
use crate::ident::Ident;
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

/// One binding visible to path resolution — the static mirror of
/// `exec::Frame`.
#[derive(Debug, Clone)]
pub(crate) struct ScopeFrame {
    pub binding: Ident,
    /// `None` = wildcard: the column set is statically unknown (views,
    /// collections of unknown element type). Wildcard frames suppress all
    /// resolution claims.
    pub columns: Option<Vec<(Ident, SqlType)>>,
    pub object_type: Option<Ident>,
    /// Rows carry OIDs (object tables), so `REF(alias)` works.
    pub has_oid: bool,
}

impl ScopeFrame {
    pub fn wildcard(binding: Ident) -> ScopeFrame {
        ScopeFrame { binding, columns: None, object_type: None, has_oid: true }
    }
}

/// A lexical scope chain, innermost frames first — the static mirror of
/// `exec::Env` (subqueries see their own FROM bindings, then the outer
/// statement's).
pub(crate) struct Scopes<'a> {
    pub frames: &'a [ScopeFrame],
    pub parent: Option<&'a Scopes<'a>>,
}

impl<'a> Scopes<'a> {
    pub const EMPTY: Scopes<'static> = Scopes { frames: &[], parent: None };

    pub fn frame(&self, name: &Ident) -> Option<&ScopeFrame> {
        self.frames
            .iter()
            .find(|f| &f.binding == name)
            .or_else(|| self.parent.and_then(|p| p.frame(name)))
    }

    pub fn frame_with_column(&self, col: &Ident) -> Option<&ScopeFrame> {
        self.frames
            .iter()
            .find(|f| f.columns.as_ref().is_some_and(|cs| cs.iter().any(|(c, _)| c == col)))
            .or_else(|| self.parent.and_then(|p| p.frame_with_column(col)))
    }

    /// Any wildcard frame anywhere in the chain? (If so, unresolved names
    /// might still resolve at runtime — make no claims.)
    pub fn any_wildcard(&self) -> bool {
        self.frames.iter().any(|f| f.columns.is_none())
            || self.parent.is_some_and(|p| p.any_wildcard())
    }

    /// No frames at all in the whole chain — the executor's `Env::EMPTY`
    /// (INSERT VALUES position), where *any* path fails unconditionally.
    pub fn is_empty_chain(&self) -> bool {
        self.frames.is_empty() && self.parent.is_none_or(|p| p.is_empty_chain())
    }
}

/// Analyze one expression, emitting diagnostics, and return its static type.
pub(crate) fn analyze_expr(cx: &mut StmtCx, scopes: &Scopes, eager: bool, expr: &Expr) -> STy {
    match expr {
        Expr::Literal(v) => STy::Lit(v.clone()),
        Expr::Path(parts) => {
            analyze_path(cx, scopes, eager, parts);
            // Declared-typed values may still be NULL at runtime (and NULL
            // coerces to anything), so paths never support coercion claims.
            STy::Unknown
        }
        Expr::Call { name, args } => analyze_call(cx, scopes, eager, name, args),
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
                    analyze_expr(cx, scopes, eager, lhs);
                    analyze_expr(cx, scopes, false, rhs);
                }
                _ => {
                    analyze_expr(cx, scopes, eager, lhs);
                    analyze_expr(cx, scopes, eager, rhs);
                }
            }
            STy::Unknown
        }
        Expr::Not(inner) => {
            analyze_expr(cx, scopes, eager, inner);
            STy::Unknown
        }
        Expr::IsNull { expr, .. } => {
            analyze_expr(cx, scopes, eager, expr);
            STy::Unknown
        }
        Expr::Like { expr, .. } => {
            let sty = analyze_expr(cx, scopes, eager, expr);
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
            if scopes.is_empty_chain() {
                // Executor: `env.frame(alias)` fails unconditionally.
                cx.report(
                    eager,
                    "unknown-column",
                    format!("REF({alias}): no row binding '{alias}' in this context"),
                    cx.span,
                );
            } else {
                match scopes.frame(alias) {
                    Some(f) if !f.has_oid => cx.warn(
                        "ref-non-object",
                        format!("REF({alias}): '{alias}' is not a row of an object table"),
                        cx.span,
                    ),
                    Some(_) => {}
                    None if scopes.any_wildcard() => {}
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
            let sty = analyze_expr(cx, scopes, eager, inner);
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
            crate::analyze::select::analyze_select(cx, Some(scopes), query, eager);
            STy::Unknown
        }
        Expr::KeyRef(key_ref) => {
            let query = key_ref.subquery();
            crate::analyze::select::analyze_select(cx, Some(scopes), &query, eager);
            STy::Unknown
        }
        Expr::Exists(query) => {
            crate::analyze::select::analyze_select(cx, Some(scopes), query, eager);
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
            crate::analyze::select::analyze_select(cx, Some(scopes), query, eager);
            result
        }
    }
}

/// Analyze a constructor or built-in call, mirroring `eval_call`: a name
/// that exists in the catalog is a constructor, otherwise one of the five
/// built-ins, otherwise an unconditional `UnknownType` error.
fn analyze_call(
    cx: &mut StmtCx,
    scopes: &Scopes,
    eager: bool,
    name: &Ident,
    args: &[Expr],
) -> STy {
    let stys: Vec<STy> = args.iter().map(|a| analyze_expr(cx, scopes, eager, a)).collect();
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

/// Analyze a dot path for name-resolution problems. All path evaluation is
/// per-row in the executor — except against the empty environment, where
/// resolution fails unconditionally.
pub(crate) fn analyze_path(cx: &mut StmtCx, scopes: &Scopes, eager: bool, parts: &[Ident]) {
    let full = || parts.iter().map(|p| p.as_str()).collect::<Vec<_>>().join(".");
    if scopes.is_empty_chain() {
        cx.report(
            eager,
            "unknown-column",
            format!("column or path '{}' cannot be resolved here (no row context)", full()),
            cx.span,
        );
        return;
    }
    let span = cx.anchor_ident(&parts[0]);
    if let Some(frame) = scopes.frame(&parts[0]) {
        if parts.len() == 1 {
            return;
        }
        let Some(columns) = &frame.columns else { return };
        match columns.iter().find(|(c, _)| c == &parts[1]) {
            None => cx.warn(
                "unknown-column",
                format!("'{}' has no column '{}' (in path '{}')", parts[0], parts[1], full()),
                span,
            ),
            Some((_, col_type)) => {
                walk_attrs(cx, col_type.clone(), &parts[2..], &full());
            }
        }
        return;
    }
    // Unqualified: the first part must be a column of some frame.
    if let Some(frame) = scopes.frame_with_column(&parts[0]) {
        let columns = frame.columns.as_ref().expect("frame_with_column implies known columns");
        let (_, col_type) =
            columns.iter().find(|(c, _)| c == &parts[0]).expect("frame_with_column found it");
        walk_attrs(cx, col_type.clone(), &parts[1..], &full());
        return;
    }
    if !scopes.any_wildcard() {
        cx.warn("unknown-column", format!("column or path '{}' does not exist", full()), span);
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

/// Declared leaf type of a path, if it resolves statically (no diagnostics).
/// Used to derive the element scope of `TABLE(path)` FROM items.
pub(crate) fn path_declared_type(
    catalog: &Catalog,
    scopes: &Scopes,
    parts: &[Ident],
) -> Option<SqlType> {
    let (mut current, rest): (SqlType, &[Ident]) = if let Some(frame) = scopes.frame(&parts[0]) {
        if parts.len() == 1 {
            return frame.object_type.clone().map(SqlType::Object);
        }
        let columns = frame.columns.as_ref()?;
        let (_, t) = columns.iter().find(|(c, _)| c == &parts[1])?;
        (t.clone(), &parts[2..])
    } else {
        let frame = scopes.frame_with_column(&parts[0])?;
        let columns = frame.columns.as_ref()?;
        let (_, t) = columns.iter().find(|(c, _)| c == &parts[0])?;
        (t.clone(), &parts[1..])
    };
    for part in rest {
        let name = match &current {
            SqlType::Object(t) | SqlType::Ref(t) => t.clone(),
            _ => return None,
        };
        let TypeDef::Object { attrs, .. } = catalog.get_type(&name)? else { return None };
        current = attrs.iter().find(|(n, _)| n == part)?.1.clone();
    }
    Some(current)
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
