//! Expression evaluation: literals, dot-notation paths (with implicit REF
//! dereference), constructors, built-ins, subqueries, three-valued logic.

use std::borrow::Cow;
use std::sync::Arc;

use crate::catalog::{Catalog, TableDef, TypeDef};
use crate::error::DbError;
use crate::exec::select::{any_row, scalar_rows, select_rows};
use crate::exec::{cell, Env};
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::scope::Step;
use crate::sql::ast::{BinOp, Expr, KeyRef};
use crate::stats::ExecStats;
use crate::storage::{key_hash, Storage};
use crate::types::SqlType;
use crate::value::{Oid, Value};

/// Read-only execution context plus the statistics sink.
pub struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub storage: &'a Storage,
    pub stats: &'a mut ExecStats,
    pub mode: DbMode,
    /// The views being expanded around the query running now: at most
    /// [`crate::scope::MAX_VIEW_NESTING`].
    pub(crate) views: usize,
}

impl<'a> ExecCtx<'a> {
    /// The context every statement evaluates in — SELECT, EXPLAIN and the
    /// expressions and subqueries inside DML alike.
    pub fn new(
        catalog: &'a Catalog,
        storage: &'a Storage,
        stats: &'a mut ExecStats,
        mode: DbMode,
    ) -> ExecCtx<'a> {
        ExecCtx { catalog, storage, stats, mode, views: 0 }
    }
}

/// Evaluate an expression to a value.
pub fn eval_expr(ctx: &mut ExecCtx, env: &Env, expr: &Expr) -> Result<Value, DbError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Path(parts) => resolve_path(ctx, env, expr, parts).map(Cow::into_owned),
        Expr::Call { name, args } => eval_call(ctx, env, name, args),
        Expr::CountStar => Err(DbError::CountStarPosition),
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => Ok(bool_to_value(eval_bool(ctx, env, expr)?)),
            BinOp::Concat => {
                let l = eval_expr(ctx, env, lhs)?;
                let r = eval_expr(ctx, env, rhs)?;
                Ok(Value::Str(format!(
                    "{}{}",
                    null_to_empty(&l),
                    null_to_empty(&r)
                )))
            }
            _ => Ok(bool_to_value(eval_bool(ctx, env, expr)?)),
        },
        Expr::Not(_) | Expr::IsNull { .. } | Expr::Like { .. } | Expr::Exists(_) => {
            Ok(bool_to_value(eval_bool(ctx, env, expr)?))
        }
        Expr::RefOf(alias) => {
            let (_, frame) = env
                .bindings
                .get(expr)
                .and_then(|bound| env.item(bound.depth, bound.item))
                .ok_or_else(|| DbError::UnknownColumn(alias.as_str().to_string()))?;
            match frame.oid {
                Some(oid) => Ok(Value::Ref(oid)),
                None => Err(DbError::Execution(format!(
                    "REF({alias}): '{alias}' is not a row of an object table"
                ))),
            }
        }
        Expr::Deref(inner) => {
            let v = eval_expr(ctx, env, inner)?;
            deref(ctx, v)
        }
        Expr::KeyRef(key_ref) => eval_key_ref(ctx, env, key_ref),
        Expr::Subquery(query) => {
            let mut rows = scalar_rows(ctx, query, Some(env))?;
            match rows.len() {
                0 => Ok(Value::Null),
                1 => match rows.pop().as_deref_mut() {
                    Some([value]) => Ok(std::mem::replace(value, Value::Null)),
                    _ => Err(DbError::Execution(
                        "scalar subquery must select exactly one column".into(),
                    )),
                },
                _ => Err(more_than_one_row()),
            }
        }
        Expr::CastMultiset { query, target } => {
            let (elem_type, max) = multiset_target(ctx.catalog, target)?;
            let rows = select_rows(ctx, query, Some(env), None)?;
            let mut elements = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != 1 {
                    return Err(DbError::Execution(
                        "MULTISET subquery must select exactly one column".into(),
                    ));
                }
                // invariant: row.len() == 1 was just checked above.
                elements.push(coerce(ctx, row.into_iter().next().unwrap(), elem_type, "MULTISET")?);
            }
            if let Some(max) = max {
                if elements.len() > max as usize {
                    return Err(DbError::VarrayLimitExceeded {
                        type_name: target.as_str().to_string(),
                        max,
                        actual: elements.len(),
                    });
                }
            }
            Ok(Value::Coll { type_name: target.clone(), elements: Arc::new(elements) })
        }
    }
}

/// `DEREF` of an evaluated operand: NULL stays NULL, a REF is followed to
/// its row object, anything else is a type error.
pub(crate) fn deref(ctx: &mut ExecCtx, v: Value) -> Result<Value, DbError> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Ref(oid) => deref_oid(ctx, oid),
        other => Err(DbError::type_mismatch(None, "REF", other.to_sql_literal())),
    }
}

/// The collection `CAST(MULTISET … AS target)` builds: its element type
/// and, for a VARRAY, its limit. Checked before the query runs.
pub(crate) fn multiset_target<'c>(
    catalog: &'c Catalog,
    target: &Ident,
) -> Result<(&'c SqlType, Option<u32>), DbError> {
    let def = catalog
        .get_type(target)
        .ok_or_else(|| DbError::UnknownType(target.as_str().to_string()))?;
    let elem_type = def.element_type().ok_or_else(|| DbError::type_mismatch(
        None,
        "collection type",
        target.as_str(),
    ))?;
    let max = match def {
        TypeDef::Varray { max, .. } => Some(*max),
        _ => None,
    };
    Ok((elem_type, max))
}

/// A [`KeyRef`]: its key's index probed when [`probe_key_ref`] can,
/// otherwise [`KeyRef::subquery`] evaluated. Kept out of line so the
/// subquery it may build never sits in the frame of [`eval_expr`], which
/// every query recurses through.
#[inline(never)]
fn eval_key_ref(ctx: &mut ExecCtx, env: &Env, key_ref: &KeyRef) -> Result<Value, DbError> {
    match probe_key_ref(ctx, key_ref)? {
        Some(found) => Ok(found),
        None => eval_expr(ctx, env, &Expr::Subquery(Box::new(key_ref.subquery()))),
    }
}

/// The fast case of a [`KeyRef`]: `path` is one column with a one-column
/// key (PRIMARY KEY / UNIQUE) whose index is fresh — the index the planner
/// would probe for [`KeyRef::subquery`]. One probe, each candidate
/// re-checked with `sql_eq`, and the lookup counted as that planned probe
/// counts it: one `index_scans`, its candidates in `rows_scanned`. `None`
/// for any other KeyRef, which is then evaluated as its subquery.
fn probe_key_ref(ctx: &mut ExecCtx, key_ref: &KeyRef) -> Result<Option<Value>, DbError> {
    let [column] = key_ref.path.as_slice() else { return Ok(None) };
    let Some(table) = ctx.catalog.get_table(&key_ref.table).filter(|t| t.is_object_table()) else {
        return Ok(None);
    };
    // The first unique index on exactly the column is the planner's pick.
    let index = ctx
        .catalog
        .indexes_on(&key_ref.table)
        .find(|idx| idx.unique && matches!(idx.columns.as_slice(), [c] if c == column));
    let (Some(index), Some(data)) = (index, ctx.storage.table(&key_ref.table)) else {
        return Ok(None);
    };
    if !ctx.storage.index_is_fresh(&index.name) {
        return Ok(None);
    }
    let col = crate::exec::dml::col_position(ctx.catalog.table_columns(table), column)?;
    let slots = match key_hash([&key_ref.key]) {
        Some(hash) => ctx.storage.index_probe(&index.name, hash).unwrap_or(&[]),
        None => &[],
    };
    ctx.stats.index_scans += 1;
    ctx.stats.rows_scanned += slots.len() as u64;
    let mut matches = slots.iter().map(|&slot| &data.rows[slot]).filter(|row| {
        row.values.get(col).and_then(|v| v.sql_eq(&key_ref.key)) == Some(true)
    });
    match (matches.next(), matches.next()) {
        (None, _) => Ok(Some(Value::Null)),
        (Some(row), None) => Ok(Some(row.oid.map_or(Value::Null, Value::Ref))),
        (Some(_), Some(_)) => Err(more_than_one_row()),
    }
}

/// A scalar subquery's second row — its own, or a [`KeyRef`] probe's.
fn more_than_one_row() -> DbError {
    DbError::Execution("scalar subquery returned 2 rows or more".into())
}

/// Evaluate an operand that is only looked at — compared, tested for NULL,
/// matched against a pattern: a literal is borrowed from the statement and a
/// path that stays inside objects from the frame's own block, so
/// `t.attrPName = 'Jaeger'` clones neither string. REF navigation, calls and
/// subqueries materialise as in [`eval_expr`].
pub fn eval_ref<'e>(
    ctx: &mut ExecCtx,
    env: &'e Env,
    expr: &'e Expr,
) -> Result<Cow<'e, Value>, DbError> {
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::Path(parts) => resolve_path(ctx, env, expr, parts),
        other => eval_expr(ctx, env, other).map(Cow::Owned),
    }
}

/// Three-valued boolean evaluation (SQL TRUE / FALSE / UNKNOWN as
/// `Some(true) / Some(false) / None`).
pub fn eval_bool(ctx: &mut ExecCtx, env: &Env, expr: &Expr) -> Result<Option<bool>, DbError> {
    match expr {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            let l = eval_bool(ctx, env, lhs)?;
            if l == Some(false) {
                return Ok(Some(false));
            }
            let r = eval_bool(ctx, env, rhs)?;
            Ok(match (l, r) {
                (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
        }
        Expr::Binary { op: BinOp::Or, lhs, rhs } => {
            let l = eval_bool(ctx, env, lhs)?;
            if l == Some(true) {
                return Ok(Some(true));
            }
            let r = eval_bool(ctx, env, rhs)?;
            Ok(match (l, r) {
                (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        Expr::Not(inner) => Ok(eval_bool(ctx, env, inner)?.map(|b| !b)),
        Expr::IsNull { expr, negated } => {
            let is_null = eval_ref(ctx, env, expr)?.is_null();
            Ok(Some(if *negated { !is_null } else { is_null }))
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval_ref(ctx, env, expr)?;
            let matched = match v.as_ref() {
                Value::Null => return Ok(None),
                Value::Str(s) | Value::Date(s) => like_match(pattern, s),
                num @ Value::Num(_) => like_match(pattern, &num.to_string()),
                _ => {
                    return Err(DbError::type_mismatch(None, "string", "object/collection"))
                }
            };
            Ok(Some(if *negated { !matched } else { matched }))
        }
        Expr::Exists(query) => Ok(Some(any_row(ctx, query, Some(env))?)),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_ref(ctx, env, lhs)?;
            let r = eval_ref(ctx, env, rhs)?;
            Ok(compare(*op, &l, &r))
        }
        other => {
            // A non-boolean expression in boolean position: NULL → UNKNOWN,
            // anything else is a type error.
            let v = eval_expr(ctx, env, other)?;
            match v {
                Value::Null => Ok(None),
                _ => Err(DbError::Execution(
                    "expected a boolean condition".into(),
                )),
            }
        }
    }
}

/// `l op r` for a comparison operator, three-valued: `sql_eq` for `=` and
/// `<>`, `sql_cmp` for the orderings, UNKNOWN when either is. The executor's
/// block filters compare with this too, so a filter tested before its frame
/// is filled decides exactly as [`eval_bool`] would.
pub(crate) fn compare(op: BinOp, l: &Value, r: &Value) -> Option<bool> {
    match op {
        BinOp::Eq => l.sql_eq(r),
        BinOp::Ne => l.sql_eq(r).map(|b| !b),
        BinOp::Lt => l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Less),
        BinOp::Le => l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Greater),
        BinOp::Gt => l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Greater),
        BinOp::Ge => l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Less),
        BinOp::And | BinOp::Or | BinOp::Concat => unreachable!("not a comparison"),
    }
}

fn bool_to_value(b: Option<bool>) -> Value {
    // SQL has no boolean literals in this dialect; conditions appearing in
    // value position materialize as 1/0/NULL (Oracle NUMBER convention).
    match b {
        Some(true) => Value::Num(1.0),
        Some(false) => Value::Num(0.0),
        None => Value::Null,
    }
}

fn null_to_empty(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        other => other.to_string(),
    }
}

/// `%`/`_` pattern matching (no escape support — the generated scripts never
/// need it), one `char` at a time. Two cursors and one resume point: on a
/// mismatch the most recent `%` absorbs one more character and matching
/// resumes just past it — O(|pattern|·|text|), no recursion, no allocation.
/// (Earlier `%`s never need revisiting: each segment between two `%`s is
/// placed at its leftmost fit, which leaves the most text for the rest.)
pub fn like_match(pattern: &str, text: &str) -> bool {
    let (mut p, mut t) = (pattern.chars(), text.chars());
    // Pattern just past the most recent `%`, and the text it has not absorbed.
    let mut resume: Option<(std::str::Chars, std::str::Chars)> = None;
    while let Some(tc) = t.clone().next() {
        let mut p_rest = p.clone();
        match p_rest.next() {
            Some('%') => {
                p = p_rest;
                resume = Some((p.clone(), t.clone()));
            }
            Some(pc) if pc == '_' || pc == tc => {
                p = p_rest;
                t.next();
            }
            _ => match &mut resume {
                Some((after_percent, unabsorbed)) => {
                    unabsorbed.next();
                    p = after_percent.clone();
                    t = unabsorbed.clone();
                }
                None => return false,
            },
        }
    }
    p.all(|pc| pc == '%')
}

/// Follow an OID to the full row object value. Resolution goes through the
/// storage layer's OID index (a map lookup plus a slot access), so REF
/// navigation never scans table rows — the engine-level version of the
/// paper's "without executing join operations" claim (§5).
pub fn deref_oid(ctx: &mut ExecCtx, oid: Oid) -> Result<Value, DbError> {
    ctx.stats.derefs += 1;
    let (table_name, row) = ctx.storage.resolve_oid(oid).ok_or(DbError::DanglingRef)?;
    ctx.stats.oid_index_hits += 1;
    let table = ctx
        .catalog
        .get_table(table_name)
        .ok_or_else(|| DbError::UnknownTable(table_name.as_str().to_string()))?;
    match table {
        TableDef::Object { of_type, .. } => Ok(Value::Obj {
            type_name: of_type.clone(),
            attrs: Arc::clone(&row.values),
        }),
        TableDef::Relational { .. } => Err(DbError::Execution(
            "REF target is not an object table".into(),
        )),
    }
}

/// The value of the dot path `expr` (whose steps are `parts`): what the
/// level's [`crate::scope::Bindings`] say it names, in the environment's
/// current rows. The result borrows from the frame's block for as long as
/// the path stays inside objects; a whole-row reference shares the row
/// block itself, and a step through a REF materialises (a handle when what
/// it reaches is a composite). A path that names nothing, or an item not
/// bound yet, is `UnknownColumn` — when it is evaluated, so over no rows it
/// never fails.
pub fn resolve_path<'e>(
    ctx: &mut ExecCtx,
    env: &Env<'e>,
    expr: &Expr,
    parts: &[Ident],
) -> Result<Cow<'e, Value>, DbError> {
    let unknown = || {
        let full = parts.iter().map(|p| p.as_str()).collect::<Vec<_>>().join(".");
        DbError::UnknownColumn(full)
    };
    let bound = env.bindings.get(expr).ok_or_else(unknown)?;
    let (layout, frame) = env.item(bound.depth, bound.item).ok_or_else(unknown)?;
    let Some(column) = bound.column else {
        return match layout.object_type {
            // A NULL element of an object collection.
            Some(_) if frame.values.is_empty() => Ok(Cow::Owned(Value::Null)),
            Some(type_name) => Ok(Cow::Owned(Value::Obj {
                type_name: type_name.clone(),
                attrs: Arc::clone(&frame.values),
            })),
            None if layout.width() == 1 => Ok(Cow::Borrowed(cell(&frame.values, 0))),
            None => Err(DbError::Execution(format!(
                "'{}' denotes a whole row, not a value",
                parts[0]
            ))),
        };
    };
    walk(ctx, cell(&frame.values, column), &bound.steps)
}

/// Follow bound `steps` from `value`: an attribute step of the value's
/// declared type reads the attribute in place, any other [`navigate`]s by
/// name. Once a step has materialised (it went through a REF), the rest
/// walk the owned value.
fn walk<'v>(
    ctx: &mut ExecCtx,
    value: &'v Value,
    steps: &[Step],
) -> Result<Cow<'v, Value>, DbError> {
    fn step_into<'v>(
        ctx: &mut ExecCtx,
        v: &'v Value,
        step: &Step,
    ) -> Result<Cow<'v, Value>, DbError> {
        match step.attr(v) {
            Some(attr) => Ok(Cow::Borrowed(attr)),
            None => navigate(ctx, v, step.name()),
        }
    }
    let mut value = Cow::Borrowed(value);
    for step in steps {
        value = match value {
            Cow::Borrowed(v) => step_into(ctx, v, step)?,
            Cow::Owned(v) => Cow::Owned(step_into(ctx, &v, step)?.into_owned()),
        };
    }
    Ok(value)
}

/// Navigate one step into an object value, borrowing the attribute from the
/// object's block; REFs dereference implicitly (the attribute then comes
/// out of a block this call holds, so it is returned owned), and navigation
/// through NULL yields NULL (the §4.3 CHECK quirk builds on this).
pub fn navigate<'v>(
    ctx: &mut ExecCtx,
    value: &'v Value,
    part: &Ident,
) -> Result<Cow<'v, Value>, DbError> {
    match value {
        Value::Null => Ok(Cow::Owned(Value::Null)),
        Value::Obj { type_name, attrs } => {
            let def = ctx
                .catalog
                .get_type(type_name)
                .ok_or_else(|| DbError::UnknownType(type_name.as_str().to_string()))?;
            let idx = def
                .object_attrs()
                .iter()
                .position(|(name, _)| name == part)
                .ok_or_else(|| {
                    DbError::UnknownColumn(format!("{}.{}", type_name.as_str(), part.as_str()))
                })?;
            Ok(attrs.get(idx).map_or(Cow::Owned(Value::Null), Cow::Borrowed))
        }
        Value::Ref(oid) => {
            let obj = deref_oid(ctx, *oid)?;
            Ok(Cow::Owned(navigate(ctx, &obj, part)?.into_owned()))
        }
        other => Err(DbError::UnknownColumn(format!(
            "cannot navigate '{}' into {}",
            part.as_str(),
            other.to_sql_literal()
        ))),
    }
}

/// Evaluate a call: its arguments, then [`call`] on their values.
fn eval_call(
    ctx: &mut ExecCtx,
    env: &Env,
    name: &Ident,
    args: &[Expr],
) -> Result<Value, DbError> {
    let mut values = Vec::with_capacity(args.len());
    for arg in args {
        values.push(eval_expr(ctx, env, arg)?);
    }
    call(ctx, name, values)
}

/// Apply `name` to evaluated arguments: a type constructor if the name is a
/// catalog type, otherwise a built-in function. NULL passes every one of
/// them, so whatever rejects a NULL argument rejects any value in its place.
pub(crate) fn call(ctx: &mut ExecCtx, name: &Ident, args: Vec<Value>) -> Result<Value, DbError> {
    if ctx.catalog.get_type(name).is_some() {
        return construct(ctx, name, args);
    }
    if !matches!(name.key(), "UPPER" | "LOWER" | "LENGTH" | "TO_NUMBER" | "TO_CHAR") {
        return Err(DbError::UnknownFunction(name.as_str().to_string()));
    }
    let Ok([arg]) = <[Value; 1]>::try_from(args) else {
        return Err(DbError::CallArity(name.as_str().to_string()));
    };
    match (name.key(), arg) {
        (_, Value::Null) => Ok(Value::Null),
        ("UPPER", Value::Str(s)) => Ok(Value::Str(s.to_uppercase())),
        ("LOWER", Value::Str(s)) => Ok(Value::Str(s.to_lowercase())),
        ("LENGTH", Value::Str(s)) => Ok(Value::Num(s.chars().count() as f64)),
        ("TO_NUMBER", other) => other.as_num().map(Value::Num).ok_or_else(|| {
            DbError::type_mismatch(None, "number", "non-numeric string")
        }),
        ("TO_CHAR", other) => Ok(Value::Str(other.to_string())),
        (_, other) => Err(DbError::type_mismatch(None, "string", other.to_sql_literal())),
    }
}

/// Build an object or collection value via its type constructor, coercing
/// the arguments in place to the declared attribute/element types.
pub fn construct(
    ctx: &mut ExecCtx,
    type_name: &Ident,
    mut args: Vec<Value>,
) -> Result<Value, DbError> {
    // The catalog reference is copied out so the definition stays borrowed
    // while `ctx` is lent to `coerce`.
    let catalog = ctx.catalog;
    let def = catalog
        .get_type(type_name)
        .ok_or_else(|| DbError::UnknownType(type_name.as_str().to_string()))?;
    let name = def.name().clone();
    match def {
        TypeDef::Object { attrs, incomplete, .. } => {
            if *incomplete {
                return Err(DbError::IncompleteType(name.as_str().to_string()));
            }
            if args.len() != attrs.len() {
                return Err(DbError::ConstructorArity {
                    type_name: name.as_str().to_string(),
                    expected: attrs.len(),
                    actual: args.len(),
                });
            }
            for (value, (attr_name, attr_type)) in args.iter_mut().zip(attrs) {
                *value = coerce(ctx, std::mem::replace(value, Value::Null), attr_type, attr_name.as_str())?;
            }
            Ok(Value::Obj { type_name: name, attrs: Arc::new(args) })
        }
        TypeDef::Varray { elem, max, .. } => {
            if args.len() > *max as usize {
                return Err(DbError::VarrayLimitExceeded {
                    type_name: name.as_str().to_string(),
                    max: *max,
                    actual: args.len(),
                });
            }
            coerce_elements(ctx, &mut args, elem, &name)?;
            Ok(Value::Coll { type_name: name, elements: Arc::new(args) })
        }
        TypeDef::NestedTable { elem, .. } => {
            coerce_elements(ctx, &mut args, elem, &name)?;
            Ok(Value::Coll { type_name: name, elements: Arc::new(args) })
        }
    }
}

fn coerce_elements(
    ctx: &mut ExecCtx,
    elements: &mut [Value],
    elem: &SqlType,
    collection: &Ident,
) -> Result<(), DbError> {
    for value in elements {
        *value = coerce(ctx, std::mem::replace(value, Value::Null), elem, collection.as_str())?;
    }
    Ok(())
}

/// Coerce a value to a declared SQL type, enforcing VARCHAR length bounds
/// (the paper's §7 "restricted maximum length" drawback is real here).
pub fn coerce(
    ctx: &mut ExecCtx,
    value: Value,
    target: &SqlType,
    context: &str,
) -> Result<Value, DbError> {
    if value.is_null() {
        return Ok(Value::Null);
    }
    match target {
        SqlType::Varchar(max) | SqlType::Char(max) => {
            let text = match value {
                Value::Str(s) => s,
                Value::Num(n) => Value::Num(n).to_string(),
                Value::Date(s) => s,
                other => {
                    return Err(DbError::type_mismatch(
                        Some(context),
                        target.to_string(),
                        other.to_sql_literal(),
                    ))
                }
            };
            if text.chars().count() > *max as usize {
                return Err(DbError::ValueTooLarge {
                    column: context.to_string(),
                    max: *max,
                    actual: text.chars().count(),
                });
            }
            Ok(Value::Str(text))
        }
        SqlType::Clob => match value {
            Value::Str(s) => Ok(Value::Str(s)),
            Value::Num(n) => Ok(Value::Str(Value::Num(n).to_string())),
            other => Err(DbError::type_mismatch(Some(context), "CLOB", other.to_sql_literal())),
        },
        SqlType::Number | SqlType::Integer => match value.as_num() {
            Some(n) => Ok(Value::Num(if matches!(target, SqlType::Integer) {
                n.trunc()
            } else {
                n
            })),
            None => Err(DbError::type_mismatch(
                Some(context),
                target.to_string(),
                value.to_sql_literal(),
            )),
        },
        SqlType::Date => match value {
            Value::Date(s) | Value::Str(s) => Ok(Value::Date(s)),
            other => Err(DbError::type_mismatch(Some(context), "DATE", other.to_sql_literal())),
        },
        SqlType::Object(expected) => match value {
            Value::Obj { ref type_name, .. } if type_name == expected => Ok(value),
            other => Err(DbError::type_mismatch(
                Some(context),
                expected.as_str(),
                other.to_sql_literal(),
            )),
        },
        SqlType::Varray(expected) | SqlType::NestedTable(expected) => match value {
            Value::Coll { ref type_name, .. } if type_name == expected => Ok(value),
            other => Err(DbError::type_mismatch(
                Some(context),
                expected.as_str(),
                other.to_sql_literal(),
            )),
        },
        SqlType::Ref(expected) => match value {
            Value::Ref(oid) => {
                // Verify the target row's object type.
                if let Some((table_name, _)) = ctx.storage.resolve_oid(oid) {
                    if let Some(TableDef::Object { of_type, .. }) =
                        ctx.catalog.get_table(table_name)
                    {
                        if of_type != expected {
                            return Err(DbError::type_mismatch(
                                Some(context),
                                format!("REF {expected}"),
                                format!("REF {of_type}"),
                            ));
                        }
                    }
                }
                Ok(Value::Ref(oid))
            }
            other => Err(DbError::type_mismatch(
                Some(context),
                format!("REF {expected}"),
                other.to_sql_literal(),
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, DbMode};

    /// A value that does not fit its column or attribute says which one —
    /// in the executor's error and in the analyzer's diagnostic, which is
    /// that error.
    #[test]
    fn a_coercion_mismatch_names_its_column_or_attribute() {
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(
            "CREATE TYPE Type_P AS OBJECT (PName VARCHAR(20), Room NUMBER);\n\
             CREATE TABLE TabP OF Type_P;\n\
             CREATE TABLE TabN (n NUMBER, s VARCHAR(5));",
        )
        .unwrap();
        let mismatch = |column: &str, found: &str| DbError::type_mismatch(
            Some(column),
            "NUMBER",
            found,
        );
        let insert = "INSERT INTO TabN VALUES ('s3', 'x')";
        assert_eq!(db.execute(insert).unwrap_err(), mismatch("n", "'s3'"));
        let constructor = "INSERT INTO TabP VALUES (Type_P('Kudrass', 'four'))";
        assert_eq!(db.execute(constructor).unwrap_err(), mismatch("Room", "'four'"));
        for (sql, column) in [(insert, "'n'"), (constructor, "'Room'")] {
            let diags = db.check(sql).unwrap();
            assert!(
                diags.iter().any(|d| d.code == "type-mismatch" && d.message.contains(column)),
                "{sql}: {diags:?}"
            );
        }
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("J%", "Jaeger"));
        assert!(like_match("%ger", "Jaeger"));
        assert!(like_match("%aeg%", "Jaeger"));
        assert!(like_match("J_eger", "Jaeger"));
        assert!(!like_match("J_ger", "Jaeger"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abcd"));
    }

    #[test]
    fn like_with_multiple_wildcards() {
        assert!(like_match("%a%b%", "xxaxxbxx"));
        assert!(!like_match("%a%b%", "ba")); // 'b' precedes the only 'a'
    }

    /// The definition `like_match` replaced: try every split at each `%`.
    /// Exponential in the number of `%`, so only for short inputs.
    fn like_by_definition(p: &[char], t: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|i| like_by_definition(rest, &t[i..])),
            Some(('_', rest)) => !t.is_empty() && like_by_definition(rest, &t[1..]),
            Some((ch, rest)) => t.first() == Some(ch) && like_by_definition(rest, &t[1..]),
        }
    }

    #[test]
    fn like_agrees_with_its_definition_on_seeded_inputs() {
        let mut rng = xmlord_prng::Prng::seed_from_u64(2002);
        // A small alphabet so patterns hit; 'é' and '€' are multi-byte.
        let draw = |rng: &mut xmlord_prng::Prng, alphabet: &[char], max: usize| -> String {
            (0..rng.gen_range(0..max + 1)).map(|_| *rng.choose(alphabet)).collect()
        };
        let mut matched = 0;
        for _ in 0..20_000 {
            let pattern = draw(&mut rng, &['a', 'b', 'é', '%', '%', '_'], 6);
            let text = draw(&mut rng, &['a', 'b', 'é', '€'], 7);
            let p: Vec<char> = pattern.chars().collect();
            let t: Vec<char> = text.chars().collect();
            let expected = like_by_definition(&p, &t);
            assert_eq!(like_match(&pattern, &text), expected, "{text:?} LIKE {pattern:?}");
            matched += expected as u32;
        }
        // Both outcomes are exercised.
        assert!((2_000..18_000).contains(&matched), "{matched} of 20000 matched");
    }

    /// `'aaaa…' LIKE '%a%a…%a%b'` fails only after every `%` has been tried:
    /// 16.96 s at ten `%a` with one split per `%` per suffix, and no end in
    /// sight at twelve. Linear backtracking answers in microseconds; the
    /// bound is a time, so the fastest of a few tries is what is held to it.
    #[test]
    fn like_with_many_percents_is_not_exponential() {
        let text = "a".repeat(40);
        let pattern = format!("{}%b", "%a".repeat(12));
        let fastest = (0..5)
            .map(|_| {
                let start = std::time::Instant::now();
                assert!(!like_match(&pattern, &text));
                start.elapsed()
            })
            .min()
            .unwrap();
        assert!(fastest < std::time::Duration::from_millis(10), "took {fastest:?}");
        assert!(like_match(&pattern, &format!("{text}b")));
    }
}
