//! The reference the planner and join differentials diff the engine
//! against: a plain nested-loop evaluator for the `SELECT` subset
//! `hashjoin_prop`, `index_prop` and `unnest_prop` generate.
//!
//! It shares only the engine's parser, catalog and heap with what it checks.
//! FROM items are enumerated in FROM order: every row of a table, over
//! `Storage::table(..).rows`; every row of a view, which the reference
//! computes by evaluating the view's stored query itself, recursively; and
//! for `TABLE(binding.column.…)` the elements of the collection that path
//! reaches in the row the combination binds to `binding`. The WHERE clause
//! is evaluated once per combination in three-valued logic with
//! `Value::sql_eq` / `sql_cmp`; then projection or `COUNT(*)`, a stable
//! `ORDER BY`, and `DISTINCT` keeping first occurrences. No planner, no
//! hash table, no index, no reordering — so when the engine returns other
//! rows, or the same rows in another order, one of its access paths is
//! wrong.
//!
//! Names are the reference's own, decided from the catalog before any row
//! is read: a table's columns are its catalog columns; a view's are its
//! query's select items, each named by its alias, else a path's last step,
//! else `COLn` (`*` lays out its FROM items' columns), and typed as a
//! constructor's type or a path's declared type; a `TABLE()` item's are
//! the attributes of the path's declared element type, or `COLUMN_VALUE`.
//! A path whose head is a binding starts at that item, any other at the
//! first FROM item that has its first step as a column.
//!
//! The subset: plain tables, views and `TABLE(path)`, paths that navigate
//! objects and REFs, `REF(binding)` (the row's OID), literals, object
//! constructors in a view's select list, comparisons, `AND` / `OR` / `NOT`
//! and `IS [NOT] NULL`. A path through a dangling REF fails — [`try_select`]
//! then returns the error. Anything else panics rather than being guessed
//! at.

use std::cmp::Ordering;
use std::rc::Rc;
use std::sync::Arc;

use xmlord_ordb::sql::ast::{BinOp, Expr, FromItem, SelectItem, SelectStmt, Stmt};
use xmlord_ordb::sql::parser::parse_statement;
use xmlord_ordb::{Database, Ident, Oid, SqlType, TypeDef, Value};

/// A column: its name and, when the reference can tell, its declared type.
type Column = (Ident, Option<SqlType>);

/// One row bound to a FROM item: its item's columns, its values and, for a
/// row of an object table, its OID.
#[derive(Clone)]
struct Bound {
    columns: Rc<Vec<Column>>,
    values: Arc<Vec<Value>>,
    oid: Option<Oid>,
}

/// Where one FROM item's rows come from.
enum Source {
    /// A table's rows in heap order, or a view's rows in result order.
    Rows(Vec<Bound>),
    /// `TABLE(binding.path)`: the elements of the collection `path` reaches
    /// from the row bound to the FROM item at `item`.
    Unnest { item: usize, path: Vec<Ident> },
}

/// The rows `sql` returns on `db`'s current state, by nested loop.
#[allow(dead_code)] // each test file compiles this module on its own
pub fn select(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    try_select(db, sql).unwrap_or_else(|e| panic!("the reference failed: {e}: {sql}"))
}

/// [`select`], or the error a select-list or `ORDER BY` expression raised
/// on one of the combinations that pass the WHERE clause.
#[allow(dead_code)]
pub fn try_select(db: &Database, sql: &str) -> Result<Vec<Vec<Value>>, String> {
    let Ok(Stmt::Select(stmt)) = parse_statement(sql) else {
        panic!("the reference evaluates one SELECT: {sql}");
    };
    run(db, &stmt)
}

/// The names of the columns `sql` returns, from the catalog alone.
#[allow(dead_code)]
pub fn names(db: &Database, sql: &str) -> Vec<String> {
    let Ok(Stmt::Select(stmt)) = parse_statement(sql) else {
        panic!("the reference names one SELECT: {sql}");
    };
    output(db, &stmt).into_iter().map(|(name, _)| name.as_str().to_string()).collect()
}

/// The rows of `stmt`, by nested loop.
fn run(db: &Database, stmt: &SelectStmt) -> Result<Vec<Vec<Value>>, String> {
    let bindings: Vec<Ident> = stmt.from.iter().map(FromItem::binding).collect();
    let columns = from_columns(db, stmt);
    let mut sources: Vec<Source> = Vec::new();
    for (item, columns) in stmt.from.iter().zip(&columns) {
        sources.push(match item {
            FromItem::Table { name, .. } => Source::Rows(match db.catalog().get_view(name) {
                Some(view) => run(db, &view.query)?
                    .into_iter()
                    .map(Arc::new)
                    .map(|values| Bound { columns: columns.clone(), values, oid: None })
                    .collect(),
                None => table_rows(db, name, columns),
            }),
            FromItem::CollectionTable { expr: Expr::Path(parts), .. } => {
                Source::Unnest { item: item_of(&bindings, &parts[0]), path: parts[1..].to_vec() }
            }
            FromItem::CollectionTable { expr, .. } => {
                panic!("the reference un-nests binding.path only: {expr:?}")
            }
        });
    }

    // Every combination, in FROM order: lexicographic row order over the
    // tables and views, element order within a collection.
    let mut combos: Vec<Vec<Bound>> = vec![Vec::new()];
    for (source, columns) in sources.iter().zip(&columns) {
        let mut longer = Vec::new();
        for combo in combos {
            let rows = match source {
                Source::Rows(rows) => rows.clone(),
                Source::Unnest { item, path } => unnest(db, &combo[*item], path, columns)?,
            };
            for row in rows {
                let mut next = combo.clone();
                next.push(row);
                longer.push(next);
            }
        }
        combos = longer;
    }
    combos.retain(|combo| {
        stmt.where_clause
            .as_ref()
            .is_none_or(|pred| truth(db, &bindings, combo, pred) == Some(true))
    });

    if stmt.items.iter().any(|item| matches!(item.expr, Expr::CountStar)) {
        return Ok(vec![vec![Value::Num(combos.len() as f64)]]);
    }
    let projected: Vec<Vec<Value>> = combos
        .iter()
        .map(|combo| {
            if stmt.star {
                Ok(combo.iter().flat_map(|row| row.values.iter().cloned()).collect())
            } else {
                stmt.items.iter().map(|item| value(db, &bindings, combo, &item.expr)).collect()
            }
        })
        .collect::<Result<_, _>>()?;
    let keys: Vec<Vec<Value>> = combos
        .iter()
        .map(|combo| {
            stmt.order_by.iter().map(|(expr, _)| value(db, &bindings, combo, expr)).collect()
        })
        .collect::<Result<_, _>>()?;
    // A stable sort of row positions, NULLs last (first `DESC`).
    let mut order: Vec<usize> = (0..projected.len()).collect();
    order.sort_by(|&a, &b| {
        for (k, (_, ascending)) in stmt.order_by.iter().enumerate() {
            let (x, y) = (&keys[a][k], &keys[b][k]);
            let ord = match (x.is_null(), y.is_null()) {
                (false, false) => x.sql_cmp(y).unwrap_or(Ordering::Equal),
                (x_null, y_null) => x_null.cmp(&y_null),
            };
            let ord = if *ascending { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    let mut result: Vec<Vec<Value>> = Vec::new();
    for row in order.into_iter().map(|i| &projected[i]) {
        if !(stmt.distinct && result.contains(row)) {
            result.push(row.clone());
        }
    }
    Ok(result)
}

/// The columns of each of `stmt`'s FROM items.
fn from_columns(db: &Database, stmt: &SelectStmt) -> Vec<Rc<Vec<Column>>> {
    let catalog = db.catalog();
    let bindings: Vec<Ident> = stmt.from.iter().map(FromItem::binding).collect();
    let mut columns: Vec<Rc<Vec<Column>>> = Vec::new();
    for item in &stmt.from {
        let these = match item {
            FromItem::Table { name, .. } => match (catalog.get_table(name), catalog.get_view(name))
            {
                (Some(def), _) => catalog
                    .table_columns(def)
                    .iter()
                    .map(|(column, ty)| (column.clone(), Some(ty.clone())))
                    .collect(),
                (None, Some(view)) => output(db, &view.query),
                (None, None) => panic!("no table or view {name}"),
            },
            FromItem::CollectionTable { expr, .. } => {
                element_columns(db, type_of(db, &bindings, &columns, expr))
            }
        };
        columns.push(Rc::new(these));
    }
    columns
}

/// The result columns of `stmt`: `*` lays out its FROM items' columns; an
/// item is named by its alias, else a path's last step, else `COUNT(*)`
/// or `COLn`.
fn output(db: &Database, stmt: &SelectStmt) -> Vec<Column> {
    let columns = from_columns(db, stmt);
    if stmt.star {
        return columns.iter().flat_map(|c| c.iter().cloned()).collect();
    }
    let bindings: Vec<Ident> = stmt.from.iter().map(FromItem::binding).collect();
    let name = |item: &SelectItem, n: usize| match (&item.alias, &item.expr) {
        (Some(alias), _) => alias.clone(),
        (None, Expr::Path(parts)) => parts[parts.len() - 1].clone(),
        (None, Expr::CountStar) => Ident::internal("COUNT(*)"),
        (None, _) => Ident::internal(&format!("COL{}", n + 1)),
    };
    stmt.items
        .iter()
        .enumerate()
        .map(|(n, item)| (name(item, n), type_of(db, &bindings, &columns, &item.expr)))
        .collect()
}

/// The declared type of `expr` over FROM items with `columns`: a
/// constructor's type, or a path's through object and REF attributes.
fn type_of(
    db: &Database,
    bindings: &[Ident],
    columns: &[Rc<Vec<Column>>],
    expr: &Expr,
) -> Option<SqlType> {
    let catalog = db.catalog();
    match expr {
        Expr::Call { name, .. } => match catalog.get_type(name)? {
            TypeDef::Object { name, .. } => Some(SqlType::Object(name.clone())),
            TypeDef::Varray { name, .. } => Some(SqlType::Varray(name.clone())),
            TypeDef::NestedTable { name, .. } => Some(SqlType::NestedTable(name.clone())),
        },
        Expr::Path(parts) => {
            let (item, steps) =
                match bindings.iter().take(columns.len()).position(|b| b == &parts[0]) {
                    Some(item) => (item, &parts[1..]),
                    None => {
                        let item =
                            columns.iter().position(|c| c.iter().any(|(n, _)| n == &parts[0]))?;
                        (item, parts.as_slice())
                    }
                };
            let (first, steps) = steps.split_first()?;
            let mut ty: SqlType = columns[item].iter().find(|(n, _)| n == first)?.1.clone()?;
            for step in steps {
                let name: &Ident = match &ty {
                    SqlType::Object(name) | SqlType::Ref(name) => name,
                    _ => return None,
                };
                let attrs = catalog.get_type(name)?.object_attrs().to_vec();
                ty = attrs.into_iter().find(|(attr, _)| attr == step)?.1;
            }
            Some(ty)
        }
        _ => None,
    }
}

/// The columns `TABLE()` over a collection of type `ty` exposes: an object
/// element type's attributes, else `COLUMN_VALUE`.
fn element_columns(db: &Database, ty: Option<SqlType>) -> Vec<Column> {
    let catalog = db.catalog();
    let elem = match &ty {
        Some(SqlType::Varray(name) | SqlType::NestedTable(name)) => {
            catalog.get_type(name).and_then(|def| def.element_type().cloned())
        }
        _ => None,
    };
    match &elem {
        Some(SqlType::Object(name)) => {
            let def = catalog.get_type(name).unwrap_or_else(|| panic!("no type {name}"));
            def.object_attrs().iter().map(|(attr, ty)| (attr.clone(), Some(ty.clone()))).collect()
        }
        _ => vec![(Ident::internal("COLUMN_VALUE"), elem)],
    }
}

/// The rows of table `name`, in heap order.
fn table_rows(db: &Database, name: &Ident, columns: &Rc<Vec<Column>>) -> Vec<Bound> {
    let storage = db.storage();
    let heap = storage.table(name).map_or(&[][..], |data| &data.rows[..]);
    heap.iter()
        .map(|row| Bound {
            columns: columns.clone(),
            values: Arc::clone(&row.values),
            oid: row.oid,
        })
        .collect()
}

/// The elements of the collection `path` reaches from `row`, bound to
/// `columns`: an object element's attributes, a scalar one as
/// `COLUMN_VALUE`. NULL has no elements.
fn unnest(
    db: &Database,
    row: &Bound,
    path: &[Ident],
    columns: &Rc<Vec<Column>>,
) -> Result<Vec<Bound>, String> {
    let (first, steps) = path.split_first().expect("TABLE(binding.column…)");
    let collection = navigate(db, row.values[column_of(row, first)].clone(), steps)?;
    let elements = match &collection {
        Value::Null => return Ok(Vec::new()),
        Value::Coll { elements, .. } => elements,
        other => panic!("TABLE() of a non-collection: {other:?}"),
    };
    let object = columns.first().is_none_or(|(name, _)| name.as_str() != "COLUMN_VALUE");
    Ok(elements
        .iter()
        .map(|element| {
            let values = match element {
                Value::Obj { attrs, .. } if object => Arc::clone(attrs),
                Value::Null if object => Arc::new(vec![Value::Null; columns.len()]),
                other => Arc::new(vec![other.clone()]),
            };
            Bound { columns: columns.clone(), values, oid: None }
        })
        .collect())
}

/// Follow `steps` from `value` through object attributes and REFs; a step
/// from NULL is NULL, a step through a dangling REF an error.
fn navigate(db: &Database, mut value: Value, steps: &[Ident]) -> Result<Value, String> {
    for step in steps {
        value = match value {
            Value::Null => Value::Null,
            Value::Obj { type_name, attrs } => {
                let catalog = db.catalog();
                let def =
                    catalog.get_type(&type_name).unwrap_or_else(|| panic!("no type {type_name}"));
                let index = def.object_attrs().iter().position(|(attr, _)| attr == step);
                attrs[index.unwrap_or_else(|| panic!("{type_name} has no attribute {step}"))]
                    .clone()
            }
            Value::Ref(oid) => {
                let storage = db.storage();
                let (table, target) = storage.resolve_oid(oid).ok_or("dangling REF")?;
                let catalog = db.catalog();
                let def = catalog.get_table(table).unwrap_or_else(|| panic!("no table {table}"));
                let index = catalog.table_columns(def).iter().position(|(c, _)| c == step);
                target.values[index.unwrap_or_else(|| panic!("{table} has no column {step}"))]
                    .clone()
            }
            other => panic!("the reference does not navigate {step} into {other:?}"),
        };
    }
    Ok(value)
}

/// The position of `column` in `row`.
fn column_of(row: &Bound, column: &Ident) -> usize {
    row.columns
        .iter()
        .position(|(name, _)| name == column)
        .unwrap_or_else(|| panic!("no column {column}"))
}

/// The value of `expr` in one combination (a bound row per FROM item).
fn value(db: &Database, bindings: &[Ident], combo: &[Bound], expr: &Expr) -> Result<Value, String> {
    match expr {
        Expr::Literal(value) => Ok(value.clone()),
        Expr::Path(parts) => {
            let (row, column, steps) = match bindings.iter().position(|b| b == &parts[0]) {
                Some(item) => {
                    let [_, column, steps @ ..] = parts.as_slice() else {
                        panic!("the reference does not evaluate a whole row: {expr:?}");
                    };
                    (&combo[item], column, steps)
                }
                None => {
                    let row = combo
                        .iter()
                        .find(|row| row.columns.iter().any(|(name, _)| name == &parts[0]))
                        .unwrap_or_else(|| panic!("no FROM item has a column {}", parts[0]));
                    (row, &parts[0], &parts[1..])
                }
            };
            navigate(db, row.values[column_of(row, column)].clone(), steps)
        }
        Expr::RefOf(binding) => {
            let oid = combo[item_of(bindings, binding)].oid;
            Ok(Value::Ref(oid.unwrap_or_else(|| panic!("REF({binding}): not an object table"))))
        }
        Expr::Call { name, args } => {
            let catalog = db.catalog();
            let Some(TypeDef::Object { name, .. }) = catalog.get_type(name) else {
                panic!("the reference constructs objects only: {expr:?}");
            };
            let attrs: Vec<Value> =
                args.iter().map(|arg| value(db, bindings, combo, arg)).collect::<Result<_, _>>()?;
            Ok(Value::Obj { type_name: name.clone(), attrs: Arc::new(attrs) })
        }
        other => panic!("the reference does not evaluate {other:?}"),
    }
}

/// The FROM position of `binding`.
fn item_of(bindings: &[Ident], binding: &Ident) -> usize {
    bindings.iter().position(|b| b == binding).unwrap_or_else(|| panic!("no FROM item {binding}"))
}

/// SQL TRUE / FALSE / UNKNOWN as `Some(true)` / `Some(false)` / `None`.
fn truth(db: &Database, bindings: &[Ident], combo: &[Bound], expr: &Expr) -> Option<bool> {
    let value = |expr| {
        value(db, bindings, combo, expr)
            .unwrap_or_else(|e| panic!("the reference's WHERE clause does not fail: {e}"))
    };
    match expr {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            match (truth(db, bindings, combo, lhs), truth(db, bindings, combo, rhs)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        }
        Expr::Binary { op: BinOp::Or, lhs, rhs } => {
            match (truth(db, bindings, combo, lhs), truth(db, bindings, combo, rhs)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        }
        Expr::Not(inner) => truth(db, bindings, combo, inner).map(|b| !b),
        Expr::IsNull { expr, negated } => Some(value(expr).is_null() != *negated),
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (value(lhs), value(rhs));
            match op {
                BinOp::Eq => l.sql_eq(&r),
                BinOp::Ne => l.sql_eq(&r).map(|b| !b),
                BinOp::Lt => l.sql_cmp(&r).map(Ordering::is_lt),
                BinOp::Le => l.sql_cmp(&r).map(Ordering::is_le),
                BinOp::Gt => l.sql_cmp(&r).map(Ordering::is_gt),
                BinOp::Ge => l.sql_cmp(&r).map(Ordering::is_ge),
                BinOp::And | BinOp::Or | BinOp::Concat => {
                    panic!("the reference does not evaluate {expr:?}")
                }
            }
        }
        other => panic!("the reference does not evaluate {other:?}"),
    }
}
