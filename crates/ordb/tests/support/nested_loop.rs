//! The reference the planner and join differentials diff the engine
//! against: a plain nested-loop evaluator for the `SELECT` subset
//! `hashjoin_prop`, `index_prop` and `unnest_prop` generate.
//!
//! It shares only the engine's parser, catalog and heap with what it checks.
//! FROM items are enumerated in FROM order, every row of every table, over
//! `Storage::table(..).rows`; a `TABLE(binding.column)` item enumerates the
//! elements of that column's collection in the row the combination binds to
//! `binding`. The WHERE clause is evaluated once per combination in
//! three-valued logic with `Value::sql_eq` / `sql_cmp`; then projection or
//! `COUNT(*)`, a stable `ORDER BY`, and `DISTINCT` keeping first
//! occurrences. No planner, no hash table, no index, no reordering — so when
//! the engine returns other rows, or the same rows in another order, one of
//! its access paths is wrong.
//!
//! The subset: plain tables and `TABLE(binding.column)` (no views),
//! `binding.column` paths — `COLUMN_VALUE` for a scalar element — and
//! unqualified `column`s, which name the first FROM item that has the
//! column, `REF(binding)` (the row's OID), literals, comparisons, `AND` / `OR` /
//! `NOT` and `IS [NOT] NULL`; in the select list and `ORDER BY` also
//! `binding.column.attribute` through a REF column, which fails on a
//! dangling REF — [`try_select`] then returns the error. Anything else
//! panics rather than being guessed at.

use std::cmp::Ordering;
use std::rc::Rc;
use std::sync::Arc;

use xmlord_ordb::sql::ast::{BinOp, Expr, FromItem, Stmt};
use xmlord_ordb::sql::parser::parse_statement;
use xmlord_ordb::{Database, Ident, Oid, Value};

/// One row bound to a FROM item: its column names, its values and, for a
/// row of an object table, its OID.
#[derive(Clone)]
struct Bound {
    columns: Rc<Vec<Ident>>,
    values: Arc<Vec<Value>>,
    oid: Option<Oid>,
}

/// Where one FROM item's rows come from.
enum Source {
    /// A plain table's rows in heap order.
    Table(Vec<Bound>),
    /// `TABLE(binding.column)`: the elements of the collection in
    /// `column` of the row bound to the FROM item at `item`.
    Unnest { item: usize, column: Ident },
}

/// The rows `sql` returns on `db`'s current state, by nested loop.
#[allow(dead_code)] // each test file compiles this module on its own
pub fn select(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    try_select(db, sql).unwrap_or_else(|e| panic!("the reference failed: {e}: {sql}"))
}

/// [`select`], or the error a select-list or `ORDER BY` expression raised
/// on one of the combinations that pass the WHERE clause.
pub fn try_select(db: &Database, sql: &str) -> Result<Vec<Vec<Value>>, String> {
    let Ok(Stmt::Select(stmt)) = parse_statement(sql) else {
        panic!("the reference evaluates one SELECT: {sql}");
    };
    let bindings: Vec<Ident> = stmt.from.iter().map(FromItem::binding).collect();
    let sources: Vec<Source> = stmt
        .from
        .iter()
        .map(|item| match item {
            FromItem::Table { name, .. } => Source::Table(table_rows(db, name)),
            FromItem::CollectionTable { expr, .. } => match expr {
                Expr::Path(parts) if parts.len() == 2 => Source::Unnest {
                    item: item_of(&bindings, &parts[0]),
                    column: parts[1].clone(),
                },
                other => panic!("the reference un-nests binding.column only: {other:?}"),
            },
        })
        .collect();

    // Every combination, in FROM order: lexicographic heap-slot order over
    // the tables, element order within a collection.
    let mut combos: Vec<Vec<Bound>> = vec![Vec::new()];
    for source in &sources {
        combos = combos
            .into_iter()
            .flat_map(|combo| {
                let rows = match source {
                    Source::Table(rows) => rows.clone(),
                    Source::Unnest { item, column } => unnest(db, &combo[*item], column),
                };
                rows.into_iter().map(move |row| {
                    let mut longer = combo.clone();
                    longer.push(row);
                    longer
                })
            })
            .collect();
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

/// The column names of table `name`.
fn table_columns(db: &Database, name: &Ident) -> Rc<Vec<Ident>> {
    let catalog = db.catalog();
    let def = catalog.get_table(name).unwrap_or_else(|| panic!("no table {name}"));
    Rc::new(catalog.table_columns(def).iter().map(|(column, _)| column.clone()).collect())
}

/// The rows of table `name`, in heap order.
fn table_rows(db: &Database, name: &Ident) -> Vec<Bound> {
    let columns = table_columns(db, name);
    let storage = db.storage();
    let heap = storage.table(name).map_or(&[][..], |data| &data.rows[..]);
    heap.iter()
        .map(|row| Bound { columns: columns.clone(), values: Arc::clone(&row.values), oid: row.oid })
        .collect()
}

/// The elements of the collection in `column` of `row`: an object element
/// bound under its type's attribute names, a scalar one as `COLUMN_VALUE`.
/// NULL has no elements.
fn unnest(db: &Database, row: &Bound, column: &Ident) -> Vec<Bound> {
    let elements = match &row.values[column_of(row, column)] {
        Value::Null => return Vec::new(),
        Value::Coll { elements, .. } => elements,
        other => panic!("TABLE({column}) of a non-collection: {other:?}"),
    };
    let catalog = db.catalog();
    elements
        .iter()
        .map(|element| match element {
            Value::Obj { type_name, attrs } => {
                let def = catalog.get_type(type_name).unwrap_or_else(|| panic!("no type {type_name}"));
                let names = def.object_attrs().iter().map(|(name, _)| name.clone()).collect();
                Bound { columns: Rc::new(names), values: Arc::clone(attrs), oid: None }
            }
            scalar => Bound {
                columns: Rc::new(vec![Ident::internal("COLUMN_VALUE")]),
                values: Arc::new(vec![scalar.clone()]),
                oid: None,
            },
        })
        .collect()
}

/// The position of `column` in `row`.
fn column_of(row: &Bound, column: &Ident) -> usize {
    row.columns
        .iter()
        .position(|name| name == column)
        .unwrap_or_else(|| panic!("no column {column}"))
}

/// The value of `expr` in one combination (a bound row per FROM item).
fn value(db: &Database, bindings: &[Ident], combo: &[Bound], expr: &Expr) -> Result<Value, String> {
    match expr {
        Expr::Literal(value) => Ok(value.clone()),
        Expr::Path(parts) if parts.len() == 1 => {
            let column = &parts[0];
            let row = combo
                .iter()
                .find(|row| row.columns.contains(column))
                .unwrap_or_else(|| panic!("no FROM item has a column {column}"));
            Ok(row.values[column_of(row, column)].clone())
        }
        Expr::Path(parts) => {
            let [binding, column, through @ ..] = parts.as_slice() else {
                panic!("the reference resolves binding.column[.attribute] only: {expr:?}");
            };
            let row = &combo[item_of(bindings, binding)];
            let value = row.values[column_of(row, column)].clone();
            match (through, value) {
                ([], value) => Ok(value),
                ([_], Value::Null) => Ok(Value::Null),
                ([attribute], Value::Ref(oid)) => {
                    let storage = db.storage();
                    let (table, target) = storage.resolve_oid(oid).ok_or("dangling REF")?;
                    let target = Bound {
                        columns: table_columns(db, table),
                        values: Arc::clone(&target.values),
                        oid: target.oid,
                    };
                    Ok(target.values[column_of(&target, attribute)].clone())
                }
                (_, other) => {
                    panic!("the reference navigates one REF step only: {expr:?} at {other:?}")
                }
            }
        }
        Expr::RefOf(binding) => {
            let oid = combo[item_of(bindings, binding)].oid;
            Ok(Value::Ref(oid.unwrap_or_else(|| panic!("REF({binding}): not an object table"))))
        }
        other => panic!("the reference does not evaluate {other:?}"),
    }
}

/// The FROM position of `binding`.
fn item_of(bindings: &[Ident], binding: &Ident) -> usize {
    bindings
        .iter()
        .position(|b| b == binding)
        .unwrap_or_else(|| panic!("no FROM item {binding}"))
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
