//! The reference the planner and join differentials diff the engine
//! against: a plain nested-loop evaluator for the `SELECT` subset
//! `hashjoin_prop` and `index_prop` generate.
//!
//! It shares only the engine's parser, catalog and heap with what it checks.
//! FROM items are enumerated in FROM order, every row of every table, over
//! `Storage::table(..).rows`; the WHERE clause is evaluated once per
//! combination in three-valued logic with `Value::sql_eq` / `sql_cmp`; then
//! projection or `COUNT(*)`, a stable `ORDER BY`, and `DISTINCT` keeping
//! first occurrences. No planner, no hash table, no index, no reordering —
//! so when the engine returns other rows, or the same rows in another order,
//! one of its access paths is wrong.
//!
//! The subset: plain tables (no views, no `TABLE(…)`), `binding.column`
//! paths, `REF(binding)` (the row's OID), literals, comparisons, `AND` /
//! `OR` / `NOT` and `IS [NOT] NULL`. Anything else panics rather than being
//! guessed at.

use std::cmp::Ordering;
use std::sync::Arc;

use xmlord_ordb::sql::ast::{BinOp, Expr, FromItem, Stmt};
use xmlord_ordb::sql::parser::parse_statement;
use xmlord_ordb::{Database, Ident, Oid, Value};

/// One FROM item: the name its rows are visible under, its columns in
/// storage order, and its rows in heap order with their OIDs.
struct Item {
    binding: Ident,
    columns: Vec<Ident>,
    rows: Vec<Arc<Vec<Value>>>,
    oids: Vec<Option<Oid>>,
}

/// The rows `sql` returns on `db`'s current state, by nested loop.
pub fn select(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let Ok(Stmt::Select(stmt)) = parse_statement(sql) else {
        panic!("the reference evaluates one SELECT: {sql}");
    };
    let tables: Vec<(Ident, Ident)> = stmt
        .from
        .iter()
        .map(|item| match item {
            FromItem::Table { name, .. } => (item.binding(), name.clone()),
            FromItem::CollectionTable { .. } => panic!("the reference has no TABLE(…): {sql}"),
        })
        .collect();
    let columns: Vec<Vec<Ident>> = {
        let catalog = db.catalog();
        tables
            .iter()
            .map(|(_, name)| {
                let def = catalog.get_table(name).unwrap_or_else(|| panic!("no table {name}"));
                catalog.table_columns(def).iter().map(|(column, _)| column.clone()).collect()
            })
            .collect()
    };
    let items: Vec<Item> = {
        let storage = db.storage();
        tables
            .into_iter()
            .zip(columns)
            .map(|((binding, name), columns)| {
                let heap = storage.table(&name).map_or(&[][..], |data| &data.rows[..]);
                let rows = heap.iter().map(|row| Arc::clone(&row.values)).collect();
                let oids = heap.iter().map(|row| row.oid).collect();
                Item { binding, columns, rows, oids }
            })
            .collect()
    };

    // Every combination, in lexicographic heap-slot order over FROM order.
    let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
    for item in &items {
        combos = combos
            .into_iter()
            .flat_map(|combo| {
                (0..item.rows.len()).map(move |slot| {
                    let mut longer = combo.clone();
                    longer.push(slot);
                    longer
                })
            })
            .collect();
    }
    combos.retain(|combo| {
        stmt.where_clause.as_ref().is_none_or(|pred| truth(&items, combo, pred) == Some(true))
    });

    if stmt.items.iter().any(|item| matches!(item.expr, Expr::CountStar)) {
        return vec![vec![Value::Num(combos.len() as f64)]];
    }
    let projected: Vec<Vec<Value>> = combos
        .iter()
        .map(|combo| {
            if stmt.star {
                items
                    .iter()
                    .zip(combo)
                    .flat_map(|(item, &slot)| item.rows[slot].iter().cloned())
                    .collect()
            } else {
                stmt.items.iter().map(|item| value(&items, combo, &item.expr)).collect()
            }
        })
        .collect();
    let keys: Vec<Vec<Value>> = combos
        .iter()
        .map(|combo| stmt.order_by.iter().map(|(expr, _)| value(&items, combo, expr)).collect())
        .collect();
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
    result
}

/// The value of `expr` in one combination (a row slot per FROM item).
fn value(items: &[Item], combo: &[usize], expr: &Expr) -> Value {
    match expr {
        Expr::Literal(value) => value.clone(),
        Expr::Path(parts) => {
            let [binding, column] = parts.as_slice() else {
                panic!("the reference resolves binding.column only: {expr:?}");
            };
            let i = item_of(items, binding);
            let c = items[i]
                .columns
                .iter()
                .position(|name| name == column)
                .unwrap_or_else(|| panic!("no column {binding}.{column}"));
            items[i].rows[combo[i]][c].clone()
        }
        Expr::RefOf(binding) => {
            let i = item_of(items, binding);
            let oid = items[i].oids[combo[i]];
            Value::Ref(oid.unwrap_or_else(|| panic!("REF({binding}): not an object table")))
        }
        other => panic!("the reference does not evaluate {other:?}"),
    }
}

/// The FROM position of `binding`.
fn item_of(items: &[Item], binding: &Ident) -> usize {
    items
        .iter()
        .position(|item| &item.binding == binding)
        .unwrap_or_else(|| panic!("no FROM item {binding}"))
}

/// SQL TRUE / FALSE / UNKNOWN as `Some(true)` / `Some(false)` / `None`.
fn truth(items: &[Item], combo: &[usize], expr: &Expr) -> Option<bool> {
    match expr {
        Expr::Binary { op: BinOp::And, lhs, rhs } => {
            match (truth(items, combo, lhs), truth(items, combo, rhs)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        }
        Expr::Binary { op: BinOp::Or, lhs, rhs } => {
            match (truth(items, combo, lhs), truth(items, combo, rhs)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        }
        Expr::Not(inner) => truth(items, combo, inner).map(|b| !b),
        Expr::IsNull { expr, negated } => Some(value(items, combo, expr).is_null() != *negated),
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (value(items, combo, lhs), value(items, combo, rhs));
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
