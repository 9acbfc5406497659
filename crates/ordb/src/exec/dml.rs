//! INSERT, UPDATE and DELETE execution, including constraint enforcement.
//!
//! Constraint semantics follow §4.3 of the paper exactly: NOT NULL and
//! CHECK constraints live on *tables* (never on type definitions), and a
//! CHECK over an inner attribute of a NULL object attribute evaluates to
//! FALSE and rejects the row — the paper's "non-desired error message".
//!
//! Uniqueness has one mechanism: a key — a PRIMARY KEY / UNIQUE constraint
//! or a `CREATE UNIQUE INDEX` — is a maintained storage index
//! ([`crate::storage::key_index_name`]), and INSERT, batch and UPDATE all
//! ask `StoredKey::collides`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use crate::catalog::{Catalog, Constraint, TableDef};
use crate::error::DbError;
use crate::exec::eval::{coerce, eval_bool, eval_expr, ExecCtx};
use crate::exec::{Env, Frame};
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::scope::{Bindings, Layout, Scope};
use crate::sql::ast::Expr;
use crate::stats::ExecStats;
use crate::storage::{key_hash, Row, Storage};
use crate::types::SqlType;
use crate::value::Value;

/// Position of column `name` in a table's column list.
pub(crate) fn col_position(
    table_columns: &[(Ident, SqlType)],
    name: &Ident,
) -> Result<usize, DbError> {
    table_columns
        .iter()
        .position(|(c, _)| c == name)
        .ok_or_else(|| DbError::UnknownColumn(name.as_str().to_string()))
}

/// Map what one VALUES list provides onto the table's full column list:
/// positionally or through the explicit column list, `fill` where no value
/// is given. The executor shapes values; the analyzer shapes what it knows
/// of them the same way.
pub(crate) fn shape_row<T: Clone>(
    table_name: &Ident,
    table_columns: &[(Ident, SqlType)],
    columns: &Option<Vec<Ident>>,
    provided: Vec<T>,
    fill: T,
) -> Result<Vec<T>, DbError> {
    let names = columns.as_ref().map_or(table_columns.len(), Vec::len);
    if names != provided.len() {
        return Err(DbError::InsertArity {
            table: table_name.as_str().to_string(),
            columns: names,
            values: provided.len(),
        });
    }
    let Some(cols) = columns else { return Ok(provided) };
    let mut row = vec![fill; table_columns.len()];
    for (col, value) in cols.iter().zip(provided) {
        row[col_position(table_columns, col)?] = value;
    }
    Ok(row)
}

/// Could the one value of a VALUES list be `table`'s whole row? Only with
/// no column list, into an object table — §2.1's `VALUES (Type_T(…))`.
pub(crate) fn may_explode(table: &TableDef, columns: &Option<Vec<Ident>>, values: usize) -> bool {
    columns.is_none() && values == 1 && table.is_object_table()
}

/// The row the one value of such a list makes when it is an object of the
/// object table's type: the object's attribute block, its values already
/// coerced to the attribute — that is, the column — types. Any other value
/// comes back to be shaped as a one-value row.
pub(crate) fn exploded(table: &TableDef, value: Value) -> Result<Arc<Vec<Value>>, Value> {
    match value {
        Value::Obj { type_name, attrs } if Some(&type_name) == table.of_type() => Ok(attrs),
        other => Err(other),
    }
}

/// The row any other VALUES list makes: shaped onto the columns, then each
/// value coerced to its column's type.
pub(crate) fn coerced_row(
    ctx: &mut ExecCtx,
    table_name: &Ident,
    table_columns: &[(Ident, SqlType)],
    columns: &Option<Vec<Ident>>,
    provided: Vec<Value>,
) -> Result<Vec<Value>, DbError> {
    let mut row = shape_row(table_name, table_columns, columns, provided, Value::Null)?;
    for (value, (col_name, col_type)) in row.iter_mut().zip(table_columns) {
        let taken = std::mem::replace(value, Value::Null);
        *value = coerce(ctx, taken, col_type, col_name.as_str())?;
    }
    Ok(row)
}

/// NOT NULL's rule for one constraint over a candidate row: the column a
/// NOT NULL constraint names, and every column of a PRIMARY KEY, must hold a
/// value. A column the table lacks fails whatever the row. Only the columns
/// `judged` admits are looked at: every one when a row is written, those
/// whose value the analyzer knows when it checks a script.
pub(crate) fn require_values(
    table: &TableDef,
    layout: &Layout,
    constraint: &Constraint,
    row: &[Value],
    judged: impl Fn(usize) -> bool,
) -> Result<(), DbError> {
    let columns = match constraint {
        Constraint::NotNull(col) => std::slice::from_ref(col),
        Constraint::PrimaryKey(cols) => cols.as_slice(),
        Constraint::Unique(_) | Constraint::Check(_) => &[],
    };
    for col in columns {
        let column =
            layout.column(col).ok_or_else(|| DbError::UnknownColumn(col.as_str().to_string()))?;
        if judged(column) && row[column].is_null() {
            return Err(DbError::NotNullViolation {
                column: format!("{}.{}", table.name().as_str(), col.as_str()),
            });
        }
    }
    Ok(())
}

/// A batch of bound single-row INSERTs targeting one table: the per-row
/// VALUES expressions of statements that all read
/// `INSERT INTO table [cols] VALUES (…)`. Built by the bulk loader
/// (`xml2ordb`) or by hand; executed by
/// [`crate::Database::execute_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct InsertBatch {
    pub table: Ident,
    /// Shared explicit column list (`None` = positional / constructor form).
    pub columns: Option<Vec<Ident>>,
    /// One entry per row: the VALUES expressions of that row's INSERT.
    pub rows: Vec<Vec<Expr>>,
}

/// Execute single-row INSERTs into one table — the `rows` of an
/// [`InsertBatch`], or the one VALUES list of an `INSERT` statement
/// (`std::slice::from_ref`): resolve the catalog once, evaluate and
/// validate every row against the pre-statement storage, then append all
/// rows in one [`Storage::insert_rows`] call (one undo record, block OID
/// reservation). Returns the number of rows inserted.
///
/// Semantics vs. running a batch's statements one at a time:
///
/// * Storage is frozen during evaluation, so scalar subqueries and key
///   REFs see the *pre-batch* state, each evaluated once per row. Callers
///   must not batch a row together with rows it reads (the loader's
///   batcher splits batches on such dependencies).
/// * Keys are checked against the stored rows — through the key's index —
///   *and* the earlier rows of the same batch, so duplicates inside one
///   batch are still rejected.
/// * Any row failing evaluation or a constraint fails the whole batch
///   before anything is written — the batch is all-or-nothing even without
///   an enclosing transaction bracket.
pub fn execute_insert_batch(
    catalog: &Catalog,
    storage: &mut Storage,
    stats: &mut ExecStats,
    mode: DbMode,
    table_name: &Ident,
    columns: &Option<Vec<Ident>>,
    rows: &[Vec<Expr>],
) -> Result<usize, DbError> {
    let table = catalog
        .get_table(table_name)
        .ok_or_else(|| DbError::UnknownTable(table_name.as_str().to_string()))?;
    let table_columns = catalog.table_columns(table);
    // CHECK constraints see the candidate row bound as the table; the
    // VALUES name no row, so they bind nothing.
    let layouts = [Layout::table(catalog, table.name().clone(), table)];
    let scope = Scope::new(&layouts, None);
    let checks = Bindings::exprs(catalog, &scope, check_exprs(table));
    let checks = Env::row(&scope, &checks);

    // Read-only phase: subqueries may scan, nothing is written.
    let mut validated: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
    {
        let mut ctx = ExecCtx::new(catalog, storage, stats, mode);
        let mut keys = table_keys(&ctx, table, table_columns)?;
        for value_exprs in rows {
            let row_values = match value_exprs.as_slice() {
                [only] if may_explode(table, columns, 1) => {
                    match exploded(table, eval_expr(&mut ctx, &Env::EMPTY, only)?) {
                        // One level: nested composites stay handles.
                        Ok(attrs) => Arc::try_unwrap(attrs).unwrap_or_else(|shared| Vec::clone(&shared)),
                        Err(other) => {
                            coerced_row(&mut ctx, table_name, table_columns, columns, vec![other])?
                        }
                    }
                }
                exprs => {
                    // Exact capacity: these values become the stored row.
                    let mut provided = Vec::with_capacity(exprs.len());
                    for expr in exprs {
                        provided.push(eval_expr(&mut ctx, &Env::EMPTY, expr)?);
                    }
                    coerced_row(&mut ctx, table_name, table_columns, columns, provided)?
                }
            };
            enforce_constraints(
                &mut ctx,
                &checks,
                table,
                &mut keys,
                &[],
                &validated,
                &row_values,
            )?;
            validated.push(row_values);
        }
    }

    // Materialize. Rows of object tables receive OIDs.
    let count = storage.insert_rows(table_name, validated, table.is_object_table())?;
    stats.rows_inserted += count as u64;
    Ok(count)
}

/// The values a row holds on a key's columns, with their join hash.
struct KeyValue<'a> {
    cols: &'a [usize],
    row: &'a [Value],
    /// `None`: a part has no join key (an object-valued key column), so no
    /// hash bucket can stand in for comparing against every row.
    hash: Option<u64>,
}

impl<'a> KeyValue<'a> {
    /// The key `row` holds on `cols`; `None` when a part is NULL — NULLs
    /// never collide.
    fn of(cols: &'a [usize], row: &'a [Value]) -> Option<KeyValue<'a>> {
        let key = KeyValue { cols, row, hash: None };
        if key.parts().any(Value::is_null) {
            return None;
        }
        Some(KeyValue { hash: key_hash(key.parts()), ..key })
    }

    fn parts(&self) -> impl Iterator<Item = &'a Value> + 'a {
        let row = self.row;
        self.cols.iter().map(move |&c| row.get(c).unwrap_or(&Value::Null))
    }

    /// Does `row` hold this key on the same columns?
    fn held_by(&self, row: &[Value]) -> bool {
        self.cols
            .iter()
            .zip(self.parts())
            .all(|(&c, part)| row.get(c).and_then(|v| part.sql_eq(v)) == Some(true))
    }
}

/// The stored side of one uniqueness key: a table's rows, the key's column
/// positions and — when storage holds a fresh index over exactly those
/// columns — the index that finds collision candidates.
pub(crate) struct StoredKey<'a> {
    storage: &'a Storage,
    rows: &'a [Row],
    cols: Vec<usize>,
    index: Option<&'a Ident>,
}

impl<'a> StoredKey<'a> {
    pub(crate) fn open(storage: &'a Storage, table: &Ident, cols: Vec<usize>) -> StoredKey<'a> {
        let rows = storage.table(table).map_or(&[][..], |data| &data.rows);
        let index = storage.find_fresh_index(table, &cols);
        StoredKey { storage, rows, cols, index }
    }

    /// The one uniqueness test: does a stored row that `partner` admits
    /// hold `key`? Candidates are the index bucket of the key's hash — or
    /// every slot when the key has no join hash, no index covers the
    /// columns, or the index trails the table version (the storage safety
    /// valve) — each re-verified with [`Value::sql_eq`].
    fn collides(&self, key: &KeyValue, partner: impl Fn(usize) -> bool) -> bool {
        let holds = |slot: usize| {
            partner(slot)
                && self.rows.get(slot).is_some_and(|row| key.held_by(&row.values))
        };
        match key.hash.and_then(|h| self.storage.index_probe(self.index?, h)) {
            Some(candidates) => candidates.iter().any(|&slot| holds(slot)),
            None => (0..self.rows.len()).any(holds),
        }
    }

    /// Do two stored rows hold the same key? What `CREATE UNIQUE INDEX`
    /// asks of the rows it finds.
    pub(crate) fn holds_duplicates(&self) -> bool {
        self.rows.iter().enumerate().any(|(slot, row)| {
            KeyValue::of(&self.cols, &row.values)
                .is_some_and(|key| self.collides(&key, |earlier| earlier < slot))
        })
    }
}

/// One uniqueness key of the table a statement writes, resolved once per
/// statement: the stored side plus the keys of the statement's own rows
/// validated so far.
pub(crate) struct TableKey<'a> {
    stored: StoredKey<'a>,
    /// The key's columns as its constraint or index spells them.
    columns: &'a [Ident],
    /// The unique index a violation names; `None` for a declared
    /// constraint, which is named `T(columns)`.
    unique_index: Option<&'a Ident>,
    /// Whether the statement can change the key at all (an UPDATE whose SET
    /// paths start at none of its columns cannot, and does no key work).
    active: bool,
    /// The statement's earlier rows by key hash (positions in `earlier`),
    /// and those whose key has no join hash — the first `filed` of them,
    /// filed when a later row is checked against them, so a statement's last
    /// row (a lone INSERT's only one) is never filed.
    hashed: HashMap<u64, Vec<usize>>,
    unhashed: Vec<usize>,
    filed: usize,
}

/// The keys of `table`: its PRIMARY KEY / UNIQUE constraints in declaration
/// order, then its unique indexes.
pub(crate) fn table_keys<'a>(
    ctx: &ExecCtx<'a>,
    table: &'a TableDef,
    table_columns: &[(Ident, SqlType)],
) -> Result<Vec<TableKey<'a>>, DbError> {
    let constraints = table.key_constraints().map(|(cols, _)| (cols, None));
    let unique_indexes = ctx
        .catalog
        .declared_indexes_on(table.name())
        .filter(|index| index.unique)
        .map(|index| (&index.columns, Some(&index.name)));
    constraints
        .chain(unique_indexes)
        .map(|(columns, unique_index)| {
            let cols = columns
                .iter()
                .map(|c| col_position(table_columns, c))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TableKey {
                stored: StoredKey::open(ctx.storage, table.name(), cols),
                columns,
                unique_index,
                active: true,
                hashed: HashMap::new(),
                unhashed: Vec::new(),
                filed: 0,
            })
        })
        .collect()
}

impl TableKey<'_> {
    /// Admit `row` under this key or say that it collides: no stored row
    /// outside `replaced` and no row of `earlier` may hold the same key.
    fn admit(
        &mut self,
        table: &Ident,
        replaced: &[usize],
        earlier: &[Vec<Value>],
        row: &[Value],
    ) -> Result<(), DbError> {
        if !self.active {
            return Ok(());
        }
        let cols = &self.stored.cols;
        let Some(key) = KeyValue::of(cols, row) else { return Ok(()) };
        for (i, other) in earlier.iter().enumerate().skip(self.filed) {
            match KeyValue::of(cols, other).map(|other| other.hash) {
                Some(Some(h)) => self.hashed.entry(h).or_default().push(i),
                Some(None) => self.unhashed.push(i),
                None => {}
            }
        }
        self.filed = earlier.len();
        let among_earlier = match key.hash {
            Some(h) => self
                .hashed
                .get(&h)
                .into_iter()
                .flatten()
                .chain(&self.unhashed)
                .any(|&i| key.held_by(&earlier[i])),
            None => earlier.iter().any(|other| key.held_by(other)),
        };
        if among_earlier || self.stored.collides(&key, |slot| replaced.binary_search(&slot).is_err())
        {
            let constraint = match self.unique_index {
                Some(index) => index.to_string(),
                None => format!(
                    "{table}({})",
                    self.columns.iter().map(|c| c.as_str()).collect::<Vec<_>>().join(",")
                ),
            };
            return Err(DbError::UniqueViolation { constraint });
        }
        Ok(())
    }
}

/// Check every table constraint against a candidate row — the one gate the
/// rows of INSERT, batch and UPDATE all pass before anything is written.
/// Declared constraints are checked in declaration order (`keys` lists the
/// key constraints in that order, then the unique indexes), so the first
/// one violated is the one reported. `earlier` are the statement's rows
/// already through the gate; `replaced` the stored slots it overwrites
/// (ascending; empty for INSERT), which are no collision partners.
/// `checks` is where a CHECK evaluates, with no row yet: the table's
/// layout, bound as the table, and the constraints' names bound in it.
fn enforce_constraints(
    ctx: &mut ExecCtx,
    checks: &Env,
    table: &TableDef,
    keys: &mut [TableKey],
    replaced: &[usize],
    earlier: &[Vec<Value>],
    row_values: &[Value],
) -> Result<(), DbError> {
    let mut next_key = 0;
    for constraint in table.constraints() {
        require_values(table, &checks.scope.layouts[0], constraint, row_values, |_| true)?;
        match constraint {
            Constraint::NotNull(_) => {}
            Constraint::PrimaryKey(_) | Constraint::Unique(_) => {
                keys[next_key].admit(table.name(), replaced, earlier, row_values)?;
                next_key += 1;
            }
            Constraint::Check(expr) => {
                // The candidate row is visible both under the table name and
                // unqualified (Oracle exposes columns directly in CHECK).
                let values = Cow::Owned(Arc::new(row_values.to_vec()));
                let frames = [Frame { values, oid: None, slot: 0 }];
                let env = Env { frames: &frames, ..*checks };
                // Oracle semantics: the row is rejected only when the
                // condition is definitely FALSE (UNKNOWN passes).
                if eval_bool(ctx, &env, expr)? == Some(false) {
                    return Err(DbError::CheckViolation {
                        constraint: format!("CHECK on {}", table.name().as_str()),
                    });
                }
            }
        }
    }
    for key in &mut keys[next_key..] {
        key.admit(table.name(), replaced, earlier, row_values)?;
    }
    Ok(())
}

/// The conditions of `table`'s CHECK constraints.
fn check_exprs(table: &TableDef) -> impl Iterator<Item = &Expr> {
    table.constraints().iter().filter_map(|constraint| match constraint {
        Constraint::Check(expr) => Some(expr),
        _ => None,
    })
}

/// Execute `UPDATE table SET path = expr, … [WHERE pred]`; returns the
/// number of rows updated. SET paths may navigate into embedded object
/// attributes (`attrList.attrBoss = …`); the right-hand sides are evaluated
/// against the *old* row, and all constraints are re-checked before any row
/// is written (statement-level atomicity).
pub fn execute_update(
    catalog: &Catalog,
    storage: &mut Storage,
    stats: &mut ExecStats,
    mode: DbMode,
    table_name: &Ident,
    sets: &[(Vec<Ident>, Expr)],
    where_clause: &Option<Expr>,
) -> Result<usize, DbError> {
    let table = catalog
        .get_table(table_name)
        .ok_or_else(|| DbError::UnknownTable(table_name.as_str().to_string()))?;
    let table_columns = catalog.table_columns(table);
    // WHERE, the SET right-hand sides and CHECK see the row bound as the
    // table, and are bound once for every row.
    let layouts = [Layout::table(catalog, table_name.clone(), table)];
    let scope = Scope::new(&layouts, None);
    let rhs = sets.iter().map(|(_, rhs)| rhs);
    let bindings =
        Bindings::exprs(catalog, &scope, where_clause.iter().chain(rhs).chain(check_exprs(table)));
    let names = Env::row(&scope, &bindings);

    // Phase 1 (read-only): compute the new values of every affected row.
    // The table is read in place: the evaluation frame shares each row's
    // block, and only matching rows pay for a writable copy — the new block
    // phase 2 installs in place of the old one (copy-on-write per row).
    let mut slots: Vec<usize> = Vec::new();
    let mut new_rows: Vec<Vec<Value>> = Vec::new();
    {
        let data = storage
            .table(table_name)
            .ok_or_else(|| DbError::UnknownTable(table_name.as_str().to_string()))?;
        let mut ctx = ExecCtx::new(catalog, storage, stats, mode);
        for (idx, row) in data.rows.iter().enumerate() {
            let frames = [Frame { values: Cow::Borrowed(&row.values), oid: row.oid, slot: idx }];
            let env = Env { frames: &frames, ..names };
            let hit = match where_clause {
                None => true,
                Some(pred) => eval_bool(&mut ctx, &env, pred)? == Some(true),
            };
            if !hit {
                continue;
            }
            let mut new_values = row.values.to_vec();
            for (path, rhs) in sets {
                let value = eval_expr(&mut ctx, &env, rhs)?;
                assign_path(&mut ctx, table_columns, &mut new_values, path, value)?;
            }
            slots.push(idx);
            new_rows.push(new_values);
        }
        // Constraint re-check on the new rows. NOT NULL and CHECK always; a
        // key only when a SET path starts at one of its columns — then
        // against the rows this statement leaves alone and among the new
        // rows themselves, so `SET A = A + 1` over {1, 2} passes as a whole.
        let mut keys = table_keys(&ctx, table, table_columns)?;
        for key in &mut keys {
            key.active = sets.iter().any(|(path, _)| key.columns.contains(&path[0]));
        }
        for (i, new_values) in new_rows.iter().enumerate() {
            enforce_constraints(
                &mut ctx,
                &names,
                table,
                &mut keys,
                &slots,
                &new_rows[..i],
                new_values,
            )?;
        }
    }

    // Phase 2: write (undo-logged, so a rollback restores the old values).
    let count = slots.len();
    for (slot, new_values) in slots.into_iter().zip(new_rows) {
        storage.write_row_values(table_name, slot, new_values)?;
    }
    Ok(count)
}

/// Assign `value` at `path` within a row's new image: `path[0]` names a
/// column, further parts navigate into embedded object attributes. Each
/// level is entered through `Arc::make_mut` — the one place a value block is
/// written — so exactly the blocks along the path are copied (each one level
/// deep: its other members stay handles); sibling attributes keep sharing
/// their blocks with the old image in the undo log and in pinned readers.
fn assign_path(
    ctx: &mut ExecCtx,
    table_columns: &[(Ident, SqlType)],
    row_values: &mut [Value],
    path: &[Ident],
    value: Value,
) -> Result<(), DbError> {
    let col_idx = col_position(table_columns, &path[0])?;
    if path.len() == 1 {
        let coerced = coerce(ctx, value, &table_columns[col_idx].1, path[0].as_str())?;
        row_values[col_idx] = coerced;
        return Ok(());
    }
    // Navigate object attributes; the leaf is coerced to its declared type.
    let mut slot: &mut Value = &mut row_values[col_idx];
    for (depth, part) in path[1..].iter().enumerate() {
        let is_leaf = depth == path.len() - 2;
        let (type_name, attrs) = match slot {
            Value::Obj { type_name, attrs } => (type_name.clone(), attrs),
            Value::Null => {
                return Err(DbError::Execution(format!(
                    "cannot SET through NULL object attribute '{}'",
                    path[depth].as_str()
                )))
            }
            other => {
                return Err(DbError::Execution(format!(
                    "cannot SET through non-object value {}",
                    other.to_sql_literal()
                )))
            }
        };
        let def = ctx
            .catalog
            .get_type(&type_name)
            .ok_or_else(|| DbError::UnknownType(type_name.as_str().to_string()))?;
        let attr_idx = def
            .object_attrs()
            .iter()
            .position(|(n, _)| n == part)
            .ok_or_else(|| {
                DbError::UnknownColumn(format!("{}.{}", type_name.as_str(), part.as_str()))
            })?;
        if is_leaf {
            let attr_type = def.object_attrs()[attr_idx].1.clone();
            let coerced = coerce(ctx, value, &attr_type, part.as_str())?;
            Arc::make_mut(attrs)[attr_idx] = coerced;
            return Ok(());
        }
        slot = &mut Arc::make_mut(attrs)[attr_idx];
    }
    // The caller splits off a non-empty path, so the loop always reaches
    // `is_leaf` and returns; surface a typed error rather than panicking
    // if that invariant is ever broken.
    Err(DbError::Execution(format!(
        "SET path '{}' ended without reaching a leaf attribute",
        path.iter().map(|p| p.as_str()).collect::<Vec<_>>().join(".")
    )))
}

/// Execute `DELETE FROM table [WHERE pred]`; returns the number of rows
/// deleted.
pub fn execute_delete(
    catalog: &Catalog,
    storage: &mut Storage,
    stats: &mut ExecStats,
    mode: DbMode,
    table_name: &Ident,
    where_clause: &Option<Expr>,
) -> Result<usize, DbError> {
    let table = catalog
        .get_table(table_name)
        .ok_or_else(|| DbError::UnknownTable(table_name.as_str().to_string()))?;
    // WHERE sees the row bound as the table.
    let layouts = [Layout::table(catalog, table_name.clone(), table)];
    let scope = Scope::new(&layouts, None);
    let bindings = Bindings::exprs(catalog, &scope, where_clause);
    let names = Env::row(&scope, &bindings);

    // Decide which rows go (read-only phase), then delete by position.
    let mut doomed: Vec<usize> = Vec::new();
    {
        let data = storage
            .table(table_name)
            .ok_or_else(|| DbError::UnknownTable(table_name.as_str().to_string()))?;
        let mut ctx = ExecCtx::new(catalog, storage, stats, mode);
        for (idx, row) in data.rows.iter().enumerate() {
            let keep = match where_clause {
                None => false,
                Some(pred) => {
                    let values = Cow::Borrowed(&row.values);
                    let frames = [Frame { values, oid: row.oid, slot: idx }];
                    let env = Env { frames: &frames, ..names };
                    eval_bool(&mut ctx, &env, pred)? != Some(true)
                }
            };
            if !keep {
                doomed.push(idx);
            }
        }
    }
    let doomed_set: std::collections::BTreeSet<usize> = doomed.into_iter().collect();
    let mut position = 0usize;
    let removed = storage.delete_rows(table_name, |_row| {
        let hit = doomed_set.contains(&position);
        position += 1;
        hit
    });
    Ok(removed)
}
