//! DDL execution: CREATE/DROP of types, tables and views.
//!
//! The catalog half of every DDL statement lives in [`apply_ddl_catalog`] so
//! the static analyzer's *shadow catalog* ([`crate::analyze`]) evolves through
//! exactly the same code path as the executor's live catalog — the two can
//! never disagree about what a script's DDL means.

use crate::catalog::{Catalog, ColumnDef, Constraint, IndexDef, TableDef, TableStats, TypeDef, ViewDef};
use crate::error::DbError;
use crate::exec::dml::{col_position, StoredKey};
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::sql::ast::{ColumnSpec, SelectStmt, Stmt};
use crate::stats::ExecStats;
use crate::storage::Storage;
use crate::types::SqlType;

/// Apply one DDL statement's catalog effects (no storage, no stats).
/// Returns `true` if the statement was DDL.
pub fn apply_ddl_catalog(
    catalog: &mut Catalog,
    mode: DbMode,
    stmt: &Stmt,
) -> Result<bool, DbError> {
    match stmt {
        Stmt::CreateTypeForward { name } => {
            catalog.create_type(
                TypeDef::Object { name: name.clone(), attrs: vec![], incomplete: true },
                mode,
            )?;
            Ok(true)
        }
        Stmt::CreateObjectType { name, attrs } => {
            catalog.create_type(
                TypeDef::Object { name: name.clone(), attrs: attrs.clone(), incomplete: false },
                mode,
            )?;
            Ok(true)
        }
        Stmt::CreateVarrayType { name, max, elem } => {
            catalog.create_type(
                TypeDef::Varray { name: name.clone(), elem: elem.clone(), max: *max },
                mode,
            )?;
            Ok(true)
        }
        Stmt::CreateNestedTableType { name, elem } => {
            catalog.create_type(
                TypeDef::NestedTable { name: name.clone(), elem: elem.clone() },
                mode,
            )?;
            Ok(true)
        }
        Stmt::CreateObjectTable { name, of_type, constraints } => {
            catalog.create_table(TableDef::Object {
                name: name.clone(),
                of_type: of_type.clone(),
                constraints: constraints.clone(),
            })?;
            Ok(true)
        }
        Stmt::CreateRelationalTable { name, columns, constraints, nested_table_stores } => {
            let (column_defs, mut all_constraints) = split_column_specs(columns);
            all_constraints.extend(constraints.iter().cloned());
            validate_nested_table_stores(catalog, &column_defs, nested_table_stores)?;
            catalog.create_table(TableDef::Relational {
                name: name.clone(),
                columns: column_defs,
                constraints: all_constraints,
                nested_table_stores: nested_table_stores.clone(),
            })?;
            Ok(true)
        }
        Stmt::CreateView { name, query, or_replace } => {
            if *or_replace && catalog.get_view(name).is_some() {
                catalog.drop_view(name)?;
            }
            create_view(catalog, name, query)?;
            Ok(true)
        }
        Stmt::DropType { name, force } => {
            catalog.drop_type(name, *force)?;
            Ok(true)
        }
        Stmt::DropTable { name } => {
            catalog.drop_table(name)?;
            Ok(true)
        }
        Stmt::DropView { name } => {
            catalog.drop_view(name)?;
            Ok(true)
        }
        Stmt::CreateIndex { name, table, columns, unique } => {
            catalog.create_index(IndexDef {
                name: name.clone(),
                table: table.clone(),
                columns: columns.clone(),
                unique: *unique,
                key: None,
            })?;
            Ok(true)
        }
        Stmt::DropIndex { name } => {
            catalog.drop_index(name)?;
            Ok(true)
        }
        Stmt::AnalyzeTable { table } => {
            // Catalog half: the table must exist. The statistics snapshot is
            // computed from storage in [`execute_ddl`]; the analyzer's
            // shadow catalog only validates the name.
            if catalog.get_table(table).is_none() {
                return Err(DbError::UnknownTable(table.as_str().to_string()));
            }
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Execute one DDL statement. Returns `true` if the statement was DDL.
pub fn execute_ddl(
    catalog: &mut Catalog,
    storage: &mut Storage,
    stats: &mut ExecStats,
    mode: DbMode,
    stmt: &Stmt,
) -> Result<bool, DbError> {
    if !apply_ddl_catalog(catalog, mode, stmt)? {
        return Ok(false);
    }
    match stmt {
        Stmt::CreateTypeForward { .. }
        | Stmt::CreateObjectType { .. }
        | Stmt::CreateVarrayType { .. }
        | Stmt::CreateNestedTableType { .. } => {
            stats.types_created += 1;
        }
        Stmt::CreateObjectTable { name, .. } | Stmt::CreateRelationalTable { name, .. } => {
            storage.create_table(name.clone());
            // A key is an index: one per PRIMARY KEY / UNIQUE constraint,
            // the only indexes a table is born with.
            for def in catalog.indexes_on(name) {
                let positions = index_positions(catalog, def)?;
                storage.create_index(def.name.clone(), name.clone(), positions);
            }
            stats.tables_created += 1;
        }
        Stmt::DropTable { name } => {
            storage.drop_table(name);
        }
        Stmt::CreateIndex { name, table, unique, .. } => {
            let def = catalog.get_index(name).expect("created by apply_ddl_catalog");
            let positions = index_positions(catalog, def)?;
            storage.create_index(name.clone(), table.clone(), positions.clone());
            // A unique index is a key: rows that already collide refuse it
            // (the statement bracket then rolls both halves back).
            if *unique && StoredKey::open(storage, table, positions).holds_duplicates() {
                return Err(DbError::UniqueViolation { constraint: name.to_string() });
            }
        }
        Stmt::DropIndex { name } => {
            storage.drop_index(name);
        }
        Stmt::AnalyzeTable { table } => {
            let table_def = catalog.get_table(table).expect("validated by apply_ddl_catalog");
            let columns = catalog.table_columns(table_def);
            let snapshot = compute_table_stats(storage, table, columns);
            catalog.set_table_stats(table.clone(), snapshot);
            stats.analyze_runs += 1;
        }
        _ => {}
    }
    Ok(true)
}

/// The row positions of an index's key columns — how a definition from
/// [`Catalog::indexes_on`] becomes the storage index of the same name.
/// CREATE TABLE, CREATE INDEX and recovery all register through here, so
/// they agree by construction.
pub(crate) fn index_positions(catalog: &Catalog, def: &IndexDef) -> Result<Vec<usize>, DbError> {
    let table = catalog
        .get_table(&def.table)
        .ok_or_else(|| DbError::UnknownTable(def.table.as_str().to_string()))?;
    let table_cols = catalog.table_columns(table);
    def.columns.iter().map(|c| col_position(table_cols, c)).collect()
}

/// Scan a table heap once, counting rows and per-column distinct values
/// (by join-key hash — NULLs and unhashable values count as one bucket, a
/// fine-grained enough NDV for selectivity estimates).
fn compute_table_stats(
    storage: &Storage,
    table: &Ident,
    columns: &[(Ident, SqlType)],
) -> TableStats {
    use std::collections::HashSet;
    let data = storage.table(table);
    let rows = data.map(|d| d.rows.len()).unwrap_or(0) as u64;
    let mut distinct = std::collections::BTreeMap::new();
    for (ci, (col_name, _)) in columns.iter().enumerate() {
        let mut seen: HashSet<Option<u64>> = HashSet::new();
        if let Some(data) = data {
            for row in &data.rows {
                let v = row.values.get(ci).unwrap_or(&crate::value::Value::Null);
                seen.insert(crate::storage::key_hash([v]));
            }
        }
        distinct.insert(col_name.clone(), seen.len() as u64);
    }
    TableStats { rows, distinct }
}

fn create_view(catalog: &mut Catalog, name: &Ident, query: &SelectStmt) -> Result<(), DbError> {
    catalog.create_view(ViewDef { name: name.clone(), query: query.clone() })
}

/// Split parsed column specs into catalog column definitions plus the
/// constraints implied by inline `NOT NULL` / `PRIMARY KEY` markers.
pub(crate) fn split_column_specs(specs: &[ColumnSpec]) -> (Vec<ColumnDef>, Vec<Constraint>) {
    let mut columns = Vec::with_capacity(specs.len());
    let mut constraints = Vec::new();
    for spec in specs {
        columns.push(ColumnDef { name: spec.name.clone(), sql_type: spec.sql_type.clone() });
        if spec.primary_key {
            constraints.push(Constraint::PrimaryKey(vec![spec.name.clone()]));
        } else if spec.not_null {
            constraints.push(Constraint::NotNull(spec.name.clone()));
        }
    }
    (columns, constraints)
}

/// Every `NESTED TABLE col STORE AS t` clause must name a column whose type
/// is a nested-table collection (Oracle requires the clause; we require its
/// correctness).
fn validate_nested_table_stores(
    catalog: &Catalog,
    columns: &[ColumnDef],
    stores: &[(Ident, Ident)],
) -> Result<(), DbError> {
    for (col, _store) in stores {
        let def = columns
            .iter()
            .find(|c| &c.name == col)
            .ok_or_else(|| DbError::UnknownColumn(col.as_str().to_string()))?;
        let is_nested = match &def.sql_type {
            SqlType::NestedTable(_) => true,
            SqlType::Object(name) | SqlType::Varray(name) => matches!(
                catalog.get_type(name),
                Some(TypeDef::NestedTable { .. })
            ),
            _ => false,
        };
        if !is_nested {
            return Err(DbError::type_mismatch(
                None,
                "nested table column",
                format!("{} ({})", col.as_str(), def.sql_type),
            ));
        }
    }
    Ok(())
}
