//! The schema catalog: user-defined types, tables, views, constraints and
//! the dependency bookkeeping behind `DROP TYPE … FORCE` (§6.2).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::DbError;
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::sql::ast::{Expr, SelectStmt};
use crate::storage::key_index_name;
use crate::types::SqlType;

/// A user-defined type.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDef {
    /// `CREATE TYPE name AS OBJECT (attr type, ...)` (§2.1). `incomplete`
    /// marks a forward declaration (`CREATE TYPE name;`) used for the
    /// recursive structures of §6.2.
    Object { name: Ident, attrs: Vec<(Ident, SqlType)>, incomplete: bool },
    /// `CREATE TYPE name AS VARRAY(max) OF elem` (§2.2).
    Varray { name: Ident, elem: SqlType, max: u32 },
    /// `CREATE TYPE name AS TABLE OF elem` (§2.2).
    NestedTable { name: Ident, elem: SqlType },
}

impl TypeDef {
    pub fn name(&self) -> &Ident {
        match self {
            TypeDef::Object { name, .. }
            | TypeDef::Varray { name, .. }
            | TypeDef::NestedTable { name, .. } => name,
        }
    }

    /// Attribute list of an object type (empty for collections).
    pub fn object_attrs(&self) -> &[(Ident, SqlType)] {
        match self {
            TypeDef::Object { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Element type of a collection type.
    pub fn element_type(&self) -> Option<&SqlType> {
        match self {
            TypeDef::Varray { elem, .. } | TypeDef::NestedTable { elem, .. } => Some(elem),
            _ => None,
        }
    }

    pub fn is_collection(&self) -> bool {
        matches!(self, TypeDef::Varray { .. } | TypeDef::NestedTable { .. })
    }

    pub fn is_incomplete(&self) -> bool {
        matches!(self, TypeDef::Object { incomplete: true, .. })
    }

    /// Names of user-defined types this definition depends on.
    pub fn dependencies(&self) -> Vec<&Ident> {
        match self {
            TypeDef::Object { attrs, .. } => {
                attrs.iter().filter_map(|(_, t)| t.named_type()).collect()
            }
            TypeDef::Varray { elem, .. } | TypeDef::NestedTable { elem, .. } => {
                elem.named_type().into_iter().collect()
            }
        }
    }
}

/// A table-level constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// `col PRIMARY KEY` (implies NOT NULL + unique).
    PrimaryKey(Vec<Ident>),
    /// `col NOT NULL` — §4.3: "constraints … can only be defined in the
    /// object table - not in the definition of the object type".
    NotNull(Ident),
    /// Table-level `CHECK (expr)` — §4.3's workaround for inner attributes.
    Check(Expr),
    /// `UNIQUE (cols)`.
    Unique(Vec<Ident>),
}

/// Column of a relational table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: Ident,
    pub sql_type: SqlType,
}

/// A table definition.
#[derive(Debug, Clone, PartialEq)]
pub enum TableDef {
    /// `CREATE TABLE name OF type (...)` — an *object table* (§2.1): rows
    /// are objects of `of_type` and carry OIDs that REFs can target.
    Object { name: Ident, of_type: Ident, constraints: Vec<Constraint> },
    /// Plain relational table (also used with object-typed columns).
    Relational {
        name: Ident,
        columns: Vec<ColumnDef>,
        constraints: Vec<Constraint>,
        /// `NESTED TABLE col STORE AS name` clauses (§2.2) — bookkeeping
        /// only; storage is inline in this engine.
        nested_table_stores: Vec<(Ident, Ident)>,
    },
}

impl TableDef {
    pub fn name(&self) -> &Ident {
        match self {
            TableDef::Object { name, .. } | TableDef::Relational { name, .. } => name,
        }
    }

    pub fn constraints(&self) -> &[Constraint] {
        match self {
            TableDef::Object { constraints, .. } | TableDef::Relational { constraints, .. } => {
                constraints
            }
        }
    }

    pub fn is_object_table(&self) -> bool {
        matches!(self, TableDef::Object { .. })
    }

    /// The object type an object table's rows are instances of.
    pub fn of_type(&self) -> Option<&Ident> {
        match self {
            TableDef::Object { of_type, .. } => Some(of_type),
            TableDef::Relational { .. } => None,
        }
    }

    /// The PRIMARY KEY / UNIQUE constraints in declaration order: each
    /// one's columns and which of the two it is.
    pub fn key_constraints(&self) -> impl Iterator<Item = (&Vec<Ident>, KeyKind)> {
        self.constraints().iter().filter_map(|constraint| match constraint {
            Constraint::PrimaryKey(cols) => Some((cols, KeyKind::PrimaryKey)),
            Constraint::Unique(cols) => Some((cols, KeyKind::Unique)),
            Constraint::NotNull(_) | Constraint::Check(_) => None,
        })
    }
}

/// `CREATE VIEW name AS select` — object views included (§6.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    pub name: Ident,
    pub query: SelectStmt,
}

/// The constraint a key index stands behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    PrimaryKey,
    Unique,
}

/// One index of a table, as [`Catalog::indexes_on`] lists it: the index
/// behind a PRIMARY KEY / UNIQUE constraint, or one a `CREATE [UNIQUE]
/// INDEX` declared. The key→slot structure itself lives in
/// [`crate::storage::Storage`] under `name`; the catalog owns the
/// definition so the planner, `EXPLAIN`, the analyzer's shadow catalog, the
/// key check and recovery all read the same inventory.
///
/// Only declared indexes are stored (snapshot, WAL, undo log). A key's
/// definition is derived from its [`TableDef`] when the table enters the
/// catalog and leaves with it, so it exists exactly as long as the
/// constraint does.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexDef {
    /// A declared index's SQL name; for a key, the reserved
    /// [`crate::storage::key_index_name`] no statement can spell.
    pub name: Ident,
    pub table: Ident,
    pub columns: Vec<Ident>,
    /// An equality probe on all key columns yields at most one row. True
    /// for keys and for `CREATE UNIQUE INDEX`, which both enforce it.
    pub unique: bool,
    /// The constraint this index enforces; `None` for a declared index.
    pub key: Option<KeyKind>,
}

impl IndexDef {
    /// What `EXPLAIN` calls the index: a declared index by its name, a key
    /// as the constraint it is — `TabStudent(IDStudent) PRIMARY KEY` — the
    /// way a key violation names it.
    pub fn label(&self) -> String {
        let Some(key) = self.key else { return self.name.to_string() };
        let columns: Vec<&str> = self.columns.iter().map(Ident::as_str).collect();
        let kind = match key {
            KeyKind::PrimaryKey => "PRIMARY KEY",
            KeyKind::Unique => "UNIQUE",
        };
        format!("{}({}) {kind}", self.table, columns.join(","))
    }
}

/// Cardinality statistics collected by `ANALYZE TABLE … COMPUTE STATISTICS`.
/// A snapshot: the planner costs plans from the last ANALYZE, never from
/// live heap sizes, which keeps EXPLAIN output data-independent between
/// ANALYZE runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Row count at ANALYZE time.
    pub rows: u64,
    /// Number of distinct values per column at ANALYZE time.
    pub distinct: BTreeMap<Ident, u64>,
}

impl TableStats {
    /// Distinct-value count for `column`, defaulting to the row count
    /// (pessimistic for selectivity: assume unique) when the column was not
    /// captured.
    pub fn ndv(&self, column: &Ident) -> u64 {
        // Never 0: an ANALYZE over an empty table records 0 distinct
        // values, and estimates divide by this.
        self.distinct.get(column).copied().unwrap_or(self.rows).max(1)
    }
}

/// Inverse of one catalog mutation; see [`Catalog::rollback_to`]. A
/// `CreatedType` that replaced an incomplete forward declaration carries
/// that prior declaration so rollback restores it rather than erasing the
/// name.
#[derive(Debug, Clone)]
enum CatalogUndo {
    CreatedType { name: Ident, prev: Option<TypeDef> },
    DroppedType { def: TypeDef },
    CreatedTable { name: Ident },
    DroppedTable { def: TableDef },
    CreatedView { name: Ident },
    DroppedView { def: ViewDef },
    CreatedIndex { name: Ident },
    DroppedIndex { def: IndexDef },
    SetStats { table: Ident, prev: Option<TableStats> },
}

/// The complete schema catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    types: BTreeMap<Ident, TypeDef>,
    tables: BTreeMap<Ident, TableDef>,
    /// The index definition behind each key constraint of each table in
    /// `tables` — derived from the [`TableDef`] whenever one enters or
    /// leaves that map (`file_table` / `unfile_table`), so listing a
    /// table's indexes, which every plan does, builds nothing. Derived
    /// state: in no dump, snapshot, log record or undo entry.
    key_indexes: BTreeMap<Ident, Vec<IndexDef>>,
    /// Each relational table's `(name, type)` pairs, built at CREATE (an
    /// object table lends its type's attribute list). Derived state, like
    /// `key_indexes`: gone when the table leaves, in no dump, snapshot, log
    /// record or undo entry.
    columns: BTreeMap<Ident, Vec<(Ident, SqlType)>>,
    views: BTreeMap<Ident, ViewDef>,
    /// Declared (`CREATE INDEX`) definitions by index name. Excluded from
    /// [`Catalog::state_dump`]: index presence must never change what a
    /// rollback-equivalence check observes.
    indexes: BTreeMap<Ident, IndexDef>,
    /// ANALYZE statistics by table name (also excluded from `state_dump`).
    stats: BTreeMap<Ident, TableStats>,
    /// Undo log since the last commit; every successful mutation pushes
    /// its inverse.
    undo: Vec<CatalogUndo>,
    /// Bumped once per [`Catalog::commit`] that sealed schema changes.
    /// Snapshot readers key their catalog caches on this; uncommitted DDL
    /// and rollbacks never move it.
    committed_epoch: u64,
}

/// `DuplicateColumn` for the first name in `names` that repeats an
/// earlier one (identifiers compare case-insensitively).
fn reject_repeated<'a>(
    owner: &Ident,
    names: impl Iterator<Item = &'a Ident>,
) -> Result<(), DbError> {
    let mut seen = BTreeSet::new();
    for name in names {
        if !seen.insert(name) {
            return Err(DbError::DuplicateColumn {
                owner: owner.as_str().to_string(),
                column: name.as_str().to_string(),
            });
        }
    }
    Ok(())
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    // -- types --------------------------------------------------------------

    /// Register a type, enforcing the mode's collection-nesting rule (§2.2)
    /// and name uniqueness across types/tables/views. A complete definition
    /// may replace an incomplete (forward) declaration of the same name.
    pub fn create_type(&mut self, def: TypeDef, mode: DbMode) -> Result<(), DbError> {
        let name = def.name().clone();
        if let Some(existing) = self.types.get(&name) {
            let replacing_forward = existing.is_incomplete() && !def.is_incomplete();
            if !replacing_forward {
                return Err(DbError::DuplicateName(name.as_str().to_string()));
            }
        } else if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(DbError::DuplicateName(name.as_str().to_string()));
        }
        // A collection whose element is the collection itself has no value
        // any constructor could build (`TV1(TV1())` is a type mismatch at
        // every depth). Only object types may name themselves, through a
        // REF attribute.
        if def.element_type().and_then(SqlType::named_type) == Some(&name) {
            return Err(DbError::SelfContainingCollection(name.as_str().to_string()));
        }
        reject_repeated(&name, def.object_attrs().iter().map(|(attr, _)| attr))?;
        // Oracle 8: no collection-of-collection, no collection-of-LOB. The
        // restriction is transitive — an object type that (anywhere inside)
        // contains a collection or LOB attribute cannot be a collection
        // element either, which is why the paper's §4.2 workaround applies
        // to *all* set-valued complex elements.
        if let Some(elem) = def.element_type() {
            if !mode.allows_nested_collections() && self.contains_collection_or_lob(elem) {
                return Err(DbError::NestedCollectionNotSupported {
                    collection: name.as_str().to_string(),
                    element: elem.to_string(),
                });
            }
        }
        // Resolve `Object(name)` attr types that actually denote collections:
        // the parser cannot tell; fix them up against the catalog.
        let def = self.resolve_named_types(def);
        // Named dependencies must exist (incomplete declarations count, and
        // a type may reference itself — e.g. a self-referential REF).
        for dep in def.dependencies() {
            if dep != def.name() && !self.types.contains_key(dep) {
                return Err(DbError::UnknownType(dep.as_str().to_string()));
            }
        }
        let prev = self.file_type(def);
        self.undo.push(CatalogUndo::CreatedType { name, prev });
        Ok(())
    }

    // -- transactions ---------------------------------------------------------

    /// Position in the undo log; pass it back to [`Catalog::rollback_to`].
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Make all schema changes since the last commit permanent.
    pub fn commit(&mut self) {
        if !self.undo.is_empty() {
            self.committed_epoch += 1;
            self.undo.clear();
        }
    }

    /// Commit counter — see the `committed_epoch` field.
    pub fn committed_epoch(&self) -> u64 {
        self.committed_epoch
    }

    /// Undo every mutation logged after `mark`, newest first. A mark at or
    /// beyond the current log length is a no-op.
    pub fn rollback_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            // The loop guard proves the log is non-empty; if pop somehow
            // missed, stopping replay is safer than panicking mid-rollback.
            let Some(op) = self.undo.pop() else {
                debug_assert!(false, "undo.len() > mark implies a poppable record");
                break;
            };
            match op {
                CatalogUndo::CreatedType { name, prev } => match prev {
                    Some(decl) => {
                        self.file_type(decl);
                    }
                    None => {
                        self.unfile_type(&name);
                    }
                },
                CatalogUndo::DroppedType { def } => {
                    self.file_type(def);
                }
                CatalogUndo::CreatedTable { name } => {
                    self.unfile_table(&name);
                }
                CatalogUndo::DroppedTable { def } => {
                    self.file_table(def);
                }
                CatalogUndo::CreatedView { name } => {
                    self.views.remove(&name);
                }
                CatalogUndo::DroppedView { def } => {
                    self.views.insert(def.name.clone(), def);
                }
                CatalogUndo::CreatedIndex { name } => {
                    self.indexes.remove(&name);
                }
                CatalogUndo::DroppedIndex { def } => {
                    self.indexes.insert(def.name.clone(), def);
                }
                CatalogUndo::SetStats { table, prev } => match prev {
                    Some(stats) => {
                        self.stats.insert(table, stats);
                    }
                    None => {
                        self.stats.remove(&table);
                    }
                },
            }
        }
    }

    /// Deterministic rendering of the schema state (the three namespaces in
    /// `BTreeMap` order; the undo log is excluded). Counterpart of
    /// [`crate::storage::Storage::state_dump`] for rollback equivalence
    /// checks.
    pub fn state_dump(&self) -> String {
        format!(
            "types: {:?}\ntables: {:?}\nviews: {:?}",
            self.types, self.tables, self.views
        )
    }

    /// Does `t` transitively involve a collection type or LOB? (The Oracle 8
    /// nesting restriction of §2.2.) REFs do not count — they are scalars.
    fn contains_collection_or_lob(&self, t: &SqlType) -> bool {
        let mut stack: Vec<SqlType> = vec![t.clone()];
        let mut seen: std::collections::BTreeSet<Ident> = std::collections::BTreeSet::new();
        while let Some(cur) = stack.pop() {
            match cur {
                SqlType::Clob => return true,
                SqlType::Varray(_) | SqlType::NestedTable(_) => return true,
                SqlType::Object(n) => {
                    if !seen.insert(n.clone()) {
                        continue;
                    }
                    match self.types.get(&n) {
                        Some(TypeDef::Varray { .. }) | Some(TypeDef::NestedTable { .. }) => {
                            return true
                        }
                        Some(TypeDef::Object { attrs, .. }) => {
                            stack.extend(attrs.iter().map(|(_, t)| t.clone()));
                        }
                        None => {}
                    }
                }
                _ => {}
            }
        }
        false
    }

    /// Rewrite `SqlType::Object(n)` into `Varray(n)`/`NestedTable(n)` when
    /// `n` names a collection type — syntax alone cannot distinguish a named
    /// object type from a named collection type.
    pub fn resolve_sql_type(&self, t: SqlType) -> SqlType {
        if let SqlType::Object(n) = &t {
            match self.types.get(n) {
                Some(TypeDef::Varray { .. }) => return SqlType::Varray(n.clone()),
                Some(TypeDef::NestedTable { .. }) => return SqlType::NestedTable(n.clone()),
                _ => {}
            }
        }
        t
    }

    fn resolve_named_types(&self, def: TypeDef) -> TypeDef {
        let fix = |t: SqlType| -> SqlType { self.resolve_sql_type(t) };
        match def {
            TypeDef::Object { name, attrs, incomplete } => TypeDef::Object {
                name,
                attrs: attrs.into_iter().map(|(n, t)| (n, fix(t))).collect(),
                incomplete,
            },
            TypeDef::Varray { name, elem, max } => {
                TypeDef::Varray { name, elem: fix(elem), max }
            }
            TypeDef::NestedTable { name, elem } => {
                TypeDef::NestedTable { name, elem: fix(elem) }
            }
        }
    }

    /// Enter `def` into the catalog; returns the definition it replaced (a
    /// forward declaration).
    fn file_type(&mut self, def: TypeDef) -> Option<TypeDef> {
        self.types.insert(def.name().clone(), def)
    }

    fn unfile_type(&mut self, name: &Ident) -> Option<TypeDef> {
        self.types.remove(name)
    }

    pub fn get_type(&self, name: &Ident) -> Option<&TypeDef> {
        self.types.get(name)
    }

    pub fn type_names(&self) -> impl Iterator<Item = &Ident> {
        self.types.keys()
    }

    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Drop a type. Without `force`, fails if any type, table or view
    /// depends on it ("the deletion of any type must be propagated to all
    /// dependents by using DROP FORCE statements", §6.2). With `force`, the
    /// type is removed and dependents are left (matching Oracle, which
    /// marks them invalid).
    pub fn drop_type(&mut self, name: &Ident, force: bool) -> Result<(), DbError> {
        if !self.types.contains_key(name) {
            return Err(DbError::UnknownType(name.as_str().to_string()));
        }
        if !force {
            if let Some(dep) = self.first_type_dependent(name) {
                return Err(DbError::DependentTypeExists {
                    dropped: name.as_str().to_string(),
                    dependent: dep,
                });
            }
        }
        // Existence was checked at the top of the function and nothing in
        // between mutates `types`, so remove cannot miss — but return the
        // typed error rather than panicking if that invariant ever breaks.
        let Some(def) = self.unfile_type(name) else {
            debug_assert!(false, "type {name} vanished between check and remove");
            return Err(DbError::UnknownType(name.as_str().to_string()));
        };
        self.undo.push(CatalogUndo::DroppedType { def });
        Ok(())
    }

    fn first_type_dependent(&self, name: &Ident) -> Option<String> {
        for def in self.types.values() {
            if def.name() != name && def.dependencies().contains(&name) {
                return Some(def.name().as_str().to_string());
            }
        }
        for table in self.tables.values() {
            let depends = match table {
                TableDef::Object { of_type, .. } => of_type == name,
                TableDef::Relational { columns, .. } => {
                    columns.iter().any(|c| c.sql_type.named_type() == Some(name))
                }
            };
            if depends {
                return Some(table.name().as_str().to_string());
            }
        }
        None
    }

    // -- tables ---------------------------------------------------------------

    pub fn create_table(&mut self, def: TableDef) -> Result<(), DbError> {
        let name = def.name().clone();
        if self.tables.contains_key(&name)
            || self.types.contains_key(&name)
            || self.views.contains_key(&name)
        {
            return Err(DbError::DuplicateName(name.as_str().to_string()));
        }
        match &def {
            TableDef::Object { of_type, .. } => {
                let ty = self
                    .types
                    .get(of_type)
                    .ok_or_else(|| DbError::UnknownType(of_type.as_str().to_string()))?;
                if ty.is_incomplete() {
                    return Err(DbError::UnknownType(format!(
                        "{} (type is an incomplete forward declaration)",
                        of_type.as_str()
                    )));
                }
            }
            TableDef::Relational { columns, .. } => {
                reject_repeated(&name, columns.iter().map(|c| &c.name))?;
                for col in columns {
                    if let Some(n) = col.sql_type.named_type() {
                        if !self.types.contains_key(n) {
                            return Err(DbError::UnknownType(n.as_str().to_string()));
                        }
                    }
                }
            }
        }
        // Resolve column types that name collection types (same fixup as
        // for type attributes).
        let def = match def {
            TableDef::Relational { name, columns, constraints, nested_table_stores } => {
                TableDef::Relational {
                    name,
                    columns: columns
                        .into_iter()
                        .map(|c| ColumnDef {
                            name: c.name,
                            sql_type: self.resolve_sql_type(c.sql_type),
                        })
                        .collect(),
                    constraints,
                    nested_table_stores,
                }
            }
            object => object,
        };
        self.file_table(def);
        self.undo.push(CatalogUndo::CreatedTable { name });
        Ok(())
    }

    /// Enter `def` into the catalog together with the definitions of the
    /// indexes behind its PRIMARY KEY / UNIQUE constraints, each under the
    /// name CREATE TABLE registers its storage index with. A constraint
    /// naming a column the table lacks gets none: every INSERT into such a
    /// table fails on that constraint anyway.
    fn file_table(&mut self, def: TableDef) {
        let table = def.name().clone();
        if let TableDef::Relational { columns, .. } = &def {
            let columns = columns.iter().map(|c| (c.name.clone(), c.sql_type.clone())).collect();
            self.columns.insert(table.clone(), columns);
        }
        let columns = self.table_columns(&def);
        let keys: Vec<IndexDef> = def
            .key_constraints()
            .enumerate()
            .filter(|(_, (cols, _))| cols.iter().all(|c| columns.iter().any(|(name, _)| name == c)))
            .map(|(ordinal, (cols, kind))| IndexDef {
                name: key_index_name(&table, ordinal),
                table: table.clone(),
                columns: cols.clone(),
                unique: true,
                key: Some(kind),
            })
            .collect();
        self.key_indexes.insert(table.clone(), keys);
        self.tables.insert(table, def);
    }

    fn unfile_table(&mut self, name: &Ident) -> Option<TableDef> {
        self.key_indexes.remove(name);
        let def = self.tables.remove(name)?;
        if !def.is_object_table() {
            self.columns.remove(name);
        }
        Some(def)
    }

    pub fn get_table(&self, name: &Ident) -> Option<&TableDef> {
        self.tables.get(name)
    }

    pub fn table_names(&self) -> impl Iterator<Item = &Ident> {
        self.tables.keys()
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    pub fn drop_table(&mut self, name: &Ident) -> Result<(), DbError> {
        match self.unfile_table(name) {
            Some(def) => {
                // Cascade: indexes and statistics die with their table (undo
                // replays newest-first, so they are restored after the table).
                let doomed: Vec<Ident> =
                    self.declared_indexes_on(name).map(|idx| idx.name.clone()).collect();
                self.undo.push(CatalogUndo::DroppedTable { def });
                for index_name in doomed {
                    // Collected from `indexes` just above with no intervening
                    // mutation; an (impossible) miss skips the undo record
                    // instead of panicking.
                    let Some(def) = self.indexes.remove(&index_name) else {
                        debug_assert!(false, "index {index_name} vanished between collect and remove");
                        continue;
                    };
                    self.undo.push(CatalogUndo::DroppedIndex { def });
                }
                if let Some(prev) = self.stats.remove(name) {
                    self.undo.push(CatalogUndo::SetStats { table: name.clone(), prev: Some(prev) });
                }
                Ok(())
            }
            None => Err(DbError::UnknownTable(name.as_str().to_string())),
        }
    }

    /// Columns of a table as (name, type) pairs — for object tables, the
    /// attributes of the underlying object type. Borrowed: nothing is built.
    pub fn table_columns(&self, def: &TableDef) -> &[(Ident, SqlType)] {
        match def {
            TableDef::Object { of_type, .. } => {
                self.types.get(of_type).map_or(&[], TypeDef::object_attrs)
            }
            TableDef::Relational { name, .. } => self.columns.get(name).map_or(&[], Vec::as_slice),
        }
    }

    // -- views ----------------------------------------------------------------

    pub fn create_view(&mut self, def: ViewDef) -> Result<(), DbError> {
        let name = def.name.clone();
        if self.tables.contains_key(&name)
            || self.types.contains_key(&name)
            || self.views.contains_key(&name)
        {
            return Err(DbError::DuplicateName(name.as_str().to_string()));
        }
        self.views.insert(name.clone(), def);
        self.undo.push(CatalogUndo::CreatedView { name });
        Ok(())
    }

    pub fn get_view(&self, name: &Ident) -> Option<&ViewDef> {
        self.views.get(name)
    }

    pub fn drop_view(&mut self, name: &Ident) -> Result<(), DbError> {
        match self.views.remove(name) {
            Some(def) => {
                self.undo.push(CatalogUndo::DroppedView { def });
                Ok(())
            }
            None => Err(DbError::UnknownTable(name.as_str().to_string())),
        }
    }

    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    // -- secondary indexes ----------------------------------------------------

    /// Register a secondary index: the target table must exist, every key
    /// column must be a column of that table, and the name must be free
    /// across all catalog namespaces.
    pub fn create_index(&mut self, def: IndexDef) -> Result<(), DbError> {
        let name = def.name.clone();
        if self.indexes.contains_key(&name)
            || self.tables.contains_key(&name)
            || self.types.contains_key(&name)
            || self.views.contains_key(&name)
        {
            return Err(DbError::DuplicateName(name.as_str().to_string()));
        }
        let table = self
            .tables
            .get(&def.table)
            .ok_or_else(|| DbError::UnknownTable(def.table.as_str().to_string()))?;
        let columns = self.table_columns(table);
        for col in &def.columns {
            let Some((_, sql_type)) = columns.iter().find(|(n, _)| n == col) else {
                return Err(DbError::UnknownColumn(format!("{}.{}", def.table, col)));
            };
            // Key columns must be scalar or REF: every non-NULL value then
            // has a join-key hash, so an index probe can over-return
            // (re-verified by the executor) but never miss a matching row.
            let indexable = matches!(
                sql_type,
                SqlType::Varchar(_)
                    | SqlType::Char(_)
                    | SqlType::Number
                    | SqlType::Integer
                    | SqlType::Date
                    | SqlType::Ref(_)
            );
            if !indexable {
                return Err(DbError::Execution(format!(
                    "column '{}.{}' ({sql_type}) cannot be an index key (scalar or REF columns only)",
                    def.table, col
                )));
            }
        }
        if def.columns.is_empty() {
            return Err(DbError::Execution("index needs at least one column".into()));
        }
        self.indexes.insert(name.clone(), def);
        self.undo.push(CatalogUndo::CreatedIndex { name });
        Ok(())
    }

    /// Drop an index, returning its definition so storage can retire the
    /// matching key→slot structure.
    pub fn drop_index(&mut self, name: &Ident) -> Result<IndexDef, DbError> {
        match self.indexes.remove(name) {
            Some(def) => {
                self.undo.push(CatalogUndo::DroppedIndex { def: def.clone() });
                Ok(def)
            }
            None => Err(DbError::UnknownIndex(name.as_str().to_string())),
        }
    }

    pub fn get_index(&self, name: &Ident) -> Option<&IndexDef> {
        self.indexes.get(name)
    }

    /// Every index on `table`: the one behind each PRIMARY KEY / UNIQUE
    /// constraint, in declaration order, then the declared ones in name
    /// order — so where a key and a declared index cover the same columns,
    /// a reader that keeps the first match keeps the key.
    pub fn indexes_on<'a>(&'a self, table: &'a Ident) -> impl Iterator<Item = &'a IndexDef> {
        self.key_indexes.get(table).into_iter().flatten().chain(self.declared_indexes_on(table))
    }

    /// The stored half of [`Catalog::indexes_on`]: what `CREATE INDEX`
    /// declared on `table`, in name order. The key check reads this beside
    /// the constraints themselves, which it walks in declaration order.
    pub(crate) fn declared_indexes_on<'a>(
        &'a self,
        table: &'a Ident,
    ) -> impl Iterator<Item = &'a IndexDef> {
        self.indexes.values().filter(move |idx| &idx.table == table)
    }

    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    // -- statistics -----------------------------------------------------------

    /// Install ANALYZE statistics for `table` (undo-logged: rollback
    /// restores the previous snapshot, or removes it).
    pub fn set_table_stats(&mut self, table: Ident, stats: TableStats) {
        let prev = self.stats.insert(table.clone(), stats);
        self.undo.push(CatalogUndo::SetStats { table, prev });
    }

    /// The last ANALYZE snapshot of `table`, if any.
    pub fn table_stats(&self, table: &Ident) -> Option<&TableStats> {
        self.stats.get(table)
    }

    // -- snapshot support -----------------------------------------------------

    /// Borrow all five catalog namespaces at once, in canonical `BTreeMap`
    /// order, for snapshot encoding. The undo log is excluded: snapshots
    /// are taken at commit points, where it is empty by definition.
    #[allow(clippy::type_complexity)]
    pub fn snapshot_parts(
        &self,
    ) -> (
        &BTreeMap<Ident, TypeDef>,
        &BTreeMap<Ident, TableDef>,
        &BTreeMap<Ident, ViewDef>,
        &BTreeMap<Ident, IndexDef>,
        &BTreeMap<Ident, TableStats>,
    ) {
        (&self.types, &self.tables, &self.views, &self.indexes, &self.stats)
    }

    /// Reconstruct a catalog from decoded snapshot parts. The undo log
    /// starts empty (the snapshot was taken at a commit point). Referential
    /// consistency between the parts is *not* re-validated here — the
    /// snapshot checksum guards against corruption, and recovery treats a
    /// decode failure upstream as [`DbError::CorruptDurableState`].
    pub fn from_parts(
        types: BTreeMap<Ident, TypeDef>,
        tables: BTreeMap<Ident, TableDef>,
        views: BTreeMap<Ident, ViewDef>,
        indexes: BTreeMap<Ident, IndexDef>,
        stats: BTreeMap<Ident, TableStats>,
    ) -> Catalog {
        let mut catalog = Catalog { views, indexes, stats, ..Catalog::default() };
        for def in types.into_values() {
            catalog.file_type(def);
        }
        for def in tables.into_values() {
            catalog.file_table(def);
        }
        catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> Ident {
        Ident::new(s).unwrap()
    }

    fn obj(name: &str, attrs: &[(&str, SqlType)]) -> TypeDef {
        TypeDef::Object {
            name: id(name),
            attrs: attrs.iter().map(|(n, t)| (id(n), t.clone())).collect(),
            incomplete: false,
        }
    }

    #[test]
    fn create_and_lookup_object_type() {
        let mut cat = Catalog::new();
        cat.create_type(
            obj("Type_Professor", &[("PName", SqlType::Varchar(80))]),
            DbMode::Oracle9,
        )
        .unwrap();
        let t = cat.get_type(&id("type_professor")).unwrap();
        assert_eq!(t.object_attrs().len(), 1);
    }

    /// `CREATE TYPE TV1 AS TABLE OF TV1` (or `VARRAY(n) OF TV1`, or of `REF
    /// TV1`) is refused in both modes, and leaves the catalog as it was.
    #[test]
    fn a_collection_type_may_not_be_its_own_element() {
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let mut cat = Catalog::new();
            cat.create_type(obj("T", &[]), mode).unwrap();
            let before = (cat.types.clone(), cat.undo_len());
            for elem in [SqlType::Object(id("TV1")), SqlType::Ref(id("TV1"))] {
                let table = TypeDef::NestedTable { name: id("TV1"), elem: elem.clone() };
                let varray = TypeDef::Varray { name: id("TV1"), elem, max: 3 };
                for def in [table, varray] {
                    assert_eq!(
                        cat.create_type(def, mode),
                        Err(DbError::SelfContainingCollection("TV1".into())),
                        "{mode:?}"
                    );
                    assert_eq!((cat.types.clone(), cat.undo_len()), before, "{mode:?}");
                }
            }
            // A collection of another type, and an object naming itself
            // through a REF, are still fine.
            let of_t = TypeDef::NestedTable { name: id("TV1"), elem: SqlType::Object(id("T")) };
            cat.create_type(of_t, mode).unwrap();
            cat.create_type(obj("Node", &[("next", SqlType::Ref(id("Node")))]), mode).unwrap();
        }
    }

    /// A table or object type naming one column twice, in any case, is
    /// refused in both modes before anything is filed; `SELECT a` could
    /// otherwise only read one of them.
    #[test]
    fn a_repeated_column_or_attribute_name_is_refused() {
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let mut db = crate::Database::new(mode);
            for (sql, owner) in [
                ("CREATE TABLE T (a NUMBER, A VARCHAR(5))", "T"),
                ("CREATE TYPE Ty AS OBJECT (a NUMBER, b NUMBER, A NUMBER)", "Ty"),
            ] {
                let before = db.catalog().state_dump();
                assert_eq!(
                    db.execute(sql).map(drop),
                    Err(DbError::DuplicateColumn { owner: owner.into(), column: "A".into() }),
                    "{mode:?}: {sql}"
                );
                assert_eq!(db.catalog().state_dump(), before, "{mode:?}: {sql}");
            }
            // Distinct names, and the same name in two owners, are fine.
            db.execute("CREATE TABLE T (a NUMBER, b VARCHAR(5))").unwrap();
            db.execute("CREATE TYPE Ty AS OBJECT (a NUMBER, b NUMBER)").unwrap();
        }
    }

    #[test]
    fn duplicate_type_rejected() {
        let mut cat = Catalog::new();
        cat.create_type(obj("T", &[]), DbMode::Oracle9).unwrap();
        assert!(matches!(
            cat.create_type(obj("t", &[]), DbMode::Oracle9),
            Err(DbError::DuplicateName(_))
        ));
    }

    #[test]
    fn forward_declaration_can_be_completed() {
        let mut cat = Catalog::new();
        cat.create_type(
            TypeDef::Object { name: id("Type_Professor"), attrs: vec![], incomplete: true },
            DbMode::Oracle9,
        )
        .unwrap();
        // Complete it.
        cat.create_type(obj("Type_Professor", &[("PName", SqlType::Varchar(4000))]), DbMode::Oracle9)
            .unwrap();
        assert!(!cat.get_type(&id("Type_Professor")).unwrap().is_incomplete());
    }

    #[test]
    fn object_table_of_incomplete_type_rejected() {
        let mut cat = Catalog::new();
        cat.create_type(
            TypeDef::Object { name: id("T"), attrs: vec![], incomplete: true },
            DbMode::Oracle9,
        )
        .unwrap();
        let err = cat.create_table(TableDef::Object {
            name: id("Tab"),
            of_type: id("T"),
            constraints: vec![],
        });
        assert!(err.is_err());
    }

    #[test]
    fn oracle8_rejects_nested_collections() {
        let mut cat = Catalog::new();
        cat.create_type(
            TypeDef::Varray { name: id("TypeVA_Subject"), elem: SqlType::Varchar(4000), max: 9 },
            DbMode::Oracle8,
        )
        .unwrap();
        // VARRAY of VARRAY — rejected in Oracle 8 …
        let err = cat.create_type(
            TypeDef::Varray {
                name: id("TypeVA_Outer"),
                elem: SqlType::Object(id("TypeVA_Subject")),
                max: 10,
            },
            DbMode::Oracle8,
        );
        assert!(matches!(err, Err(DbError::NestedCollectionNotSupported { .. })), "{err:?}");
        // … and LOB elements too.
        let err2 = cat.create_type(
            TypeDef::NestedTable { name: id("TypeNT_Lob"), elem: SqlType::Clob },
            DbMode::Oracle8,
        );
        assert!(matches!(err2, Err(DbError::NestedCollectionNotSupported { .. })));
    }

    #[test]
    fn oracle9_accepts_nested_collections() {
        let mut cat = Catalog::new();
        cat.create_type(
            TypeDef::Varray { name: id("TypeVA_Subject"), elem: SqlType::Varchar(4000), max: 9 },
            DbMode::Oracle9,
        )
        .unwrap();
        let t = cat.create_type(
            TypeDef::Varray {
                name: id("TypeVA_Outer"),
                elem: SqlType::Object(id("TypeVA_Subject")),
                max: 10,
            },
            DbMode::Oracle9,
        );
        assert!(t.is_ok());
        // The named element resolved to a collection reference.
        let outer = cat.get_type(&id("TypeVA_Outer")).unwrap();
        assert_eq!(outer.element_type(), Some(&SqlType::Varray(id("TypeVA_Subject"))));
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut cat = Catalog::new();
        let err = cat.create_type(
            obj("T", &[("x", SqlType::Object(id("Missing")))]),
            DbMode::Oracle9,
        );
        assert!(matches!(err, Err(DbError::UnknownType(_))));
    }

    #[test]
    fn drop_type_respects_dependents() {
        let mut cat = Catalog::new();
        cat.create_type(obj("Inner", &[]), DbMode::Oracle9).unwrap();
        cat.create_type(obj("Outer", &[("i", SqlType::Object(id("Inner")))]), DbMode::Oracle9)
            .unwrap();
        assert!(matches!(
            cat.drop_type(&id("Inner"), false),
            Err(DbError::DependentTypeExists { .. })
        ));
        cat.drop_type(&id("Inner"), true).unwrap(); // FORCE
        assert!(cat.get_type(&id("Inner")).is_none());
    }

    #[test]
    fn drop_type_blocked_by_dependent_table() {
        let mut cat = Catalog::new();
        cat.create_type(obj("T", &[]), DbMode::Oracle9).unwrap();
        cat.create_table(TableDef::Object {
            name: id("Tab"),
            of_type: id("T"),
            constraints: vec![],
        })
        .unwrap();
        assert!(matches!(
            cat.drop_type(&id("T"), false),
            Err(DbError::DependentTypeExists { .. })
        ));
    }

    #[test]
    fn table_columns_for_object_tables_come_from_the_type() {
        let mut cat = Catalog::new();
        cat.create_type(
            obj("Type_P", &[("a", SqlType::Varchar(10)), ("b", SqlType::Number)]),
            DbMode::Oracle9,
        )
        .unwrap();
        cat.create_table(TableDef::Object {
            name: id("TabP"),
            of_type: id("Type_P"),
            constraints: vec![],
        })
        .unwrap();
        let table = cat.get_table(&id("TabP")).unwrap();
        let cols = cat.table_columns(table);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].0.as_str(), "a");
    }

    #[test]
    fn rollback_restores_schema_and_replaced_forward_declarations() {
        let mut cat = Catalog::new();
        cat.create_type(
            TypeDef::Object { name: id("Fwd"), attrs: vec![], incomplete: true },
            DbMode::Oracle9,
        )
        .unwrap();
        cat.create_type(obj("Keep", &[]), DbMode::Oracle9).unwrap();
        cat.commit();
        let dump = cat.state_dump();
        let mark = cat.undo_len();
        // Complete the forward declaration, add a table + view, drop a type.
        cat.create_type(obj("Fwd", &[("a", SqlType::Number)]), DbMode::Oracle9).unwrap();
        cat.create_table(TableDef::Object {
            name: id("Tab"),
            of_type: id("Fwd"),
            constraints: vec![],
        })
        .unwrap();
        cat.create_view(ViewDef {
            name: id("V"),
            query: SelectStmt {
                distinct: false,
                items: vec![],
                star: true,
                from: vec![],
                where_clause: None,
                order_by: vec![],
            },
        })
        .unwrap();
        cat.drop_table(&id("Tab")).unwrap();
        cat.drop_type(&id("Keep"), false).unwrap();
        cat.rollback_to(mark);
        assert_eq!(cat.state_dump(), dump);
        assert!(cat.get_type(&id("Fwd")).unwrap().is_incomplete());
        assert!(cat.get_type(&id("Keep")).is_some());
    }

    #[test]
    fn names_shared_across_namespaces_rejected() {
        let mut cat = Catalog::new();
        cat.create_type(obj("X", &[]), DbMode::Oracle9).unwrap();
        let err = cat.create_table(TableDef::Relational {
            name: id("X"),
            columns: vec![],
            constraints: vec![],
            nested_table_stores: vec![],
        });
        assert!(matches!(err, Err(DbError::DuplicateName(_))));
    }

    fn rel_table(name: &str, cols: &[&str]) -> TableDef {
        TableDef::Relational {
            name: id(name),
            columns: cols
                .iter()
                .map(|c| ColumnDef { name: id(c), sql_type: SqlType::Varchar(30) })
                .collect(),
            constraints: vec![],
            nested_table_stores: vec![],
        }
    }

    fn index(name: &str, table: &str, cols: &[&str]) -> IndexDef {
        IndexDef {
            name: id(name),
            table: id(table),
            columns: cols.iter().map(|c| id(c)).collect(),
            unique: false,
            key: None,
        }
    }

    #[test]
    fn a_key_constraint_is_listed_as_an_index_before_the_declared_ones() {
        let mut cat = Catalog::new();
        let mut table = rel_table("T", &["a", "b", "c"]);
        if let TableDef::Relational { constraints, .. } = &mut table {
            *constraints = vec![
                Constraint::PrimaryKey(vec![id("a")]),
                Constraint::NotNull(id("b")),
                Constraint::Unique(vec![id("nope")]),
                Constraint::Unique(vec![id("b"), id("c")]),
            ];
        }
        cat.create_table(table).unwrap();
        cat.create_index(index("IxA", "T", &["a"])).unwrap();
        let t = id("T");
        let listed: Vec<(String, bool, String)> = cat
            .indexes_on(&t)
            .map(|idx| (idx.name.to_string(), idx.unique, idx.label()))
            .collect();
        // The ordinal counts every key constraint, also the one that gets
        // no index because it names a column the table lacks.
        assert_eq!(
            listed,
            vec![
                (key_index_name(&t, 0).to_string(), true, "T(a) PRIMARY KEY".to_string()),
                (key_index_name(&t, 2).to_string(), true, "T(b,c) UNIQUE".to_string()),
                ("IxA".to_string(), false, "IxA".to_string()),
            ]
        );
        // Derived, not stored: DROP INDEX cannot reach a key, and the
        // declared-index count, snapshot parts and undo log never see one.
        assert_eq!(cat.index_count(), 1);
        assert!(matches!(cat.drop_index(&key_index_name(&t, 0)), Err(DbError::UnknownIndex(_))));
        // Key definitions enter and leave with their table, through DDL,
        // its rollback and a snapshot restore alike.
        cat.commit();
        cat.drop_table(&t).unwrap();
        assert_eq!(cat.indexes_on(&t).count(), 0);
        cat.rollback_to(0);
        assert_eq!(cat.indexes_on(&t).count(), 3);
        let (types, tables, views, indexes, stats) = cat.snapshot_parts();
        let restored = Catalog::from_parts(
            types.clone(),
            tables.clone(),
            views.clone(),
            indexes.clone(),
            stats.clone(),
        );
        assert!(restored.indexes_on(&t).eq(cat.indexes_on(&t)));
        let mut scratch = Catalog::new();
        scratch.create_table(tables[&t].clone()).unwrap();
        scratch.rollback_to(0);
        assert_eq!(scratch.indexes_on(&t).count(), 0);
    }

    #[test]
    fn create_index_validates_table_and_columns() {
        let mut cat = Catalog::new();
        cat.create_table(rel_table("T", &["a", "b"])).unwrap();
        cat.create_index(index("IxA", "T", &["a"])).unwrap();
        assert_eq!(cat.index_count(), 1);
        assert_eq!(cat.indexes_on(&id("T")).count(), 1);
        assert!(matches!(
            cat.create_index(index("IxA", "T", &["b"])),
            Err(DbError::DuplicateName(_))
        ));
        assert!(matches!(
            cat.create_index(index("IxB", "Missing", &["a"])),
            Err(DbError::UnknownTable(_))
        ));
        assert!(matches!(
            cat.create_index(index("IxC", "T", &["nope"])),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(cat.drop_index(&id("Missing")), Err(DbError::UnknownIndex(_))));
    }

    #[test]
    fn indexes_and_stats_roll_back_but_stay_out_of_state_dump() {
        let mut cat = Catalog::new();
        cat.create_table(rel_table("T", &["a"])).unwrap();
        cat.commit();
        let dump = cat.state_dump();
        let mark = cat.undo_len();
        cat.create_index(index("Ix", "T", &["a"])).unwrap();
        cat.set_table_stats(
            id("T"),
            TableStats { rows: 7, distinct: BTreeMap::from([(id("a"), 3)]) },
        );
        // Index + stats presence must not perturb the rollback-equivalence dump.
        assert_eq!(cat.state_dump(), dump);
        cat.rollback_to(mark);
        assert_eq!(cat.index_count(), 0);
        assert!(cat.table_stats(&id("T")).is_none());
        assert_eq!(cat.state_dump(), dump);
    }

    #[test]
    fn drop_table_cascades_indexes_and_stats_and_rolls_back() {
        let mut cat = Catalog::new();
        cat.create_table(rel_table("T", &["a"])).unwrap();
        cat.create_index(index("Ix", "T", &["a"])).unwrap();
        cat.set_table_stats(id("T"), TableStats { rows: 1, distinct: BTreeMap::new() });
        cat.commit();
        let mark = cat.undo_len();
        cat.drop_table(&id("T")).unwrap();
        assert_eq!(cat.index_count(), 0);
        assert!(cat.table_stats(&id("T")).is_none());
        cat.rollback_to(mark);
        assert!(cat.get_table(&id("T")).is_some());
        assert!(cat.get_index(&id("Ix")).is_some());
        assert_eq!(cat.table_stats(&id("T")).unwrap().rows, 1);
    }
}
