//! Object views over a shredded relational schema (§6.3).
//!
//! "Let's assume a relational schema has been generated from the DTD as it
//! has been described in known mapping algorithms \[2\]. … We begin by
//! creating user-defined types from the given DTD according to the
//! methodology described in section 4. Next, we create an object view …
//! to superimpose the correct logical structure on top of a join of …
//! physical tables." Set-valued simple elements are folded in with
//! `CAST(MULTISET(…))`, exactly as the paper's closing example shows.
//!
//! The module therefore contains five pieces:
//! 1. [`relational_schema`] — the referenced "known mapping algorithm": a
//!    key-based relational shredding (one table per complex element, with
//!    `ID…` primary keys and an `IDParent` foreign key, §6.3's
//!    `tabUniversity/tabStudent/…` layout — named `Rel…` here so it can
//!    coexist with the object-relational tables),
//! 2. [`relational_load_script`] — the multi-INSERT loader for it (also the
//!    measured baseline for experiment E6's statement counts),
//! 3. [`relational_path_query`] — path queries over it, one join per table
//!    step,
//! 4. [`object_view_script`] — the `CREATE VIEW OView_… AS SELECT Type_…(…)`
//!    statement with nested constructors and `CAST(MULTISET(…))`,
//! 5. [`reconstruct_relational`] — the document back from the tables: one
//!    walk reporting `ContentSink` events over an explicit stack, with each
//!    element's table, columns and child tables resolved once per call and
//!    one keyed lookup per child table and row.

use std::collections::HashMap;

use xmlord_ordb::ident::Ident;
use xmlord_ordb::storage::{KeyedReader, Storage};
use xmlord_ordb::Value;
use xmlord_xml::{ContentSink, Document, DomBuilder, NodeId, QName};

use crate::error::MappingError;
use crate::model::{FieldKind, FieldSource, MappedSchema};
use crate::naming::{scope_with, NameGenerator, NameKind};
use crate::retriever::{content_model_order, element_qname};

/// The parent key column of every table but the root's.
const ID_PARENT: &str = "IDParent";

/// Where a relational column's value comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelColumnSource {
    /// The element's own text.
    Text,
    /// An XML attribute.
    Attribute(String),
    /// A single-valued simple child element.
    SimpleChild(String),
}

/// One table of the relational shredding.
#[derive(Debug, Clone)]
pub struct RelTable {
    pub element: String,
    pub name: String,
    /// `ID<Element>` primary key column.
    pub id_column: String,
    /// `IDParent` foreign key (None for the root's table).
    pub parent_column: Option<String>,
    pub columns: Vec<(String, RelColumnSource)>,
    /// True when this table only materializes a set-valued simple child.
    pub is_leaf_list: bool,
}

/// The key-based relational schema of §6.3.
#[derive(Debug, Clone)]
pub struct RelationalSchema {
    pub root: String,
    /// Tables in parent-before-child order.
    pub tables: Vec<RelTable>,
    /// The `OView_…` name of the object view over the tables.
    pub view: String,
}

impl RelTable {
    /// The column holding the value `source` names.
    fn column(&self, source: &RelColumnSource) -> Result<&str, MappingError> {
        let found = self.columns.iter().find(|(_, s)| s == source);
        found.map(|(name, _)| name.as_str()).ok_or_else(|| {
            MappingError::Unsupported(format!("relational table {} stores no {source:?}", self.name))
        })
    }
}

impl RelationalSchema {
    pub fn table_for(&self, element: &str) -> Option<&RelTable> {
        self.tables.iter().find(|t| t.element == element && !t.is_leaf_list)
    }

    pub fn leaf_list_for(&self, element: &str) -> Option<&RelTable> {
        self.tables.iter().find(|t| t.element == element && t.is_leaf_list)
    }
}

/// Derive the relational shredding from the same [`MappedSchema`] the
/// object view's types come from (ensuring field order matches the
/// constructors). Names come from one [`NameGenerator`]: table names are
/// unique across the schema, and each table's key and columns unique
/// within it, next to its `IDParent`.
pub fn relational_schema(schema: &MappedSchema) -> RelationalSchema {
    let mut names = NameGenerator::new();
    let mut tables = Vec::new();
    // Parent-first order: reverse of the bottom-up creation order.
    for element in schema.creation_order.iter().rev() {
        let mapping = &schema.elements[element];
        if mapping.object_type.is_none() {
            continue;
        }
        let mut columns = Vec::new();
        for field in &mapping.fields {
            match (&field.source, &field.kind) {
                (FieldSource::Text, _) => columns.push(RelColumnSource::Text),
                (FieldSource::XmlAttribute(a), _) => {
                    columns.push(RelColumnSource::Attribute(a.clone()))
                }
                (FieldSource::AttrList, _) => {
                    // Infallible by construction: schemagen only emits an
                    // AttrList field alongside the attr_list mapping, and
                    // maplint's MAP020 checks the invariant statically for
                    // hand-built schemas.
                    let Some(attr_list) = mapping.attr_list.as_ref() else { continue };
                    for f in &attr_list.fields {
                        columns.push(RelColumnSource::Attribute(f.xml_attribute.clone()));
                    }
                }
                (FieldSource::ChildElement(c), FieldKind::Scalar(_)) => {
                    columns.push(RelColumnSource::SimpleChild(c.clone()))
                }
                _ => {} // complex / set-valued children live in their own tables
            }
        }
        let is_root = element == &schema.root_element;
        tables.push(rel_table(&mut names, element, is_root, columns, false));
        // Set-valued simple children get list tables.
        for field in &mapping.fields {
            if let (FieldSource::ChildElement(c), FieldKind::ScalarCollection(_)) =
                (&field.source, &field.kind)
            {
                if !tables.iter().any(|t: &RelTable| t.element == *c && t.is_leaf_list) {
                    tables.push(rel_table(&mut names, c, false, vec![RelColumnSource::Text], true));
                }
            }
        }
    }
    let view = names.global(NameKind::ObjectView, &schema.root_element);
    RelationalSchema { root: schema.root_element.clone(), tables, view }
}

/// One table of [`relational_schema`], its columns named after their
/// sources: the element's text `attr<element>`, an attribute
/// `attr<attribute>`, a simple child `attr<child>`.
fn rel_table(
    names: &mut NameGenerator,
    element: &str,
    is_root: bool,
    sources: Vec<RelColumnSource>,
    is_leaf_list: bool,
) -> RelTable {
    let parent_column = (!is_root).then(|| ID_PARENT.to_string());
    let mut scope = scope_with(if is_root { &[] } else { &[ID_PARENT] });
    let id_column = names.scoped(NameKind::IdAttr, element, &mut scope);
    let columns = sources
        .into_iter()
        .map(|source| {
            let (kind, xml_name) = match &source {
                RelColumnSource::Text => (NameKind::AttrFromElement, element),
                RelColumnSource::Attribute(a) => (NameKind::AttrFromAttribute, a.as_str()),
                RelColumnSource::SimpleChild(c) => (NameKind::AttrFromElement, c.as_str()),
            };
            (names.scoped(kind, xml_name, &mut scope), source)
        })
        .collect();
    RelTable {
        element: element.to_string(),
        name: names.global(NameKind::RelTable, element),
        id_column,
        parent_column,
        columns,
        is_leaf_list,
    }
}

/// DDL for the relational schema.
pub fn relational_ddl(rel: &RelationalSchema, varchar_len: u32) -> String {
    let mut out = String::new();
    for table in &rel.tables {
        let mut cols = vec![format!("    {} NUMBER PRIMARY KEY", table.id_column)];
        if let Some(parent) = &table.parent_column {
            cols.push(format!("    {parent} NUMBER"));
        }
        for (name, _) in &table.columns {
            cols.push(format!("    {name} VARCHAR({varchar_len})"));
        }
        out.push_str(&format!("CREATE TABLE {} (\n{}\n);\n", table.name, cols.join(",\n")));
    }
    out
}

/// Shred a document into INSERT statements for the relational schema.
/// Returns the statements — their *count* is the E6 metric the paper's §1
/// criticizes ("a large number of relational insert operations").
pub fn relational_load_script(
    schema: &MappedSchema,
    rel: &RelationalSchema,
    doc: &Document,
) -> Result<Vec<String>, MappingError> {
    let root = doc
        .root_element()
        .ok_or_else(|| MappingError::Unsupported("document has no root".into()))?;
    let mut out = Vec::new();
    let mut next_id = 0u64;
    shred(schema, rel, doc, root, None, &mut next_id, &mut out)?;
    Ok(out)
}

fn shred(
    schema: &MappedSchema,
    rel: &RelationalSchema,
    doc: &Document,
    node: NodeId,
    parent_id: Option<u64>,
    next_id: &mut u64,
    out: &mut Vec<String>,
) -> Result<(), MappingError> {
    let element = doc.name(node).as_raw();
    let mapping = schema
        .mapping(element)
        .ok_or_else(|| MappingError::UndeclaredElement(element.to_string()))?;
    let q = |s: &str| format!("'{}'", s.replace('\'', "''"));

    if mapping.object_type.is_some() {
        let table = rel.table_for(element).ok_or_else(|| {
            MappingError::Unsupported(format!("no relational table for <{element}>"))
        })?;
        *next_id += 1;
        let my_id = *next_id;
        let mut values = vec![my_id.to_string()];
        if table.parent_column.is_some() {
            values.push(parent_id.map(|p| p.to_string()).unwrap_or_else(|| "NULL".into()));
        }
        for (_, source) in &table.columns {
            let value = match source {
                RelColumnSource::Text => Some(crate::loader::direct_text(doc, node)),
                RelColumnSource::Attribute(a) => doc.attribute(node, a).map(str::to_string),
                RelColumnSource::SimpleChild(c) => doc
                    .first_child_tagged(node, c)
                    .map(|child| crate::loader::direct_text(doc, child)),
            };
            values.push(value.map(|v| q(&v)).unwrap_or_else(|| "NULL".into()));
        }
        out.push(format!("INSERT INTO {} VALUES ({})", table.name, values.join(", ")));
        // Recurse into complex and set-valued children.
        for child in doc.child_elements(node) {
            let child_name = doc.name(child).as_raw();
            let child_mapping = schema
                .mapping(child_name)
                .ok_or_else(|| MappingError::UndeclaredElement(child_name.to_string()))?;
            let field = mapping.field_for_child(child_name);
            let as_column =
                matches!(field.map(|f| &f.kind), Some(FieldKind::Scalar(_)))
                    && child_mapping.object_type.is_none();
            if as_column {
                continue; // already inlined
            }
            if child_mapping.object_type.is_some() {
                shred(schema, rel, doc, child, Some(my_id), next_id, out)?;
            } else {
                // Set-valued simple child → leaf list table.
                let list = rel.leaf_list_for(child_name).ok_or_else(|| {
                    MappingError::Unsupported(format!("no list table for <{child_name}>"))
                })?;
                *next_id += 1;
                out.push(format!(
                    "INSERT INTO {} VALUES ({}, {}, {})",
                    list.name,
                    *next_id,
                    my_id,
                    q(&crate::loader::direct_text(doc, child)),
                ));
            }
        }
        Ok(())
    } else {
        Err(MappingError::Unsupported(format!(
            "<{element}> cannot be shredded as a row (simple element)"
        )))
    }
}

/// Translate a path query against the relational schema, as \[2\]-style
/// systems do: one join per table step along the parent keys. The result
/// and predicate paths share their common prefix, so the predicate
/// constrains the same rows the result is read from.
pub fn relational_path_query(
    rel: &RelationalSchema,
    steps: &[&str],
    predicate: Option<(&[&str], &str)>,
) -> Result<String, MappingError> {
    let mut b = RelQueryBuilder { rel, from: Vec::new(), wheres: Vec::new(), next: 0 };
    let root_cursor = (b.join(&rel.root, None), rel.root.clone());
    let expr = match predicate {
        None => b.descend(root_cursor, steps)?,
        Some((path, value)) => {
            let shared = steps
                .iter()
                .zip(path.iter())
                .take_while(|(a, b)| a == b)
                .count()
                .min(steps.len().saturating_sub(1))
                .min(path.len().saturating_sub(1));
            let mut cursor = root_cursor;
            for step in &steps[..shared] {
                cursor = b.advance(cursor, step);
            }
            let expr = b.descend(cursor.clone(), &steps[shared..])?;
            let pred_expr = b.descend(cursor, &path[shared..])?;
            b.wheres.push(format!("{pred_expr} = '{}'", value.replace('\'', "''")));
            expr
        }
    };
    let mut sql = format!("SELECT DISTINCT {expr} FROM {}", b.from.join(", "));
    if !b.wheres.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&b.wheres.join(" AND "));
    }
    Ok(sql)
}

/// FROM items and join conditions of one [`relational_path_query`]; a
/// cursor is (alias, element) of the row the walk stands on.
struct RelQueryBuilder<'a> {
    rel: &'a RelationalSchema,
    from: Vec<String>,
    wheres: Vec<String>,
    next: usize,
}

impl RelQueryBuilder<'_> {
    fn alias(&mut self, table: &str) -> String {
        let alias = format!("r{}", self.next);
        self.next += 1;
        self.from.push(format!("{table} {alias}"));
        alias
    }

    /// Join the table of `element` (which has one) below `parent`.
    fn join(&mut self, element: &str, parent: Option<&(String, String)>) -> String {
        let table = self.rel.table_for(element).expect("element has a table").name.clone();
        let alias = self.alias(&table);
        if let Some(parent) = parent {
            self.join_parent(&alias, parent);
        }
        alias
    }

    fn join_parent(&mut self, alias: &str, (parent_alias, parent_element): &(String, String)) {
        let parent_table = self.rel.table_for(parent_element).expect("cursor has a table");
        self.wheres.push(format!("{alias}.{ID_PARENT} = {parent_alias}.{}", parent_table.id_column));
    }

    /// `alias.column` for the column of the table under `cursor` holding
    /// `source`.
    fn column(
        &self,
        (alias, element): &(String, String),
        source: RelColumnSource,
    ) -> Result<String, MappingError> {
        let table = self.rel.table_for(element).expect("cursor has a table");
        Ok(format!("{alias}.{}", table.column(&source)?))
    }

    /// Advance one element step: a table step joins, an inlined step stays
    /// on the current row (its columns carry the name).
    fn advance(&mut self, cursor: (String, String), step: &str) -> (String, String) {
        if self.rel.table_for(step).is_some() {
            (self.join(step, Some(&cursor)), step.to_string())
        } else {
            cursor
        }
    }

    fn descend(
        &mut self,
        mut cursor: (String, String),
        steps: &[&str],
    ) -> Result<String, MappingError> {
        for step in steps {
            if let Some(attr) = step.strip_prefix('@') {
                return self.column(&cursor, RelColumnSource::Attribute(attr.to_string()));
            }
            if self.rel.table_for(step).is_some() {
                cursor = self.advance(cursor, step);
            } else if let Some(list) = self.rel.leaf_list_for(step) {
                let (table, column) = (list.name.clone(), list.columns[0].0.clone());
                let alias = self.alias(&table);
                self.join_parent(&alias, &cursor);
                return Ok(format!("{alias}.{column}"));
            } else {
                // Inlined simple child: a column on the current table.
                return self.column(&cursor, RelColumnSource::SimpleChild(step.to_string()));
            }
        }
        Ok(cursor.0)
    }
}

/// Generate the §6.3 `CREATE VIEW OView_… AS SELECT Type_…(…) AS <Root>
/// FROM …` statement over the relational schema.
pub fn object_view_script(
    schema: &MappedSchema,
    rel: &RelationalSchema,
) -> Result<String, MappingError> {
    let mut gen = ViewGen { schema, rel, next_alias: 0 };
    let root_table = rel.table_for(&schema.root_element).ok_or_else(|| {
        MappingError::Unsupported("no relational table for the root".into())
    })?;
    let alias = gen.fresh();
    let expr = gen.constructor(&schema.root_element, &alias)?;
    Ok(format!(
        "CREATE VIEW {} AS SELECT {expr} AS {} FROM {} {alias}",
        rel.view,
        crate::naming::sanitize(&schema.root_element),
        root_table.name,
    ))
}

struct ViewGen<'a> {
    schema: &'a MappedSchema,
    rel: &'a RelationalSchema,
    next_alias: u32,
}

impl<'a> ViewGen<'a> {
    fn fresh(&mut self) -> String {
        self.next_alias += 1;
        format!("v{}", self.next_alias)
    }

    /// `Type_X(arg, …)` with nested constructors and MULTISETs, evaluated
    /// relative to `alias` (a row of the element's relational table).
    fn constructor(&mut self, element: &str, alias: &str) -> Result<String, MappingError> {
        let mapping = self
            .schema
            .mapping(element)
            .ok_or_else(|| MappingError::UndeclaredElement(element.to_string()))?;
        let type_name = mapping
            .object_type
            .clone()
            .ok_or_else(|| MappingError::Unsupported(format!("<{element}> has no object type")))?;
        let table = self.rel.table_for(element).ok_or_else(|| {
            MappingError::Unsupported(format!("no relational table for <{element}>"))
        })?;
        let mut args = Vec::new();
        for field in &mapping.fields {
            match (&field.source, &field.kind) {
                (FieldSource::SyntheticId, _) => args.push(format!("{alias}.{}", table.id_column)),
                (FieldSource::Text, _) => {
                    args.push(format!("{alias}.{}", table.column(&RelColumnSource::Text)?))
                }
                (FieldSource::XmlAttribute(a), _) => {
                    let column = table.column(&RelColumnSource::Attribute(a.clone()))?;
                    args.push(format!("{alias}.{column}"))
                }
                (FieldSource::AttrList, FieldKind::Object(attr_list_type)) => {
                    let attr_list = mapping.attr_list.as_ref().ok_or_else(|| {
                        MappingError::MalformedMapping(format!(
                            "<{}> has an attrList field but no attribute-list mapping",
                            mapping.element
                        ))
                    })?;
                    let mut inner = Vec::new();
                    for f in &attr_list.fields {
                        let source = RelColumnSource::Attribute(f.xml_attribute.clone());
                        inner.push(format!("{alias}.{}", table.column(&source)?));
                    }
                    args.push(format!("{attr_list_type}({})", inner.join(", ")));
                }
                (FieldSource::ChildElement(c), FieldKind::Scalar(_)) => {
                    let column = table.column(&RelColumnSource::SimpleChild(c.clone()))?;
                    args.push(format!("{alias}.{column}"))
                }
                (FieldSource::ChildElement(c), FieldKind::ScalarCollection(collection)) => {
                    // §6.3's closing example: CAST(MULTISET(SELECT …)).
                    let list = self.rel.leaf_list_for(c).ok_or_else(|| {
                        MappingError::Unsupported(format!("no list table for <{c}>"))
                    })?;
                    let inner_alias = self.fresh();
                    let text_col = &list.columns[0].0;
                    args.push(format!(
                        "CAST(MULTISET(SELECT {inner_alias}.{text_col} FROM {} {inner_alias} \
                         WHERE {alias}.{} = {inner_alias}.{ID_PARENT}) AS {collection})",
                        list.name, table.id_column,
                    ));
                }
                (FieldSource::ChildElement(c), FieldKind::Object(_)) => {
                    // Single-valued complex child: correlated scalar subquery
                    // building the nested object.
                    let inner_alias = self.fresh();
                    let child_table = self.rel.table_for(c).ok_or_else(|| {
                        MappingError::Unsupported(format!("no relational table for <{c}>"))
                    })?;
                    let inner_expr = self.constructor(c, &inner_alias)?;
                    args.push(format!(
                        "(SELECT {inner_expr} FROM {} {inner_alias} \
                         WHERE {inner_alias}.{ID_PARENT} = {alias}.{})",
                        child_table.name, table.id_column,
                    ));
                }
                (
                    FieldSource::ChildElement(c),
                    FieldKind::ObjectCollection { collection, .. },
                ) => {
                    let inner_alias = self.fresh();
                    let child_table = self.rel.table_for(c).ok_or_else(|| {
                        MappingError::Unsupported(format!("no relational table for <{c}>"))
                    })?;
                    let inner_expr = self.constructor(c, &inner_alias)?;
                    args.push(format!(
                        "CAST(MULTISET(SELECT {inner_expr} FROM {} {inner_alias} \
                         WHERE {inner_alias}.{ID_PARENT} = {alias}.{}) AS {collection})",
                        child_table.name, table.id_column,
                    ));
                }
                (FieldSource::ChildElement(c), _) => {
                    return Err(MappingError::Unsupported(format!(
                        "object views do not support REF-mapped child <{c}> (recursive schemas)"
                    )))
                }
                (FieldSource::ParentRef(_), _) => {
                    return Err(MappingError::Unsupported(
                        "object views require an Oracle 9 style mapping".into(),
                    ))
                }
                (FieldSource::AttrList, _) => unreachable!("attrList fields are Object-kinded"),
            }
        }
        Ok(format!("{type_name}({})", args.join(", ")))
    }
}

// ------------------------------------------------------- reconstruction --

/// Rebuild the document stored by [`relational_load_script`]. Like the
/// object-relational retriever and the `xmlord-shred` reconstructors, one
/// walk reports the document as [`ContentSink`] events over an explicit
/// stack (built into a DOM here with a [`DomBuilder`]), reading child rows
/// through [`KeyedReader`] lookups (`IDParent = parent`); `bulk` only picks
/// how the reader answers them. The table, columns and child tables of
/// every element the mapping reaches from the root are resolved once per
/// call, and values are borrowed from the stored blocks. The loader
/// assigns row IDs in a pre-order walk, so ascending ID within one parent
/// is document order; each element's children are put in content-model
/// order before they are written.
pub fn reconstruct_relational(
    schema: &MappedSchema,
    rel: &RelationalSchema,
    storage: &Storage,
    bulk: bool,
) -> Result<Document, MappingError> {
    let mut builder = DomBuilder::new();
    relational_walk(schema, rel, storage, bulk, &mut builder)?;
    Ok(builder.finish())
}

const REL_ID: usize = 0;
const REL_PARENT: usize = 1;

/// The walk's plan: one shape per element the mapping reaches from the
/// root (the root's first), and the names and readers the shapes share.
#[derive(Default)]
struct RelPlan<'a> {
    names: Vec<QName>,
    name_ids: HashMap<&'a str, usize>,
    shapes: Vec<RelShape<'a>>,
    /// Per `Rel*` table: its rows keyed on `IDParent`. Heap order within
    /// one parent is ascending ID, the loader's pre-order.
    readers: Vec<KeyedReader<'a>>,
    reader_ids: HashMap<&'a str, usize>,
}

/// An element's table.
struct RelShape<'a> {
    name: usize,
    table: &'a str,
    /// The inlined columns (text, attributes, scalar children), by row
    /// position.
    columns: Vec<(usize, RelColumn<'a>)>,
    /// Complex and set-valued children, which live in their own tables.
    children: Vec<RelChild>,
}

#[derive(Clone, Copy)]
enum RelColumn<'a> {
    Text,
    Attribute(&'a str),
    /// A scalar child element: its name and content-model position.
    Simple(usize, Option<usize>),
}

/// A child table, read through `reader`.
struct RelChild {
    reader: usize,
    /// The child's content-model position.
    order: Option<usize>,
    kind: RelChildKind,
}

#[derive(Clone, Copy)]
enum RelChildKind {
    /// A list table row per set-valued simple child, of this name.
    List(usize),
    /// A row per complex child, of this shape.
    Rows(usize),
}

impl<'a> RelPlan<'a> {
    fn new(
        schema: &'a MappedSchema,
        rel: &'a RelationalSchema,
        storage: &'a Storage,
        bulk: bool,
    ) -> Result<RelPlan<'a>, MappingError> {
        let mut plan = RelPlan::default();
        // Elements in the order their shapes are built: a shape's index is
        // its element's position here.
        let mut elements: Vec<&'a str> = vec![&schema.root_element];
        let mut shape_ids: HashMap<&'a str, usize> = HashMap::new();
        shape_ids.insert(&schema.root_element, 0);
        while let Some(&element) = elements.get(plan.shapes.len()) {
            let mapping = schema
                .mapping(element)
                .ok_or_else(|| MappingError::UndeclaredElement(element.to_string()))?;
            let table = rel.table_for(element).ok_or_else(|| {
                MappingError::Unsupported(format!("no relational table for <{element}>"))
            })?;
            let order = |child: &str| mapping.child_order.iter().position(|n| n == child);
            let base = 1 + usize::from(table.parent_column.is_some());
            let mut columns = Vec::with_capacity(table.columns.len());
            for (i, (_, source)) in table.columns.iter().enumerate() {
                let column = match source {
                    RelColumnSource::Text => RelColumn::Text,
                    RelColumnSource::Attribute(a) => RelColumn::Attribute(a),
                    RelColumnSource::SimpleChild(c) => RelColumn::Simple(plan.name(c), order(c)),
                };
                columns.push((base + i, column));
            }
            let mut children = Vec::new();
            for field in &mapping.fields {
                let FieldSource::ChildElement(child) = &field.source else { continue };
                let (child_table, kind) = match &field.kind {
                    FieldKind::Scalar(_) => continue, // an inlined column
                    FieldKind::ScalarCollection(_) => {
                        let list = rel.leaf_list_for(child).ok_or_else(|| {
                            MappingError::Unsupported(format!("no list table for <{child}>"))
                        })?;
                        (list, RelChildKind::List(plan.name(child)))
                    }
                    _ => {
                        // Object, ObjectCollection, Ref, RefCollection: the
                        // loader shreds them all as rows keyed by IDParent.
                        let rows = rel.table_for(child).ok_or_else(|| {
                            MappingError::Unsupported(format!("no relational table for <{child}>"))
                        })?;
                        let next = elements.len();
                        let shape = *shape_ids.entry(child).or_insert_with(|| {
                            elements.push(child);
                            next
                        });
                        (rows, RelChildKind::Rows(shape))
                    }
                };
                let reader = plan.reader(storage, child_table, bulk)?;
                children.push(RelChild { reader, order: order(child), kind });
            }
            let name = plan.name(element);
            plan.shapes.push(RelShape { name, table: &table.name, columns, children });
        }
        Ok(plan)
    }

    fn name(&mut self, element: &'a str) -> usize {
        *self.name_ids.entry(element).or_insert_with(|| {
            self.names.push(element_qname(element));
            self.names.len() - 1
        })
    }

    fn reader(
        &mut self,
        storage: &'a Storage,
        table: &'a RelTable,
        bulk: bool,
    ) -> Result<usize, MappingError> {
        if let Some(&reader) = self.reader_ids.get(table.name.as_str()) {
            return Ok(reader);
        }
        let reader = storage
            .keyed_reader(&Ident::internal(&table.name), REL_PARENT, bulk)
            .ok_or_else(|| missing_table(table))?;
        self.readers.push(reader);
        self.reader_ids.insert(&table.name, self.readers.len() - 1);
        Ok(self.readers.len() - 1)
    }
}

fn missing_table(table: &RelTable) -> MappingError {
    MappingError::InconsistentMapping(format!("relational table {} is missing", table.name))
}

#[derive(Clone, Copy)]
enum RelTask<'a> {
    /// A table row of the element with this shape.
    Row(usize, &'a [Value]),
    /// A simple child element with the name of this index, and its text.
    Simple(usize, &'a str),
    Text(&'a str),
    End(usize),
}

/// One child of the element being written, with its content-model
/// position (`None` for text).
#[derive(Clone, Copy)]
struct RelItem<'a> {
    order: Option<usize>,
    task: RelTask<'a>,
}

fn relational_walk(
    schema: &MappedSchema,
    rel: &RelationalSchema,
    storage: &Storage,
    bulk: bool,
    sink: &mut impl ContentSink,
) -> Result<(), MappingError> {
    let root_table = rel.table_for(&schema.root_element).ok_or_else(|| {
        MappingError::Unsupported("no relational table for the root".into())
    })?;
    let root_rows = storage
        .table(&Ident::internal(&root_table.name))
        .ok_or_else(|| missing_table(root_table))?;
    let root_row = root_rows
        .rows
        .first()
        .ok_or_else(|| MappingError::NoSuchDocument(schema.root_element.clone()))?;
    let RelPlan { names, shapes, mut readers, .. } = RelPlan::new(schema, rel, storage, bulk)?;
    let mut stack = vec![RelTask::Row(0, &root_row.values)];
    let mut items: Vec<RelItem> = Vec::new();
    let mut moved = Vec::new();
    while let Some(task) = stack.pop() {
        let (shape, row) = match task {
            RelTask::Row(shape, row) => (&shapes[shape], row),
            RelTask::Simple(name, text) => {
                sink.start_element(&names[name]);
                if !text.is_empty() {
                    sink.text(text);
                }
                sink.end_element(&names[name]);
                continue;
            }
            RelTask::Text(text) => {
                sink.text(text);
                continue;
            }
            RelTask::End(name) => {
                sink.end_element(&names[name]);
                continue;
            }
        };
        let my_key = row.get(REL_ID).and_then(Value::as_num).map(Value::Num).ok_or_else(|| {
            MappingError::InconsistentMapping(format!("{} row without an ID", shape.table))
        })?;
        sink.start_element(&names[shape.name]);
        // Inlined columns: attributes are written at once, text and scalar
        // children become items.
        for &(col, column) in &shape.columns {
            let Some(value) = row.get(col).and_then(Value::as_str) else { continue };
            match column {
                RelColumn::Text if value.is_empty() => {}
                RelColumn::Text => items.push(RelItem { order: None, task: RelTask::Text(value) }),
                RelColumn::Attribute(attr) => sink.attribute(attr, value),
                RelColumn::Simple(name, order) => {
                    items.push(RelItem { order, task: RelTask::Simple(name, value) })
                }
            }
        }
        for child in &shape.children {
            let reader = &mut readers[child.reader];
            let rows = reader.rows();
            for slot in reader.each_slot(&my_key) {
                let values = rows[slot].values.as_slice();
                let task = match child.kind {
                    RelChildKind::List(name) => {
                        let text = values.get(REL_PARENT + 1).and_then(Value::as_str);
                        RelTask::Simple(name, text.unwrap_or_default())
                    }
                    RelChildKind::Rows(shape) => RelTask::Row(shape, values),
                };
                items.push(RelItem { order: child.order, task });
            }
        }
        content_model_order(&mut items, &mut moved, |item| item.order);
        stack.push(RelTask::End(shape.name));
        stack.extend(items.drain(..).rev().map(|item| item.task));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddlgen::types_script;
    use crate::model::MappingOptions;
    use crate::schemagen::{generate_schema, IdrefTargets};
    use xmlord_dtd::parse_dtd;
    use xmlord_ordb::{Database, DbMode, Value};

    const UNIVERSITY_DTD: &str = r#"
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ELEMENT LName (#PCDATA)> <!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)> <!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)> <!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)> <!ELEMENT CreditPts (#PCDATA)>
"#;

    const XML: &str = "<University><StudyCourse>CS</StudyCourse>\
<Student StudNr=\"1\"><LName>Conrad</LName><FName>M</FName>\
<Course><Name>DBS</Name><Professor><PName>Kudrass</PName>\
<Subject>DBS</Subject><Subject>OS</Subject><Dept>CS</Dept></Professor>\
<CreditPts>4</CreditPts></Course></Student>\
<Student StudNr=\"2\"><LName>Meier</LName><FName>R</FName></Student></University>";

    fn fixture() -> (Database, MappedSchema, RelationalSchema, Vec<String>) {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let doc = xmlord_xml::parse(XML).unwrap();
        let schema = generate_schema(
            &dtd,
            "University",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        let rel = relational_schema(&schema);
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&types_script(&schema).unwrap()).unwrap();
        db.execute_script(&relational_ddl(&rel, 4000)).unwrap();
        let inserts = relational_load_script(&schema, &rel, &doc).unwrap();
        for stmt in &inserts {
            db.execute(stmt).unwrap_or_else(|e| panic!("{e}\nSTMT: {stmt}"));
        }
        (db, schema, rel, inserts)
    }

    #[test]
    fn relational_shredding_produces_many_inserts() {
        let (db, _, rel, inserts) = fixture();
        // 1 university + 2 students + 1 course + 1 professor + 2 subjects.
        assert_eq!(inserts.len(), 7, "{inserts:#?}");
        assert!(rel.tables.len() >= 5);
        assert_eq!(db.storage().total_rows(), 7);
    }

    #[test]
    fn relational_tables_hold_the_shredded_data() {
        let (mut db, _, _, _) = fixture();
        assert_eq!(db.row_count("RelStudent"), 2);
        assert_eq!(db.row_count("RelSubject"), 2);
        let rows = db
            .query("SELECT s.attrLName FROM RelStudent s WHERE s.attrStudNr = '1'")
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]]);
    }

    #[test]
    fn object_view_superimposes_the_logical_structure() {
        let (mut db, schema, rel, _) = fixture();
        let view_sql = object_view_script(&schema, &rel).unwrap();
        assert!(view_sql.starts_with("CREATE VIEW OView_University AS SELECT Type_University("));
        assert!(view_sql.contains("CAST(MULTISET(SELECT"), "{view_sql}");
        db.execute(&view_sql).unwrap_or_else(|e| panic!("{e}\n{view_sql}"));
        // Navigate the view column with dot notation, like §6.3 promises.
        let rows = db
            .query("SELECT v.University.attrStudyCourse FROM OView_University v")
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("CS")]]);
        // Collections inside the view work too.
        let rows = db
            .query(
                "SELECT s.attrLName FROM OView_University v, TABLE(v.University.attrStudent) s \
                 WHERE s.attrStudNr = '1'",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]]);
        // Deep navigation through two MULTISET levels.
        let rows = db
            .query(
                "SELECT p.attrPName FROM OView_University v, TABLE(v.University.attrStudent) s, \
                 TABLE(s.attrCourse) c, TABLE(c.attrProfessor) p",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Kudrass")]]);
    }

    #[test]
    fn view_subjects_multiset_collects_per_professor() {
        let (mut db, schema, rel, _) = fixture();
        db.execute(&object_view_script(&schema, &rel).unwrap()).unwrap();
        let rows = db
            .query(
                "SELECT x.COLUMN_VALUE FROM OView_University v, TABLE(v.University.attrStudent) s, \
                 TABLE(s.attrCourse) c, TABLE(c.attrProfessor) p, TABLE(p.attrSubject) x",
            )
            .unwrap();
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn relational_reconstruction_round_trips_both_paths() {
        use xmlord_xml::serializer::{serialize, SerializeOptions};
        let (db, schema, rel, _) = fixture();
        let canonical =
            serialize(&xmlord_xml::parse(XML).unwrap(), &SerializeOptions::compact());
        let storage = db.storage();
        for bulk in [false, true] {
            let restored = reconstruct_relational(&schema, &rel, &storage, bulk).unwrap();
            assert_eq!(
                serialize(&restored, &SerializeOptions::compact()),
                canonical,
                "bulk={bulk}"
            );
        }
    }

    #[test]
    fn relational_reconstruction_uses_parent_indexes_when_present() {
        use xmlord_xml::serializer::{serialize, SerializeOptions};
        let (mut db, schema, rel, _) = fixture();
        for (n, table) in rel.tables.iter().enumerate() {
            if table.parent_column.is_some() {
                db.execute(&format!(
                    "CREATE INDEX IxRel{n:02} ON {} (IDParent)",
                    table.name
                ))
                .unwrap();
            }
        }
        let canonical =
            serialize(&xmlord_xml::parse(XML).unwrap(), &SerializeOptions::compact());
        let storage = db.storage();
        let restored = reconstruct_relational(&schema, &rel, &storage, true).unwrap();
        assert_eq!(serialize(&restored, &SerializeOptions::compact()), canonical);
    }

    #[test]
    fn recursive_schemas_are_rejected_for_views() {
        let dtd = parse_dtd(
            r#"<!ELEMENT Professor (PName,Dept)>
               <!ELEMENT Dept (DName,Professor*)>
               <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>"#,
        )
        .unwrap();
        let schema = generate_schema(
            &dtd,
            "Professor",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        let rel = relational_schema(&schema);
        assert!(matches!(
            object_view_script(&schema, &rel),
            Err(MappingError::Unsupported(_))
        ));
    }
}
