//! Document loading: XML document → bound INSERT operations.
//!
//! §4.1/§4.2: in Oracle 9 mode a whole document becomes **one** INSERT
//! statement whose nested constructor calls mirror the document tree
//! ("Using an object-relational approach requires a single INSERT query for
//! one document"). Table-rooted elements — the Oracle 8 workaround, §6.2
//! recursion targets, §4.4 ID targets — get their own INSERTs wired together
//! through the synthetic ID attributes the paper introduces "for the sole
//! purpose of simplifying the generation of INSERT operations".
//!
//! The loader builds SQL *ASTs* ([`LoadOp`]) as the single source of truth.
//! A REF to another row is a [`KeyRef`] — the target table, the key's path
//! and the key — not a SELECT: the loader knows the parent's key as it
//! emits the child, the way XML-DBMS's `CandidateKey`/`ForeignKey` maps
//! hand a child its parent's key, so the engine answers it with one probe
//! of the key's index instead of planning a query per row.
//!
//! A document's rows come out grouped by table, one document pass into
//! per-table row sets (Atay et al.'s DOM-based shredding): the groups
//! follow the schema's load order ([`ElementMapping::load_group`], computed
//! once when the schema is generated), in which every table a key REF names
//! comes before the tables whose rows hold it — Oracle 8's University,
//! Student, Course, Professor. Within a table the rows keep document
//! order, which is all retrieval reads; order across tables carries no
//! information.
//!
//! [`load_script`] prints the operations back to the paper-faithful SQL
//! text, each key REF as the `(SELECT REF(x) FROM Tab x WHERE x.ID = 'id')`
//! it means ("This script can be executed afterwards without any
//! modification", §4); [`plan_batches`] groups consecutive same-table ops
//! into [`InsertBatch`]es for the engine's bulk path — so an Oracle 8
//! document reaches the engine as one batch per table, with the same rows
//! in the same order and the same database state as its script.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use xmlord_dtd::ast::{AttType, Dtd};
use xmlord_ordb::sql::ast::{Expr, KeyRef, Stmt};
use xmlord_ordb::sql::printer::print_stmt;
use xmlord_ordb::{Ident, InsertBatch, Value};
use xmlord_xml::{Document, NodeId, NodeKind};

use crate::error::MappingError;
use crate::model::{ElementMapping, FieldKind, FieldMapping, FieldSource, MappedSchema};

/// One bound operation of a document load, in execution order.
#[derive(Debug, Clone)]
pub enum LoadOp {
    /// `INSERT INTO table VALUES (values…)`. `ref_tables` lists the tables
    /// the row's key REFs read — the batcher splits on them so every key
    /// REF still sees its target row already applied.
    Insert { table: Ident, values: Vec<Expr>, ref_tables: Vec<Ident> },
    /// Post-insert IDREF wiring (`UPDATE … SET … = <key REF>`),
    /// run after every row exists so forward references resolve.
    Update(Stmt),
}

impl LoadOp {
    /// The operation as paper-style SQL text.
    pub fn to_sql(&self) -> String {
        match self {
            LoadOp::Insert { table, values, .. } => print_stmt(&Stmt::Insert {
                table: table.clone(),
                columns: None,
                values: values.clone(),
            }),
            LoadOp::Update(stmt) => print_stmt(stmt),
        }
    }
}

/// One unit of a batched load plan ([`plan_batches`]).
#[derive(Debug, Clone)]
pub enum LoadUnit {
    /// Consecutive same-table INSERTs, executed through
    /// [`xmlord_ordb::Database::execute_batch`].
    Batch(InsertBatch),
    /// A statement executed individually (IDREF UPDATEs).
    Stmt(Stmt),
}

/// Generate the bound operations that store `doc` under `doc_id`.
///
/// The INSERTs come grouped by table, the groups in the schema's load
/// order (each table-rooted element's [`ElementMapping::load_group`]), so
/// every key REF finds its target row already inserted. The tables of one
/// key-REF cycle (§6.2 recursion) share a group, in which rows keep
/// document order: ref-held children (recursion, ID targets) before the
/// row that holds them, Oracle 8 inverted children after their parent.
/// Within a table the rows are always in document order. The deferred
/// IDREF `UPDATE`s come last.
pub fn load_ops(
    schema: &MappedSchema,
    dtd: &Dtd,
    doc: &Document,
    doc_id: &str,
) -> Result<Vec<LoadOp>, MappingError> {
    let root_node = doc
        .root_element()
        .ok_or_else(|| MappingError::Unsupported("document has no root element".into()))?;
    let root_name = doc.name(root_node).as_raw();
    if root_name != schema.root_element {
        return Err(MappingError::Unsupported(format!(
            "document root <{root_name}> does not match the mapped root <{}>",
            schema.root_element
        )));
    }
    let mut loader = Loader {
        schema,
        dtd,
        doc,
        doc_id,
        groups: Vec::new(),
        pending_updates: Vec::new(),
        ref_frames: Vec::new(),
        next_id: 0,
        idents: HashMap::new(),
    };
    loader.emit_rooted(root_node, None)?;
    // IDREF wiring runs after every row exists, so forward references
    // (an IDREF pointing at an ID that appears later in the document)
    // resolve correctly.
    let rows: usize = loader.groups.iter().map(Vec::len).sum();
    let mut ops = Vec::with_capacity(rows + loader.pending_updates.len());
    for group in loader.groups {
        ops.extend(group);
    }
    ops.extend(loader.pending_updates);
    Ok(ops)
}

/// Generate the INSERT statements that store `doc` under `doc_id` as SQL
/// text — [`load_ops`] printed one statement per operation.
pub fn load_script(
    schema: &MappedSchema,
    dtd: &Dtd,
    doc: &Document,
    doc_id: &str,
) -> Result<Vec<String>, MappingError> {
    Ok(load_ops(schema, dtd, doc, doc_id)?.iter().map(LoadOp::to_sql).collect())
}

/// Group a load's operations into batches of *consecutive* same-table
/// INSERTs. Keeping the global statement order (a batch never absorbs a
/// later row across an intervening other-table row) means the batched load
/// allocates OIDs in exactly the per-statement order — the resulting
/// database state is byte-identical to the text path. Since [`load_ops`]
/// emits a document's rows grouped by table, a run is a whole table's rows
/// (one batch per table for an Oracle 8 document). Two things close the
/// open batch early: a row whose key REFs reference the open batch's own
/// table (§6.2 recursion — the target row must be applied first), and an
/// UPDATE.
pub fn plan_batches(ops: Vec<LoadOp>) -> Vec<LoadUnit> {
    let mut units = Vec::new();
    let mut open: Option<InsertBatch> = None;
    for op in ops {
        match op {
            LoadOp::Insert { table, values, ref_tables } => {
                let continues_run = open.as_ref().is_some_and(|b| b.table == table)
                    && !ref_tables.contains(&table);
                if continues_run {
                    open.as_mut().expect("run continues ⇒ open batch").rows.push(values);
                } else {
                    if let Some(batch) = open.take() {
                        units.push(LoadUnit::Batch(batch));
                    }
                    open = Some(InsertBatch { table, columns: None, rows: vec![values] });
                }
            }
            LoadOp::Update(stmt) => {
                if let Some(batch) = open.take() {
                    units.push(LoadUnit::Batch(batch));
                }
                units.push(LoadUnit::Stmt(stmt));
            }
        }
    }
    if let Some(batch) = open.take() {
        units.push(LoadUnit::Batch(batch));
    }
    units
}

/// Give every table-rooted element of a schema its
/// [`ElementMapping::load_group`]: a topological order of the key-REF
/// graph, whose edges run from a table to each table its rows' INSERTs
/// name through a key REF — the parent a `ParentRef` points at, the
/// ref-held children of `Ref`/`RefCollection` fields, and the IDREF
/// targets of embedded elements. (An IDREF of the row itself is inserted
/// NULL and set by a deferred `UPDATE`, so it adds no edge.) Target tables
/// come first; the tables of a cycle share one group.
///
/// The graph has one node per table, so a transitive closure is cheap: a
/// table reaches the tables it reads directly or through others, the
/// tables that reach each other form one group, and a table that reads
/// another reaches strictly more tables than that one does unless both
/// are in one group. Ordering by that count, then by the group's first
/// element name, is therefore a topological order with every group
/// contiguous.
pub(crate) fn assign_load_groups(elements: &mut BTreeMap<String, ElementMapping>) {
    let tables: Vec<String> =
        elements.values().filter(|m| m.table.is_some()).map(|m| m.element.clone()).collect();
    let n = tables.len();
    let mut reach = vec![vec![false; n]; n];
    for (i, element) in tables.iter().enumerate() {
        for target in key_ref_targets(elements, element) {
            if let Ok(j) = tables.binary_search_by(|t| t.as_str().cmp(target)) {
                reach[i][j] = true;
            }
        }
    }
    for k in 0..n {
        let through_k = reach[k].clone();
        for row in reach.iter_mut().filter(|row| row[k]) {
            row.iter_mut().zip(&through_k).for_each(|(to, &via)| *to |= via);
        }
    }
    let keys: Vec<(usize, usize)> = (0..n)
        .map(|i| {
            let reached = (0..n).filter(|&j| j == i || reach[i][j]).count();
            let first = (0..n).find(|&j| j == i || (reach[i][j] && reach[j][i]));
            (reached, first.expect("a table is in its own group"))
        })
        .collect();
    let mut groups = keys.clone();
    groups.sort_unstable();
    groups.dedup();
    for (element, key) in tables.iter().zip(&keys) {
        let group = groups.binary_search(key).expect("every key is ranked");
        elements.get_mut(element).expect("a table-rooted element").load_group = Some(group);
    }
}

/// The table-rooted elements whose rows a row of `element`'s table names
/// through a key REF in its INSERT (the edges of [`assign_load_groups`]).
fn key_ref_targets<'e>(
    elements: &'e BTreeMap<String, ElementMapping>,
    element: &str,
) -> BTreeSet<&'e str> {
    let mut targets = BTreeSet::new();
    let Some(row) = elements.get(element) else { return targets };
    // The row's own value, then the embedded elements inside it; only the
    // row itself can wire its IDREFs by UPDATEs instead.
    let mut pending = vec![(row, row.idref_update_key().is_some())];
    let mut seen = BTreeSet::new();
    while let Some((mapping, deferred)) = pending.pop() {
        if !seen.insert(mapping.element.as_str()) {
            continue;
        }
        for field in &mapping.fields {
            match (&field.source, &field.kind) {
                (FieldSource::ParentRef(parent), _) => {
                    targets.insert(parent.as_str());
                }
                (FieldSource::ChildElement(child), FieldKind::Ref(_))
                | (FieldSource::ChildElement(child), FieldKind::RefCollection { .. }) => {
                    targets.insert(child.as_str());
                }
                (FieldSource::ChildElement(child), FieldKind::Object(_))
                | (FieldSource::ChildElement(child), FieldKind::ObjectCollection { .. }) => {
                    pending.extend(elements.get(child).map(|m| (m, false)));
                }
                (FieldSource::XmlAttribute(attribute), _)
                    if field.wired_after_insert() && !deferred =>
                {
                    targets.extend(idref_target(elements, mapping, attribute));
                }
                (FieldSource::AttrList, _) if !deferred => {
                    let idrefs = mapping.attr_list.iter().flat_map(|list| &list.fields);
                    let idrefs = idrefs.filter(|f| f.idref_target.is_some());
                    targets.extend(
                        idrefs.filter_map(|f| idref_target(elements, mapping, &f.xml_attribute)),
                    );
                }
                _ => {}
            }
        }
    }
    targets
}

/// `NULL` as an expression.
fn null() -> Expr {
    Expr::Literal(Value::Null)
}

/// The direct text of `node` as a string literal (the text is moved, not
/// copied, into the expression).
fn text_lit(doc: &Document, node: NodeId) -> Expr {
    Expr::Literal(Value::Str(direct_text(doc, node)))
}

/// The REF of the row of `table` whose `path` holds `key`: printed as
/// `(SELECT REF(x) FROM table x WHERE x.<path> = 'key')`.
fn key_ref(table: Ident, path: Vec<Ident>, key: &str) -> Expr {
    Expr::KeyRef(Box::new(KeyRef { table, path, key: Value::Str(key.to_string()) }))
}

/// Identity of the row being built, for deferred IDREF updates: names of
/// the schema `'s`, and the row's synthetic id.
struct RowCtx<'s, 'r> {
    table: &'s str,
    id_column: &'s str,
    id: &'r str,
}

struct Loader<'a> {
    schema: &'a MappedSchema,
    dtd: &'a Dtd,
    doc: &'a Document,
    doc_id: &'a str,
    /// The INSERTs emitted so far, one list per load group
    /// ([`ElementMapping::load_group`]), each in document order.
    groups: Vec<Vec<LoadOp>>,
    /// Post-INSERT `UPDATE … SET <idref col> = <key REF>` operations.
    pending_updates: Vec<LoadOp>,
    /// Referenced-table accumulators, one frame per in-flight row
    /// ([`LoadOp::Insert::ref_tables`]); nested because ref-held children
    /// are emitted while the parent row's values are still being built.
    ref_frames: Vec<Vec<Ident>>,
    next_id: u64,
    /// Table, type and column names of the schema, each built once per
    /// load and handed out as handles ([`Loader::ident`]).
    idents: HashMap<&'a str, Ident>,
}

impl<'a> Loader<'a> {
    /// The identifier spelled `name`, a name of the schema.
    fn ident(&mut self, name: &'a str) -> Ident {
        self.idents.entry(name).or_insert_with(|| Ident::internal(name)).clone()
    }

    /// Constructor call `Type(args…)`.
    fn constructor(&mut self, type_name: &'a str, args: Vec<Expr>) -> Expr {
        Expr::Call { name: self.ident(type_name), args }
    }

    fn mapping_of(&self, element: &str) -> Result<&'a ElementMapping, MappingError> {
        self.schema
            .mapping(element)
            .ok_or_else(|| MappingError::UndeclaredElement(element.to_string()))
    }

    /// Record that the current row reads `table` through a key REF.
    fn note_ref(&mut self, table: Ident) {
        if let Some(frame) = self.ref_frames.last_mut() {
            if !frame.contains(&table) {
                frame.push(table);
            }
        }
    }

    fn fresh_id(&mut self, node: NodeId) -> String {
        // The root row carries the document id itself; nested rows get
        // sequential ids below it.
        if Some(node) == self.doc.root_element() {
            return self.doc_id.to_string();
        }
        self.next_id += 1;
        format!("{}#{}", self.doc_id, self.next_id)
    }

    /// Emit the INSERT for a table-rooted element instance. Returns the
    /// synthetic id of the inserted row (empty when the mapping has none).
    fn emit_rooted(
        &mut self,
        node: NodeId,
        parent: Option<(&str, &str)>,
    ) -> Result<String, MappingError> {
        let doc = self.doc;
        let element = doc.name(node).as_raw();
        let mapping = self.mapping_of(element)?;
        let table = mapping
            .table
            .as_deref()
            .ok_or_else(|| MappingError::Unsupported(format!("<{element}> is not table-rooted")))?;
        let type_name = mapping.object_type.as_deref().ok_or_else(|| {
            MappingError::MalformedMapping(format!(
                "<{element}> is table-rooted ({table}) but has no object type"
            ))
        })?;
        let my_id = if mapping.synthetic_id.is_some() { self.fresh_id(node) } else { String::new() };
        let row_ctx = mapping.idref_update_key().map(|id_column| RowCtx {
            table,
            id_column,
            id: &my_id,
        });

        self.ref_frames.push(Vec::new());
        let mut args = Vec::with_capacity(mapping.fields.len());
        for field in &mapping.fields {
            let arg = match &field.source {
                FieldSource::SyntheticId => Expr::str_lit(&my_id),
                FieldSource::ParentRef(parent_element) => match parent {
                    Some((p_element, p_id)) if p_element == parent_element => {
                        self.ref_by_id(parent_element, p_id)?
                    }
                    _ => null(),
                },
                _ => self.field_expr(node, mapping, field, row_ctx.as_ref())?,
            };
            args.push(arg);
        }
        let ref_tables = self.ref_frames.pop().expect("frame pushed above");
        let group = mapping.load_group.ok_or_else(|| {
            MappingError::MalformedMapping(format!(
                "<{element}> is table-rooted ({table}) but has no load group"
            ))
        })?;
        let table = self.ident(table);
        let row = self.constructor(type_name, args);
        if self.groups.len() <= group {
            self.groups.resize_with(group + 1, Vec::new);
        }
        self.groups[group].push(LoadOp::Insert { table, values: vec![row], ref_tables });

        // Oracle 8 inverted children: their rows point back at us and are
        // inserted after us.
        for child_node in doc.children(node).iter().copied().filter(|c| doc.element(*c).is_some()) {
            let child_name = doc.name(child_node).as_raw();
            let child_mapping = self.mapping_of(child_name)?;
            let inverted = child_mapping
                .fields
                .iter()
                .any(|f| matches!(&f.source, FieldSource::ParentRef(p) if p == element));
            // Only children we do NOT hold a field for are inverted.
            if inverted && mapping.field_for_child(child_name).is_none() {
                self.emit_rooted(child_node, Some((element, &my_id)))?;
            }
        }
        Ok(my_id)
    }

    /// Build the SQL expression for one field of `node`. `row` identifies
    /// the enclosing table row (when the element is table-rooted), which
    /// lets IDREF wiring defer to post-INSERT UPDATE statements so forward
    /// references resolve.
    fn field_expr(
        &mut self,
        node: NodeId,
        mapping: &'a ElementMapping,
        field: &'a FieldMapping,
        row: Option<&RowCtx<'a, '_>>,
    ) -> Result<Expr, MappingError> {
        let element = mapping.element.as_str();
        let doc = self.doc;
        match &field.source {
            FieldSource::Text => Ok(text_lit(doc, node)),
            FieldSource::XmlAttribute(attr) => match doc.attribute(node, attr) {
                Some(value) if field.wired_after_insert() => {
                    self.idref_expr(element, attr, value, row, &[&field.db_name])
                }
                Some(value) => Ok(Expr::str_lit(value)),
                None => Ok(null()),
            },
            FieldSource::AttrList => {
                let attr_list = mapping.attr_list.as_ref().ok_or_else(|| {
                    MappingError::MalformedMapping(format!(
                        "<{element}> has an attrList field but no attribute-list mapping"
                    ))
                })?;
                let any_present = attr_list
                    .fields
                    .iter()
                    .any(|f| doc.attribute(node, &f.xml_attribute).is_some());
                if !any_present {
                    return Ok(null());
                }
                let mut args = Vec::with_capacity(attr_list.fields.len());
                for f in &attr_list.fields {
                    args.push(match doc.attribute(node, &f.xml_attribute) {
                        Some(value) if f.idref_target.is_some() => self.idref_expr(
                            element,
                            &f.xml_attribute,
                            value,
                            row,
                            &[&field.db_name, &f.db_name],
                        )?,
                        Some(value) => Expr::str_lit(value),
                        None => null(),
                    });
                }
                Ok(self.constructor(&attr_list.type_name, args))
            }
            FieldSource::ChildElement(child_name) => {
                let children = doc.child_elements_tagged(node, child_name);
                self.child_field_expr(&children, field)
            }
            FieldSource::SyntheticId | FieldSource::ParentRef(_) => {
                unreachable!("handled by emit_rooted")
            }
        }
    }

    /// The value of the IDREF attribute `element/@attribute`, stored at
    /// `column` (a path of attribute names below the row): the key REF
    /// itself inside an embedded element; inside a table row `NULL`, with an
    /// `UPDATE … SET column = <key REF>` deferred until every row exists.
    fn idref_expr(
        &mut self,
        element: &str,
        attribute: &str,
        value: &str,
        row: Option<&RowCtx<'a, '_>>,
        column: &[&'a str],
    ) -> Result<Expr, MappingError> {
        let target = self.idref_ref(element, attribute, value)?;
        let Some(row) = row else {
            // Only here is the key REF part of the row's INSERT.
            self.note_ref(target.table.clone());
            return Ok(Expr::KeyRef(Box::new(target)));
        };
        let path = column.iter().map(|part| self.ident(part)).collect();
        let update = Stmt::Update {
            table: self.ident(row.table),
            sets: vec![(path, Expr::KeyRef(Box::new(target)))],
            where_clause: Some(Expr::eq(
                Expr::Path(vec![self.ident(row.id_column)]),
                Expr::str_lit(row.id),
            )),
        };
        self.pending_updates.push(LoadOp::Update(update));
        Ok(null())
    }

    fn child_field_expr(
        &mut self,
        children: &[NodeId],
        field: &'a FieldMapping,
    ) -> Result<Expr, MappingError> {
        match &field.kind {
            FieldKind::Scalar(_) => match children.first() {
                Some(child) => Ok(text_lit(self.doc, *child)),
                None => Ok(null()),
            },
            FieldKind::Object(_) => match children.first() {
                Some(child) => self.embedded_expr(*child),
                None => Ok(null()),
            },
            FieldKind::ScalarCollection(collection) => {
                let args: Vec<Expr> = children
                    .iter()
                    .map(|c| text_lit(self.doc, *c))
                    .collect();
                Ok(self.constructor(collection, args))
            }
            FieldKind::ObjectCollection { collection, .. } => {
                let mut args = Vec::with_capacity(children.len());
                for child in children {
                    args.push(self.embedded_expr(*child)?);
                }
                Ok(self.constructor(collection, args))
            }
            FieldKind::Ref(_) => match children.first() {
                Some(child) => {
                    let child_id = self.emit_rooted(*child, None)?;
                    self.ref_by_id(self.doc.name(*child).as_raw(), &child_id)
                }
                None => Ok(null()),
            },
            FieldKind::RefCollection { collection, .. } => {
                let mut args = Vec::with_capacity(children.len());
                for child in children {
                    let child_id = self.emit_rooted(*child, None)?;
                    args.push(self.ref_by_id(self.doc.name(*child).as_raw(), &child_id)?);
                }
                Ok(self.constructor(collection, args))
            }
        }
    }

    /// Constructor expression for an embedded (non-table-rooted) element.
    fn embedded_expr(&mut self, node: NodeId) -> Result<Expr, MappingError> {
        let element = self.doc.name(node).as_raw();
        let mapping = self.mapping_of(element)?;
        let type_name = mapping.object_type.as_deref().ok_or_else(|| {
            MappingError::Unsupported(format!("<{element}> has no object type to construct"))
        })?;
        let mut args = Vec::with_capacity(mapping.fields.len());
        for field in &mapping.fields {
            args.push(self.field_expr(node, mapping, field, None)?);
        }
        Ok(self.constructor(type_name, args))
    }

    /// The REF of `element`'s row with synthetic id `id`.
    fn ref_by_id(&mut self, element: &str, id: &str) -> Result<Expr, MappingError> {
        let mapping = self.mapping_of(element)?;
        let table = mapping.table.as_deref().ok_or_else(|| {
            MappingError::Unsupported(format!("<{element}> has no object table for REFs"))
        })?;
        let id_col = mapping.synthetic_id.as_deref().ok_or_else(|| {
            MappingError::Unsupported(format!("<{element}> has no synthetic id"))
        })?;
        let table = self.ident(table);
        let id_col = self.ident(id_col);
        self.note_ref(table.clone());
        Ok(key_ref(table, vec![id_col], id))
    }

    /// The key of the row whose ID attribute is `value`, for the IDREF
    /// attribute `element/@attribute` (§4.4).
    fn idref_ref(
        &mut self,
        element: &str,
        attribute: &str,
        value: &str,
    ) -> Result<KeyRef, MappingError> {
        let mapping = self.mapping_of(element)?;
        let target = idref_target(&self.schema.elements, mapping, attribute).ok_or_else(|| {
            MappingError::Unsupported(format!(
                "attribute {element}/@{attribute} is not an IDREF mapping"
            ))
        })?;
        // The ID attribute of the target element (from the DTD).
        let id_attr = self
            .dtd
            .attributes_of(target)
            .iter()
            .find(|a| a.att_type == AttType::Id)
            .map(|a| a.name.clone())
            .ok_or_else(|| {
                MappingError::Unsupported(format!("<{target}> has no ID attribute"))
            })?;
        let (table, path_parts): (&'a str, Vec<&'a str>) = {
            let target_mapping = self.mapping_of(target)?;
            let table = target_mapping.table.as_deref().ok_or_else(|| {
                MappingError::Unsupported(format!("IDREF target <{target}> has no object table"))
            })?;
            // Path to the stored ID value: inlined or inside the attrList
            // object.
            let path_parts = if let Some(f) = target_mapping.field_for_attribute(&id_attr) {
                vec![f.db_name.as_str()]
            } else if let Some(al) = &target_mapping.attr_list {
                let list_field = target_mapping
                    .fields
                    .iter()
                    .find(|f| f.source == FieldSource::AttrList)
                    .ok_or_else(|| {
                        MappingError::MalformedMapping(format!(
                            "<{target}> has an attribute-list mapping but no attrList field"
                        ))
                    })?;
                let inner = al
                    .fields
                    .iter()
                    .find(|f| f.xml_attribute == id_attr)
                    .ok_or_else(|| {
                        MappingError::MalformedMapping(format!(
                            "ID attribute '{id_attr}' of <{target}> is missing from its attribute-list mapping"
                        ))
                    })?;
                vec![list_field.db_name.as_str(), inner.db_name.as_str()]
            } else {
                return Err(MappingError::Unsupported(format!(
                    "cannot locate the stored ID attribute of <{target}>"
                )));
            };
            (table, path_parts)
        };
        let table = self.ident(table);
        let path = path_parts.into_iter().map(|part| self.ident(part)).collect();
        Ok(KeyRef { table, path, key: Value::Str(value.to_string()) })
    }
}

/// The element the IDREF attribute `@attribute` of `mapping`'s element
/// points at (§4.4): recorded on its attribute-list field, or, for a single
/// inlined attribute, the element whose object type its REF names.
fn idref_target<'e>(
    elements: &'e BTreeMap<String, ElementMapping>,
    mapping: &'e ElementMapping,
    attribute: &str,
) -> Option<&'e str> {
    let listed = mapping.attr_list.as_ref().and_then(|list| {
        let field = list.fields.iter().find(|f| f.xml_attribute == attribute)?;
        field.idref_target.as_deref()
    });
    listed.or_else(|| {
        let field = mapping.field_for_attribute(attribute)?;
        let FieldKind::Ref(type_name) = &field.kind else { return None };
        let target = elements.values().find(|m| m.object_type.as_deref() == Some(type_name));
        target.map(|m| m.element.as_str())
    })
}

/// Concatenated *direct* text of an element (not descending into child
/// elements — needed for mixed content).
pub fn direct_text(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    for child in doc.children(node) {
        match doc.kind(*child) {
            NodeKind::Text(t) | NodeKind::CData(t) => out.push_str(t),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddlgen::create_script;
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

    const UNIVERSITY_XML: &str = r#"<University>
  <StudyCourse>Computer Science</StudyCourse>
  <Student StudNr="23374">
    <LName>Conrad</LName><FName>Matthias</FName>
    <Course>
      <Name>Database Systems II</Name>
      <Professor>
        <PName>Kudrass</PName>
        <Subject>Database Systems</Subject><Subject>Operat. Systems</Subject>
        <Dept>Computer Science</Dept>
      </Professor>
      <CreditPts>4</CreditPts>
    </Course>
    <Course>
      <Name>CAD Intro</Name>
      <Professor>
        <PName>Jaeger</PName>
        <Subject>CAD</Subject><Subject>CAE</Subject>
        <Dept>Computer Science</Dept>
      </Professor>
      <CreditPts>4</CreditPts>
    </Course>
  </Student>
  <Student StudNr="00011">
    <LName>Meier</LName><FName>Ralf</FName>
  </Student>
</University>"#;

    fn setup(mode: DbMode) -> (Database, Vec<String>) {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let doc = xmlord_xml::parse(UNIVERSITY_XML).unwrap();
        let schema = generate_schema(
            &dtd,
            "University",
            mode,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let mut db = Database::new(mode);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        let statements = load_script(&schema, &dtd, &doc, "doc1").unwrap();
        for stmt in &statements {
            db.execute(stmt).unwrap_or_else(|e| panic!("{e}\nSTMT: {stmt}"));
        }
        (db, statements)
    }

    #[test]
    fn oracle9_load_is_a_single_insert() {
        let (mut db, statements) = setup(DbMode::Oracle9);
        // The paper's headline claim (§4.1): one INSERT for the document.
        assert_eq!(statements.len(), 1, "{statements:#?}");
        assert!(statements[0].starts_with("INSERT INTO TabUniversity VALUES (Type_University("));
        assert_eq!(db.row_count("TabUniversity"), 1);
        // §4.1's query, un-nested over the collections.
        let rows = db
            .query(
                "SELECT s.attrLName FROM TabUniversity u, TABLE(u.attrStudent) s, \
                 TABLE(s.attrCourse) c, TABLE(c.attrProfessor) p \
                 WHERE p.attrPName = 'Jaeger'",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]]);
    }

    #[test]
    fn oracle8_load_fans_out_into_many_inserts() {
        let (mut db, statements) = setup(DbMode::Oracle8);
        // 1 university + 2 students + 2 courses + 2 professors.
        assert_eq!(statements.len(), 7, "{statements:#?}");
        assert_eq!(db.row_count("TabUniversity"), 1);
        assert_eq!(db.row_count("TabStudent"), 2);
        assert_eq!(db.row_count("TabCourse"), 2);
        assert_eq!(db.row_count("TabProfessor"), 2);
        // Children point back at their parents (§4.2 workaround): navigate
        // from a course back to its student.
        let rows = db
            .query(
                "SELECT c.attrRefStudent.attrLName FROM TabCourse c WHERE c.attrName = 'CAD Intro'",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]]);
        // Scalar collections still work inline in Oracle 8.
        let rows = db
            .query(
                "SELECT s.COLUMN_VALUE FROM TabProfessor p, TABLE(p.attrSubject) s \
                 WHERE p.attrPName = 'Kudrass'",
            )
            .unwrap();
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn oracle8_load_is_one_batch_per_table_in_key_ref_order() {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let doc = xmlord_xml::parse(UNIVERSITY_XML).unwrap();
        let schema = generate_schema(
            &dtd,
            "University",
            DbMode::Oracle8,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let units = plan_batches(load_ops(&schema, &dtd, &doc, "doc1").unwrap());
        let batches: Vec<(String, usize)> = units
            .iter()
            .map(|unit| match unit {
                LoadUnit::Batch(batch) => (batch.table.to_string(), batch.rows.len()),
                LoadUnit::Stmt(stmt) => panic!("no UPDATE expected: {stmt:?}"),
            })
            .collect();
        let expected =
            [("TabUniversity", 1), ("TabStudent", 2), ("TabCourse", 2), ("TabProfessor", 2)];
        assert_eq!(batches, expected.map(|(t, n)| (t.to_string(), n)));
    }

    #[test]
    fn key_ref_targets_load_first_and_a_cycle_is_one_group() {
        let groups = |dtd_text: &str, root: &str| {
            let dtd = parse_dtd(dtd_text).unwrap();
            let options = MappingOptions::default();
            let schema =
                generate_schema(&dtd, root, DbMode::Oracle8, options, &IdrefTargets::new())
                    .unwrap();
            let tables = schema.table_rooted();
            tables.map(|m| (m.element.clone(), m.load_group.unwrap())).collect::<Vec<_>>()
        };
        let named = |pairs: &[(&str, usize)]| {
            pairs.iter().map(|(e, g)| (e.to_string(), *g)).collect::<Vec<_>>()
        };
        // A professor's row names its own department and the one it is
        // listed under; a department names no row.
        let recursive = "<!ELEMENT Professor (PName,Dept)> <!ELEMENT Dept (DName,Professor*)>
            <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>";
        assert_eq!(groups(recursive, "Professor"), named(&[("Dept", 0), ("Professor", 1)]));
        // Inverted both ways: each table's rows point at the other's.
        let mutual = "<!ELEMENT a (n,b*)> <!ELEMENT b (n,a*)> <!ELEMENT n (#PCDATA)>";
        assert_eq!(groups(mutual, "a"), named(&[("a", 0), ("b", 0)]));
    }

    #[test]
    fn doc_id_lands_in_the_root_row() {
        let (mut db, _) = setup(DbMode::Oracle9);
        let id = db
            .query_scalar("SELECT u.IDUniversity FROM TabUniversity u")
            .unwrap();
        assert_eq!(id, Value::str("doc1"));
    }

    #[test]
    fn empty_collections_use_empty_constructors_like_the_paper() {
        let (_, statements) = setup(DbMode::Oracle9);
        // Student Meier has no courses: the paper's example writes
        // `TypeVA_Course()`.
        assert!(statements[0].contains("TypeVA_Course()"), "{}", statements[0]);
    }

    #[test]
    fn optional_absent_elements_become_null() {
        let dtd_text = "<!ELEMENT r (a?,b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse("<r><b>x</b></r>").unwrap();
        let schema = generate_schema(
            &dtd,
            "r",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        let stmts = load_script(&schema, &dtd, &doc, "d").unwrap();
        assert_eq!(stmts.len(), 1);
        assert!(stmts[0].contains("(NULL, 'x')"), "{}", stmts[0]);
    }

    #[test]
    fn quotes_in_text_are_escaped() {
        let dtd_text = "<!ELEMENT r (#PCDATA)>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse("<r>O'Hara's</r>").unwrap();
        let schema = generate_schema(
            &dtd,
            "r",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let stmts = load_script(&schema, &dtd, &doc, "d").unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&crate::ddlgen::create_script(&schema).unwrap()).unwrap();
        db.execute(&stmts[0]).unwrap();
        let v = db.query_scalar("SELECT r.attrr FROM Tabr r").unwrap();
        assert_eq!(v, Value::str("O'Hara's"));
    }

    #[test]
    fn recursive_document_loads_with_refs() {
        let dtd_text = r#"
            <!ELEMENT Professor (PName,Dept)>
            <!ELEMENT Dept (DName,Professor*)>
            <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>"#;
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse(
            "<Professor><PName>Kudrass</PName><Dept><DName>CS</DName>\
             <Professor><PName>Jaeger</PName><Dept><DName>CAD Lab</DName></Dept></Professor>\
             </Dept></Professor>",
        )
        .unwrap();
        let schema = generate_schema(
            &dtd,
            "Professor",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        let stmts = load_script(&schema, &dtd, &doc, "d1").unwrap();
        // Inner professor inserted before the outer one that references it.
        assert_eq!(stmts.len(), 2);
        for stmt in &stmts {
            db.execute(stmt).unwrap_or_else(|e| panic!("{e}\nSTMT: {stmt}"));
        }
        assert_eq!(db.row_count("TabProfessor"), 2);
        // Navigate: outer professor → dept → member professors (REFs).
        let rows = db
            .query(
                "SELECT r.COLUMN_VALUE.attrPName FROM TabProfessor p, TABLE(p.attrDept.attrProfessor) r \
                 WHERE p.attrPName = 'Kudrass'",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Jaeger")]]);
    }

    #[test]
    fn idref_attributes_load_as_refs() {
        let dtd_text = r#"
            <!ELEMENT db (person*)>
            <!ELEMENT person (#PCDATA)>
            <!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>"#;
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse(
            r#"<db><person id="p1">Kudrass</person><person id="p2" boss="p1">Conrad</person></db>"#,
        )
        .unwrap();
        let mut targets = IdrefTargets::new();
        targets.insert(("person".into(), "boss".into()), "person".into());
        let schema = generate_schema(
            &dtd,
            "db",
            DbMode::Oracle9,
            MappingOptions { map_idrefs: true, ..Default::default() },
            &targets,
        )
        .unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        let stmts = load_script(&schema, &dtd, &doc, "d1").unwrap();
        for stmt in &stmts {
            db.execute(stmt).unwrap_or_else(|e| panic!("{e}\nSTMT: {stmt}"));
        }
        // Navigate the boss REF.
        let rows = db
            .query(
                "SELECT p.attrListperson.attrboss.attrperson FROM Tabperson p \
                 WHERE p.attrListperson.attrid = 'p2'",
            )
            .unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Kudrass")]]);
    }

    #[test]
    fn deferred_idrefs_leave_a_table_one_batch() {
        // A row's own IDREF is inserted NULL and wired by an UPDATE, so it
        // reads no table at INSERT time and closes no batch.
        let dtd = parse_dtd(
            "<!ELEMENT db (person*)> <!ELEMENT person (#PCDATA)>
             <!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>",
        )
        .unwrap();
        let doc = xmlord_xml::parse(
            r#"<db><person id="p1" boss="p2">Kudrass</person><person id="p2">Conrad</person><person id="p3" boss="p1">Meier</person></db>"#,
        )
        .unwrap();
        let mut targets = IdrefTargets::new();
        targets.insert(("person".into(), "boss".into()), "person".into());
        let options = MappingOptions { map_idrefs: true, ..Default::default() };
        for (mode, expected) in [
            (DbMode::Oracle9, ["Tabperson 3", "Tabdb 1", "UPDATE", "UPDATE"]),
            (DbMode::Oracle8, ["Tabdb 1", "Tabperson 3", "UPDATE", "UPDATE"]),
        ] {
            let schema = generate_schema(&dtd, "db", mode, options.clone(), &targets).unwrap();
            let units = plan_batches(load_ops(&schema, &dtd, &doc, "d1").unwrap());
            let shape: Vec<String> = units
                .iter()
                .map(|unit| match unit {
                    LoadUnit::Batch(batch) => format!("{} {}", batch.table, batch.rows.len()),
                    LoadUnit::Stmt(_) => "UPDATE".to_string(),
                })
                .collect();
            assert_eq!(shape, expected, "{mode:?}");
        }
    }

    #[test]
    fn mixed_content_stores_direct_text_only() {
        let dtd_text = "<!ELEMENT p (#PCDATA|em)*><!ELEMENT em (#PCDATA)>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse("<p>before <em>important</em> after</p>").unwrap();
        let schema = generate_schema(
            &dtd,
            "p",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let stmts = load_script(&schema, &dtd, &doc, "d").unwrap();
        // Own text excludes the <em> content…
        assert!(stmts[0].contains("'before  after'"), "{}", stmts[0]);
        // …which lands in the em collection instead.
        assert!(stmts[0].contains("'important'"), "{}", stmts[0]);
    }

    #[test]
    fn wrong_root_is_rejected() {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let doc = xmlord_xml::parse("<Student StudNr='1'><LName>x</LName><FName>y</FName></Student>")
            .unwrap();
        let schema = generate_schema(
            &dtd,
            "University",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        assert!(load_script(&schema, &dtd, &doc, "d").is_err());
    }
}
