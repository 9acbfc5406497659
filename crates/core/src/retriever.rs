//! Document retrieval: database → XML document.
//!
//! One walk over the stored rows, guided by the [`MappedSchema`] (which
//! knows, per §5's meta-data, whether each database attribute came from an
//! element or an attribute), reports the document as element events to an
//! [`xmlord_xml::ContentSink`] ([`reconstruct_into`]). Two sinks take them:
//!
//! - a [`TextWriter`] — the text path ([`write_document`], and through it
//!   the façade's `retrieve_document`, its worker fan and the wire
//!   server's `.get`): escaped, §6.1-re-substituted XML appended to a
//!   `String`, no `Document` built;
//! - a [`DomBuilder`] — for callers that want a `Document`
//!   ([`reconstruct`], [`retrieve_with_stats`], [`retrieve_snapshot`], …).
//!
//! Both see the same events, so serializing the built tree writes the
//! writer's bytes. The paper's known losses are reproduced faithfully:
//! comments, processing instructions and the interleaving of mixed content
//! do not come back (§7 "loss of document information"), and where REFs
//! are involved the original sibling order is only preserved per
//! relationship (§7 "usage of references does not preserve the order of
//! elements").
//!
//! # The walk
//!
//! An element's attributes come first, in field order: `XmlAttribute`
//! fields, the attribute-list object, IDREF targets' ID values — a repeated
//! name replaces the earlier value in place, as `Document::set_attribute`
//! does, which is also how the root's `xmlns` from the meta-table lands.
//! Its content follows: text fields, child fields, then the Oracle 8
//! inverted children. Where any inverted child exists, the content is put
//! in content-model order *before* anything is written
//! (`content_model_order`): per element, not per mapping, because the
//! rule moves only known names. Scalar values are written from the stored
//! block — strings and dates borrowed, other types through one scratch
//! buffer.
//!
//! # Set-oriented reconstruction
//!
//! The walk runs over [`KeyedReader`] lookups — the root row by document
//! id, each Oracle 8 inverted relationship by ParentRef — and the `bulk`
//! flag ([`xmlord_ordb::Database::set_bulk_retrieval`]) only picks how the
//! reader answers them:
//!
//! - **Naive walker** (the differential baseline): every lookup scans the
//!   table, so an inverted relationship costs O(parents × child_rows).
//! - **Bulk path** (the default): a fresh `SecondaryIndex` on the key
//!   column is probed per lookup; without one, *one* hash-build pass per
//!   table serves every parent. IDREF targets resolve through the OID
//!   directory with a per-table field plan and a per-OID memo instead of
//!   a mapping scan per attribute.
//!
//! The reader enumerates children in heap-slot order on every path, so the
//! reconstructed documents are byte-identical — the property
//! `retrieve_prop` pins.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;
use std::ops::Range;

use xmlord_ordb::storage::{KeyedReader, Storage};
use xmlord_ordb::{Database, Oid, Value};
use xmlord_xml::{ContentSink, Document, DomBuilder, QName, TextWriter, XmlDeclaration};

use crate::error::MappingError;
use crate::metadata::{metadata_row, DocMetadata};
use crate::model::{ElementMapping, FieldKind, FieldSource, MappedSchema};
use xmlord_ordb::ident::Ident;

/// Storage accesses one reconstruction performed — folded into
/// [`xmlord_ordb::ExecStats`] by the callers that hold a `&mut` handle
/// ([`xmlord_ordb::Database::record_retrieval`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Full passes over a table heap (root-row scans, naive per-parent
    /// child scans, bulk hash-build passes).
    pub table_scans: u64,
    /// Secondary-index probes that replaced a scan.
    pub index_probes: u64,
}

impl std::ops::Add for RetrievalStats {
    type Output = RetrievalStats;

    fn add(self, other: RetrievalStats) -> RetrievalStats {
        RetrievalStats {
            table_scans: self.table_scans + other.table_scans,
            index_probes: self.index_probes + other.index_probes,
        }
    }
}

/// Reconstruct the document stored under `meta.doc_id`, using the
/// database handle's bulk-retrieval setting.
pub fn retrieve_document(
    db: &Database,
    schema: &MappedSchema,
    meta: &DocMetadata,
) -> Result<Document, MappingError> {
    retrieve_with_stats(db, schema, meta).map(|(doc, _)| doc)
}

/// [`retrieve_document`] plus the access counts the reconstruction made.
pub fn retrieve_with_stats(
    db: &Database,
    schema: &MappedSchema,
    meta: &DocMetadata,
) -> Result<(Document, RetrievalStats), MappingError> {
    // One storage guard for the whole walk: the guard holds the shared
    // engine lock, and taking it once up front keeps the walk from
    // re-locking per REF chase.
    let storage = db.storage();
    reconstruct(&storage, schema, meta, db.bulk_retrieval())
}

/// Reconstruct a document as a DOM from a storage snapshot — the entry
/// point shared by the writer handle ([`retrieve_document`]) and MVCC read
/// sessions (which pass `ReadSession::snapshot()`'s storage).
pub fn reconstruct(
    storage: &Storage,
    schema: &MappedSchema,
    meta: &DocMetadata,
    bulk: bool,
) -> Result<(Document, RetrievalStats), MappingError> {
    let mut builder = DomBuilder::new();
    let stats = reconstruct_into(storage, schema, meta, bulk, &mut builder)?;
    Ok((builder.finish(), stats))
}

/// The one reconstruction walk: report the document stored under
/// `meta.doc_id` to `sink` — the declaration restored from the meta-table,
/// then the root element with the meta-table's namespace (§5). On an
/// error the sink has seen a prefix of the document.
pub fn reconstruct_into(
    storage: &Storage,
    schema: &MappedSchema,
    meta: &DocMetadata,
    bulk: bool,
    sink: &mut impl ContentSink,
) -> Result<RetrievalStats, MappingError> {
    let mut walk = Retriever::new(storage, schema, bulk);
    let (values, oid) = walk.find_root_row(meta)?;
    if meta.xml_version.is_some() || meta.character_set.is_some() || meta.standalone.is_some() {
        sink.declaration(&XmlDeclaration {
            version: meta.xml_version.clone().unwrap_or_else(|| "1.0".to_string()),
            encoding: meta.character_set.clone(),
            standalone: meta.standalone,
        });
    }
    walk.element(sink, &schema.root_element, values, oid, meta.namespace.as_deref())?;
    Ok(walk.stats())
}

/// Retrieve document `doc_id` from one storage snapshot: its §5 meta-table
/// row ([`metadata_row`] — one keyed lookup), then its rows. Both reads see
/// the same commit, and neither goes through SQL.
pub fn retrieve_from(
    storage: &Storage,
    schema: &MappedSchema,
    doc_id: &str,
    bulk: bool,
) -> Result<(Document, DocMetadata, RetrievalStats), MappingError> {
    let (meta, lookup) = metadata_row(storage, doc_id, bulk)?;
    let (doc, walk) = reconstruct(storage, schema, &meta, bulk)?;
    Ok((doc, meta, lookup + walk))
}

/// [`retrieve_from`] as XML text appended to `out`: the declaration, the
/// root element and everything below it, §6.1 entity references
/// re-substituted — what serializing the DOM with
/// `pipeline::retrieval_serialize_options` writes, without the DOM. All or
/// nothing: a walk that fails leaves `out` as it found it.
pub fn write_document(
    storage: &Storage,
    schema: &MappedSchema,
    doc_id: &str,
    bulk: bool,
    out: &mut String,
) -> Result<RetrievalStats, MappingError> {
    let (meta, lookup) = metadata_row(storage, doc_id, bulk)?;
    let start = out.len();
    let mut writer = TextWriter::new(out, &meta.entity_catalog());
    match reconstruct_into(storage, schema, &meta, bulk, &mut writer) {
        Ok(walk) => Ok(lookup + walk),
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// [`retrieve_from`] on an MVCC read session's committed snapshot, pinned
/// once for the whole retrieval. Returns the access stats without
/// recording them anywhere — callers that own a stats sink fold them in.
pub fn retrieve_snapshot(
    session: &mut xmlord_ordb::ReadSession,
    schema: &MappedSchema,
    doc_id: &str,
) -> Result<(Document, DocMetadata, RetrievalStats), MappingError> {
    let bulk = session.bulk_retrieval();
    let (_, storage) = session.snapshot();
    retrieve_from(storage, schema, doc_id, bulk)
}

/// [`write_document`] on an MVCC read session's committed snapshot, like
/// [`retrieve_snapshot`]: the stats are returned, not recorded.
pub fn write_snapshot(
    session: &mut xmlord_ordb::ReadSession,
    schema: &MappedSchema,
    doc_id: &str,
    out: &mut String,
) -> Result<RetrievalStats, MappingError> {
    let bulk = session.bulk_retrieval();
    let (_, storage) = session.snapshot();
    write_document(storage, schema, doc_id, bulk, out)
}

/// [`retrieve_snapshot`] folding the access stats into the session's own
/// counters.
pub fn retrieve_via_session(
    session: &mut xmlord_ordb::ReadSession,
    schema: &MappedSchema,
    doc_id: &str,
) -> Result<(Document, DocMetadata), MappingError> {
    let bulk = session.bulk_retrieval();
    let (doc, meta, stats) = retrieve_snapshot(session, schema, doc_id)?;
    session.record_retrieval(stats.table_scans, stats.index_probes, bulk);
    Ok((doc, meta))
}

/// [`write_snapshot`] folding the access stats into the session's own
/// counters — what the wire server's per-connection reader uses.
pub fn write_via_session(
    session: &mut xmlord_ordb::ReadSession,
    schema: &MappedSchema,
    doc_id: &str,
    out: &mut String,
) -> Result<(), MappingError> {
    let bulk = session.bulk_retrieval();
    let stats = write_snapshot(session, schema, doc_id, out)?;
    session.record_retrieval(stats.table_scans, stats.index_probes, bulk);
    Ok(())
}

/// One attribute of the element being written: a stored value, or a
/// string the walk found elsewhere (an IDREF target's ID, the namespace).
#[derive(Clone, Copy)]
enum AttrValue<'a> {
    Stored(&'a Value),
    Text(&'a str),
}

/// One child node of the element being written, in document order.
#[derive(Clone, Copy)]
struct Item<'a> {
    /// The child element's raw name; unused for text.
    element: &'a str,
    /// Its position in the parent's content model — computed only where
    /// inverted children may need [`content_model_order`]; `None` for text
    /// and names the model does not list.
    order: Option<usize>,
    content: Content<'a>,
}

#[derive(Clone, Copy)]
enum Content<'a> {
    /// The element's own text.
    Text(&'a Value),
    /// A simple child element (`NULL` in a scalar collection: empty).
    Scalar(&'a Value),
    /// A complex child: an object inside the parent's block (no OID), or a
    /// row of its own — a REF field's target, an Oracle 8 inverted child.
    Element(&'a [Value], Option<Oid>),
}

struct Retriever<'a> {
    storage: &'a Storage,
    schema: &'a MappedSchema,
    bulk: bool,
    /// Accesses of readers already closed (the root lookup); the child
    /// readers carry their own until [`Retriever::stats`] sums them.
    stats: RetrievalStats,
    /// Every inverted relationship: the child mapping stored under a parent
    /// (child table holds a ParentRef and the parent has no field for the
    /// child), with the ParentRef field position — in the schema's
    /// BTreeMap order, grouped by parent.
    relationships: Vec<(&'a ElementMapping, usize)>,
    /// Parent element → its run of `relationships`.
    inverted: HashMap<&'a str, Range<usize>>,
    /// Table → the element mapping it stores (for IDREF target resolution).
    table_elements: HashMap<Ident, &'a ElementMapping>,
    /// XML element/child name → its QName, built on first use — one parse
    /// per distinct name instead of per node.
    qnames: HashMap<&'a str, QName>,
    /// Per inverted child table: its rows keyed on the ParentRef column,
    /// opened on the first parent that needs the relationship.
    child_readers: HashMap<Ident, KeyedReader<'a>>,
    /// Bulk: memoized document-ID values per target row (IDREF batches
    /// resolve each target once, however many attributes point at it).
    id_memo: HashMap<Oid, Option<&'a str>>,
    /// The attributes of the element being written.
    attrs: Vec<(&'a str, AttrValue<'a>)>,
    /// Child lists no element is filling: each element borrows one while
    /// it writes its content, so a walk allocates one per depth.
    spare_items: Vec<Vec<Item<'a>>>,
    /// A non-string scalar's text.
    scratch: String,
    /// The items [`content_model_order`] moves.
    moved: Vec<Item<'a>>,
}

impl<'a> Retriever<'a> {
    fn new(storage: &'a Storage, schema: &'a MappedSchema, bulk: bool) -> Retriever<'a> {
        let mut by_parent: Vec<(&'a str, &'a ElementMapping, usize)> = Vec::new();
        let mut table_elements = HashMap::new();
        for mapping in schema.elements.values() {
            if let Some(table) = &mapping.table {
                table_elements.insert(Ident::internal(table), mapping);
            }
            let Some(ref_idx) = mapping
                .fields
                .iter()
                .position(|f| matches!(&f.source, FieldSource::ParentRef(_)))
            else {
                continue;
            };
            let FieldSource::ParentRef(parent) = &mapping.fields[ref_idx].source else {
                unreachable!("position() matched a ParentRef");
            };
            // Skip relationships the parent holds a field for (those
            // children come back through the parent's own row).
            let parent_holds_field = schema
                .mapping(parent)
                .is_some_and(|m| m.field_for_child(&mapping.element).is_some());
            if !parent_holds_field {
                by_parent.push((parent.as_str(), mapping, ref_idx));
            }
        }
        // Stable: each parent's relationships keep the schema's order.
        by_parent.sort_by_key(|&(parent, _, _)| parent);
        let mut inverted: HashMap<&'a str, Range<usize>> = HashMap::new();
        for (i, &(parent, _, _)) in by_parent.iter().enumerate() {
            inverted.entry(parent).or_insert(i..i).end = i + 1;
        }
        Retriever {
            storage,
            schema,
            bulk,
            stats: RetrievalStats::default(),
            relationships: by_parent.into_iter().map(|(_, m, idx)| (m, idx)).collect(),
            inverted,
            table_elements,
            qnames: HashMap::new(),
            child_readers: HashMap::new(),
            id_memo: HashMap::new(),
            attrs: Vec::new(),
            spare_items: Vec::new(),
            scratch: String::new(),
            moved: Vec::new(),
        }
    }

    /// The QName of an XML element name, cached per name.
    fn element_qname(&mut self, raw: &'a str) -> QName {
        self.qnames.entry(raw).or_insert_with(|| element_qname(raw)).clone()
    }

    fn mapping_of(&self, element: &str) -> Result<&'a ElementMapping, MappingError> {
        self.schema
            .mapping(element)
            .ok_or_else(|| MappingError::UndeclaredElement(element.to_string()))
    }

    /// Every access the reconstruction made so far.
    fn stats(&self) -> RetrievalStats {
        self.child_readers.values().fold(self.stats, |sum, reader| {
            sum + RetrievalStats {
                table_scans: reader.table_scans,
                index_probes: reader.index_probes,
            }
        })
    }

    /// Locate the root row: the first whose document id column matches,
    /// else (no such column) the single row of the table.
    fn find_root_row(
        &mut self,
        meta: &DocMetadata,
    ) -> Result<(&'a [Value], Option<Oid>), MappingError> {
        let root_mapping = self.mapping_of(&self.schema.root_element)?;
        let table = Ident::internal(&self.schema.root_table);
        let no_such_document = || MappingError::NoSuchDocument(meta.doc_id.clone());
        let row = match &self.schema.doc_id_column {
            Some(col) => {
                let idx = field_index(root_mapping, col).ok_or_else(|| {
                    MappingError::Unsupported(format!("root mapping lacks id column {col}"))
                })?;
                let mut reader = self
                    .storage
                    .keyed_reader(&table, idx, self.bulk)
                    .ok_or_else(no_such_document)?;
                let slot = reader.first_slot(&Value::str(&meta.doc_id));
                self.stats.table_scans += reader.table_scans;
                self.stats.index_probes += reader.index_probes;
                slot.map(|slot| &reader.rows()[slot])
            }
            None => {
                self.stats.table_scans += 1;
                self.storage.table(&table).ok_or_else(no_such_document)?.rows.first()
            }
        };
        row.map(|r| (r.values.as_slice(), r.oid)).ok_or_else(no_such_document)
    }

    /// Write one element instance from its attribute values (`values`
    /// parallels `mapping.fields`): start, attributes, content, end.
    /// `namespace` is the root's `xmlns` from the meta-table.
    fn element(
        &mut self,
        sink: &mut impl ContentSink,
        element: &'a str,
        values: &'a [Value],
        oid: Option<Oid>,
        namespace: Option<&'a str>,
    ) -> Result<(), MappingError> {
        let mapping = self.mapping_of(element)?;
        let name = self.element_qname(element);
        sink.start_element(&name);
        self.attributes(sink, mapping, values, namespace)?;

        let mut items = self.spare_items.pop().unwrap_or_default();
        let inverted = oid.and_then(|oid| Some((oid, self.inverted.get(element)?.clone())));
        let ordered = inverted.is_some();
        for (field, value) in mapping.fields.iter().zip(values) {
            match &field.source {
                FieldSource::Text if !renders_empty(value) => {
                    items.push(Item { element: "", order: None, content: Content::Text(value) });
                }
                FieldSource::ChildElement(child) => {
                    let order = ordered.then(|| self.order_of(mapping, child)).flatten();
                    child_items(&mut items, child, order, field, value, self.storage)?;
                }
                _ => {}
            }
        }
        // Oracle 8 inverted children: the rows of each child table whose
        // ParentRef points at this row, then content-model order.
        if let Some((my_oid, run)) = inverted {
            let fielded = items.len();
            for i in run {
                let (child_mapping, ref_idx) = self.relationships[i];
                let Some(child_table) = &child_mapping.table else { continue };
                let child = child_mapping.element.as_str();
                let order = self.order_of(mapping, child);
                let table = Ident::internal(child_table);
                let reader = match self.child_readers.entry(table) {
                    Entry::Occupied(open) => open.into_mut(),
                    Entry::Vacant(slot) => {
                        let Some(reader) =
                            self.storage.keyed_reader(slot.key(), ref_idx, self.bulk)
                        else {
                            continue;
                        };
                        slot.insert(reader)
                    }
                };
                let rows = reader.rows();
                let key = Value::Ref(my_oid);
                for slot in reader.each_slot(&key) {
                    let row = &rows[slot];
                    let content = Content::Element(&row.values, row.oid);
                    items.push(Item { element: child, order, content });
                }
            }
            if items.len() > fielded {
                content_model_order(&mut items, &mut self.moved, |item| item.order);
            }
        }

        let written = self.content(sink, &items);
        items.clear();
        self.spare_items.push(items);
        written?;
        sink.end_element(&name);
        Ok(())
    }

    /// An element's attributes, gathered in field order with the DOM's
    /// replace-on-same-name rule, then written.
    fn attributes(
        &mut self,
        sink: &mut impl ContentSink,
        mapping: &'a ElementMapping,
        values: &'a [Value],
        namespace: Option<&'a str>,
    ) -> Result<(), MappingError> {
        let mut attrs = std::mem::take(&mut self.attrs);
        for (field, value) in mapping.fields.iter().zip(values) {
            match &field.source {
                FieldSource::XmlAttribute(attr) => match (&field.kind, value) {
                    (_, Value::Null) => {}
                    (FieldKind::Ref(_), Value::Ref(target_oid)) => {
                        // An IDREF attribute: restore the target's ID value.
                        if let Some(id_value) = self.id_value_of(*target_oid) {
                            set_attribute(&mut attrs, attr, AttrValue::Text(id_value));
                        }
                    }
                    (_, other) => set_attribute(&mut attrs, attr, AttrValue::Stored(other)),
                },
                FieldSource::AttrList => {
                    if let Value::Obj { attrs: list, .. } = value {
                        let Some(attr_list) = mapping.attr_list.as_ref() else {
                            return Err(MappingError::InconsistentMapping(format!(
                                "<{}> row carries an attribute-list object but the \
                                 mapping declares no attribute list",
                                mapping.element
                            )));
                        };
                        for (f, v) in attr_list.fields.iter().zip(list.iter()) {
                            let value = match v {
                                Value::Null => continue,
                                Value::Ref(target_oid) => match self.id_value_of(*target_oid) {
                                    Some(id_value) => AttrValue::Text(id_value),
                                    None => continue,
                                },
                                other => AttrValue::Stored(other),
                            };
                            set_attribute(&mut attrs, &f.xml_attribute, value);
                        }
                    }
                }
                _ => {}
            }
        }
        // Restore the root's default namespace from the meta-table (§5).
        if let Some(ns) = namespace {
            set_attribute(&mut attrs, "xmlns", AttrValue::Text(ns));
        }
        for &(name, value) in &attrs {
            let text = match value {
                AttrValue::Stored(stored) => scalar_text(&mut self.scratch, stored),
                AttrValue::Text(text) => text,
            };
            sink.attribute(name, text);
        }
        attrs.clear();
        self.attrs = attrs;
        Ok(())
    }

    /// Write an element's child nodes.
    fn content(
        &mut self,
        sink: &mut impl ContentSink,
        items: &[Item<'a>],
    ) -> Result<(), MappingError> {
        for item in items {
            match item.content {
                Content::Text(value) => sink.text(scalar_text(&mut self.scratch, value)),
                Content::Scalar(value) => {
                    let name = self.element_qname(item.element);
                    sink.start_element(&name);
                    if !renders_empty(value) {
                        sink.text(scalar_text(&mut self.scratch, value));
                    }
                    sink.end_element(&name);
                }
                Content::Element(values, oid) => {
                    self.element(sink, item.element, values, oid, None)?
                }
            }
        }
        Ok(())
    }

    /// `child`'s position in `parent`'s content model.
    fn order_of(&self, parent: &ElementMapping, child: &str) -> Option<usize> {
        parent.child_order.iter().position(|n| n == child)
    }

    /// The document-level ID attribute value of a row object (for restoring
    /// IDREF attributes). Resolves through the OID directory and the
    /// precomputed table → mapping plan; the bulk path memoizes per target
    /// so shared IDREF targets resolve once.
    fn id_value_of(&mut self, oid: Oid) -> Option<&'a str> {
        if !self.bulk {
            return self.resolve_id_value(oid);
        }
        if let Some(&cached) = self.id_memo.get(&oid) {
            return cached;
        }
        let resolved = self.resolve_id_value(oid);
        self.id_memo.insert(oid, resolved);
        resolved
    }

    fn resolve_id_value(&self, oid: Oid) -> Option<&'a str> {
        let (table, row) = self.storage.resolve_oid(oid)?;
        // Which element does this table store?
        let mapping = *self.table_elements.get(table)?;
        // Prefer an inlined attribute field that is plain VARCHAR (the ID
        // itself); otherwise look inside the attrList object.
        if let Some(attr_list) = &mapping.attr_list {
            if let Some(list_idx) =
                mapping.fields.iter().position(|f| f.source == FieldSource::AttrList)
            {
                if let Some(Value::Obj { attrs, .. }) = row.values.get(list_idx) {
                    for (f, v) in attr_list.fields.iter().zip(attrs.iter()) {
                        if f.idref_target.is_none() {
                            if let Some(s) = v.as_str() {
                                return Some(s);
                            }
                        }
                    }
                }
            }
        }
        for (idx, field) in mapping.fields.iter().enumerate() {
            if matches!(field.source, FieldSource::XmlAttribute(_))
                && matches!(field.kind, FieldKind::Scalar(_))
            {
                if let Some(s) = row.values.get(idx).and_then(|v| v.as_str()) {
                    return Some(s);
                }
            }
        }
        None
    }
}

/// The child items one `ChildElement` field holds, in stored order.
fn child_items<'a>(
    items: &mut Vec<Item<'a>>,
    child: &'a str,
    order: Option<usize>,
    field: &crate::model::FieldMapping,
    value: &'a Value,
    storage: &'a Storage,
) -> Result<(), MappingError> {
    let mut push = |content| items.push(Item { element: child, order, content });
    let row = |oid: Oid| -> Result<Content<'a>, MappingError> {
        let (_, row) = storage
            .resolve_oid(oid)
            .ok_or(MappingError::Db(xmlord_ordb::DbError::DanglingRef))?;
        Ok(Content::Element(&row.values, Some(oid)))
    };
    match (&field.kind, value) {
        (_, Value::Null) => {}
        (FieldKind::Scalar(_), v) => push(Content::Scalar(v)),
        (FieldKind::Object(_), Value::Obj { attrs, .. }) => push(Content::Element(attrs, None)),
        (FieldKind::ScalarCollection(_), Value::Coll { elements, .. }) => {
            elements.iter().for_each(|e| push(Content::Scalar(e)));
        }
        (FieldKind::ObjectCollection { .. }, Value::Coll { elements, .. }) => {
            for element in elements.iter() {
                if let Value::Obj { attrs, .. } = element {
                    push(Content::Element(attrs, None));
                }
            }
        }
        (FieldKind::Ref(_), Value::Ref(oid)) => push(row(*oid)?),
        (FieldKind::RefCollection { .. }, Value::Coll { elements, .. }) => {
            for element in elements.iter() {
                if let Value::Ref(oid) = element {
                    push(row(*oid)?);
                }
            }
        }
        (kind, other) => {
            return Err(MappingError::Unsupported(format!(
                "stored value {} does not match mapped kind {kind:?} for <{child}>",
                other.to_sql_literal()
            )))
        }
    }
    Ok(())
}

/// The name a retrieved element carries: the mapping's XML name. One a
/// QName cannot spell (two colons) falls back to its SQL identifier form.
pub(crate) fn element_qname(raw: &str) -> QName {
    QName::parse(raw).unwrap_or_else(|| QName::local(&crate::naming::sanitize(raw)))
}

/// Set `name` to `value`: an attribute already present keeps its place and
/// takes the new value (`Document::set_attribute`'s rule), a new one goes
/// last.
fn set_attribute<'a>(attrs: &mut Vec<(&'a str, AttrValue<'a>)>, name: &'a str, value: AttrValue<'a>) {
    match attrs.iter_mut().find(|(n, _)| *n == name) {
        Some(slot) => slot.1 = value,
        None => attrs.push((name, value)),
    }
}

/// Content-model order, the rule Oracle 8 reconstruction (and `rel`'s)
/// restores among an element's children: items with a position are sorted
/// stably by it into the slots such items occupy, and the others — text,
/// names the model does not list — keep their exact index instead of being
/// clustered together. `moved` is scratch space, left empty.
pub(crate) fn content_model_order<T: Copy>(
    items: &mut [T],
    moved: &mut Vec<T>,
    order: impl Fn(&T) -> Option<usize>,
) {
    moved.extend(items.iter().filter(|i| order(i).is_some()));
    // Stable sort: equal content-model positions keep document order.
    moved.sort_by_key(|i| order(i));
    let mut sorted = moved.drain(..);
    for item in items.iter_mut().filter(|i| order(i).is_some()) {
        if let Some(next) = sorted.next() {
            *item = next;
        }
    }
}

/// Text of a stored scalar as SQL Display renders it (NUMBER 4 → "4", DATE
/// → its ISO string): strings and dates borrowed, anything else written
/// into `scratch`. Never called on `NULL`.
fn scalar_text<'s>(scratch: &'s mut String, value: &'s Value) -> &'s str {
    match value {
        Value::Str(s) | Value::Date(s) => s,
        other => {
            scratch.clear();
            write!(scratch, "{other}").expect("writing to a String cannot fail");
            scratch
        }
    }
}

/// Does a stored value write no text — `NULL`, or an empty string or date?
fn renders_empty(value: &Value) -> bool {
    matches!(value, Value::Null) || matches!(value, Value::Str(s) | Value::Date(s) if s.is_empty())
}

fn field_index(mapping: &ElementMapping, db_name: &str) -> Option<usize> {
    mapping.fields.iter().position(|f| f.db_name.eq_ignore_ascii_case(db_name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddlgen::create_script;
    use crate::loader::load_script;
    use crate::metadata::DocMetadata;
    use crate::model::MappingOptions;
    use crate::schemagen::{generate_schema, IdrefTargets};
    use xmlord_dtd::parse_dtd;
    use xmlord_ordb::DbMode;
    use xmlord_xml::serializer::{serialize, SerializeOptions};

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

    const UNIVERSITY_XML: &str = "<University><StudyCourse>CS</StudyCourse>\
<Student StudNr=\"23374\"><LName>Conrad</LName><FName>Matthias</FName>\
<Course><Name>DBS II</Name><Professor><PName>Kudrass</PName>\
<Subject>DBS</Subject><Subject>OS</Subject><Dept>CS</Dept></Professor>\
<CreditPts>4</CreditPts></Course></Student>\
<Student StudNr=\"00011\"><LName>Meier</LName><FName>Ralf</FName></Student></University>";

    fn loaded_university(mode: DbMode) -> (Database, MappedSchema) {
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
        for stmt in load_script(&schema, &dtd, &doc, "doc1").unwrap() {
            db.execute(&stmt).unwrap();
        }
        (db, schema)
    }

    fn round_trip(mode: DbMode) -> String {
        let (db, schema) = loaded_university(mode);
        let meta = DocMetadata { doc_id: "doc1".into(), ..Default::default() };
        let restored = retrieve_document(&db, &schema, &meta).unwrap();
        serialize(&restored, &SerializeOptions::compact())
    }

    /// Children whose element name is absent from the content model (and
    /// non-element children) keep their positions while the listed names
    /// sort into the slots listed names hold; an older reorder pass
    /// clustered them all at the front.
    #[test]
    fn content_model_order_keeps_the_slots_of_unknown_names_and_text() {
        let child_order = ["a", "b"];
        let mut items = ["text x", "b", "a", "text y", "c"];
        let order = |item: &&str| child_order.iter().position(|n| n == item);
        content_model_order(&mut items, &mut Vec::new(), order);
        // a and b swap into each other's slots; the texts and <c> stay put.
        assert_eq!(items, ["text x", "a", "b", "text y", "c"]);
    }

    #[test]
    fn oracle9_round_trip_is_exact_for_data_centric_documents() {
        assert_eq!(round_trip(DbMode::Oracle9), UNIVERSITY_XML);
    }

    #[test]
    fn oracle8_round_trip_restores_the_same_document() {
        // The REF-based storage layout differs, but the reconstructed
        // document is identical for this document.
        assert_eq!(round_trip(DbMode::Oracle8), UNIVERSITY_XML);
    }

    #[test]
    fn bulk_and_naive_walkers_reconstruct_identical_documents() {
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let (mut db, schema) = loaded_university(mode);
            let meta = DocMetadata { doc_id: "doc1".into(), ..Default::default() };
            let bulk = retrieve_document(&db, &schema, &meta).unwrap();
            db.set_bulk_retrieval(false);
            let naive = retrieve_document(&db, &schema, &meta).unwrap();
            assert_eq!(
                serialize(&bulk, &SerializeOptions::compact()),
                serialize(&naive, &SerializeOptions::compact()),
                "{mode:?}: bulk and naive reconstruction diverged"
            );
        }
    }

    #[test]
    fn bulk_walker_scans_each_inverted_table_once() {
        // Oracle 8 stores Student/Course/Professor inverted. The naive
        // walker re-scans per parent; the bulk walker hash-builds once per
        // (relationship, table) and the root scan is the only other pass.
        let (mut db, schema) = loaded_university(DbMode::Oracle8);
        let meta = DocMetadata { doc_id: "doc1".into(), ..Default::default() };
        let (_, bulk) = retrieve_with_stats(&db, &schema, &meta).unwrap();
        db.set_bulk_retrieval(false);
        let (_, naive) = retrieve_with_stats(&db, &schema, &meta).unwrap();
        assert!(
            bulk.table_scans < naive.table_scans,
            "bulk {bulk:?} vs naive {naive:?}"
        );
    }

    #[test]
    fn root_lookup_uses_a_doc_id_index_when_present() {
        let (mut db, schema) = loaded_university(DbMode::Oracle9);
        let col = schema.doc_id_column.clone().unwrap();
        db.execute(&format!("CREATE INDEX IdxDocId ON {} ({col})", schema.root_table))
            .unwrap();
        let meta = DocMetadata { doc_id: "doc1".into(), ..Default::default() };
        let (doc, stats) = retrieve_with_stats(&db, &schema, &meta).unwrap();
        assert!(stats.index_probes > 0, "{stats:?}");
        assert_eq!(serialize(&doc, &SerializeOptions::compact()), UNIVERSITY_XML);

        // The naive valve still scans — and reconstructs the same bytes.
        db.set_bulk_retrieval(false);
        let (naive, stats) = retrieve_with_stats(&db, &schema, &meta).unwrap();
        assert_eq!(stats.index_probes, 0, "{stats:?}");
        assert_eq!(serialize(&naive, &SerializeOptions::compact()), UNIVERSITY_XML);
    }

    #[test]
    fn inverted_children_use_a_parent_ref_index_when_present() {
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
        let mut db = Database::new(DbMode::Oracle8);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        for stmt in load_script(&schema, &dtd, &doc, "doc1").unwrap() {
            db.execute(&stmt).unwrap();
        }
        // Index every ParentRef column that exists in the mapping.
        let mut n = 0;
        for mapping in schema.elements.values() {
            let (Some(table), Some(idx)) = (
                &mapping.table,
                mapping
                    .fields
                    .iter()
                    .position(|f| matches!(f.source, FieldSource::ParentRef(_))),
            ) else {
                continue;
            };
            let col = &mapping.fields[idx].db_name;
            n += 1;
            db.execute(&format!("CREATE INDEX IdxPR{n} ON {table} ({col})")).unwrap();
        }
        assert!(n > 0, "Oracle 8 mapping should have inverted relationships");
        let meta = DocMetadata { doc_id: "doc1".into(), ..Default::default() };
        let (restored, stats) = retrieve_with_stats(&db, &schema, &meta).unwrap();
        assert!(stats.index_probes > 0, "{stats:?}");
        assert_eq!(serialize(&restored, &SerializeOptions::compact()), UNIVERSITY_XML);
    }

    #[test]
    fn recursion_round_trips() {
        let dtd_text = r#"
            <!ELEMENT Professor (PName,Dept)>
            <!ELEMENT Dept (DName,Professor*)>
            <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>"#;
        let xml = "<Professor><PName>Kudrass</PName><Dept><DName>CS</DName>\
<Professor><PName>Jaeger</PName><Dept><DName>CAD</DName></Dept></Professor>\
</Dept></Professor>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse(xml).unwrap();
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
        for stmt in load_script(&schema, &dtd, &doc, "d1").unwrap() {
            db.execute(&stmt).unwrap();
        }
        let meta = DocMetadata { doc_id: "d1".into(), ..Default::default() };
        let restored = retrieve_document(&db, &schema, &meta).unwrap();
        assert_eq!(serialize(&restored, &SerializeOptions::compact()), xml);
    }

    #[test]
    fn multiple_documents_coexist_and_retrieve_separately() {
        let dtd_text = "<!ELEMENT r (#PCDATA)>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let schema = generate_schema(
            &dtd,
            "r",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        for (i, text) in ["first", "second", "third"].iter().enumerate() {
            let doc = xmlord_xml::parse(&format!("<r>{text}</r>")).unwrap();
            for stmt in load_script(&schema, &dtd, &doc, &format!("doc{i}")).unwrap() {
                db.execute(&stmt).unwrap();
            }
        }
        let meta = DocMetadata { doc_id: "doc1".into(), ..Default::default() };
        let restored = retrieve_document(&db, &schema, &meta).unwrap();
        assert_eq!(
            serialize(&restored, &SerializeOptions::compact()),
            "<r>second</r>"
        );
    }

    #[test]
    fn missing_document_is_reported() {
        let dtd_text = "<!ELEMENT r (#PCDATA)>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let schema = generate_schema(
            &dtd,
            "r",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        let meta = DocMetadata { doc_id: "ghost".into(), ..Default::default() };
        assert!(matches!(
            retrieve_document(&db, &schema, &meta),
            Err(MappingError::NoSuchDocument(_))
        ));
    }

    #[test]
    fn comments_and_pis_are_lost_as_the_paper_admits() {
        let dtd_text = "<!ELEMENT r (#PCDATA)>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse("<r>x<!--note--><?pi data?></r>").unwrap();
        let schema = generate_schema(
            &dtd,
            "r",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        for stmt in load_script(&schema, &dtd, &doc, "d").unwrap() {
            db.execute(&stmt).unwrap();
        }
        let meta = DocMetadata { doc_id: "d".into(), ..Default::default() };
        let restored = retrieve_document(&db, &schema, &meta).unwrap();
        let text = serialize(&restored, &SerializeOptions::compact());
        assert_eq!(text, "<r>x</r>"); // §7: comments and PIs are gone
    }

    /// Regression: a stored row carrying an attribute-list object while the
    /// mapping declares none must surface as a typed error, not a panic.
    #[test]
    fn attr_list_mismatch_is_a_typed_error_not_a_panic() {
        let dtd_text = r#"
            <!ELEMENT r EMPTY>
            <!ATTLIST r a CDATA #IMPLIED b CDATA #IMPLIED>"#;
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse(r#"<r a="1" b="2"/>"#).unwrap();
        let mut schema = generate_schema(
            &dtd,
            "r",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        assert!(schema.mapping("r").unwrap().attr_list.is_some());
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        for stmt in load_script(&schema, &dtd, &doc, "d").unwrap() {
            db.execute(&stmt).unwrap();
        }
        // The schema drifts after the rows were stored.
        schema.elements.get_mut("r").unwrap().attr_list = None;
        let meta = DocMetadata { doc_id: "d".into(), ..Default::default() };
        let err = retrieve_document(&db, &schema, &meta).unwrap_err();
        assert!(
            matches!(err, MappingError::InconsistentMapping(_)),
            "expected InconsistentMapping, got {err:?}"
        );
    }

    /// Oracle 8 stores repeated complex children inverted (child table with
    /// a parent REF) and restores order afterwards — mixed content around
    /// them must survive the reordering.
    #[test]
    fn oracle8_mixed_content_round_trips_around_inverted_children() {
        let dtd_text = r#"
            <!ELEMENT article (#PCDATA|section)*>
            <!ELEMENT section (para*)>
            <!ELEMENT para (#PCDATA)>"#;
        let xml = "<article>intro<section><para>a1</para></section>\
<section><para>b1</para><para>b2</para></section></article>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse(xml).unwrap();
        let schema = generate_schema(
            &dtd,
            "article",
            DbMode::Oracle8,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let mut db = Database::new(DbMode::Oracle8);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        for stmt in load_script(&schema, &dtd, &doc, "d").unwrap() {
            db.execute(&stmt).unwrap();
        }
        let meta = DocMetadata { doc_id: "d".into(), ..Default::default() };
        let restored = retrieve_document(&db, &schema, &meta).unwrap();
        let text = serialize(&restored, &SerializeOptions::compact());
        // The text keeps its leading position and the sections their
        // document order (interleaving within mixed content is the paper's
        // admitted loss, so the text is concatenated up front).
        assert!(text.starts_with("<article>intro<section>"), "{text}");
        let one = text.find("a1").unwrap();
        let b1 = text.find("b1").unwrap();
        let b2 = text.find("b2").unwrap();
        assert!(one < b1 && b1 < b2, "{text}");
    }

    #[test]
    fn idref_attribute_is_restored_from_the_target_id() {
        let dtd_text = r#"
            <!ELEMENT db (person*)>
            <!ELEMENT person (#PCDATA)>
            <!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>"#;
        let xml = r#"<db><person id="p1">Kudrass</person><person boss="p1" id="p2">Conrad</person></db>"#;
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse(xml).unwrap();
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
        for stmt in load_script(&schema, &dtd, &doc, "d").unwrap() {
            db.execute(&stmt).unwrap();
        }
        let meta = DocMetadata { doc_id: "d".into(), ..Default::default() };
        let restored = retrieve_document(&db, &schema, &meta).unwrap();
        let text = serialize(&restored, &SerializeOptions::compact());
        assert!(text.contains(r#"boss="p1""#), "{text}");
        assert!(text.contains(">Kudrass</person>"), "{text}");
    }
}
