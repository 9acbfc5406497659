//! Document retrieval: database → XML document.
//!
//! Walks the stored object values guided by the [`MappedSchema`] (which
//! knows, per §5's meta-data, whether each database attribute came from an
//! element or an attribute) and rebuilds the DOM. The paper's known losses
//! are reproduced faithfully: comments, processing instructions and the
//! interleaving of mixed content do not come back (§7 "loss of document
//! information"), and where REFs are involved the original sibling order is
//! only preserved per relationship (§7 "usage of references does not
//! preserve the order of elements").
//!
//! # Set-oriented reconstruction
//!
//! One DOM assembly runs over [`KeyedReader`] lookups — the root row by
//! document id, each Oracle 8 inverted relationship by ParentRef — and the
//! `bulk` flag ([`xmlord_ordb::Database::set_bulk_retrieval`]) only picks
//! how the reader answers them:
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

use xmlord_ordb::storage::{KeyedReader, Storage};
use xmlord_ordb::{Database, Oid, Value};
use xmlord_xml::{Document, NodeId, QName};

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
    // engine lock, and taking it once up front keeps the recursive
    // builders from re-locking per REF chase.
    let storage = db.storage();
    reconstruct(&storage, schema, meta, db.bulk_retrieval())
}

/// Reconstruct a document from a storage snapshot — the entry point shared
/// by the writer handle ([`retrieve_document`]) and MVCC read sessions
/// (which pass `ReadSession::snapshot()`'s storage).
pub fn reconstruct(
    storage: &Storage,
    schema: &MappedSchema,
    meta: &DocMetadata,
    bulk: bool,
) -> Result<(Document, RetrievalStats), MappingError> {
    let mut ctx = Retriever::new(storage, schema, bulk);
    let (row_values, row_oid) = ctx.find_root_row(meta)?;

    let mut doc = Document::new();
    if meta.xml_version.is_some() || meta.character_set.is_some() || meta.standalone.is_some() {
        doc.declaration = Some(xmlord_xml::XmlDeclaration {
            version: meta.xml_version.clone().unwrap_or_else(|| "1.0".to_string()),
            encoding: meta.character_set.clone(),
            standalone: meta.standalone,
        });
    }
    let root_element = schema.root_element.clone();
    let root_node = ctx.build_element(&mut doc, &root_element, row_values, row_oid)?;
    // Restore the root's default namespace from the meta-table (§5).
    if let Some(ns) = &meta.namespace {
        doc.set_attribute(root_node, QName::local("xmlns"), ns);
    }
    doc.set_root(root_node);
    Ok((doc, ctx.stats()))
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
    let stats = RetrievalStats {
        table_scans: lookup.table_scans + walk.table_scans,
        index_probes: lookup.index_probes + walk.index_probes,
    };
    Ok((doc, meta, stats))
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

/// [`retrieve_snapshot`] folding the access stats into the session's own
/// counters — what the wire server's per-connection reader uses.
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

struct Retriever<'a> {
    storage: &'a Storage,
    schema: &'a MappedSchema,
    bulk: bool,
    /// Accesses of readers already closed (the root lookup); the child
    /// readers carry their own until [`Retriever::stats`] sums them.
    stats: RetrievalStats,
    /// Per parent element: the child mappings stored inverted under it
    /// (child table holds a ParentRef and the parent has no field for the
    /// child), with the ParentRef field position. Precomputed once per
    /// reconstruction instead of re-scanning `schema.elements` per node;
    /// kept in the schema's BTreeMap order so attachment order matches the
    /// old walker exactly.
    inverted: HashMap<&'a str, Vec<(&'a ElementMapping, usize)>>,
    /// Table → the element mapping it stores (for IDREF target resolution).
    table_elements: HashMap<Ident, &'a ElementMapping>,
    /// Raw element/child name → sanitized element QName, built on first
    /// use — one `sanitize` + parse per distinct name instead of per node.
    qnames: HashMap<&'a str, QName>,
    /// Per inverted child table: its rows keyed on the ParentRef column,
    /// opened on the first parent that needs the relationship.
    child_readers: HashMap<Ident, KeyedReader<'a>>,
    /// Bulk: memoized document-ID values per target row (IDREF batches
    /// resolve each target once, however many attributes point at it).
    id_memo: HashMap<Oid, Option<String>>,
}

impl<'a> Retriever<'a> {
    fn new(storage: &'a Storage, schema: &'a MappedSchema, bulk: bool) -> Retriever<'a> {
        let mut inverted: HashMap<&'a str, Vec<(&'a ElementMapping, usize)>> = HashMap::new();
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
                inverted.entry(parent.as_str()).or_default().push((mapping, ref_idx));
            }
        }
        Retriever {
            storage,
            schema,
            bulk,
            stats: RetrievalStats::default(),
            inverted,
            table_elements,
            qnames: HashMap::new(),
            child_readers: HashMap::new(),
            id_memo: HashMap::new(),
        }
    }

    /// Sanitized element QName for a raw XML name, cached per name.
    fn element_qname(&mut self, raw: &'a str) -> QName {
        self.qnames
            .entry(raw)
            .or_insert_with(|| QName::local(&crate::naming::sanitize(raw)))
            .clone()
    }

    fn mapping_of(&self, element: &str) -> Result<&'a ElementMapping, MappingError> {
        self.schema
            .mapping(element)
            .ok_or_else(|| MappingError::UndeclaredElement(element.to_string()))
    }

    /// Every access the reconstruction made so far.
    fn stats(&self) -> RetrievalStats {
        self.child_readers.values().fold(self.stats, |sum, reader| RetrievalStats {
            table_scans: sum.table_scans + reader.table_scans,
            index_probes: sum.index_probes + reader.index_probes,
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

    /// Build the DOM subtree for one element instance from its attribute
    /// values (`values` parallels `mapping.fields`).
    fn build_element(
        &mut self,
        doc: &mut Document,
        element: &'a str,
        values: &[Value],
        oid: Option<Oid>,
    ) -> Result<NodeId, MappingError> {
        let mapping = self.mapping_of(element)?;
        let node = doc.create_element(self.element_qname(element));
        for (field, value) in mapping.fields.iter().zip(values) {
            match &field.source {
                FieldSource::SyntheticId | FieldSource::ParentRef(_) => {}
                FieldSource::XmlAttribute(attr) => match (&field.kind, value) {
                    (_, Value::Null) => {}
                    (FieldKind::Ref(_), Value::Ref(target_oid)) => {
                        // An IDREF attribute: restore the target's ID value.
                        if let Some(id_value) = self.id_value_of(*target_oid)? {
                            doc.set_attribute(node, QName::local(attr), &id_value);
                        }
                    }
                    (_, other) => {
                        if let Some(text) = scalar_text(other) {
                            doc.set_attribute(node, QName::local(attr), &text);
                        }
                    }
                },
                FieldSource::AttrList => {
                    if let Value::Obj { attrs, .. } = value {
                        let Some(attr_list) = mapping.attr_list.as_ref() else {
                            return Err(MappingError::InconsistentMapping(format!(
                                "<{element}> row carries an attribute-list object but the \
                                 mapping declares no attribute list"
                            )));
                        };
                        for (f, v) in attr_list.fields.iter().zip(attrs.iter()) {
                            match v {
                                Value::Null => {}
                                Value::Ref(target_oid) => {
                                    if let Some(id_value) = self.id_value_of(*target_oid)? {
                                        doc.set_attribute(
                                            node,
                                            QName::local(&f.xml_attribute),
                                            &id_value,
                                        );
                                    }
                                }
                                other => {
                                    if let Some(text) = scalar_text(other) {
                                        doc.set_attribute(
                                            node,
                                            QName::local(&f.xml_attribute),
                                            &text,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                FieldSource::Text => {
                    if let Some(text) = scalar_text(value) {
                        if !text.is_empty() {
                            let t = doc.create_text(&text);
                            doc.append_child(node, t);
                        }
                    }
                }
                FieldSource::ChildElement(child_name) => {
                    self.build_child_field(doc, node, child_name, field, value)?;
                }
            }
        }
        // Oracle 8 inverted children: collect rows of the child table whose
        // ParentRef points at this row, then restore content-model order.
        if let Some(my_oid) = oid {
            if self.attach_inverted_children(doc, node, element, my_oid)? {
                let mapping = self.mapping_of(element)?;
                reorder_children(doc, node, &mapping.child_order);
            }
        }
        Ok(node)
    }

    fn build_child_field(
        &mut self,
        doc: &mut Document,
        parent: NodeId,
        child_name: &'a str,
        field: &crate::model::FieldMapping,
        value: &Value,
    ) -> Result<(), MappingError> {
        match (&field.kind, value) {
            (_, Value::Null) => Ok(()),
            (FieldKind::Scalar(_), v) => {
                let child = doc.create_element(self.element_qname(child_name));
                if let Some(text) = scalar_text(v) {
                    if !text.is_empty() {
                        let t = doc.create_text(&text);
                        doc.append_child(child, t);
                    }
                }
                doc.append_child(parent, child);
                Ok(())
            }
            (FieldKind::Object(_), Value::Obj { attrs, .. }) => {
                let child = self.build_element(doc, child_name, attrs, None)?;
                doc.append_child(parent, child);
                Ok(())
            }
            (FieldKind::ScalarCollection(_), Value::Coll { elements, .. }) => {
                for element in elements.iter() {
                    let child = doc.create_element(self.element_qname(child_name));
                    if let Some(text) = scalar_text(element) {
                        if !text.is_empty() {
                            let t = doc.create_text(&text);
                            doc.append_child(child, t);
                        }
                    }
                    doc.append_child(parent, child);
                }
                Ok(())
            }
            (FieldKind::ObjectCollection { .. }, Value::Coll { elements, .. }) => {
                for element in elements.iter() {
                    if let Value::Obj { attrs, .. } = element {
                        let child = self.build_element(doc, child_name, attrs, None)?;
                        doc.append_child(parent, child);
                    }
                }
                Ok(())
            }
            (FieldKind::Ref(_), Value::Ref(oid)) => {
                let child = self.build_ref_child(doc, child_name, *oid)?;
                doc.append_child(parent, child);
                Ok(())
            }
            (FieldKind::RefCollection { .. }, Value::Coll { elements, .. }) => {
                for element in elements.iter() {
                    if let Value::Ref(oid) = element {
                        let child = self.build_ref_child(doc, child_name, *oid)?;
                        doc.append_child(parent, child);
                    }
                }
                Ok(())
            }
            (kind, other) => Err(MappingError::Unsupported(format!(
                "stored value {} does not match mapped kind {kind:?} for <{child_name}>",
                other.to_sql_literal()
            ))),
        }
    }

    fn build_ref_child(
        &mut self,
        doc: &mut Document,
        child_name: &'a str,
        oid: Oid,
    ) -> Result<NodeId, MappingError> {
        let (_, row) = self
            .storage
            .resolve_oid(oid)
            .ok_or(MappingError::Db(xmlord_ordb::DbError::DanglingRef))?;
        // The row borrow comes from the storage snapshot (`'a`), not from
        // `self`, so the values pass straight down without a clone.
        let values: &'a [Value] = &row.values;
        self.build_element(doc, child_name, values, Some(oid))
    }

    /// Returns `true` if any inverted child was attached.
    fn attach_inverted_children(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        element: &str,
        my_oid: Oid,
    ) -> Result<bool, MappingError> {
        let relationships: Vec<(&'a ElementMapping, usize)> =
            match self.inverted.get(element) {
                Some(v) => v.clone(),
                None => return Ok(false),
            };
        let mut attached = false;
        for (child_mapping, ref_idx) in relationships {
            let Some(child_table) = &child_mapping.table else { continue };
            let table = Ident::internal(child_table);
            let reader = match self.child_readers.entry(table) {
                Entry::Occupied(open) => open.into_mut(),
                Entry::Vacant(slot) => {
                    let Some(reader) = self.storage.keyed_reader(slot.key(), ref_idx, self.bulk)
                    else {
                        continue;
                    };
                    slot.insert(reader)
                }
            };
            let rows = reader.rows();
            for slot in reader.slots(&Value::Ref(my_oid)) {
                let row = &rows[slot];
                let values: &'a [Value] = &row.values;
                let child =
                    self.build_element(doc, &child_mapping.element, values, row.oid)?;
                doc.append_child(node, child);
                attached = true;
            }
        }
        Ok(attached)
    }

    /// The document-level ID attribute value of a row object (for restoring
    /// IDREF attributes). Resolves through the OID directory and the
    /// precomputed table → mapping plan; the bulk path memoizes per target
    /// so shared IDREF targets resolve once.
    fn id_value_of(&mut self, oid: Oid) -> Result<Option<String>, MappingError> {
        if self.bulk {
            if let Some(cached) = self.id_memo.get(&oid) {
                return Ok(cached.clone());
            }
        }
        let resolved = self.resolve_id_value(oid);
        if self.bulk {
            self.id_memo.insert(oid, resolved.clone());
        }
        Ok(resolved)
    }

    fn resolve_id_value(&self, oid: Oid) -> Option<String> {
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
                                return Some(s.to_string());
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
                    return Some(s.to_string());
                }
            }
        }
        None
    }
}

/// Restore content-model order among an element's children: only element
/// children whose name appears in `child_order` are sorted (stably, by
/// their position in the content model), and they are written back into the
/// slots those same children occupied — text nodes and elements with
/// unknown names keep their exact document positions instead of being
/// clustered together.
pub(crate) fn reorder_children(doc: &mut Document, node: NodeId, child_order: &[String]) {
    let mut children: Vec<NodeId> = doc.children(node).to_vec();
    let order_of = |doc: &Document, c: NodeId| match doc.kind(c) {
        xmlord_xml::NodeKind::Element(el) => {
            child_order.iter().position(|n| n == el.name.local_part())
        }
        _ => None,
    };
    let slots: Vec<usize> = (0..children.len())
        .filter(|&i| order_of(doc, children[i]).is_some())
        .collect();
    let mut ordered: Vec<NodeId> = slots.iter().map(|&i| children[i]).collect();
    // Stable sort: equal content-model positions keep document order.
    ordered.sort_by_key(|&c| order_of(doc, c));
    for (&slot, &child) in slots.iter().zip(&ordered) {
        children[slot] = child;
    }
    doc.replace_children(node, children);
}

/// Text rendering of a stored scalar value (typed columns render through
/// SQL Display: NUMBER 4 → "4", DATE → its ISO string).
fn scalar_text(v: &Value) -> Option<String> {
    match v {
        Value::Null => None,
        other => Some(other.to_string()),
    }
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

    /// Regression: children whose element name is absent from the content
    /// model (and non-element children) must keep their document positions;
    /// the old implementation clustered them all at the front.
    #[test]
    fn reorder_preserves_slots_of_unknown_and_text_children() {
        let mut doc = Document::new();
        let root = doc.create_element(QName::local("r"));
        let tx = doc.create_text("x");
        let b = doc.create_element(QName::local("b"));
        let a = doc.create_element(QName::local("a"));
        let ty = doc.create_text("y");
        let c = doc.create_element(QName::local("c")); // not in the model
        for n in [tx, b, a, ty, c] {
            doc.append_child(root, n);
        }
        reorder_children(&mut doc, root, &["a".to_string(), "b".to_string()]);
        let rendered: Vec<String> = doc
            .children(root)
            .iter()
            .map(|&n| match doc.kind(n) {
                xmlord_xml::NodeKind::Element(el) => format!("<{}>", el.name.local_part()),
                _ => "text".to_string(),
            })
            .collect();
        // a and b swap into each other's slots; x, y and <c> stay put.
        assert_eq!(rendered, vec!["text", "<a>", "<b>", "text", "<c>"]);
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
