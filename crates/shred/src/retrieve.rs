//! Document reconstruction for the generic baselines.
//!
//! Inverts the edge-table ([`crate::edge`]), attribute-table
//! ([`crate::attrtab`]) and hybrid-inlining ([`crate::inline`]) shredders:
//! given the stored rows, rebuild the DOM. Each strategy is one assembly
//! over [`KeyedReader`] lookups — the same keyed access the
//! object-relational retriever runs on — so `bulk` only picks how the reader
//! answers: `false` re-scans the table per lookup (O(nodes × rows) on the
//! edge mapping, the reference the set-oriented path is diffed against),
//! `true` probes a fresh secondary index on the key column or builds one
//! hash multimap per table. Either way candidate rows come back in
//! heap-slot order, so both produce byte-identical documents.
//!
//! The generic mappings drop comments, processing instructions and the XML
//! declaration at *load* time; the attribute-table and inlining mappings
//! additionally concatenate text and lose mixed-content interleaving. The
//! reconstruction is therefore exact for data-centric documents — the same
//! §7 caveat the object-relational mapping carries. Inlining assumes each
//! relation element name occurs at one position of the DTD tree (true for
//! generated corpora); a name reachable through two different inlined
//! intermediates of one parent would alias its `ParentID` rows.

use std::collections::BTreeMap;

use xmlord_dtd::ast::Dtd;
use xmlord_ordb::ident::Ident;
use xmlord_ordb::storage::{KeyedReader, Storage};
use xmlord_ordb::{DbError, Value};
use xmlord_xml::{Document, NodeId, QName};

use crate::inline::{InlineRelation, InlineSchema};

fn node_id(v: &Value) -> Option<u64> {
    v.as_num().map(|n| n as u64)
}

/// Open one of a mapping's tables on its lookup column — the keyed access
/// all three reconstructors share is [`Storage::keyed_reader`].
fn open<'a>(
    storage: &'a Storage,
    name: &str,
    key_col: usize,
    bulk: bool,
) -> Result<KeyedReader<'a>, DbError> {
    storage
        .keyed_reader(&Ident::internal(name), key_col, bulk)
        .ok_or_else(|| DbError::UnknownTable(name.to_string()))
}

/// The lookup key for a node / row ID (the loaders store them as NUMBERs).
fn id_key(id: u64) -> Value {
    Value::Num(id as f64)
}

// ---------------------------------------------------------------- edge --

/// Rebuild the document stored in `TabEdge`/`TabValue` by [`crate::edge`].
pub fn reconstruct_edge(storage: &Storage, bulk: bool) -> Result<Document, DbError> {
    let mut edges = open(storage, "TabEdge", 0, bulk)?;
    let mut values = open(storage, "TabValue", 0, bulk)?;
    let mut doc = Document::new();
    // The virtual document root (node 0) has exactly one element edge.
    let rows = edges.rows();
    let root_slot = edges
        .slots(&id_key(0))
        .into_iter()
        .find(|&slot| rows[slot].values.get(3).and_then(Value::as_str) == Some("ref"))
        .ok_or_else(|| DbError::Execution("edge store holds no document".into()))?;
    let root_row = &rows[root_slot];
    let name = root_row.values.get(2).and_then(Value::as_str).unwrap_or_default();
    let target = root_row.values.get(4).and_then(node_id).unwrap_or(0);
    let root = build_edge_element(&mut doc, &mut edges, &mut values, name, target)?;
    doc.set_root(root);
    Ok(doc)
}

fn edge_value(values: &mut KeyedReader, vid: u64) -> Result<String, DbError> {
    let rows = values.rows();
    let slot = values
        .slots(&id_key(vid))
        .into_iter()
        .next()
        .ok_or_else(|| DbError::Execution(format!("TabValue has no row VID={vid}")))?;
    Ok(rows[slot].values.get(1).and_then(Value::as_str).unwrap_or_default().to_string())
}

fn build_edge_element(
    doc: &mut Document,
    edges: &mut KeyedReader,
    values: &mut KeyedReader,
    name: &str,
    id: u64,
) -> Result<NodeId, DbError> {
    let node = doc.create_element(QName::local(name));
    let rows = edges.rows();
    // Attribute edges (`@name`) order among themselves; element and text
    // edges share the loader's child ordinal sequence, so interleaved
    // mixed content comes back in document order.
    let mut attrs: Vec<(u64, &str, u64)> = Vec::new();
    let mut children: Vec<(u64, &str, u64)> = Vec::new();
    for slot in edges.slots(&id_key(id)) {
        let row = &rows[slot];
        let ordinal = row.values.get(1).and_then(node_id).unwrap_or(0);
        let edge_name = row.values.get(2).and_then(Value::as_str).unwrap_or_default();
        let target = row.values.get(4).and_then(node_id).unwrap_or(0);
        if edge_name.starts_with('@') {
            attrs.push((ordinal, edge_name, target));
        } else {
            children.push((ordinal, edge_name, target));
        }
    }
    attrs.sort_by_key(|(ordinal, ..)| *ordinal);
    children.sort_by_key(|(ordinal, ..)| *ordinal);
    for (_, attr_name, vid) in attrs {
        let value = edge_value(values, vid)?;
        doc.set_attribute(node, QName::local(&attr_name[1..]), &value);
    }
    for (_, child_name, target) in children {
        if child_name == "text()" {
            let text = edge_value(values, target)?;
            let t = doc.create_text(&text);
            doc.append_child(node, t);
        } else {
            let child = build_edge_element(doc, edges, values, child_name, target)?;
            doc.append_child(node, child);
        }
    }
    Ok(node)
}

// ------------------------------------------------------ attribute tables --

/// Rebuild a document stored in the per-name tables by [`crate::attrtab`].
/// The DTD and root drive the same reachability walk the DDL used, so the
/// reconstructor consults exactly the tables that exist.
pub fn reconstruct_attrtab(
    storage: &Storage,
    dtd: &Dtd,
    root: &str,
    bulk: bool,
) -> Result<Document, DbError> {
    let reachable = crate::attrtab::reachable_elements(dtd, root);
    let mut element_tables: BTreeMap<String, KeyedReader> = BTreeMap::new();
    let mut attr_tables: BTreeMap<String, KeyedReader> = BTreeMap::new();
    for element in &reachable {
        let table = crate::attrtab::element_table(element);
        element_tables.insert(element.clone(), open(storage, &table, 0, bulk)?);
        for def in dtd.attributes_of(element) {
            if !attr_tables.contains_key(&def.name) {
                let table = crate::attrtab::attribute_table(&def.name);
                attr_tables.insert(def.name.clone(), open(storage, &table, 0, bulk)?);
            }
        }
    }
    let mut ctx = AttrTabRetriever { element_tables, attr_tables };
    // The document element is the root-table row with Source = 0.
    let root_id = {
        let reader = ctx
            .element_tables
            .get_mut(root)
            .ok_or_else(|| DbError::Execution(format!("<{root}> has no element table")))?;
        let rows = reader.rows();
        reader
            .slots(&id_key(0))
            .into_iter()
            .find_map(|slot| rows[slot].values.get(2).and_then(node_id))
            .ok_or_else(|| DbError::Execution("attribute-table store holds no document".into()))?
    };
    let mut doc = Document::new();
    let node = ctx.build(&mut doc, root, root_id)?;
    doc.set_root(node);
    Ok(doc)
}

struct AttrTabRetriever<'a> {
    element_tables: BTreeMap<String, KeyedReader<'a>>,
    attr_tables: BTreeMap<String, KeyedReader<'a>>,
}

impl<'a> AttrTabRetriever<'a> {
    fn build(&mut self, doc: &mut Document, element: &str, id: u64) -> Result<NodeId, DbError> {
        let node = doc.create_element(QName::local(element));
        // Attributes: every attribute table may hold rows for this node;
        // the stored ordinal is the original attribute position.
        let mut attrs: Vec<(u64, String, &'a str)> = Vec::new();
        for (attr_name, reader) in self.attr_tables.iter_mut() {
            let rows = reader.rows();
            for slot in reader.slots(&id_key(id)) {
                let row = &rows[slot];
                let ordinal = row.values.get(1).and_then(node_id).unwrap_or(0);
                let value = row.values.get(2).and_then(Value::as_str).unwrap_or_default();
                attrs.push((ordinal, attr_name.clone(), value));
            }
        }
        attrs.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, attr_name, value) in attrs {
            doc.set_attribute(node, QName::local(&attr_name), value);
        }
        // Own text is the NULL-Target row in this element's own table
        // (concatenated at load time); child elements are rows of any
        // element table with `Source = id` and a Target, their stored
        // ordinal global across the child sequence.
        let mut text: Option<&'a str> = None;
        let mut children: Vec<(u64, String, u64)> = Vec::new();
        for (child_element, reader) in self.element_tables.iter_mut() {
            let rows = reader.rows();
            for slot in reader.slots(&id_key(id)) {
                let row = &rows[slot];
                match row.values.get(2).and_then(node_id) {
                    Some(target) => {
                        let ordinal = row.values.get(1).and_then(node_id).unwrap_or(0);
                        children.push((ordinal, child_element.clone(), target));
                    }
                    None if child_element == element => {
                        text = row.values.get(3).and_then(Value::as_str);
                    }
                    None => {}
                }
            }
        }
        if let Some(text) = text {
            if !text.is_empty() {
                let t = doc.create_text(text);
                doc.append_child(node, t);
            }
        }
        children.sort_by_key(|(ordinal, ..)| *ordinal);
        for (_, child_element, target) in children {
            let child = self.build(doc, &child_element, target)?;
            doc.append_child(node, child);
        }
        Ok(node)
    }
}

// -------------------------------------------------------------- inlining --

/// Rebuild a document stored by [`InlineSchema::load`]. The DTD's content
/// models drive child order: within one parent, relation children attach in
/// ascending row ID (the loader assigns IDs in a pre-order walk, so
/// ascending ID is document order), inlined children rebuild from their
/// path columns in the owning relation's row.
pub fn reconstruct_inline(
    storage: &Storage,
    schema: &InlineSchema,
    dtd: &Dtd,
    bulk: bool,
) -> Result<Document, DbError> {
    let mut readers: BTreeMap<String, KeyedReader> = BTreeMap::new();
    for relation in schema.relations.values() {
        // Keyed on ParentID — the column every child lookup probes.
        readers.insert(relation.element.clone(), open(storage, &relation.table, 1, bulk)?);
    }
    let root_slot = {
        let reader = readers.get(&schema.root).ok_or_else(|| {
            DbError::Execution(format!("<{}> has no inlined relation", schema.root))
        })?;
        reader
            .rows()
            .iter()
            .position(|r| r.values.get(1).is_none_or(Value::is_null))
            .ok_or_else(|| DbError::Execution("inline store holds no document".into()))?
    };
    let mut ctx = InlineRetriever { schema, dtd, readers };
    let mut doc = Document::new();
    let node = ctx.build_relation(&mut doc, &schema.root, root_slot)?;
    doc.set_root(node);
    Ok(doc)
}

struct InlineRetriever<'a> {
    schema: &'a InlineSchema,
    dtd: &'a Dtd,
    readers: BTreeMap<String, KeyedReader<'a>>,
}

impl<'a> InlineRetriever<'a> {
    /// Rebuild one relation row as an element subtree.
    fn build_relation(
        &mut self,
        doc: &mut Document,
        element: &str,
        slot: usize,
    ) -> Result<NodeId, DbError> {
        let relation = self.schema.relations.get(element).ok_or_else(|| {
            DbError::Execution(format!("<{element}> has no inlined relation"))
        })?;
        let rows = self.readers.get(element).expect("readers cover schema").rows();
        let row: &'a [Value] = &rows[slot].values;
        let row_id = row
            .first()
            .and_then(node_id)
            .ok_or_else(|| DbError::Execution(format!("{} row without an ID", relation.table)))?;
        let node = doc.create_element(QName::local(element));
        self.fill(doc, node, relation, element, &mut Vec::new(), row, row_id)?;
        Ok(node)
    }

    /// Populate the element at `path` inside `relation`'s row (`path` empty
    /// = the relation element itself): its text and attribute columns, then
    /// its children in content-model order — inlined ones recurse deeper
    /// into the same row, relation ones pull their own rows via `ParentID`.
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &mut self,
        doc: &mut Document,
        node: NodeId,
        relation: &'a InlineRelation,
        decl_name: &str,
        path: &mut Vec<String>,
        row: &'a [Value],
        row_id: u64,
    ) -> Result<(), DbError> {
        for (i, column) in relation.columns.iter().enumerate() {
            if column.path != *path {
                continue;
            }
            let Some(value) = row.get(2 + i).and_then(Value::as_str) else { continue };
            match &column.attr {
                Some(attr) => doc.set_attribute(node, QName::local(attr), value),
                None => {
                    if !value.is_empty() {
                        let t = doc.create_text(value);
                        doc.append_child(node, t);
                    }
                }
            }
        }
        let Some(decl) = self.dtd.element(decl_name) else { return Ok(()) };
        for child in decl.content.child_names() {
            if self.schema.relations.contains_key(&child) {
                let slots = {
                    let reader = self.readers.get_mut(&child).expect("readers cover schema");
                    let rows = reader.rows();
                    let mut slots = reader.slots(&id_key(row_id));
                    slots.sort_by_key(|&s| {
                        rows[s].values.first().and_then(node_id).unwrap_or(0)
                    });
                    slots
                };
                for slot in slots {
                    let child_node = self.build_relation(doc, &child, slot)?;
                    doc.append_child(node, child_node);
                }
            } else {
                path.push(child.clone());
                // An inlined element is present iff any column at or below
                // its path holds a value (the loader stores '' for present-
                // but-empty text, NULL for absent).
                if column_present(relation, path, row) {
                    let child_node = doc.create_element(QName::local(&child));
                    self.fill(doc, child_node, relation, &child, path, row, row_id)?;
                    doc.append_child(node, child_node);
                }
                path.pop();
            }
        }
        Ok(())
    }
}

fn column_present(relation: &InlineRelation, path: &[String], row: &[Value]) -> bool {
    relation.columns.iter().enumerate().any(|(i, column)| {
        column.path.len() >= path.len()
            && column.path[..path.len()] == *path
            && row.get(2 + i).is_some_and(|v| !v.is_null())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlord_dtd::parse_dtd;
    use xmlord_ordb::{Database, DbMode};
    use xmlord_xml::serializer::{serialize, SerializeOptions};

    // Attribute order matches the ATTLIST: the inlining mapping stores
    // attributes as columns in declaration order, losing document order.
    const DTD: &str = r#"
        <!ELEMENT a (s,p*)>
        <!ELEMENT s (#PCDATA)>
        <!ELEMENT p (name,age?)>
        <!ATTLIST p kind CDATA #IMPLIED id2 CDATA #IMPLIED>
        <!ELEMENT name (#PCDATA)> <!ELEMENT age (#PCDATA)>"#;

    const XML: &str = "<a><s>top</s><p kind=\"x\" id2=\"z\"><name>n1</name><age>7</age></p>\
<p kind=\"y\"><name>n2</name></p></a>";

    fn canonical(xml: &str) -> String {
        serialize(&xmlord_xml::parse(xml).unwrap(), &SerializeOptions::compact())
    }

    #[test]
    fn edge_reconstruction_round_trips_both_paths() {
        let doc = xmlord_xml::parse(XML).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(crate::edge::ddl()).unwrap();
        for s in crate::edge::load(&doc) {
            db.execute(&s).unwrap();
        }
        let storage = db.storage();
        for bulk in [false, true] {
            let restored = reconstruct_edge(&storage, bulk).unwrap();
            assert_eq!(
                serialize(&restored, &SerializeOptions::compact()),
                canonical(XML),
                "bulk={bulk}"
            );
        }
    }

    #[test]
    fn edge_reconstruction_preserves_mixed_content() {
        let xml = "<a>before<p kind=\"x\">inner</p>after</a>";
        let doc = xmlord_xml::parse(xml).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(crate::edge::ddl()).unwrap();
        for s in crate::edge::load(&doc) {
            db.execute(&s).unwrap();
        }
        let storage = db.storage();
        for bulk in [false, true] {
            let restored = reconstruct_edge(&storage, bulk).unwrap();
            assert_eq!(
                serialize(&restored, &SerializeOptions::compact()),
                canonical(xml),
                "bulk={bulk}"
            );
        }
    }

    #[test]
    fn edge_reconstruction_uses_indexes_when_present() {
        let doc = xmlord_xml::parse(XML).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(crate::edge::ddl()).unwrap();
        for s in crate::edge::load(&doc) {
            db.execute(&s).unwrap();
        }
        db.execute("CREATE INDEX IxEdgeSrc ON TabEdge (Source)").unwrap();
        db.execute("CREATE INDEX IxValVid ON TabValue (VID)").unwrap();
        let storage = db.storage();
        let restored = reconstruct_edge(&storage, true).unwrap();
        assert_eq!(serialize(&restored, &SerializeOptions::compact()), canonical(XML));
    }

    #[test]
    fn attrtab_reconstruction_round_trips_both_paths() {
        let dtd = parse_dtd(DTD).unwrap();
        let doc = xmlord_xml::parse(XML).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&crate::attrtab::ddl(&dtd, "a")).unwrap();
        for s in crate::attrtab::load(&doc) {
            db.execute(&s).unwrap();
        }
        let storage = db.storage();
        for bulk in [false, true] {
            let restored = reconstruct_attrtab(&storage, &dtd, "a", bulk).unwrap();
            assert_eq!(
                serialize(&restored, &SerializeOptions::compact()),
                canonical(XML),
                "bulk={bulk}"
            );
        }
    }

    #[test]
    fn inline_reconstruction_round_trips_both_paths() {
        let dtd = parse_dtd(DTD).unwrap();
        let doc = xmlord_xml::parse(XML).unwrap();
        let schema = InlineSchema::build(&dtd, "a");
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&schema.ddl()).unwrap();
        for s in schema.load(&doc).unwrap() {
            db.execute(&s).unwrap();
        }
        let storage = db.storage();
        for bulk in [false, true] {
            let restored = reconstruct_inline(&storage, &schema, &dtd, bulk).unwrap();
            assert_eq!(
                serialize(&restored, &SerializeOptions::compact()),
                canonical(XML),
                "bulk={bulk}"
            );
        }
    }

    #[test]
    fn inline_reconstruction_handles_recursion() {
        let dtd_text = r#"<!ELEMENT Professor (PName,Dept)>
               <!ELEMENT Dept (DName,Professor*)>
               <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>"#;
        let xml = "<Professor><PName>K</PName><Dept><DName>CS</DName>\
<Professor><PName>J</PName><Dept><DName>Lab</DName></Dept></Professor>\
</Dept></Professor>";
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = xmlord_xml::parse(xml).unwrap();
        let schema = InlineSchema::build(&dtd, "Professor");
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&schema.ddl()).unwrap();
        for s in schema.load(&doc).unwrap() {
            db.execute(&s).unwrap();
        }
        let storage = db.storage();
        for bulk in [false, true] {
            let restored = reconstruct_inline(&storage, &schema, &dtd, bulk).unwrap();
            assert_eq!(
                serialize(&restored, &SerializeOptions::compact()),
                canonical(xml),
                "bulk={bulk}"
            );
        }
    }
}
