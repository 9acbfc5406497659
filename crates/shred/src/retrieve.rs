//! Document reconstruction for the generic baselines.
//!
//! Inverts the edge-table ([`crate::edge`]), attribute-table
//! ([`crate::attrtab`]) and hybrid-inlining ([`crate::inline`]) shredders:
//! given the stored rows, report the document as [`ContentSink`] events —
//! the shape the object-relational retriever gives its walk — which the
//! `reconstruct_*` functions build into a DOM with a [`DomBuilder`].
//!
//! Each walk prepares its plan once per call — one [`QName`] per distinct
//! name, and for inlining the columns and children of each element position
//! of each relation — then borrows every value from the stored blocks. It
//! runs over an explicit stack of tasks (an element, its text, its end), so
//! document depth costs heap, not stack. Lookups go through
//! [`KeyedReader`]: the edge mapping reads `TabEdge` by `Source` and
//! `TabValue` by `VID`, the attribute-table mapping opens *one* reader over
//! all element tables and one over all attribute tables (two lookups per
//! node, whatever the number of names), inlining one reader per relation on
//! `ParentID`. `bulk` picks only how a reader answers, never which walk
//! runs: `false` re-scans every table per lookup (the reference the
//! set-oriented path is diffed against), `true` probes fresh secondary
//! indexes on the key column or builds one hash multimap per reader. Either
//! way candidate rows come back in table order, then heap order, so both
//! produce byte-identical documents.
//!
//! The generic mappings drop comments, processing instructions and the XML
//! declaration at *load* time; the attribute-table and inlining mappings
//! additionally concatenate text and lose mixed-content interleaving. The
//! reconstruction is therefore exact for data-centric documents — the same
//! §7 caveat the object-relational mapping carries. Inlining assumes each
//! relation element name occurs at one position of the DTD tree (true for
//! generated corpora); a name reachable through two different inlined
//! intermediates of one parent would alias its `ParentID` rows.

use std::collections::{BTreeSet, HashMap};

use xmlord_dtd::ast::Dtd;
use xmlord_dtd::graph::ElementGraph;
use xmlord_ordb::ident::Ident;
use xmlord_ordb::storage::{KeyedReader, Storage};
use xmlord_ordb::{DbError, Value};
use xmlord_xml::{ContentSink, Document, DomBuilder, QName};

use crate::inline::InlineSchema;

fn node_id(v: &Value) -> Option<u64> {
    v.as_num().map(|n| n as u64)
}

/// The string in column `col` of a stored row, if it holds one.
fn str_at(row: &[Value], col: usize) -> Option<&str> {
    row.get(col).and_then(Value::as_str)
}

/// Open a mapping's tables, in this order, on their shared lookup column —
/// the keyed access all three reconstructors share is
/// [`Storage::keyed_reader_over`].
fn open<'a>(
    storage: &'a Storage,
    names: &[String],
    key_col: usize,
    bulk: bool,
) -> Result<KeyedReader<'a>, DbError> {
    let tables: Vec<Ident> = names.iter().map(|name| Ident::internal(name)).collect();
    storage.keyed_reader_over(&tables, key_col, bulk).ok_or_else(|| {
        let missing = names.iter().zip(&tables).find(|(_, t)| storage.table(t).is_none());
        DbError::UnknownTable(missing.map_or_else(String::new, |(name, _)| name.clone()))
    })
}

/// The lookup key for a node / row ID (the loaders store them as NUMBERs).
fn id_key(id: u64) -> Value {
    Value::Num(id as f64)
}

/// A stored element name as an XML name.
fn qname(raw: &str) -> Result<QName, DbError> {
    QName::parse(raw)
        .ok_or_else(|| DbError::Execution(format!("stored element name {raw:?} is not an XML name")))
}

/// Build a document from a walk's events.
fn build(walk: impl FnOnce(&mut DomBuilder) -> Result<(), DbError>) -> Result<Document, DbError> {
    let mut builder = DomBuilder::new();
    walk(&mut builder)?;
    Ok(builder.finish())
}

// ---------------------------------------------------------------- edge --

/// Rebuild the document stored in `TabEdge`/`TabValue` by [`crate::edge`].
pub fn reconstruct_edge(storage: &Storage, bulk: bool) -> Result<Document, DbError> {
    build(|sink| edge_walk(storage, bulk, sink))
}

#[derive(Clone, Copy)]
enum EdgeTask<'a> {
    /// An element edge's name and target node.
    Element(&'a str, u64),
    /// A text edge's value ID.
    Text(u64),
    /// The end of the element whose name has this index.
    End(usize),
}

fn edge_walk(storage: &Storage, bulk: bool, sink: &mut impl ContentSink) -> Result<(), DbError> {
    let mut edges = open(storage, &["TabEdge".into()], 0, bulk)?;
    let mut values = open(storage, &["TabValue".into()], 0, bulk)?;
    let (edge_rows, value_rows) = (edges.rows(), values.rows());
    let mut value = |vid: u64| {
        let key = id_key(vid);
        let slot = values.each_slot(&key).next();
        slot.map(|slot| str_at(&value_rows[slot].values, 1).unwrap_or_default())
            .ok_or_else(|| DbError::Execution(format!("TabValue has no row VID={vid}")))
    };
    // The virtual document root (node 0) has exactly one element edge.
    let root = edges
        .each_slot(&id_key(0))
        .map(|slot| edge_rows[slot].values.as_slice())
        .find(|row| str_at(row, 3) == Some("ref"))
        .ok_or_else(|| DbError::Execution("edge store holds no document".into()))?;
    let root_target = root.get(4).and_then(node_id).unwrap_or(0);
    let mut stack = vec![EdgeTask::Element(str_at(root, 2).unwrap_or_default(), root_target)];
    let mut ids: HashMap<&str, usize> = HashMap::new();
    let mut names: Vec<QName> = Vec::new();
    // Attribute edges (`@name`) order among themselves; element and text
    // edges share the loader's child ordinal sequence, so interleaved
    // mixed content comes back in document order.
    let mut attrs: Vec<(u64, &str, u64)> = Vec::new();
    let mut children: Vec<(u64, &str, u64)> = Vec::new();
    while let Some(task) = stack.pop() {
        let (raw, id) = match task {
            EdgeTask::Element(raw, id) => (raw, id),
            EdgeTask::Text(vid) => {
                sink.text(value(vid)?);
                continue;
            }
            EdgeTask::End(name) => {
                sink.end_element(&names[name]);
                continue;
            }
        };
        let name = match ids.get(raw) {
            Some(&name) => name,
            None => {
                names.push(qname(raw)?);
                ids.insert(raw, names.len() - 1);
                names.len() - 1
            }
        };
        sink.start_element(&names[name]);
        for slot in edges.each_slot(&id_key(id)) {
            let row = &edge_rows[slot].values;
            let ordinal = row.get(1).and_then(node_id).unwrap_or(0);
            let edge_name = str_at(row, 2).unwrap_or_default();
            let target = row.get(4).and_then(node_id).unwrap_or(0);
            match edge_name.strip_prefix('@') {
                Some(attr) => attrs.push((ordinal, attr, target)),
                None => children.push((ordinal, edge_name, target)),
            }
        }
        attrs.sort_by_key(|(ordinal, ..)| *ordinal);
        children.sort_by_key(|(ordinal, ..)| *ordinal);
        for (_, attr, vid) in attrs.drain(..) {
            sink.attribute(attr, value(vid)?);
        }
        stack.push(EdgeTask::End(name));
        stack.extend(children.drain(..).rev().map(|(_, child, target)| match child {
            "text()" => EdgeTask::Text(target),
            _ => EdgeTask::Element(child, target),
        }));
    }
    Ok(())
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
    build(|sink| attrtab_walk(storage, dtd, root, bulk, sink))
}

#[derive(Clone, Copy)]
enum AttrTabTask {
    /// A node of the element whose table has this index.
    Element(usize, u64),
    End(usize),
}

fn attrtab_walk(
    storage: &Storage,
    dtd: &Dtd,
    root: &str,
    bulk: bool,
    sink: &mut impl ContentSink,
) -> Result<(), DbError> {
    // Table order is name order, so a lookup's rows come back grouped by
    // element (or attribute) name, as the per-name loops they replace did.
    let elements: Vec<String> = ElementGraph::build(dtd).reachable_from(root).into_iter().collect();
    let attributes: Vec<&str> = elements
        .iter()
        .flat_map(|element| dtd.attributes_of(element))
        .map(|def| def.name.as_str())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let element_tables: Vec<String> =
        elements.iter().map(|e| crate::attrtab::element_table(e)).collect();
    let attribute_tables: Vec<String> =
        attributes.iter().map(|a| crate::attrtab::attribute_table(a)).collect();
    let mut element_rows = open(storage, &element_tables, 0, bulk)?;
    let mut attr_rows = open(storage, &attribute_tables, 0, bulk)?;
    let names = elements.iter().map(|e| qname(e)).collect::<Result<Vec<_>, _>>()?;
    // The heaps, apart from the readers that borrow them per lookup.
    let element_heaps: Vec<_> = (0..elements.len()).map(|t| element_rows.table_rows(t)).collect();
    let attr_heaps: Vec<_> = (0..attributes.len()).map(|t| attr_rows.table_rows(t)).collect();

    // The document element is the root-table row with Source = 0.
    let root_table = elements
        .iter()
        .position(|e| e == root)
        .ok_or_else(|| DbError::Execution(format!("<{root}> has no element table")))?;
    let root_id = element_rows
        .lookup(&id_key(0))
        .filter(|&(table, _)| table == root_table)
        .find_map(|(table, slot)| element_heaps[table][slot].values.get(2).and_then(node_id));
    let root_id = root_id
        .ok_or_else(|| DbError::Execution("attribute-table store holds no document".into()))?;

    let mut stack = vec![AttrTabTask::Element(root_table, root_id)];
    let mut attrs: Vec<(u64, usize, &str)> = Vec::new();
    let mut children: Vec<(u64, usize, u64)> = Vec::new();
    while let Some(task) = stack.pop() {
        let (element, id) = match task {
            AttrTabTask::Element(element, id) => (element, id),
            AttrTabTask::End(element) => {
                sink.end_element(&names[element]);
                continue;
            }
        };
        sink.start_element(&names[element]);
        let key = id_key(id);
        // Attributes: any attribute table may hold rows for this node; the
        // stored ordinal is the original attribute position.
        for (table, slot) in attr_rows.lookup(&key) {
            let row = &attr_heaps[table][slot].values;
            let ordinal = row.get(1).and_then(node_id).unwrap_or(0);
            attrs.push((ordinal, table, str_at(row, 2).unwrap_or_default()));
        }
        attrs.sort_by_key(|&(ordinal, table, _)| (ordinal, table));
        for (_, table, value) in attrs.drain(..) {
            sink.attribute(attributes[table], value);
        }
        // Own text is the NULL-Target row in this element's own table
        // (concatenated at load time); child elements are rows of any
        // element table with `Source = id` and a Target, their stored
        // ordinal global across the child sequence.
        let mut text = None;
        for (table, slot) in element_rows.lookup(&key) {
            let row = &element_heaps[table][slot].values;
            match row.get(2).and_then(node_id) {
                Some(target) => {
                    let ordinal = row.get(1).and_then(node_id).unwrap_or(0);
                    children.push((ordinal, table, target));
                }
                None if table == element => text = str_at(row, 3),
                None => {}
            }
        }
        if let Some(text) = text.filter(|t| !t.is_empty()) {
            sink.text(text);
        }
        children.sort_by_key(|(ordinal, ..)| *ordinal);
        stack.push(AttrTabTask::End(element));
        stack.extend(
            children.drain(..).rev().map(|(_, table, target)| AttrTabTask::Element(table, target)),
        );
    }
    Ok(())
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
    build(|sink| inline_walk(storage, schema, dtd, bulk, sink))
}

/// One element position of an inlined relation: the relation's own element
/// (the first shapes, one per relation in schema order) or an element
/// inlined at some path below it.
struct Shape<'s> {
    name: QName,
    /// Attribute columns at this path, as (attribute, row position).
    attrs: Vec<(&'s str, usize)>,
    /// Text columns at this path, as row positions.
    texts: Vec<usize>,
    /// Children in content-model order.
    children: Vec<ShapeChild>,
}

enum ShapeChild {
    /// The rows of this relation whose `ParentID` is the owning row's ID.
    Relation(usize),
    /// An element inlined into the same row, present iff one of the row
    /// positions at or below its path holds a value (the loader stores ''
    /// for present-but-empty text, NULL for absent).
    Inlined { shape: usize, present: Vec<usize> },
}

impl Shape<'_> {
    fn new(name: QName) -> Self {
        Shape { name, attrs: Vec::new(), texts: Vec::new(), children: Vec::new() }
    }
}

/// The shapes of every relation: walked once per call, from the relations'
/// own elements down their content models to the relation boundaries. An
/// inlined child with no column at or below its path can never be present,
/// and gets no shape.
fn inline_shapes<'s>(schema: &'s InlineSchema, dtd: &Dtd) -> Result<Vec<Shape<'s>>, DbError> {
    let relations: Vec<_> = schema.relations.values().collect();
    let relation_of: HashMap<&str, usize> =
        relations.iter().enumerate().map(|(i, r)| (r.element.as_str(), i)).collect();
    let mut shapes = Vec::new();
    // (shape, its relation, its path below the relation element)
    let mut pending: Vec<(usize, usize, Vec<String>)> = Vec::new();
    for (i, relation) in relations.iter().enumerate() {
        pending.push((i, i, Vec::new()));
        shapes.push(Shape::new(qname(&relation.element)?));
    }
    while let Some((shape, relation, path)) = pending.pop() {
        let columns = &relations[relation].columns;
        for (i, column) in columns.iter().enumerate().filter(|(_, c)| c.path == path) {
            match &column.attr {
                Some(attr) => shapes[shape].attrs.push((attr.as_str(), 2 + i)),
                None => shapes[shape].texts.push(2 + i),
            }
        }
        let element = path.last().unwrap_or(&relations[relation].element);
        let Some(decl) = dtd.element(element) else { continue };
        for child in decl.content.child_names() {
            if let Some(&child_relation) = relation_of.get(child.as_str()) {
                shapes[shape].children.push(ShapeChild::Relation(child_relation));
                continue;
            }
            let name = qname(&child)?;
            let mut child_path = path.clone();
            child_path.push(child);
            let present: Vec<usize> = (columns.iter().enumerate())
                .filter(|(_, c)| c.path.starts_with(&child_path))
                .map(|(i, _)| 2 + i)
                .collect();
            if present.is_empty() {
                continue;
            }
            let child_shape = shapes.len();
            shapes.push(Shape::new(name));
            shapes[shape].children.push(ShapeChild::Inlined { shape: child_shape, present });
            pending.push((child_shape, relation, child_path));
        }
    }
    Ok(shapes)
}

#[derive(Clone, Copy)]
enum InlineTask<'a> {
    /// A row of the relation with this index, by slot.
    Row(usize, usize),
    /// An element of this shape, from its owning row and that row's ID.
    Element(usize, &'a [Value], u64),
    End(usize),
}

fn inline_walk(
    storage: &Storage,
    schema: &InlineSchema,
    dtd: &Dtd,
    bulk: bool,
    sink: &mut impl ContentSink,
) -> Result<(), DbError> {
    let shapes = inline_shapes(schema, dtd)?;
    let relations: Vec<_> = schema.relations.values().collect();
    // Keyed on ParentID — the column every child lookup probes.
    let mut readers = relations
        .iter()
        .map(|relation| open(storage, std::slice::from_ref(&relation.table), 1, bulk))
        .collect::<Result<Vec<_>, _>>()?;
    let root = relations
        .iter()
        .position(|relation| relation.element == schema.root)
        .ok_or_else(|| DbError::Execution(format!("<{}> has no inlined relation", schema.root)))?;
    let root_slot = readers[root]
        .rows()
        .iter()
        .position(|r| r.values.get(1).is_none_or(Value::is_null))
        .ok_or_else(|| DbError::Execution("inline store holds no document".into()))?;

    let mut stack = vec![InlineTask::Row(root, root_slot)];
    let mut slots: Vec<usize> = Vec::new();
    while let Some(task) = stack.pop() {
        let (shape, row, row_id) = match task {
            InlineTask::Row(relation, slot) => {
                let row = &readers[relation].rows()[slot].values;
                let row_id = row.first().and_then(node_id).ok_or_else(|| {
                    DbError::Execution(format!("{} row without an ID", relations[relation].table))
                })?;
                (relation, row.as_slice(), row_id)
            }
            InlineTask::Element(shape, row, row_id) => (shape, row, row_id),
            InlineTask::End(shape) => {
                sink.end_element(&shapes[shape].name);
                continue;
            }
        };
        let plan = &shapes[shape];
        sink.start_element(&plan.name);
        for &(attr, col) in &plan.attrs {
            if let Some(value) = str_at(row, col) {
                sink.attribute(attr, value);
            }
        }
        for &col in &plan.texts {
            if let Some(text) = str_at(row, col).filter(|t| !t.is_empty()) {
                sink.text(text);
            }
        }
        stack.push(InlineTask::End(shape));
        // Children go on the stack last first.
        for child in plan.children.iter().rev() {
            match child {
                ShapeChild::Relation(relation) => {
                    let reader = &mut readers[*relation];
                    let rows = reader.rows();
                    slots.extend(reader.each_slot(&id_key(row_id)));
                    slots.sort_by_key(|&s| rows[s].values.first().and_then(node_id).unwrap_or(0));
                    stack.extend(slots.drain(..).rev().map(|slot| InlineTask::Row(*relation, slot)));
                }
                ShapeChild::Inlined { shape, present } => {
                    if present.iter().any(|&col| row.get(col).is_some_and(|v| !v.is_null())) {
                        stack.push(InlineTask::Element(*shape, row, row_id));
                    }
                }
            }
        }
    }
    Ok(())
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
