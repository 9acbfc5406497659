//! A document 10 000 elements deep rebuilds through the edge,
//! attribute-table and inlining walkers on a 2 MiB thread — the default
//! stack of a spawned thread — in debug and release builds alike: the
//! walkers keep their pending work on an explicit stack, so depth costs
//! heap, not stack. A walker that recurses once per level overflows here.
//!
//! The rows are written with INSERT statements rather than by the
//! shredders, which still recurse on depth, and the rebuilt tree is checked
//! by a loop, since the serializer recurses too. Each walker runs with
//! `bulk` on: `bulk` picks how lookups are answered, not the walk, and the
//! scanning reference would read each table once per node — 10^8 row
//! visits here.

use xmlord_dtd::parse_dtd;
use xmlord_ordb::{Database, DbMode, Value};
use xmlord_shred::inline::InlineSchema;
use xmlord_shred::retrieve::{reconstruct_attrtab, reconstruct_edge, reconstruct_inline};
use xmlord_shred::{attrtab, edge};
use xmlord_xml::{Document, NodeId, NodeKind};

const DEPTH: usize = 10_000;

/// Run `walk` on a thread with a 2 MiB stack.
fn on_a_2_mib_stack<T: Send>(walk: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        thread.spawn_scoped(scope, walk).unwrap().join().unwrap()
    })
}

fn execute_all(db: &mut Database, statements: impl IntoIterator<Item = String>) {
    for sql in statements {
        db.execute(&sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
    }
}

/// The element children of `node` and its text.
fn content(doc: &Document, node: NodeId) -> (Vec<NodeId>, String) {
    let mut elements = Vec::new();
    let mut text = String::new();
    for &child in doc.children(node) {
        match doc.kind(child) {
            NodeKind::Element(_) => elements.push(child),
            NodeKind::Text(t) => text.push_str(t),
            _ => {}
        }
    }
    (elements, text)
}

/// `doc` is a chain of `DEPTH` `<n>` elements whose innermost holds `leaf`.
fn assert_chain(doc: &Document, leaf: &str) {
    let mut node = doc.root_element().expect("a root");
    for level in 1..=DEPTH {
        assert_eq!(doc.name(node).as_raw(), "n", "level {level}");
        let (children, text) = content(doc, node);
        if level == DEPTH {
            assert!(children.is_empty(), "level {level}");
            assert_eq!(text, leaf);
        } else {
            assert_eq!((children.len(), text.as_str()), (1, ""), "level {level}");
            node = children[0];
        }
    }
}

#[test]
fn a_10_000_deep_edge_table_document_rebuilds_on_a_2_mib_stack() {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(edge::ddl()).unwrap();
    execute_all(
        &mut db,
        (1..=DEPTH).map(|i| format!("INSERT INTO TabEdge VALUES ({}, 0, 'n', 'ref', {i})", i - 1)),
    );
    let vid = DEPTH + 1;
    execute_all(
        &mut db,
        [
            format!("INSERT INTO TabEdge VALUES ({DEPTH}, 0, 'text()', 'val', {vid})"),
            format!("INSERT INTO TabValue VALUES ({vid}, 'leaf')"),
        ],
    );
    let storage = db.storage();
    let doc = on_a_2_mib_stack(|| reconstruct_edge(&storage, true).unwrap());
    assert_chain(&doc, "leaf");
}

#[test]
fn a_10_000_deep_attribute_table_document_rebuilds_on_a_2_mib_stack() {
    let dtd = parse_dtd("<!ELEMENT n (#PCDATA|n)*>").unwrap();
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(&attrtab::ddl(&dtd, "n")).unwrap();
    let table = attrtab::element_table("n");
    execute_all(
        &mut db,
        (1..=DEPTH).map(|i| format!("INSERT INTO {table} VALUES ({}, 0, {i}, NULL)", i - 1)),
    );
    execute_all(&mut db, [format!("INSERT INTO {table} VALUES ({DEPTH}, 0, NULL, 'leaf')")]);
    let storage = db.storage();
    let doc = on_a_2_mib_stack(|| reconstruct_attrtab(&storage, &dtd, "n", true).unwrap());
    assert_chain(&doc, "leaf");
}

/// The recursive Professor/Dept DTD of the inlining unit tests: both are
/// relations, so the chain alternates their rows, each inlining its name.
#[test]
fn a_10_000_deep_inlined_document_rebuilds_on_a_2_mib_stack() {
    let dtd = parse_dtd(
        r#"<!ELEMENT Professor (PName,Dept)>
           <!ELEMENT Dept (DName,Professor*)>
           <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>"#,
    )
    .unwrap();
    let schema = InlineSchema::build(&dtd, "Professor");
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(&schema.ddl()).unwrap();
    let inserts = (1..=DEPTH).map(|i| {
        let (element, name) = if i % 2 == 1 { ("Professor", "PName") } else { ("Dept", "DName") };
        let relation = schema.relation(element).unwrap();
        let parent = if i == 1 { Value::Null } else { Value::Num((i - 1) as f64) };
        let mut values = vec![i.to_string(), parent.to_sql_literal()];
        for column in &relation.columns {
            let holds_name = column.attr.is_none() && column.path == [name];
            values.push(if holds_name { format!("'{name}{i}'") } else { "NULL".into() });
        }
        format!("INSERT INTO {} VALUES ({})", relation.table, values.join(", "))
    });
    execute_all(&mut db, inserts);
    let storage = db.storage();
    let doc = on_a_2_mib_stack(|| reconstruct_inline(&storage, &schema, &dtd, true).unwrap());

    let mut node = doc.root_element().expect("a root");
    for i in 1..=DEPTH {
        let (element, name) = if i % 2 == 1 { ("Professor", "PName") } else { ("Dept", "DName") };
        assert_eq!(doc.name(node).as_raw(), element, "level {i}");
        let (children, _) = content(&doc, node);
        assert_eq!(doc.name(children[0]).as_raw(), name, "level {i}");
        assert_eq!(content(&doc, children[0]).1, format!("{name}{i}"), "level {i}");
        if i == DEPTH {
            assert_eq!(children.len(), 1, "level {i}");
        } else {
            assert_eq!(children.len(), 2, "level {i}");
            node = children[1];
        }
    }
}
