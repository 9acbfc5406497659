//! A key REF whose target row is not loaded yet evaluates to NULL — a
//! scalar subquery with no row — and nothing fails. The script text and the
//! batched load share `load_ops`' order, so comparing the two cannot see a
//! wrong order. This suite checks the order itself: every `KeyRef` in a
//! load's operations names a row (table plus key) that an INSERT earlier in
//! the list carries — over the university DTD, a recursive DTD, an IDREF
//! DTD and seeded `dtdgen` DTDs, in both modes.

use std::collections::HashSet;

use xml2ordb::loader::{load_ops, LoadOp};
use xml2ordb::model::{FieldSource, MappedSchema};
use xml2ordb::pipeline::{apply_attribute_defaults, RegisteredSchema};
use xml2ordb::schemagen::IdrefTargets;
use xml2ordb::Xml2OrDb;
use xmlord_dtd::validate;
use xmlord_ordb::sql::ast::{Expr, Stmt};
use xmlord_ordb::{DbMode, Value};
use xmlord_prng::Prng;
use xmlord_workload::dtdgen::{generate_dtd, DtdConfig};
use xmlord_workload::university::{university_dtd, university_xml, UniversityConfig};

const MODES: [DbMode; 2] = [DbMode::Oracle9, DbMode::Oracle8];

/// A row key: table, path of attribute names below the row, key text.
type Key = (String, Vec<String>, String);

/// The keys the row `values` of `table` carries: every string literal at
/// a field of the row's object, or at a field of its attribute-list object.
fn row_keys(schema: &MappedSchema, table: &str, values: &[Expr]) -> Vec<Key> {
    let mapping = schema
        .table_rooted()
        .find(|m| m.table.as_deref() == Some(table))
        .unwrap_or_else(|| panic!("no mapping stores table {table}"));
    let [Expr::Call { args, .. }] = values else {
        panic!("a row of {table} is not one constructor: {values:?}")
    };
    let mut keys = Vec::new();
    for (field, arg) in mapping.fields.iter().zip(args) {
        match arg {
            Expr::Literal(Value::Str(key)) => {
                keys.push((table.to_string(), vec![field.db_name.clone()], key.clone()));
            }
            Expr::Call { args: inner, .. } if field.source == FieldSource::AttrList => {
                let list = mapping.attr_list.as_ref().expect("an attrList field has a list");
                for (attr, arg) in list.fields.iter().zip(inner) {
                    if let Expr::Literal(Value::Str(key)) = arg {
                        let path = vec![field.db_name.clone(), attr.db_name.clone()];
                        keys.push((table.to_string(), path, key.clone()));
                    }
                }
            }
            _ => {}
        }
    }
    keys
}

/// Every key REF inside `expr`, as the key it names.
fn key_refs(expr: &Expr, out: &mut Vec<Key>) {
    match expr {
        Expr::KeyRef(key_ref) => {
            let Value::Str(key) = &key_ref.key else { panic!("a key REF by {:?}", key_ref.key) };
            let path = key_ref.path.iter().map(|p| p.as_str().to_string()).collect();
            out.push((key_ref.table.as_str().to_string(), path, key.clone()));
        }
        Expr::Call { args, .. } => args.iter().for_each(|arg| key_refs(arg, out)),
        Expr::Binary { lhs, rhs, .. } => {
            key_refs(lhs, out);
            key_refs(rhs, out);
        }
        Expr::Literal(_) | Expr::Path(_) => {}
        other => panic!("a load operation holds {other:?}"),
    }
}

/// Assert the invariant over one load; returns how many key REFs it checked.
fn check_order(schema: &MappedSchema, ops: &[LoadOp], what: &str) -> usize {
    let mut inserted: HashSet<Key> = HashSet::new();
    let mut checked = 0;
    for (n, op) in ops.iter().enumerate() {
        let mut named = Vec::new();
        match op {
            LoadOp::Insert { values, .. } => values.iter().for_each(|v| key_refs(v, &mut named)),
            LoadOp::Update(Stmt::Update { sets, where_clause, .. }) => {
                sets.iter().for_each(|(_, v)| key_refs(v, &mut named));
                where_clause.iter().for_each(|w| key_refs(w, &mut named));
            }
            LoadOp::Update(other) => panic!("{what}: op {n} is {other:?}"),
        }
        for key in named {
            assert!(
                inserted.contains(&key),
                "{what}: op {n} `{}` names {key:?}, which no earlier INSERT carries",
                op.to_sql()
            );
            checked += 1;
        }
        if let LoadOp::Insert { table, values, .. } = op {
            inserted.extend(row_keys(schema, table.as_str(), values));
        }
    }
    checked
}

/// The load operations of `xml`, checked and defaulted the way the façade
/// stores it.
fn ops_of(registered: &RegisteredSchema, xml: &str, doc_id: &str) -> Vec<LoadOp> {
    let mut doc = xmlord_xml::parse_with_catalog(xml, registered.dtd.entity_catalog()).unwrap();
    let report = validate(&doc, &registered.dtd);
    assert!(report.is_valid(), "{doc_id}: {:?}", report.errors);
    apply_attribute_defaults(&mut doc, &registered.dtd);
    load_ops(&registered.schema, &registered.dtd, &doc, doc_id).unwrap()
}

/// Register `dtd` in `mode` and check the load of each document; returns
/// the key REFs checked.
fn check_documents(
    mode: DbMode,
    dtd: &str,
    root: &str,
    targets: &IdrefTargets,
    documents: &[String],
) -> usize {
    let mut sys = Xml2OrDb::new(mode);
    let registered = sys.register_dtd_with_idrefs("s", dtd, root, targets).unwrap().clone();
    let mut checked = 0;
    for (n, xml) in documents.iter().enumerate() {
        let doc_id = format!("s-{}", n + 1);
        let ops = ops_of(&registered, xml, &doc_id);
        checked += check_order(&registered.schema, &ops, &format!("{mode:?} <{root}> {doc_id}"));
    }
    checked
}

#[test]
fn university_key_refs_name_earlier_rows() {
    let documents: Vec<String> = (1..=4)
        .map(|seed| university_xml(&UniversityConfig { students: 6, seed, ..Default::default() }))
        .collect();
    for mode in MODES {
        let checked =
            check_documents(mode, university_dtd(), "University", &IdrefTargets::new(), &documents);
        // Oracle 9 nests the whole document in one row; Oracle 8 wires every
        // inverted child to its parent.
        match mode {
            DbMode::Oracle9 => assert_eq!(checked, 0),
            DbMode::Oracle8 => assert!(checked > 0),
        }
    }
}

#[test]
fn recursive_key_refs_name_earlier_rows() {
    let dtd = "<!ELEMENT Professor (PName,Dept)> <!ELEMENT Dept (DName,Professor*)>
        <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>";
    let documents = [
        "<Professor><PName>Kudrass</PName><Dept><DName>CS</DName>\
         <Professor><PName>Jaeger</PName><Dept><DName>CAD</DName></Dept></Professor>\
         <Professor><PName>Conrad</PName><Dept><DName>DB</DName>\
         <Professor><PName>Meier</PName><Dept><DName>IS</DName></Dept></Professor>\
         </Dept></Professor></Dept></Professor>",
        "<Professor><PName>Ralf</PName><Dept><DName>Math</DName>\
         <Professor><PName>Anna</PName><Dept><DName>Stats</DName></Dept></Professor>\
         </Dept></Professor>",
    ]
    .map(String::from);
    for mode in MODES {
        let checked = check_documents(mode, dtd, "Professor", &IdrefTargets::new(), &documents);
        assert!(checked > 0, "{mode:?}: the recursion made no key REF");
    }
}

#[test]
fn idref_key_refs_name_earlier_rows() {
    let dtd = "<!ELEMENT db (person*)> <!ELEMENT person (#PCDATA)>
        <!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>";
    let documents = [
        r#"<db><person id="a1" boss="a2">Kudrass</person><person id="a2">Conrad</person><person id="a3" boss="a1">Meier</person></db>"#,
        r#"<db><person id="b1" boss="b1">Jaeger</person><person id="b2" boss="b1">Ralf</person></db>"#,
    ]
    .map(String::from);
    let mut targets = IdrefTargets::new();
    targets.insert(("person".into(), "boss".into()), "person".into());
    for mode in MODES {
        let checked = check_documents(mode, dtd, "db", &targets, &documents);
        assert!(checked > 0, "{mode:?}: no IDREF was wired");
    }
}

#[test]
fn generated_dtd_key_refs_name_earlier_rows() {
    let mut checked = [0; 2];
    for case in 0..16u64 {
        let mut rng = Prng::seed_from_u64(0x10AD + case);
        let config = DtdConfig {
            depth: rng.gen_range(1usize..4),
            fanout: rng.gen_range(1usize..4),
            leaves: rng.gen_range(1usize..3),
            star_percent: 50,
            attr_percent: 40,
            seed: rng.gen_range(0u64..5000),
        };
        let generated = generate_dtd(&config);
        let documents: Vec<String> =
            (0..2).map(|i| generated.document(2, config.seed + i)).collect();
        for (slot, mode) in MODES.into_iter().enumerate() {
            checked[slot] += check_documents(
                mode,
                &generated.dtd_text,
                &generated.root,
                &IdrefTargets::new(),
                &documents,
            );
        }
    }
    assert_eq!(checked[0], 0, "Oracle 9 stores a generated tree in one row");
    assert!(checked[1] > 0, "no generated DTD made an Oracle 8 key REF");
}
