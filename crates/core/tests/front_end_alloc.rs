//! What storing one document allocates, stage by stage, counted by the
//! test kit's `CountingAlloc`: the parser allocates for the nodes and values
//! it builds (a name once per document, a text run once), the validator for
//! nothing a valid document does not report, the attribute defaults for
//! nothing when the DTD declares none, the loader for the expressions it
//! emits — not for bookkeeping — and the engine, executing those expressions
//! on a fresh database, for the stored values, the key probe and the index
//! entries, not for copies of plans, table shapes and constructors. Counts,
//! not timings: the same on every machine. Each bound sits between the count
//! the stage makes now and the one its predecessor made (parse, validate,
//! defaults: 8.3 / 7.6 / 1.0 per element; `load_ops` 7.7 / 17.0 for Oracle
//! 9 / 8, then 5.11 for Oracle 8 before the loader shared its identifiers,
//! 4.85 before a REF to a parent became a key REF instead of a SELECT, now
//! 3.80; execute 2.66 / 16.99 — 64 per Oracle 8 row — before the one-row
//! INSERT stopped copying, 1.85 / 6.05 before the key REF was one index
//! probe instead of a planned subquery, 1.85 / 3.16 while an Oracle 8
//! document reached the engine as 251 one-row batches in document order,
//! now 1.85 / 2.65 as one batch per table), so a per-element copy that
//! creeps back fails here.

use xml2ordb::loader::{load_ops, plan_batches, LoadUnit};
use xml2ordb::pipeline::apply_attribute_defaults;
use xml2ordb::Xml2OrDb;
use xmlord_dtd::validate;
use xmlord_ordb::DbMode;
use xmlord_testkit::{counted, CountingAlloc};
use xmlord_workload::university::{university_dtd, university_xml, UniversityConfig};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn storing_a_document_allocates_for_values_not_for_bookkeeping() {
    let config = UniversityConfig { students: 50, ..Default::default() };
    let xml = university_xml(&config);
    let elements = config.element_count();
    assert_eq!(elements, 952);
    let per_element = |allocations: usize| allocations as f64 / elements as f64;

    for (mode, load_bound, execute_bound) in
        [(DbMode::Oracle9, 4.0, 2.2), (DbMode::Oracle8, 4.3, 2.8)]
    {
        let mut sys = Xml2OrDb::new(mode);
        sys.register_dtd("uni", university_dtd(), "University").unwrap();
        let reg = sys.schema("uni").unwrap();
        // Handed over before the count starts: the benchmark's `xml.parse`
        // span builds the catalog too, but it is the DTD's, not the parser's.
        let catalog = reg.dtd.entity_catalog();

        let (doc, parse) = counted(|| xmlord_xml::parse_with_catalog(&xml, catalog));
        let mut doc = doc.unwrap();
        assert!(
            per_element(parse) <= 2.5,
            "{mode:?}: parse made {parse} allocations for {elements} elements"
        );

        let (report, validation) = counted(|| validate(&doc, &reg.dtd));
        assert!(report.is_valid(), "{:?}", report.errors);
        assert!(
            per_element(validation) <= 0.25,
            "{mode:?}: validate made {validation} allocations for {elements} elements"
        );

        let ((), defaults) = counted(|| apply_attribute_defaults(&mut doc, &reg.dtd));
        assert_eq!(defaults, 0, "{mode:?}: the university DTD declares no default");

        let (ops, load) = counted(|| load_ops(&reg.schema, &reg.dtd, &doc, "uni-1"));
        let units = plan_batches(ops.unwrap());
        assert!(!units.is_empty());
        assert!(
            per_element(load) <= load_bound,
            "{mode:?}: load_ops made {load} allocations for {elements} elements"
        );

        let db = sys.database();
        let ((), execute) = counted(|| {
            for unit in &units {
                match unit {
                    LoadUnit::Batch(batch) => db.execute_batch(batch).map(|_| ()),
                    LoadUnit::Stmt(stmt) => db.execute_stmt(stmt).map(|_| ()),
                }
                .unwrap();
            }
        });
        assert!(
            per_element(execute) <= execute_bound,
            "{mode:?}: executing the load made {execute} allocations for {elements} elements"
        );
        eprintln!(
            "{mode:?}: parse {:.2}, validate {:.2}, defaults {defaults}, load_ops {:.2}, \
             execute {:.2} allocations per element",
            per_element(parse),
            per_element(validation),
            per_element(load),
            per_element(execute),
        );
    }
}

/// What retrieving one document allocates, counted the same way: the walk
/// writes the text from the stored blocks — no DOM, no `String` per value,
/// the §6.1 re-substitution prepared once — so what it allocates is per
/// document (the metadata row, the readers, the name cache, the growth of
/// the output) and per inverted parent, not per element. Through a DOM,
/// serialized and dropped, one `retrieve_document` of this document made
/// 6.6 (Oracle 9) and 7.9 (Oracle 8) allocations per element; then 0.14
/// and 0.35 (Oracle 8 builds a multimap per inverted child table); now
/// 0.13 and 0.20, the multimap chaining its slots instead of holding a
/// `Vec` per key.
#[test]
fn retrieving_a_document_allocates_per_document_not_per_element() {
    let config = UniversityConfig { students: 50, ..Default::default() };
    let xml = university_xml(&config);
    let elements = config.element_count();
    assert_eq!(elements, 952);
    let per_element = |allocations: usize| allocations as f64 / elements as f64;

    for (mode, bound) in [(DbMode::Oracle9, 0.2), (DbMode::Oracle8, 0.45)] {
        let mut sys = Xml2OrDb::new(mode);
        sys.register_dtd("uni", university_dtd(), "University").unwrap();
        let id = sys.store_document("uni", &xml).unwrap();
        let first = sys.retrieve_document(&id).unwrap();
        let (text, retrieve) = counted(|| sys.retrieve_document(&id));
        assert_eq!(text.unwrap(), first);
        assert!(
            per_element(retrieve) <= bound,
            "{mode:?}: retrieve_document made {retrieve} allocations for {elements} elements"
        );
        eprintln!("{mode:?}: retrieve {:.2} allocations per element", per_element(retrieve));
    }
}

/// What rebuilding the same document from each baseline mapping allocates
/// (`Handle::reconstruct`, which builds a DOM): the nodes, attribute values
/// and texts of the tree, plus per call the plan, the readers and their
/// multimaps — not a name, a copied value, a slot list or a cloned table
/// description per node or per lookup. Walking per node with those made
/// 7.96 / 8.47 / 7.74 / 5.58 allocations per element (rel / edge / attr /
/// inline); through one plan per call and the shared event walk, 2.01 /
/// 1.99 / 2.18 / 2.05.
#[test]
fn reconstructing_a_baseline_allocates_for_its_nodes_not_per_lookup() {
    use xml2ordb::model::MappingOptions;
    use xml2ordb::strategy::setup;
    use xmlord_dtd::{parse_dtd, MappingStrategy};
    use xmlord_xml::serializer::{serialize, SerializeOptions};

    let config = UniversityConfig { students: 50, ..Default::default() };
    let xml = university_xml(&config);
    let elements = config.element_count();
    assert_eq!(elements, 952);
    let per_element = |allocations: usize| allocations as f64 / elements as f64;
    let dtd = parse_dtd(university_dtd()).unwrap();
    let doc = xmlord_xml::parse_with_catalog(&xml, dtd.entity_catalog()).unwrap();
    let expect = serialize(&doc, &SerializeOptions::compact());

    for (strategy, bound) in [
        (MappingStrategy::Relational, 3.0),
        (MappingStrategy::Edge, 3.0),
        (MappingStrategy::AttributeTables, 3.0),
        (MappingStrategy::Inline, 3.0),
    ] {
        let mut handle =
            setup(strategy, &dtd, "University", &MappingOptions::default()).unwrap();
        handle.load(&doc).unwrap();
        let (restored, reconstruct) = counted(|| handle.reconstruct(true));
        assert_eq!(serialize(&restored.unwrap(), &SerializeOptions::compact()), expect);
        eprintln!(
            "{}: reconstruct {:.2} allocations per element",
            strategy.label(),
            per_element(reconstruct)
        );
        assert!(
            per_element(reconstruct) <= bound,
            "{}: reconstruct made {reconstruct} allocations for {elements} elements",
            strategy.label()
        );
    }
}
