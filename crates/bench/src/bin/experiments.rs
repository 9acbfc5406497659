//! `experiments` — regenerate every table and figure of the paper (plus the
//! quantified versions of its qualitative claims). See EXPERIMENTS.md for
//! the experiment index.
//!
//! Usage: `experiments [table1|fig2|load|query|shredding|roundtrip|modes|schemagen|drawbacks|analyze|maplint|all]`
//!
//! Performance is not measured here: the standing benchmark (`benchmark/`,
//! `BENCHMARK.json`) is the one place timings and engine counters are
//! reported.
//!
//! `analyze [oracle8|oracle9|both]` runs the `sqlcheck` static analyzer over
//! every strategy's generated DDL + load scripts and exits non-zero if any
//! script draws an Error-severity diagnostic (CI runs this in both modes).
//!
//! `maplint` sweeps the three-level `maplint` analyzer (DTD lints per
//! strategy, mapping lints, catalog-drift check) over the `dtdgen` corpus
//! and exits non-zero if any loadable DTD draws an Error-severity finding
//! — the differential guarantee reserves Errors for real failures.

use std::collections::BTreeSet;

use xml2ordb::ddlgen::create_script;
use xml2ordb::model::MappingOptions;
use xml2ordb::naming::{NameGenerator, NameKind};
use xml2ordb::pipeline::Xml2OrDb;
use xml2ordb::roundtrip::{compare, Loss};
use xml2ordb::schemagen::{generate_schema, IdrefTargets};
use xml2ordb::strategy::{Handle, LoadCounts};
use xmlord_bench::{e6_load, e6_table, paper_query, university, university_doc, E6_STUDENTS};
use xmlord_dtd::{parse_dtd, MappingStrategy};
use xmlord_ordb::{Analyzer, DbMode, Severity};
use xmlord_workload::catalog::{catalog_xml, CatalogConfig, CATALOG_DTD};
use xmlord_workload::dtdgen::{generate_dtd, DtdConfig};

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig2",
    "load",
    "query",
    "shredding",
    "roundtrip",
    "modes",
    "schemagen",
    "drawbacks",
    "analyze",
    "maplint",
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which != "all" && !EXPERIMENTS.contains(&which.as_str()) {
        eprintln!("unknown experiment '{which}'");
        eprintln!("usage: experiments [{}|all]", EXPERIMENTS.join("|"));
        std::process::exit(2);
    }
    let all = which == "all";
    if all || which == "table1" {
        table1();
    }
    if all || which == "fig2" {
        fig2();
    }
    if all || which == "load" {
        load();
    }
    if all || which == "query" {
        query();
    }
    if all || which == "shredding" {
        shredding();
    }
    if all || which == "roundtrip" {
        roundtrip();
    }
    if all || which == "modes" {
        modes();
    }
    if all || which == "schemagen" {
        schemagen_scaling();
    }
    if all || which == "drawbacks" {
        drawbacks();
    }
    if all || which == "analyze" {
        let mode_filter = std::env::args().nth(2).unwrap_or_else(|| "both".to_string());
        if !analyze(&mode_filter) {
            eprintln!("analyze: generated scripts drew Error-severity diagnostics");
            std::process::exit(1);
        }
    }
    if (all || which == "maplint") && !maplint_experiment() {
        eprintln!("maplint: loadable DTDs drew Error-severity findings");
        std::process::exit(1);
    }
}

fn heading(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// E1 — Table 1: naming conventions, regenerated from the live generator.
fn table1() {
    heading("E1 / Table 1 — Naming Conventions in XML2Oracle (regenerated from code)");
    let mut names = NameGenerator::new();
    let mut scope = BTreeSet::new();
    let rows: Vec<(String, &str)> = vec![
        (names.global(NameKind::Table, "Elementname"), "Name of a table"),
        (
            names.scoped(NameKind::AttrFromElement, "Elementname", &mut scope),
            "DB attribute derived from a simple XML element",
        ),
        (
            names.scoped(NameKind::AttrFromAttribute, "Attributename", &mut scope),
            "DB attribute derived from an XML attribute",
        ),
        (
            names.scoped(NameKind::AttrList, "Elementname", &mut scope),
            "DB attribute that represents an XML attribute list",
        ),
        (
            names.scoped(NameKind::IdAttr, "Elementname", &mut scope),
            "Name of a primary key or foreign key attribute",
        ),
        (
            names.global(NameKind::ObjectType, "Elementname"),
            "Name of an object type derived from an element name",
        ),
        (
            names.global(NameKind::AttrListType, "Elementname"),
            "Name of an object type generated for an attribute list",
        ),
        (names.global(NameKind::VarrayType, "Elementname"), "Name of an array"),
        (names.global(NameKind::ObjectView, "Elementname"), "Name of an object view"),
    ];
    println!("{:<28} Object Semantics", "Naming Convention");
    println!("{:-<28} {:-<50}", "", "");
    for (name, semantics) in rows {
        println!("{name:<28} {semantics}");
    }
}

/// E2 — Fig. 2: one row per leaf of the mapping decision tree, with the DDL
/// the generator actually emits for it.
fn fig2() {
    heading("E2 / Fig. 2 — Mapping decision tree: every case and its generated DDL");
    let cases: &[(&str, &str, &str)] = &[
        ("simple, mandatory", "<!ELEMENT r (a)><!ELEMENT a (#PCDATA)>", "r"),
        ("simple, optional (?)", "<!ELEMENT r (a?)><!ELEMENT a (#PCDATA)>", "r"),
        ("simple, iteration (*)", "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>", "r"),
        ("simple, iteration (+)", "<!ELEMENT r (a+)><!ELEMENT a (#PCDATA)>", "r"),
        (
            "complex, mandatory",
            "<!ELEMENT r (a)><!ELEMENT a (b)><!ELEMENT b (#PCDATA)>",
            "r",
        ),
        (
            "complex, iteration (*)",
            "<!ELEMENT r (a*)><!ELEMENT a (b)><!ELEMENT b (#PCDATA)>",
            "r",
        ),
        (
            "attribute IMPLIED",
            "<!ELEMENT r (a)><!ELEMENT a (#PCDATA)><!ATTLIST a x CDATA #IMPLIED>",
            "r",
        ),
        (
            "attribute REQUIRED",
            "<!ELEMENT r (a)><!ELEMENT a (#PCDATA)><!ATTLIST a x CDATA #REQUIRED>",
            "r",
        ),
        (
            "attribute list (>1)",
            "<!ELEMENT r (a)><!ELEMENT a (#PCDATA)><!ATTLIST a x CDATA #IMPLIED y CDATA #IMPLIED>",
            "r",
        ),
    ];
    for (label, dtd_text, root) in cases {
        let dtd = parse_dtd(dtd_text).unwrap();
        let schema = generate_schema(
            &dtd,
            root,
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        let script = create_script(&schema).unwrap();
        println!("\n--- {label}\n    DTD: {dtd_text}");
        for line in script.lines() {
            println!("    {line}");
        }
    }
}

/// Load `doc` into a fresh university instance of `strategy`.
fn loaded(strategy: MappingStrategy, doc: &xmlord_xml::Document) -> (Handle, LoadCounts) {
    let mut handle = university(strategy);
    let counts =
        handle.load(doc).unwrap_or_else(|e| panic!("{}: {e}", strategy.label()));
    (handle, counts)
}

/// Run `sql`, returning (row count, join pairs formed).
fn run_query(handle: &mut Handle, sql: &str) -> (usize, u64) {
    let db = handle.database();
    let before = db.stats();
    let rows = db.query(sql).unwrap_or_else(|e| panic!("{e}\n{sql}")).rows.len();
    (rows, db.stats().since(&before).join_pairs)
}

/// E6 — §1/§4.1 claim: statement counts per strategy.
fn load() {
    heading("E6 — Document load: INSERT statements and rows per strategy");
    print!("{}", e6_table(&e6_load(&E6_STUDENTS)));
    println!("Paper claim (§4.1): the OR mapping needs a single INSERT per document,");
    println!("while shredding 'turns the upload of a document into a large number of");
    println!("relational insert operations'.");
}

/// E7 — §4.1 claim: join work vs path depth.
fn query() {
    heading("E7 — Path queries: join work per strategy");
    let paths: Vec<(&str, Vec<&str>)> = vec![
        ("depth 1", vec!["StudyCourse"]),
        ("depth 2", vec!["Student", "LName"]),
        ("depth 4", vec!["Student", "Course", "Name"]),
        ("depth 5", vec!["Student", "Course", "Professor", "PName"]),
    ];
    let students = 50;
    println!("{:<8} {:<10} {:>8} {:>12}", "strategy", "path", "rows", "join-pairs");
    let (_, doc) = university_doc(students);
    for strategy in MappingStrategy::ALL {
        let (mut handle, _) = loaded(strategy, &doc);
        let queries = paths
            .iter()
            .map(|(label, steps)| (*label, handle.path_query(steps, None).expect("translates")))
            // The paper's predicate query.
            .chain([("paper-q", paper_query(&handle))])
            .collect::<Vec<_>>();
        for (label, sql) in queries {
            let (rows, join_pairs) = run_query(&mut handle, &sql);
            println!("{:<8} {:<10} {:>8} {:>12}", strategy.label(), label, rows, join_pairs);
        }
        println!();
    }
    println!("Paper claim (§4.1): dot notation traverses the object structure 'without");
    println!("executing join operations'; generic shredding joins once per path step.");
}

/// E8 — §1 claim: degree of decomposition.
fn shredding() {
    heading("E8 — Fragmentation: tables and rows per stored document");
    let (_, doc) = university_doc(100);
    println!("{:<8} {:>8} {:>8}   description", "strategy", "tables", "rows");
    for strategy in MappingStrategy::ALL {
        let (_, m) = loaded(strategy, &doc);
        println!(
            "{:<8} {:>8} {:>8}   {}",
            strategy.label(),
            m.tables,
            m.rows,
            strategy.describe()
        );
    }
    println!("\nPaper claim (§1): generic algorithms cause a 'high degree of");
    println!("decomposition of the source documents'; the OR mapping stores one row.");
}

/// E9 — §6.1/§7: round-trip fidelity with and without meta-data.
fn roundtrip() {
    heading("E9 — Round-trip fidelity on a document-centric catalog");
    let xml = catalog_xml(&CatalogConfig { products: 6, ..Default::default() });
    let mut sys = Xml2OrDb::new(DbMode::Oracle9);
    sys.register_dtd("catalog", CATALOG_DTD, "Catalog").unwrap();
    let doc_id = sys.store_document("catalog", &xml).unwrap();

    // With the §5/§6.1 meta-data (entity restoration).
    let restored = sys.retrieve_document(&doc_id).unwrap();
    let dtd = parse_dtd(CATALOG_DTD).unwrap();
    let original = xmlord_xml::parse_with_catalog(&xml, dtd.entity_catalog()).unwrap();
    let restored_doc = xmlord_xml::parse_with_catalog(&restored, dtd.entity_catalog()).unwrap();
    let report = compare(&original, &restored_doc);

    let count = |pred: fn(&Loss) -> bool| report.count(pred);
    println!("losses after store→retrieve (entity references restored from meta-data):");
    println!("  comments lost:            {}", count(|l| matches!(l, Loss::Comment { .. })));
    println!(
        "  processing instr. lost:   {}",
        count(|l| matches!(l, Loss::ProcessingInstruction { .. }))
    );
    println!("  CDATA demoted to text:    {}", count(|l| matches!(l, Loss::CDataDemoted { .. })));
    println!(
        "  mixed interleaving lost:  {}",
        count(|l| matches!(l, Loss::MixedInterleaving { .. }))
    );
    println!("  order changed:            {}", count(|l| matches!(l, Loss::OrderChanged { .. })));
    println!(
        "  DATA DAMAGE (should be 0): {}",
        report.losses.iter().filter(|l| !l.is_expected()).count()
    );
    println!(
        "  entity refs in output:    {}",
        if restored.contains("&vendor;") { "restored (&vendor;)" } else { "EXPANDED (lost)" }
    );
    println!("\nPaper (§7): comments, processing instructions and entity references are");
    println!("lost by the plain mapping; §6.1's meta-data extension restores entities.");
}

/// E10 — §4.2: Oracle 8 vs Oracle 9 ablation.
fn modes() {
    heading("E10 — Oracle 8 (REF workaround) vs Oracle 9 (nested collections)");
    println!("{:<8} {:>9} {:>10} {:>10}", "mode", "students", "INSERTs", "tables");
    for students in [10, 100, 500] {
        let (_, doc) = university_doc(students);
        for strategy in [MappingStrategy::Or9, MappingStrategy::Or8] {
            let (_, m) = loaded(strategy, &doc);
            println!(
                "{:<8} {:>9} {:>10} {:>10}",
                strategy.label(),
                students,
                m.statements,
                m.tables
            );
        }
    }
    println!("\nPaper (§4.2): Oracle 9's nested collections make the single-INSERT,");
    println!("single-table mapping possible; Oracle 8 needs object tables + REFs.");
}

/// E13 — schema generation cost vs DTD complexity.
fn schemagen_scaling() {
    heading("E13 — Schema generation scaling with DTD size");
    println!(
        "{:<20} {:>10} {:>12} {:>12}",
        "DTD shape", "elements", "types", "DDL bytes"
    );
    for (depth, fanout) in [(2usize, 2usize), (3, 2), (3, 3), (4, 3), (5, 3)] {
        let generated = generate_dtd(&DtdConfig { depth, fanout, ..Default::default() });
        let dtd = parse_dtd(&generated.dtd_text).unwrap();
        let schema = generate_schema(
            &dtd,
            &generated.root,
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let script = create_script(&schema).unwrap();
        println!(
            "{:<20} {:>10} {:>12} {:>12}",
            format!("depth {depth} fanout {fanout}"),
            generated.element_count(),
            schema.generated_type_count(),
            script.len()
        );
    }
}

/// E12 — the §7 drawbacks, demonstrated mechanically.
fn drawbacks() {
    heading("E12 — §7 drawback checklist (each demonstrated by execution)");
    // 1. NOT NULL cannot be expressed for embedded mandatory content.
    let dtd = xmlord_bench::parse_university_dtd();
    let schema = generate_schema(
        &dtd,
        "University",
        DbMode::Oracle9,
        MappingOptions::default(),
        &IdrefTargets::new(),
    )
    .unwrap();
    println!(
        "1. NOT NULL constraints not expressible for embedded content: {} cases,\n   e.g. {}",
        schema.unenforced_not_null.len(),
        schema
            .unenforced_not_null
            .first()
            .map(|u| format!("{}.{}", u.type_name, u.field))
            .unwrap_or_default()
    );
    // 2. VARCHAR length limit.
    let mut sys = Xml2OrDb::new(DbMode::Oracle9);
    sys.register_dtd("t", "<!ELEMENT t (#PCDATA)>", "t").unwrap();
    let long_text = "x".repeat(5000);
    let err = sys.store_document("t", &format!("<t>{long_text}</t>")).unwrap_err();
    println!("2. Restricted VARCHAR length: storing 5000 chars fails with:\n   {err}");
    // 3. Loss of comments / PIs.
    let mut sys2 = Xml2OrDb::new(DbMode::Oracle9);
    sys2.register_dtd("c", "<!ELEMENT c (#PCDATA)>", "c").unwrap();
    let id = sys2.store_document("c", "<c>x<!--gone--><?pi also-gone?></c>").unwrap();
    let restored = sys2.retrieve_document(&id).unwrap();
    println!(
        "3. Comments/PIs lost: stored '<c>x<!--gone--><?pi also-gone?></c>' →\n   '{restored}'"
    );
    // 4. DTD change requires schema adaptation.
    let mut sys3 = Xml2OrDb::new(DbMode::Oracle9);
    sys3.register_dtd("v1", "<!ELEMENT r (a)><!ELEMENT a (#PCDATA)>", "r").unwrap();
    let err = sys3
        .store_document("v1", "<r><a>1</a><b>2</b></r>")
        .unwrap_err();
    println!("4. Little flexibility on DTD change: a document with a new element fails:\n   {err}");
    // 5. No type concept in DTDs.
    println!(
        "5. No type concept in DTDs: every generated scalar column is VARCHAR(4000)\n   (checked by tests/mapping_matrix.rs)"
    );
    // 6. Order across references.
    println!(
        "6. References do not preserve global element order: retriever restores\n   content-model order only (see retriever tests)."
    );
}

/// E15 — `sqlcheck`: static analysis of every generated mapping script.
///
/// Lints each strategy's DDL + one small document load under the mode the
/// strategy targets (`or8` under Oracle 8, everything else under Oracle 9).
/// Returns `false` if any of those scripts draws an Error-severity
/// diagnostic — the differential guarantee means such a script would be
/// rejected by the engine, i.e. the generator emitted broken SQL. Two
/// labeled demos follow (cross-mode nested collections; the §4.3 CHECK
/// quirk); their diagnostics are *expected* and excluded from the verdict.
fn analyze(mode_filter: &str) -> bool {
    heading("E15 — sqlcheck: static analysis of generated mapping scripts");
    let mut ok = true;
    let (_, doc) = university_doc(2);
    for strategy in MappingStrategy::ALL {
        let mut handle = university(strategy);
        let mode = handle.database().mode();
        let wanted = match mode_filter {
            "oracle8" => mode == DbMode::Oracle8,
            "oracle9" => mode == DbMode::Oracle9,
            _ => true,
        };
        if !wanted {
            continue;
        }
        let load = handle.load_statements(&doc).expect("load generates").join(";\n");
        let script = format!("{}\n{load}", handle.ddl());
        let file = format!("{}.sql", strategy.label());
        let diags = Analyzer::new(mode)
            .analyze_script(&script)
            .unwrap_or_else(|e| panic!("{file} failed to parse: {e}"));
        let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = diags.len() - errors;
        println!(
            "{file:<12} {:<8} {:>5} statements {:>7} bytes   {errors} error(s), {warnings} warning(s)",
            format!("{mode:?}"),
            script.matches(';').count() + 1,
            script.len(),
        );
        if errors > 0 {
            ok = false;
        }
        for d in diags.iter().filter(|d| d.severity == Severity::Error).take(3) {
            println!("{}", d.render(&script, &file));
        }
    }
    if mode_filter != "oracle8" && mode_filter != "oracle9" {
        cross_mode_demo();
        quirk_demo();
    }
    ok
}

/// E20 — maplint: the three-level static analyzer swept over the `dtdgen`
/// corpus. Level 1 lints each generated DTD once per mapping strategy;
/// levels 2+3 register the DTD under Oracle 9, store a generated document,
/// and lint the mapped schema against the live catalog. Every corpus DTD
/// registers and loads successfully, so the differential guarantee demands
/// zero Error-severity findings — the process exits non-zero otherwise.
/// A catalog-drift demo (expected Errors, excluded from the verdict)
/// closes the run.
fn maplint_experiment() -> bool {
    use xmlord_dtd::{lint_dtd, parse_dtd_spanned};

    heading("E20 — maplint: DTD → mapping → catalog static analysis");
    let mut ok = true;
    let shapes = [(2usize, 2usize, 42u64), (3, 2, 7), (3, 3, 99), (4, 3, 1234)];

    println!("{:<22} {:>6}  errors/warnings per strategy", "DTD shape", "decls");
    let mut last_sys: Option<Xml2OrDb> = None;
    for (depth, fanout, seed) in shapes {
        let generated = generate_dtd(&DtdConfig { depth, fanout, seed, ..Default::default() });
        let (dtd, src) = parse_dtd_spanned(&generated.dtd_text)
            .unwrap_or_else(|e| panic!("generated DTD parses: {e}"));
        let verdicts = lint_dtd(&dtd, &src, &generated.root);
        let cells: Vec<String> = verdicts
            .iter()
            .map(|v| format!("{}:{}/{}", v.strategy.label(), v.error_count(), v.warning_count()))
            .collect();
        println!(
            "{:<22} {:>6}  {}",
            format!("depth {depth} fanout {fanout}"),
            dtd.elements.len(),
            cells.join("  ")
        );
        for v in &verdicts {
            if v.error_count() > 0 {
                ok = false;
                for d in v.diagnostics.iter().filter(|d| d.severity == Severity::Error).take(2) {
                    let name = format!("{}.{}.dtd", generated.root, v.strategy.label());
                    println!("{}", d.render(src.text(), &name));
                }
            }
        }

        // Levels 2+3: live registration + load, then schema + drift lints.
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("gen", &generated.dtd_text, &generated.root).expect("register");
        sys.store_document("gen", &generated.document(2, seed)).expect("store");
        let report = sys.maplint("gen").expect("maplint");
        println!(
            "    maplint(gen): {} error(s), {} warning(s) over {} bytes of DDL",
            report.error_count(),
            report.warning_count(),
            report.source.len()
        );
        if report.has_errors() {
            ok = false;
            println!("{}", report.render("gen.sql"));
        }
        last_sys = Some(sys);
    }

    // Drift demo (expected Errors; not counted in the verdict): drop a
    // backing table out from under the registered mapping and re-check.
    if let Some(mut sys) = last_sys {
        println!("\n--- catalog-drift demo (expected errors; not counted in the verdict)");
        let table = sys.schema("gen").expect("registered").schema.root_table.clone();
        sys.database().execute(&format!("DROP TABLE {table}")).expect("drop");
        let drifted = sys.maplint("gen").expect("maplint");
        let n = drifted
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error && d.code.starts_with("DRIFT"))
            .count();
        println!("after DROP TABLE {table}: {n} DRIFT error(s)");
        if let Some(d) =
            drifted.diagnostics.iter().find(|d| d.severity == Severity::Error)
        {
            println!("{}", d.render(&drifted.source, "gen-drifted.sql"));
        }
    }
    ok
}

/// The §4.2 mode gate, demonstrated on the real generated schema: the
/// Oracle 9 DDL (nested collections) linted under Oracle 8 rules.
fn cross_mode_demo() {
    println!("\n--- cross-mode demo (expected errors; not counted in the verdict)");
    let or9 = university(MappingStrategy::Or9);
    let diags = Analyzer::new(DbMode::Oracle8)
        .analyze_script(or9.ddl())
        .expect("or9 DDL parses");
    let nested: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error && d.code == "nested-collection")
        .collect();
    println!(
        "or9.sql under Oracle8: {} nested-collection error(s) — the §4.2 gate",
        nested.len()
    );
    if let Some(d) = nested.first() {
        println!("{}", d.render(or9.ddl(), "or9-under-oracle8.sql"));
    }
}

/// The §4.3 CHECK-on-nullable-object quirk, rendered with line/column.
fn quirk_demo() {
    println!("\n--- §4.3 quirk demo (expected warning; not counted in the verdict)");
    let script = "\
CREATE TYPE Type_Address AS OBJECT (attrStreet VARCHAR(40), attrCity VARCHAR(40));
CREATE TYPE Type_Course AS OBJECT (attrName VARCHAR(40), attrAddress Type_Address);
CREATE TABLE TabCourse OF Type_Course (CHECK (attrAddress.attrCity = 'Leipzig'));";
    let diags = Analyzer::new(DbMode::Oracle9).analyze_script(script).expect("fixture parses");
    for d in diags.iter().filter(|d| d.code == "check-null-object") {
        println!("{}", d.render(script, "quirk.sql"));
    }
}
