//! The maplint differential guarantee, exercised property-style over the
//! seeded `dtdgen` corpus and all six mapping strategies:
//!
//! * **no false positives** — an Error-severity maplint finding means the
//!   real pipeline fails for that strategy; a clean verdict means the real
//!   pipeline succeeds;
//! * on mutated DTDs (a referenced declaration removed) the Error flips on
//!   **exactly** the schema-deriving strategies (or9/or8/rel) — and exactly
//!   those pipelines fail;
//! * a DRIFT Error means a subsequent `store_document` really fails when
//!   the check is bypassed;
//! * on DTDs whose names collide once they become identifiers (case
//!   variants, `-`/`.`/`_` swaps, a shared prefix past 30 characters) a
//!   clean verdict means the strategy loads the document *and* rebuilds it
//!   byte for byte, and an Error — only DTD010 under attr, names equal
//!   after case-folding — means its pipeline fails.

use xml_ordb::dtd::{lint_dtd, parse_dtd, parse_dtd_spanned, ElementGraph, MappingStrategy};
use xml_ordb::mapping::maplint::{check_catalog_drift, lint_schema};
use xml_ordb::mapping::model::MappingOptions;
use xml_ordb::mapping::schemagen::{generate_schema, IdrefTargets};
use xml_ordb::mapping::strategy;
use xml_ordb::mapping::Xml2OrDb;
use xml_ordb::ordb::{DbMode, Severity};
use xml_ordb::workload::dtdgen::{generate_dtd, DtdConfig};
use xml_ordb::xml::serializer::{serialize, SerializeOptions};
use xmlord_prng::Prng;

/// Drive the real pipeline for one strategy: DDL, then shred + load `xml`.
/// `Err` carries the first failure — schema generation, DDL rejection or a
/// failed load statement.
fn attempt(
    strategy: MappingStrategy,
    dtd_text: &str,
    root: &str,
    xml: &str,
) -> Result<(), String> {
    let dtd = parse_dtd(dtd_text).map_err(|e| e.to_string())?;
    let doc = xml_ordb::xml::parse(xml).map_err(|e| e.to_string())?;
    let mut handle = strategy::setup(strategy, &dtd, root, &MappingOptions::default())
        .map_err(|e| e.to_string())?;
    handle.load(&doc).map(drop).map_err(|e| e.to_string())
}

fn corpus(case: u64) -> DtdConfig {
    let mut rng = Prng::seed_from_u64(0x11A9 + case);
    DtdConfig {
        depth: rng.gen_range(1usize..4),
        fanout: rng.gen_range(1usize..4),
        leaves: rng.gen_range(1usize..3),
        star_percent: 45,
        attr_percent: 40,
        seed: rng.gen_range(0u64..5000),
    }
}

/// Clean corpus: zero maplint Errors at every level, and every strategy's
/// pipeline succeeds — the "no false positives" half of the guarantee.
#[test]
fn clean_corpus_draws_no_errors_and_every_strategy_loads() {
    for case in 0..10u64 {
        let config = corpus(case);
        let generated = generate_dtd(&config);
        let xml = generated.document(2, config.seed);

        // Level 1: per-strategy DTD verdicts.
        let (dtd, src) = parse_dtd_spanned(&generated.dtd_text).unwrap();
        for verdict in lint_dtd(&dtd, &src, &generated.root) {
            assert_eq!(
                verdict.error_count(),
                0,
                "case {case} {}: false positive on a loadable DTD:\n{:?}",
                verdict.strategy.label(),
                verdict.diagnostics
            );
            let result = attempt(verdict.strategy, &generated.dtd_text, &generated.root, &xml);
            assert!(
                result.is_ok(),
                "case {case} {}: clean verdict but pipeline failed: {}\n{}",
                verdict.strategy.label(),
                result.unwrap_err(),
                generated.dtd_text
            );
        }

        // Level 2: schema lints over the or9 mapping draw no Errors either.
        let schema = generate_schema(
            &dtd,
            &generated.root,
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let report = lint_schema(&schema).unwrap();
        assert_eq!(report.error_count(), 0, "case {case}:\n{}", report.render("gen.sql"));
    }
}

/// Remove the declaration of one referenced *leaf* element. The maplint
/// Error must flip on exactly the strategies whose pipeline now fails:
/// or9/or8/rel abort in `generate_schema`; edge ignores the DTD; inline
/// and attribute-tables degrade (Warning) but still load the document.
#[test]
fn removed_leaf_declaration_flips_error_and_failure_together() {
    let mut tested = 0;
    for case in 0..10u64 {
        let config = corpus(case);
        let generated = generate_dtd(&config);
        let xml = generated.document(2, config.seed);
        let dtd = parse_dtd(&generated.dtd_text).unwrap();

        // A referenced element with no children of its own.
        let graph = ElementGraph::build(&dtd);
        let Some(leaf) = dtd.element_order.iter().find(|name| {
            *name != &generated.root
                && graph.children_of(name).is_empty()
                && !graph.parents_of(name).is_empty()
        }) else {
            continue;
        };
        // Remove only the <!ELEMENT> declaration; a kept <!ATTLIST> still
        // yields the attribute's table under attr, so that load stays clean.
        let mutated: String = generated
            .dtd_text
            .lines()
            .filter(|line| !line.starts_with(&format!("<!ELEMENT {leaf} ")))
            .map(|line| format!("{line}\n"))
            .collect();
        tested += 1;

        let (mdtd, msrc) = parse_dtd_spanned(&mutated).unwrap();
        for verdict in lint_dtd(&mdtd, &msrc, &generated.root) {
            let lint_error = verdict.error_count() > 0;
            let result = attempt(verdict.strategy, &mutated, &generated.root, &xml);
            assert_eq!(
                lint_error,
                result.is_err(),
                "case {case} {} (leaf <{leaf}> removed): lint_error={lint_error} but \
                 pipeline={result:?}\n{mutated}",
                verdict.strategy.label()
            );
            assert_eq!(
                lint_error,
                verdict.strategy.uses_generated_schema(),
                "case {case}: DTD002 must flip exactly or9/or8/rel"
            );
            // inline and attr degrade: the finding is present, as a Warning.
            if matches!(
                verdict.strategy,
                MappingStrategy::Inline | MappingStrategy::AttributeTables
            ) {
                assert!(
                    verdict.diagnostics.iter().any(|d| d.code == "DTD002"),
                    "case {case} {}: expected a DTD002 warning",
                    verdict.strategy.label()
                );
            }
        }
    }
    assert!(tested >= 3, "corpus produced only {tested} mutable DTDs");
}

/// Removing an *inner* declaration makes the attribute-tables load fail in
/// a data-dependent way (no tables below the undeclared element). maplint
/// warns (DTD002) but must not promote it to an Error — while the Error ⇒
/// failure direction still holds for every strategy.
#[test]
fn removed_inner_declaration_errors_stay_sound() {
    let config = DtdConfig { depth: 3, fanout: 2, leaves: 2, ..Default::default() };
    let generated = generate_dtd(&config);
    let xml = generated.document(2, config.seed);
    let dtd = parse_dtd(&generated.dtd_text).unwrap();

    let graph = ElementGraph::build(&dtd);
    let inner = dtd
        .element_order
        .iter()
        .find(|name| {
            *name != &generated.root
                && !graph.children_of(name).is_empty()
                && !graph.parents_of(name).is_empty()
        })
        .expect("depth-3 corpus has an inner element");
    let mutated: String = generated
        .dtd_text
        .lines()
        .filter(|line| {
            !line.starts_with(&format!("<!ELEMENT {inner} "))
                && !line.starts_with(&format!("<!ATTLIST {inner} "))
        })
        .map(|line| format!("{line}\n"))
        .collect();

    let (mdtd, msrc) = parse_dtd_spanned(&mutated).unwrap();
    for verdict in lint_dtd(&mdtd, &msrc, &generated.root) {
        let result = attempt(verdict.strategy, &mutated, &generated.root, &xml);
        if verdict.error_count() > 0 {
            assert!(
                result.is_err(),
                "{}: Error-severity finding on a loadable input (false positive)",
                verdict.strategy.label()
            );
        }
        match verdict.strategy {
            MappingStrategy::Edge => assert!(result.is_ok(), "edge never consults the DTD"),
            MappingStrategy::AttributeTables => {
                // The document nests children under the undeclared element,
                // so this load really fails — covered by the Warning.
                assert!(result.is_err(), "attr load should fail: tables below <{inner}> missing");
                assert_eq!(verdict.error_count(), 0, "data-dependent: must stay a Warning");
                assert!(verdict.diagnostics.iter().any(|d| d.code == "DTD002"));
            }
            _ => {}
        }
    }
}

/// Catalog drift: DRIFT Errors appear exactly when the live catalog no
/// longer matches the mapping — and bypassing the check reproduces the
/// failure at load time.
#[test]
fn drift_errors_reproduce_as_load_failures() {
    let config = corpus(3);
    let generated = generate_dtd(&config);
    let mut sys = Xml2OrDb::new(DbMode::Oracle9);
    sys.register_dtd("gen", &generated.dtd_text, &generated.root).unwrap();

    // Fresh registration: no drift, and a store succeeds.
    let clean = sys.maplint("gen").unwrap();
    assert_eq!(clean.error_count(), 0, "{}", clean.render("gen.sql"));
    sys.store_document("gen", &generated.document(1, 7)).unwrap();

    // Drop the root table out from under the mapping.
    let schema = sys.schema("gen").unwrap().schema.clone();
    let table = schema.root_table.clone();
    sys.database().execute(&format!("DROP TABLE {table}")).unwrap();

    let drifted = sys.maplint("gen").unwrap();
    assert!(
        drifted.diagnostics.iter().any(|d| d.severity == Severity::Error && d.code == "DRIFT001"),
        "{}",
        drifted.render("gen.sql")
    );
    // Bypass the check: the load failure the Error predicted is real.
    let err = sys.store_document("gen", &generated.document(1, 8));
    assert!(err.is_err(), "store succeeded against a dropped root table");

    // Standalone checker agrees with the pipeline wrapper.
    let standalone = check_catalog_drift(&schema, &sys.database().catalog()).unwrap();
    assert!(standalone.diagnostics.iter().any(|d| d.code == "DRIFT001"));
}

// ------------------------------------------------------ colliding names --

/// Drive the whole pipeline for one strategy: DDL, load, and a rebuild
/// (set-oriented and naive) that must serialize to the stored document's
/// bytes. `Err` carries the first failure.
fn round_trip(strategy: MappingStrategy, dtd_text: &str, xml: &str) -> Result<(), String> {
    let dtd = parse_dtd(dtd_text).map_err(|e| e.to_string())?;
    let doc = xml_ordb::xml::parse(xml).map_err(|e| e.to_string())?;
    let mut handle = strategy::setup(strategy, &dtd, "r", &MappingOptions::default())
        .map_err(|e| e.to_string())?;
    handle.load(&doc).map_err(|e| e.to_string())?;
    let expected = serialize(&doc, &SerializeOptions::compact());
    for bulk in [true, false] {
        let restored = handle.reconstruct(bulk).map_err(|e| e.to_string())?;
        let restored = serialize(&restored, &SerializeOptions::compact());
        if restored != expected {
            return Err(format!("bulk={bulk} rebuilt\n{restored}\nnot\n{expected}"));
        }
    }
    Ok(())
}

/// The differential guarantee on one DTD rooted at `r` and one document of
/// it; returns the strategies maplint gave an Error.
fn lint_agrees_with_pipeline(dtd_text: &str, xml: &str) -> Vec<MappingStrategy> {
    let (dtd, src) = parse_dtd_spanned(dtd_text).unwrap();
    let mut errors = Vec::new();
    for verdict in lint_dtd(&dtd, &src, "r") {
        let result = round_trip(verdict.strategy, dtd_text, xml);
        let label = verdict.strategy.label();
        if verdict.error_count() > 0 {
            assert!(result.is_err(), "{label}: Error on a pipeline that round-trips\n{dtd_text}");
            errors.push(verdict.strategy);
        } else {
            assert!(
                result.is_ok(),
                "{label}: clean verdict but {}\n{dtd_text}\n{xml}",
                result.unwrap_err()
            );
        }
    }
    errors
}

/// A DTD rooted at `r` with single simple children, set-valued complex
/// children (each holding one `v`) and attributes on `r` of the given
/// names, and a document using every name (two of each complex child).
fn colliding_dtd(simple: &[String], complex: &[String], attrs: &[String]) -> (String, String) {
    let model: Vec<String> =
        simple.iter().cloned().chain(complex.iter().map(|c| format!("{c}*"))).collect();
    let mut dtd = match model.is_empty() {
        true => "<!ELEMENT r (#PCDATA)>\n".to_string(),
        false => format!("<!ELEMENT r ({})>\n", model.join(",")),
    };
    let mut xml = String::from("<r");
    if !attrs.is_empty() {
        let defs: Vec<String> = attrs.iter().map(|a| format!("{a} CDATA #IMPLIED")).collect();
        dtd.push_str(&format!("<!ATTLIST r {}>\n", defs.join(" ")));
        for (i, a) in attrs.iter().enumerate() {
            xml.push_str(&format!(" {a}=\"a{i}\""));
        }
    }
    xml.push('>');
    if model.is_empty() {
        xml.push_str("text");
    }
    for (i, name) in simple.iter().enumerate() {
        dtd.push_str(&format!("<!ELEMENT {name} (#PCDATA)>\n"));
        xml.push_str(&format!("<{name}>s{i}</{name}>"));
    }
    for (i, name) in complex.iter().enumerate() {
        dtd.push_str(&format!("<!ELEMENT {name} (v)>\n"));
        for k in 0..2 {
            xml.push_str(&format!("<{name}><v>c{i}.{k}</v></{name}>"));
        }
    }
    if !complex.is_empty() {
        dtd.push_str("<!ELEMENT v (#PCDATA)>\n");
    }
    xml.push_str("</r>");
    (dtd, xml)
}

/// One DTD of colliding names, and whether attr must draw DTD010 on it.
#[derive(Default)]
struct Row {
    what: &'static str,
    simple: Vec<String>,
    complex: Vec<String>,
    attrs: Vec<String>,
    case_fold: bool,
}

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// The identifier collisions found at the parent of this test, one DTD
/// each: under every strategy they load and rebuild byte for byte, except
/// attr on names equal after case-folding, which DTD010 reports and whose
/// DDL fails.
#[test]
fn colliding_names_round_trip_or_draw_the_case_fold_error() {
    let long = |tail: &str| format!("{}{tail}", "Alongsharedprefixofthirtyfourchars");
    let (a_b, case) = (names(&["a-b", "a_b"]), names(&["A", "a"]));
    let long_pair = vec![long("Abc"), long("Xyz")];
    let rows = [
        Row { what: "simple a-b, a_b", simple: a_b.clone(), ..Row::default() },
        Row { what: "simple A, a", simple: case.clone(), case_fold: true, ..Row::default() },
        Row { what: "set-valued a-b*, a_b*", complex: a_b.clone(), ..Row::default() },
        Row { what: "set-valued A*, a*", complex: case, case_fold: true, ..Row::default() },
        Row { what: "attributes a-b, a_b", attrs: a_b, ..Row::default() },
        Row { what: "set-valued 37-character names", complex: long_pair.clone(), ..Row::default() },
        Row { what: "simple 37-character names", simple: long_pair, ..Row::default() },
        // A prefixed name is its own element: `ns:a` is not `a`.
        Row { what: "simple ns:a, ns_a, a", simple: names(&["ns:a", "ns_a", "a"]), ..Row::default() },
        // rel flattens the attribute list into the row beside the child.
        Row {
            what: "attribute list and child x",
            simple: names(&["x"]),
            attrs: names(&["x", "y"]),
            ..Row::default()
        },
    ];
    for row in rows {
        assert!(row.simple.iter().chain(&row.complex).all(|n| n.len() <= 37), "{}", row.what);
        let (dtd, xml) = colliding_dtd(&row.simple, &row.complex, &row.attrs);
        let errors = lint_agrees_with_pipeline(&dtd, &xml);
        let expected: &[MappingStrategy] =
            if row.case_fold { &[MappingStrategy::AttributeTables] } else { &[] };
        assert_eq!(errors, expected, "{}: Errors under {errors:?}\n{dtd}", row.what);
    }
    // A complex element named `Parent` below a set-valued one: rel's key
    // `IDParent` must step aside for the parent key of the same name.
    let dtd = "<!ELEMENT r (Parent*)>\n<!ELEMENT Parent (x)>\n<!ELEMENT x (#PCDATA)>\n";
    let xml = "<r><Parent><x>1</x></Parent><Parent><x>2</x></Parent></r>";
    assert_eq!(lint_agrees_with_pipeline(dtd, xml), []);
    let parsed = parse_dtd(dtd).unwrap();
    let handle =
        strategy::setup(MappingStrategy::Relational, &parsed, "r", &MappingOptions::default())
            .unwrap();
    assert!(handle.ddl().contains("IDParent2 NUMBER PRIMARY KEY"), "{}", handle.ddl());
}

/// Valid XML names drawn to collide as identifiers: letters of both cases,
/// digits, `-`, `.`, `_` and a two-byte letter, and one in three a
/// prefixed name (`p:local`, both parts such names).
fn xml_name(rng: &mut Prng, len: usize) -> String {
    const FIRST: &[char] = &['a', 'B', 'c', 'D', 'é', 'Q'];
    const REST: &[char] = &['a', 'A', 'b', 'B', 'z', 'Z', '0', '9', '-', '.', '_', 'é'];
    let part = |rng: &mut Prng, len: usize| {
        let mut name = String::from(*rng.choose(FIRST));
        name.extend((1..len).map(|_| *rng.choose(REST)));
        name
    };
    if len >= 3 && rng.gen_range(0u32..3) == 0 {
        let prefix = part(rng, len / 2);
        format!("{prefix}:{}", part(rng, len - len / 2 - 1))
    } else {
        part(rng, len)
    }
}

/// `naming_prop`'s colliding family, restricted to valid XML names: case
/// variants, `-`/`.`/`:`/`_` swaps and a suffixed twin, without
/// duplicates.
fn colliding_family(base: &str) -> Vec<String> {
    let mut family = Vec::new();
    for name in [
        base.to_string(),
        base.to_uppercase(),
        base.to_lowercase(),
        base.replace(['-', '.', ':'], "_"),
        base.replace('_', "-"),
        format!("{base}2"),
    ] {
        if !family.contains(&name) && name != "r" && name != "v" {
            family.push(name);
        }
    }
    family
}

/// Seeded families of colliding names — short ones, and long ones sharing
/// a prefix past the 30-character limit — as simple children, set-valued
/// complex children and attributes: every strategy round-trips, or maplint
/// draws an Error and the pipeline fails.
#[test]
fn seeded_colliding_families_keep_the_differential_guarantee() {
    let (mut case_fold_errors, mut prefixed) = (0, 0);
    for case in 0..16u64 {
        let mut rng = Prng::seed_from_u64(0xC011 + case);
        let family = |rng: &mut Prng| {
            let len = if case % 2 == 0 { rng.gen_range(2usize..6) } else { rng.gen_range(31usize..36) };
            colliding_family(&xml_name(rng, len))
        };
        let simple = family(&mut rng);
        let complex = family(&mut rng);
        let attrs = family(&mut rng);
        // The three families must not share a name (one declaration each).
        let complex: Vec<String> = complex.into_iter().filter(|n| !simple.contains(n)).collect();
        let (dtd, xml) = colliding_dtd(&simple, &complex, &attrs);
        prefixed += [&simple, &complex, &attrs].iter().filter(|f| f[0].contains(':')).count();
        let errors = lint_agrees_with_pipeline(&dtd, &xml);
        assert!(
            errors.iter().all(|&s| s == MappingStrategy::AttributeTables),
            "case {case}: only attr has a collision it cannot separate: {errors:?}\n{dtd}"
        );
        case_fold_errors += errors.len();
    }
    assert!(case_fold_errors > 0, "no family produced a case-fold collision");
    assert!(prefixed > 0, "no family of prefixed names");
}
