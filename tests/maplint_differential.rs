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
//!   the check is bypassed.

use xml_ordb::dtd::{lint_dtd, parse_dtd, parse_dtd_spanned, ElementGraph, MappingStrategy};
use xml_ordb::mapping::maplint::{check_catalog_drift, lint_schema};
use xml_ordb::mapping::model::MappingOptions;
use xml_ordb::mapping::schemagen::{generate_schema, IdrefTargets};
use xml_ordb::mapping::strategy;
use xml_ordb::mapping::Xml2OrDb;
use xml_ordb::ordb::{DbMode, Severity};
use xml_ordb::workload::dtdgen::{generate_dtd, DtdConfig};
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
