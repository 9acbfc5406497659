//! Seeded differential property suite for bulk document reconstruction
//! (PR 10's tentpole): over a generated `dtdgen` corpus and all six
//! storage strategies (or9, or8, rel, edge, attr, inline),
//!
//! * the set-oriented bulk walker and the naive per-node walker rebuild
//!   **byte-identical** documents,
//! * both match the originally stored document (canonical compact form),
//! * through the pipeline the answer is the same at any reader-worker
//!   count, with the valve on or off,
//! * a pinned MVCC snapshot keeps answering with the same bytes while
//!   a writer churns more documents into the database,
//! * and for or9 and or8, with the valve on and off, the text the walk
//!   writes without a DOM (`retrieve_document`) is byte for byte the
//!   serialization of the DOM the same walk builds (`retrieve_dom`).

use xml2ordb::model::MappingOptions;
use xml2ordb::pipeline::{retrieval_serialize_options, Xml2OrDb};
use xml2ordb::schemagen::IdrefTargets;
use xml2ordb::retriever::retrieve_snapshot;
use xml2ordb::strategy::setup;
use xmlord_dtd::{parse_dtd, MappingStrategy};
use xmlord_ordb::DbMode;
use xmlord_prng::Prng;
use xmlord_workload::dtdgen::{generate_dtd, DtdConfig};
use xmlord_workload::university::{university_dtd, university_xml, UniversityConfig};
use xmlord_xml::serializer::{serialize, SerializeOptions};

fn corpus(case: u64) -> DtdConfig {
    let mut rng = Prng::seed_from_u64(0x5E70 + case);
    DtdConfig {
        depth: rng.gen_range(1usize..4),
        fanout: rng.gen_range(1usize..4),
        leaves: rng.gen_range(1usize..3),
        star_percent: 45,
        attr_percent: 40,
        seed: rng.gen_range(0u64..5000),
    }
}

/// Canonical compact serialization — the comparison form throughout (the
/// corpus is data-centric, so reconstruction is byte-exact in it).
fn canonical(xml: &str) -> String {
    serialize(&xmlord_xml::parse(xml).unwrap(), &SerializeOptions::compact())
}

/// or9 / or8 through the full pipeline: store, retrieve with the valve on
/// and off, compare raw retrieval bytes and the canonical original.
#[test]
fn or_strategies_bulk_naive_and_original_agree() {
    for case in 0..6u64 {
        let config = corpus(case);
        let generated = generate_dtd(&config);
        let xml = generated.document(2, config.seed);
        let expect = canonical(&xml);
        for mode in [DbMode::Oracle9, DbMode::Oracle8] {
            let mut sys = Xml2OrDb::new(mode);
            sys.register_dtd("gen", &generated.dtd_text, &generated.root).unwrap();
            let id = sys.store_document("gen", &xml).unwrap();
            let bulk = sys.retrieve_document(&id).unwrap();
            sys.database().set_bulk_retrieval(false);
            let naive = sys.retrieve_document(&id).unwrap();
            assert_eq!(bulk, naive, "case {case} {mode:?}: walkers diverged");
            assert_eq!(canonical(&bulk), expect, "case {case} {mode:?}: lost the original");
        }
    }
}

/// rel / edge / attr / inline through the strategy handle: shred into a
/// fresh database, rebuild with both access paths, compare against the
/// canonical original.
#[test]
fn generic_strategies_bulk_naive_and_original_agree() {
    let generic = [
        MappingStrategy::Relational,
        MappingStrategy::Edge,
        MappingStrategy::AttributeTables,
        MappingStrategy::Inline,
    ];
    for case in 0..6u64 {
        let config = corpus(case);
        let generated = generate_dtd(&config);
        let xml = generated.document(2, config.seed);
        let expect = canonical(&xml);
        let dtd = parse_dtd(&generated.dtd_text).unwrap();
        let doc = xmlord_xml::parse(&xml).unwrap();
        for strategy in generic {
            let mut handle =
                setup(strategy, &dtd, &generated.root, &MappingOptions::default()).unwrap();
            handle.load(&doc).unwrap();
            for bulk in [false, true] {
                let restored = handle.reconstruct(bulk).unwrap();
                assert_eq!(
                    serialize(&restored, &SerializeOptions::compact()),
                    expect,
                    "case {case} {} bulk={bulk}",
                    strategy.label()
                );
            }
        }
    }
}

/// Parallel snapshot readers return the same bytes as one serial reader,
/// at every worker count and with the valve in both positions.
#[test]
fn parallel_retrieval_matches_serial_at_any_worker_count() {
    let config = corpus(1);
    let generated = generate_dtd(&config);
    for mode in [DbMode::Oracle9, DbMode::Oracle8] {
        let mut sys = Xml2OrDb::new(mode);
        sys.register_dtd("gen", &generated.dtd_text, &generated.root).unwrap();
        let docs: Vec<String> =
            (0..8).map(|i| generated.document(2, config.seed + i)).collect();
        let ids: Vec<String> =
            docs.iter().map(|d| sys.store_document("gen", d).unwrap()).collect();
        let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();

        sys.set_load_workers(1);
        let serial = sys.retrieve_documents(&id_refs).unwrap();
        for (original, retrieved) in docs.iter().zip(&serial) {
            assert_eq!(canonical(retrieved), canonical(original), "{mode:?} serial");
        }
        for workers in [2usize, 4] {
            sys.set_load_workers(workers);
            let parallel = sys.retrieve_documents(&id_refs).unwrap();
            assert_eq!(serial, parallel, "{mode:?} workers={workers}");
        }
        // Valve off: sessions inherit the writer's setting and the naive
        // walkers still produce the same bytes.
        sys.database().set_bulk_retrieval(false);
        sys.set_load_workers(4);
        let naive = sys.retrieve_documents(&id_refs).unwrap();
        assert_eq!(serial, naive, "{mode:?} naive valve diverged");
    }
}

/// A pinned MVCC snapshot keeps answering with identical bytes — bulk and
/// naive alternating — while the writer stores more documents.
#[test]
fn snapshot_readers_are_stable_under_writer_churn() {
    let config = corpus(2);
    let generated = generate_dtd(&config);
    let xml = generated.document(2, config.seed);
    let expect = canonical(&xml);
    let mut sys = Xml2OrDb::new(DbMode::Oracle9);
    sys.register_dtd("gen", &generated.dtd_text, &generated.root).unwrap();
    let id = sys.store_document("gen", &xml).unwrap();
    let schema = sys.schema("gen").unwrap().schema.clone();
    let mut session = sys.database().read_session();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut texts = Vec::new();
            for i in 0..12 {
                session.set_bulk_retrieval(i % 2 == 0);
                let (doc, _meta, _stats) =
                    retrieve_snapshot(&mut session, &schema, &id).unwrap();
                texts.push(serialize(&doc, &SerializeOptions::compact()));
            }
            texts
        });
        for i in 0..10u64 {
            sys.store_document("gen", &generated.document(2, config.seed + 100 + i))
                .unwrap();
        }
        for text in reader.join().unwrap() {
            assert_eq!(text, expect, "snapshot read changed under writer churn");
        }
    });
}

/// The two sinks of one walk agree: `retrieve_document`'s text equals
/// `serialize(retrieve_dom(..))` with the retrieval options, valve on and
/// off. Returns the text.
fn writer_matches_dom(sys: &mut Xml2OrDb, id: &str, what: &str) -> String {
    let mut texts = Vec::new();
    for bulk in [true, false] {
        sys.database().set_bulk_retrieval(bulk);
        let text = sys.retrieve_document(id).unwrap();
        let (dom, meta) = sys.retrieve_dom(id).unwrap();
        let serialized = serialize(&dom, &retrieval_serialize_options(&meta));
        assert_eq!(text, serialized, "{what} bulk={bulk}: writer and DOM diverged");
        texts.push(text);
    }
    sys.database().set_bulk_retrieval(true);
    assert_eq!(texts[0], texts[1], "{what}: walkers diverged");
    texts.pop().unwrap()
}

/// One document stored under one DTD in each Oracle mode, through
/// `register`, then checked by [`writer_matches_dom`]; returns each mode's
/// text.
fn check_both_modes(
    what: &str,
    dtd: &str,
    root: &str,
    xml: &str,
    idrefs: &IdrefTargets,
) -> Vec<String> {
    [DbMode::Oracle9, DbMode::Oracle8]
        .into_iter()
        .map(|mode| {
            let mut sys = Xml2OrDb::new(mode);
            sys.register_dtd_with_idrefs("t", dtd, root, idrefs).unwrap();
            let id = sys.store_document("t", xml).unwrap();
            writer_matches_dom(&mut sys, &id, &format!("{what} {mode:?}"))
        })
        .collect()
}

/// The seeded corpus, and the university document whose `cs` entity the
/// writer re-substitutes (§6.1), in both modes.
#[test]
fn writer_matches_serialized_dom_on_the_corpus_and_the_university() {
    for case in 0..6u64 {
        let config = corpus(case);
        let generated = generate_dtd(&config);
        let xml = generated.document(2, config.seed);
        let texts = check_both_modes(
            &format!("case {case}"),
            &generated.dtd_text,
            &generated.root,
            &xml,
            &IdrefTargets::new(),
        );
        for text in texts {
            assert_eq!(canonical(&text), canonical(&xml), "case {case}");
        }
    }
    let config = UniversityConfig { students: 6, ..Default::default() };
    let xml = format!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>{}",
        university_xml(&config).replacen("<StudyCourse>", "<StudyCourse>BSc &cs; (", 1).replacen(
            "</StudyCourse>",
            ")</StudyCourse>",
            1
        )
    );
    for text in check_both_modes("university", university_dtd(), "University", &xml, &IdrefTargets::new())
    {
        assert!(text.starts_with("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"), "{text}");
        assert!(text.contains("<StudyCourse>BSc &cs; ("), "{text}");
    }
}

/// The meta-table's namespace lands on the root as `Document::set_attribute`
/// puts it: last when no stored attribute has the name, in place when one
/// does — an inlined single attribute or one of an attribute list.
#[test]
fn writer_matches_serialized_dom_with_a_root_namespace() {
    let cases = [
        ("<!ELEMENT r (#PCDATA)>\n<!ATTLIST r xmlns CDATA #IMPLIED>", r#"<r xmlns="urn:a">x</r>"#),
        (
            "<!ELEMENT r (k*)>\n<!ATTLIST r a CDATA #IMPLIED xmlns CDATA #IMPLIED z CDATA #IMPLIED>\n\
             <!ELEMENT k (#PCDATA)>",
            r#"<r a="1" xmlns="urn:b" z="2"><k>v</k><k/></r>"#,
        ),
    ];
    for (dtd, xml) in cases {
        for text in check_both_modes("namespace", dtd, "r", xml, &IdrefTargets::new()) {
            assert_eq!(canonical(&text), canonical(xml), "{text}");
        }
    }
}

/// IDREF attributes come back as their targets' ID values — inlined (one
/// attribute) and inside an attribute list — and IDREFS as stored text.
#[test]
fn writer_matches_serialized_dom_with_idrefs() {
    let dtd = r#"<!ELEMENT db (person*, team*)>
<!ELEMENT person (#PCDATA)>
<!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>
<!ELEMENT team (#PCDATA)>
<!ATTLIST team lead IDREF #IMPLIED>
<!ELEMENT note (#PCDATA)>"#;
    let dtd_with_idrefs = dtd.replace(
        "<!ELEMENT note (#PCDATA)>",
        "<!ELEMENT note (#PCDATA)>\n<!ATTLIST db members IDREFS #IMPLIED>",
    );
    let xml = r#"<db members="p1 p2"><person id="p1">Kudrass</person><person id="p2" boss="p1">Conrad</person><team lead="p2">DB</team></db>"#;
    let mut targets = IdrefTargets::new();
    targets.insert(("person".into(), "boss".into()), "person".into());
    targets.insert(("team".into(), "lead".into()), "person".into());
    for text in check_both_modes("idrefs", &dtd_with_idrefs, "db", xml, &targets) {
        assert_eq!(canonical(&text), canonical(xml), "{text}");
    }
}

/// Mixed content and markup characters. On Oracle 8 the `sec-tion` and
/// `para` children are stored inverted, so the walk restores content-model
/// order before it writes: `sec-tion` comes back under its XML name, which
/// the content model lists, so it moves with `para` and `fig`. The
/// element's own text cannot sit between its inverted children: the
/// mapping stores it in one text field, which the walk meets before every
/// child field and inverted row, and text has no content-model position —
/// so it keeps the first slot on every path.
#[test]
fn writer_matches_serialized_dom_with_mixed_content_and_escapes() {
    let dtd = r#"<!ELEMENT article (#PCDATA|sec-tion|para|fig)*>
<!ELEMENT sec-tion (para*)>
<!ELEMENT para (#PCDATA)>
<!ATTLIST para label CDATA #IMPLIED>
<!ELEMENT fig (#PCDATA)>"#;
    let xml = "<article>intro &amp; &lt;more&gt; \"quoted\"<para>p0</para>\
<sec-tion><para>s1</para></sec-tion><fig>f1</fig>tail\
<para label=\"a&amp;b &lt;c&gt; &quot;d&quot;\">p1</para><sec-tion/>\
<fig>1 &lt; 2 &amp;&amp; 3 &gt; 2</fig></article>";
    let texts = check_both_modes("mixed", dtd, "article", xml, &IdrefTargets::new());
    for text in &texts {
        assert!(text.contains("label=\"a&amp;b &lt;c&gt; &quot;d&quot;\""), "{text}");
        assert!(text.contains("1 &lt; 2 &amp;&amp; 3 &gt; 2"), "{text}");
        assert!(text.contains("<sec-tion"), "{text}");
    }
}

/// A name that is not an SQL identifier (`sec-tion`) comes back under its
/// XML name, not its sanitized table or type name, on or9, or8 and rel.
#[test]
fn element_names_that_are_not_sql_identifiers_round_trip() {
    let dtd = "<!ELEMENT r (sec-tion*)>\n<!ELEMENT sec-tion (para*)>\n<!ELEMENT para (#PCDATA)>";
    let xml = "<r><sec-tion><para>s1</para></sec-tion></r>";
    for text in check_both_modes("sec-tion", dtd, "r", xml, &IdrefTargets::new()) {
        assert_eq!(canonical(&text), canonical(xml), "{text}");
    }
    let parsed = parse_dtd(dtd).unwrap();
    let mut handle =
        setup(MappingStrategy::Relational, &parsed, "r", &MappingOptions::default()).unwrap();
    handle.load(&xmlord_xml::parse(xml).unwrap()).unwrap();
    for bulk in [false, true] {
        let restored = handle.reconstruct(bulk).unwrap();
        assert_eq!(serialize(&restored, &SerializeOptions::compact()), canonical(xml), "rel bulk={bulk}");
    }
}

/// A `#REQUIRED` IDREF whose target is resolved is stored as a REF that the
/// loader sets after every row exists, so a team may name a person the
/// document declares later; its column is nullable, and DTD validation is
/// what still rejects a team without a lead.
#[test]
fn a_required_idref_stores_and_round_trips_with_a_forward_reference() {
    let dtd = r#"<!ELEMENT db (team*, person*)>
<!ELEMENT team (#PCDATA)>
<!ATTLIST team lead IDREF #REQUIRED>
<!ELEMENT person (#PCDATA)>
<!ATTLIST person id ID #REQUIRED>"#;
    let xml = r#"<db><team lead="p2">DB</team><team lead="p1">OS</team><person id="p1">Kudrass</person><person id="p2">Conrad</person></db>"#;
    let mut targets = IdrefTargets::new();
    targets.insert(("team".into(), "lead".into()), "person".into());
    for text in check_both_modes("required idref", dtd, "db", xml, &targets) {
        assert_eq!(canonical(&text), canonical(xml), "{text}");
    }
    for mode in [DbMode::Oracle9, DbMode::Oracle8] {
        let mut sys = Xml2OrDb::new(mode);
        sys.register_dtd_with_idrefs("t", dtd, "db", &targets).unwrap();
        let missing = sys.store_document("t", "<db><team>DB</team></db>");
        assert!(missing.is_err(), "{mode:?}: a team without a lead was stored");
    }
}
