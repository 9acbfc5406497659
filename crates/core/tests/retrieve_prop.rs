//! Seeded differential property suite for bulk document reconstruction
//! (PR 10's tentpole): over a generated `dtdgen` corpus and all six
//! storage strategies (or9, or8, rel, edge, attr, inline),
//!
//! * the set-oriented bulk walker and the naive per-node walker rebuild
//!   **byte-identical** documents,
//! * both match the originally stored document (canonical compact form),
//! * through the pipeline the answer is the same at any reader-worker
//!   count, with the valve on or off,
//! * and a pinned MVCC snapshot keeps answering with the same bytes while
//!   a writer churns more documents into the database.

use xml2ordb::model::MappingOptions;
use xml2ordb::pipeline::Xml2OrDb;
use xml2ordb::retriever::retrieve_snapshot;
use xml2ordb::strategy::setup;
use xmlord_dtd::{parse_dtd, MappingStrategy};
use xmlord_ordb::DbMode;
use xmlord_prng::Prng;
use xmlord_workload::dtdgen::{generate_dtd, DtdConfig};
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
