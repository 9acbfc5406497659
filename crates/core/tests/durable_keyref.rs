//! An Oracle 8 store whose log holds key REFs reopens to the state an
//! in-memory store reaches. A key REF is logged as the subquery it means —
//! `(SELECT REF(x) FROM TabCourse x WHERE x.IDCourse = '…')` — so the log
//! format is unchanged, and replay evaluates that subquery against the
//! state it has replayed so far, which is the state the key REF read.

use xml2ordb::Xml2OrDb;
use xmlord_ordb::DbMode;
use xmlord_workload::university::{university_dtd, university_xml, UniversityConfig};

#[test]
fn an_oracle8_store_reopens_from_a_log_of_key_refs() {
    let dir = std::env::temp_dir().join(format!("xmlord-durable-keyref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let documents: Vec<String> = (1..=6u64)
        .map(|seed| university_xml(&UniversityConfig { students: 3, seed, ..Default::default() }))
        .collect();
    {
        let mut sys = Xml2OrDb::open(&dir, DbMode::Oracle8).unwrap();
        sys.register_dtd("uni", university_dtd(), "University").unwrap();
        for xml in &documents[..3] {
            sys.store_document("uni", xml).unwrap();
        }
        sys.database().snapshot().unwrap();
        // The tail: three documents' key-REF batches, replayed on reopen.
        for xml in &documents[3..] {
            sys.store_document("uni", xml).unwrap();
        }
    }

    let mut reopened = Xml2OrDb::open(&dir, DbMode::Oracle8).unwrap();
    let report = reopened.database().recovery_report().unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.entries_replayed, 3, "one commit per document in the tail");

    let mut memory = Xml2OrDb::new(DbMode::Oracle8);
    memory.register_dtd("uni", university_dtd(), "University").unwrap();
    for xml in &documents {
        memory.store_document("uni", xml).unwrap();
    }
    assert_eq!(reopened.database().state_dump(), memory.database().state_dump());
    for n in 1..=documents.len() {
        let doc_id = format!("uni-{n}");
        assert_eq!(
            reopened.retrieve_document(&doc_id).unwrap(),
            memory.retrieve_document(&doc_id).unwrap(),
            "{doc_id}"
        );
    }

    // The reopened store keeps wiring children by key probes.
    let next = university_xml(&UniversityConfig { students: 3, seed: 7, ..Default::default() });
    let before = reopened.stats();
    let doc_id = reopened.store_document("uni", &next).unwrap();
    assert!(reopened.stats().since(&before).index_scans > 0);
    assert_eq!(doc_id, memory.store_document("uni", &next).unwrap());
    assert_eq!(reopened.database().state_dump(), memory.database().state_dump());
    reopened.database().storage().check_indexes().unwrap();
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
