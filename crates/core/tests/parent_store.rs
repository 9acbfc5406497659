//! Nothing persisted changed shape when a key's index became the planner's
//! index: key definitions are derived from the table definitions, so
//! snapshot and WAL carry what they carried.
//!
//! `fixtures/pr23_or8_store` is a durable Oracle 8 directory written by the
//! parent commit (PR 23) the way the benchmark sets a store up — register,
//! `create_load_indexes`, `create_retrieval_indexes`, two documents, a
//! snapshot, a third document in the WAL tail — so its snapshot holds the
//! load-index definitions (a second index on every synthetic-id column)
//! this commit no longer creates. The `uni-<n>.xml` beside it are that
//! commit's own retrievals.
//!
//! `load.sql` beside them is the same three documents' `load_script` +
//! `metadata_insert` text as printed before the loader grouped a
//! document's rows by table: document order, which is the order the
//! fixture's OIDs were allocated in. The loader's grouped order numbers
//! OIDs differently by design, so the fresh store compared with the
//! fixture executes that text rather than storing the documents again.

use std::path::PathBuf;

use xml2ordb::Xml2OrDb;
use xmlord_ordb::{DbMode, Ident};
use xmlord_testkit::TempDir;
use xmlord_workload::university::{university_dtd, university_xml, UniversityConfig};

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr23_or8_store")
}

#[test]
fn a_store_written_by_the_parent_commit_opens_plans_and_retrieves() {
    let dir = TempDir::new("parent-store");
    for file in ["snapshot.db", "wal.log"] {
        std::fs::copy(fixture().join(file), dir.join(file)).unwrap();
    }
    let mut sys = Xml2OrDb::open(&dir, DbMode::Oracle8).unwrap();

    // The old duplicate is still there, a declared index like any other,
    // listed after the key it duplicates — which the planner prefers.
    let table = Ident::new("TabCourse").unwrap();
    let id_column = [Ident::new("IDCourse").unwrap()];
    let on_the_id: Vec<String> = sys
        .database()
        .catalog()
        .indexes_on(&table)
        .filter(|ix| ix.columns == id_column)
        .map(|ix| ix.label())
        .collect();
    assert_eq!(on_the_id.len(), 2, "{on_the_id:?}");
    assert_eq!(on_the_id[0], "TabCourse(IDCourse) PRIMARY KEY");
    let plan = sys
        .database()
        .query("EXPLAIN SELECT REF(x) FROM TabCourse x WHERE (x.IDCourse = 'uni-1#4')")
        .unwrap();
    assert!(
        plan.rows.iter().any(|r| r[0]
            .as_str()
            .unwrap()
            .contains("index probe TabCourse(IDCourse) PRIMARY KEY")),
        "{plan:?}"
    );

    // Snapshot + WAL tail replay to the parent's own bytes.
    for n in 1..=3 {
        let expected = std::fs::read_to_string(fixture().join(format!("uni-{n}.xml"))).unwrap();
        assert_eq!(sys.retrieve_document(&format!("uni-{n}")).unwrap(), expected, "uni-{n}");
    }

    // The same set-up at this commit leaves the same state: index
    // definitions, declared or derived, appear in no dump. The documents
    // go in as `load.sql`'s document-order text; reopening the fresh store
    // counts them, so it assigns the next DocID as `sys` does.
    let fresh_dir = TempDir::new("parent-store-fresh");
    let mut fresh = Xml2OrDb::open(&fresh_dir, DbMode::Oracle8).unwrap();
    fresh.register_dtd("uni", university_dtd(), "University").unwrap();
    fresh.create_load_indexes("uni").unwrap();
    fresh.create_retrieval_indexes("uni").unwrap();
    let load = std::fs::read_to_string(fixture().join("load.sql")).unwrap();
    fresh.database().execute_script(&load).unwrap();
    fresh.database().commit().unwrap();
    drop(fresh);
    let mut fresh = Xml2OrDb::open(&fresh_dir, DbMode::Oracle8).unwrap();
    let document =
        |seed| university_xml(&UniversityConfig { students: 3, seed, ..Default::default() });
    assert_eq!(sys.database().state_dump(), fresh.database().state_dump());

    // And the reopened store keeps working: it stores, probes and checks out.
    let before = sys.stats();
    let id = sys.store_document("uni", &document(4)).unwrap();
    assert!(sys.stats().since(&before).index_scans > 0);
    assert_eq!(id, fresh.store_document("uni", &document(4)).unwrap());
    assert_eq!(sys.retrieve_document(&id).unwrap(), fresh.retrieve_document(&id).unwrap());
    sys.database().storage().check_indexes().unwrap();
}
