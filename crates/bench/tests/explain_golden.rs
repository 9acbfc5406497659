//! Golden-file snapshots of EXPLAIN output.
//!
//! The plan renderer promises a *stable*, data-independent plan tree; these
//! snapshots pin the concrete text for the headline query shapes — the E14
//! REF-chain navigation, the edge-table 7-way self-join in both engine
//! modes, and the §4.1 query seeded at its constant filter on or8, rel and
//! inline. Any change to plan rendering must update the goldens
//! deliberately: `UPDATE_GOLDEN=1 cargo test -p xmlord-bench --test
//! explain_golden`.

use xmlord_bench::{paper_query, ref_chain_db, university, university_doc};
use xmlord_dtd::MappingStrategy;
use xmlord_ordb::{Database, DbMode};

/// Render `EXPLAIN <sql>` to one newline-joined string.
fn plan_text(db: &mut Database, sql: &str) -> String {
    let result = db.query(&format!("EXPLAIN {sql}")).unwrap();
    assert_eq!(result.columns, vec!["PLAN"]);
    let mut out = String::new();
    for row in &result.rows {
        out.push_str(row[0].as_str().expect("plan rows are text"));
        out.push('\n');
    }
    out
}

fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path}; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(actual, expected, "EXPLAIN output drifted from {name}");
}

/// The E14 fixture's schema without its data — plans are data-independent,
/// which `plans_match_with_and_without_rows` below demonstrates.
fn ref_chain_schema(mode: DbMode) -> Database {
    let mut db = Database::new(mode);
    db.execute_script(
        "CREATE TYPE T_Prof AS OBJECT(pname VARCHAR(30), subject VARCHAR(30), boss REF T_Prof);
         CREATE TYPE T_Course AS OBJECT(cname VARCHAR(30), prof REF T_Prof);
         CREATE TABLE TabProf OF T_Prof;
         CREATE TABLE TabCourse OF T_Course;",
    )
    .unwrap();
    db
}

const REF_CHAIN_QUERY: &str = "SELECT c.prof.subject FROM TabCourse c";

#[test]
fn ref_chain_plan_oracle9() {
    let mut db = ref_chain_schema(DbMode::Oracle9);
    check("refchain_oracle9.txt", &plan_text(&mut db, REF_CHAIN_QUERY));
}

#[test]
fn ref_chain_plan_oracle8() {
    let mut db = ref_chain_schema(DbMode::Oracle8);
    check("refchain_oracle8.txt", &plan_text(&mut db, REF_CHAIN_QUERY));
}

#[test]
fn plans_match_with_and_without_rows() {
    let mut empty = ref_chain_schema(DbMode::Oracle9);
    let mut loaded = ref_chain_db(5);
    assert_eq!(
        plan_text(&mut empty, REF_CHAIN_QUERY),
        plan_text(&mut loaded, REF_CHAIN_QUERY)
    );
}

#[test]
fn paper_query_edge_join_plan_oracle9() {
    let mut edge = university(MappingStrategy::Edge);
    let sql = paper_query(&edge);
    check("paperq_edge_oracle9.txt", &plan_text(edge.database(), &sql));
}

#[test]
fn paper_query_edge_join_plan_oracle8() {
    // Same edge-table DDL and query text under Oracle 8 rules.
    let edge = university(MappingStrategy::Edge);
    let mut db = Database::new(DbMode::Oracle8);
    db.execute_script(edge.ddl()).unwrap();
    let sql = paper_query(&edge);
    check("paperq_edge_oracle8.txt", &plan_text(&mut db, &sql));
}

/// The §4.1 query where it is a chain of joins — or8's back-pointing REFs,
/// rel's and inline's foreign keys — with no index but the keys and no
/// statistics: the plan starts at the constant filter on the professor's
/// name and walks up to the student by one-row probes (OID probes on or8,
/// PRIMARY KEY probes on rel and inline). The plan is the catalog's: the
/// same once documents are stored.
#[test]
fn paper_query_seeded_plans() {
    let (_, doc) = university_doc(5);
    for (strategy, golden) in [
        (MappingStrategy::Or8, "paperq_or8.txt"),
        (MappingStrategy::Relational, "paperq_rel.txt"),
        (MappingStrategy::Inline, "paperq_inline.txt"),
    ] {
        let mut handle = university(strategy);
        let sql = paper_query(&handle);
        let plan = plan_text(handle.database(), &sql);
        assert!(plan.contains("join order: seeded at "), "{plan}");
        check(golden, &plan);
        handle.load(&doc).unwrap();
        assert_eq!(plan_text(handle.database(), &sql), plan, "{strategy:?} loaded");
    }
}

/// The REF-chain navigation rewritten as its explicit relational join —
/// the shape secondary indexes accelerate. Pinned twice: scan/hash-join
/// without indexes, index probes + cost-based order with them.
const REF_CHAIN_JOIN_QUERY: &str = "SELECT p.subject FROM TabProf p, TabCourse c \
                                    WHERE c.prof = REF(p) AND p.pname = 'prof3'";

#[test]
fn ref_chain_join_plan_without_indexes() {
    let mut db = ref_chain_db(5);
    check("refchain_join_noindex.txt", &plan_text(&mut db, REF_CHAIN_JOIN_QUERY));
}

#[test]
fn ref_chain_join_plan_with_indexes() {
    let mut db = ref_chain_db(5);
    db.execute_script(
        "CREATE INDEX IxCourseProf ON TabCourse (prof);
         CREATE INDEX IxProfPname ON TabProf (pname);
         ANALYZE TABLE TabProf COMPUTE STATISTICS;
         ANALYZE TABLE TabCourse COMPUTE STATISTICS;",
    )
    .unwrap();
    let plan = plan_text(&mut db, REF_CHAIN_JOIN_QUERY);
    assert!(plan.contains("index probe"), "{plan}");
    check("refchain_join_indexed.txt", &plan);
}

/// The 7-way edge self-join with the secondary indexes and statistics the
/// planner experiment installs: every join edge becomes an index probe and
/// the join order is cost-based. (Statistics live in the catalog, so the
/// plan stays a pure function of DDL + ANALYZE — the fixture document is
/// deterministic.)
#[test]
fn paper_query_edge_join_plan_indexed() {
    let mut edge = university(MappingStrategy::Edge);
    let (_, doc) = university_doc(10);
    edge.load(&doc).unwrap();
    edge.database()
        .execute_script(
            "CREATE INDEX IxEdgeSource ON TabEdge (Source);
             CREATE INDEX IxEdgeName ON TabEdge (Name);
             CREATE INDEX IxValueVID ON TabValue (VID);
             ANALYZE TABLE TabEdge COMPUTE STATISTICS;
             ANALYZE TABLE TabValue COMPUTE STATISTICS;",
        )
        .unwrap();
    let sql = paper_query(&edge);
    let plan = plan_text(edge.database(), &sql);
    assert!(plan.contains("index probe"), "{plan}");
    assert!(plan.contains("cost-based"), "{plan}");
    check("paperq_edge_indexed.txt", &plan);
}

/// The edge query with every join equality (`eK.Source = eJ.Target`,
/// `vK.VID = eJ.Target`) turned into `<>`: with nothing to hash, the
/// planner itself chooses a nested loop for every join.
#[test]
fn non_equi_edge_joins_plan_nested_loops() {
    let mut edge = university(MappingStrategy::Edge);
    let equi = paper_query(&edge);
    let sql = equi.replace(" = e", " <> e");
    assert_eq!(sql.matches(" <> e").count(), 9, "{sql}");
    assert!(plan_text(edge.database(), &equi).contains("hash join"));
    let nested = plan_text(edge.database(), &sql);
    assert!(!nested.contains("hash join"), "{nested}");
    let joins = nested.lines().filter(|l| l.ends_with(" — nested-loop join")).count();
    assert_eq!(joins, 9, "{nested}");

    // Executed: the root edge is the one combination `from[0]` leaves, it
    // is tried against every edge, and none survives — every student hangs
    // below the root, which `e1.Source <> e0.Target` excludes.
    let (_, doc) = university_doc(2);
    edge.load(&doc).unwrap();
    let db = edge.database();
    let before = db.stats();
    let rows = db.query(&sql).unwrap().rows;
    let delta = db.stats().since(&before);
    assert_eq!(delta.hash_join_builds, 0);
    assert_eq!(delta.join_pairs, db.row_count("TabEdge") as u64);
    assert!(rows.is_empty(), "{rows:?}");
}

/// The Oracle 8 parent-wiring subquery, as `load_script` spells it: an
/// equality on a PRIMARY KEY column probes the key's own index — no
/// `CREATE INDEX` anywhere — and EXPLAIN names the key, not the reserved
/// storage name.
const OR8_WIRING_QUERY: &str = "SELECT REF(x) FROM TabCourse x WHERE (x.IDCourse = 'doc1#4')";

#[test]
fn key_probe_plan_oracle8() {
    let mut or8 = university(MappingStrategy::Or8);
    let plan = plan_text(or8.database(), OR8_WIRING_QUERY);
    assert!(plan.contains("index probe TabCourse(IDCourse) PRIMARY KEY"), "{plan}");
    check("keyprobe_oracle8.txt", &plan);
}

/// The key-based relational baseline walked *up*, child to parent: the
/// parent is found by its `ID… NUMBER PRIMARY KEY` instead of a hash build
/// over its whole table. A declared index on the same column is legal and
/// redundant — the key wins the tie and the plan does not change.
const REL_UPWARD_QUERY: &str = "SELECT s.attrLName FROM RelCourse c, RelStudent s \
                                WHERE s.IDStudent = c.IDParent AND c.attrName = 'Databases'";

#[test]
fn key_probe_plan_oracle9() {
    let mut rel = university(MappingStrategy::Relational);
    let db = rel.database();
    let plan = plan_text(db, REL_UPWARD_QUERY);
    assert!(plan.contains("index probe RelStudent(IDStudent) PRIMARY KEY"), "{plan}");
    check("keyprobe_oracle9.txt", &plan);
    db.execute("CREATE INDEX IxStudentID ON RelStudent (IDStudent)").unwrap();
    assert_eq!(plan_text(db, REL_UPWARD_QUERY), plan);
    // DROP INDEX reaches the declared index only.
    db.execute("DROP INDEX IxStudentID").unwrap();
    assert_eq!(plan_text(db, REL_UPWARD_QUERY), plan);
}

/// Key definitions are derived from the table definitions, never stored:
/// a directory that was snapshotted and reopened plans exactly as the
/// database that wrote it, and its keys still answer.
#[test]
fn key_probe_plan_survives_snapshot_and_reopen() {
    let dir = std::env::temp_dir().join(format!("xmlord-explain-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fixture = university(MappingStrategy::Or8);
    let (_, doc) = university_doc(3);
    let mut db = Database::open(&dir, DbMode::Oracle8).unwrap();
    db.execute_script(fixture.ddl()).unwrap();
    for statement in fixture.load_statements(&doc).unwrap() {
        db.execute(&statement).unwrap();
    }
    db.commit().unwrap();
    let before = plan_text(&mut db, OR8_WIRING_QUERY);
    let rows = db.query(OR8_WIRING_QUERY).unwrap();
    assert_eq!(rows.rows.len(), 1);
    db.close().unwrap();

    let mut reopened = Database::open(&dir, DbMode::Oracle8).unwrap();
    assert_eq!(plan_text(&mut reopened, OR8_WIRING_QUERY), before);
    let stats = reopened.stats();
    assert_eq!(reopened.query(OR8_WIRING_QUERY).unwrap(), rows);
    assert_eq!(reopened.stats().since(&stats).index_scans, 1);
    reopened.storage().check_indexes().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
