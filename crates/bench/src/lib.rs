//! # xmlord-bench — shared experiment fixtures
//!
//! Substrate **S7**: the fixtures the `experiments` binary and the EXPLAIN
//! golden tests share — the university workload of Appendix A set up under
//! any storage strategy through [`xml2ordb::strategy`], the paper's §4.1
//! query, and a REF-chain database. What the experiments report are
//! counts (INSERT statements, table/row fragmentation, join work); timings
//! come from the standing benchmark in `benchmark/` only.
//!
//! The strategy inventory:
//!
//! | id | strategy | paper role |
//! |----|----------|------------|
//! | `or9` | object-relational mapping, Oracle 9 mode | the contribution (nested collections, §4.2) |
//! | `or8` | object-relational mapping, Oracle 8 mode | the REF workaround (§4.2) |
//! | `rel` | key-based relational shredding | §6.3's "known mapping algorithms \[2\]" |
//! | `edge` | edge table | Florescu/Kossmann \[5\] |
//! | `attr` | attribute tables | Florescu/Kossmann \[5\] |
//! | `inline` | hybrid inlining | Shanmugasundaram et al. \[9\] |

use xml2ordb::model::MappingOptions;
use xml2ordb::strategy::{self, Handle};
use xmlord_dtd::ast::Dtd;
use xmlord_dtd::{parse_dtd, MappingStrategy};
use xmlord_ordb::{Database, DbMode};
use xmlord_workload::university::{university_dtd, university_xml, UniversityConfig};
use xmlord_xml::Document;

/// Parse the university DTD once.
pub fn parse_university_dtd() -> Dtd {
    parse_dtd(university_dtd()).expect("the Appendix A DTD parses")
}

/// Generate a university document of the given size.
pub fn university_doc(students: usize) -> (String, Document) {
    let config = UniversityConfig { students, ..Default::default() };
    let xml = university_xml(&config);
    let doc = xmlord_xml::parse(&xml).expect("generated documents are well-formed");
    (xml, doc)
}

/// Set up `strategy` for the university DTD (DDL executed, nothing
/// loaded). The paper's example uses VARRAY(100); the E6 sweep goes to
/// 1000 students, so the strategies that store set-valued children in
/// VARRAYs get room for 10 000 (the engine would otherwise reject the
/// document with the very capacity error §7 discusses).
pub fn university(strategy: MappingStrategy) -> Handle {
    let mut options = MappingOptions::default();
    if strategy.uses_varrays() {
        options.varray_max = 10_000;
    }
    strategy::setup(strategy, &parse_university_dtd(), "University", &options)
        .expect("the university schema sets up")
}

/// The paper's §4.1 query ("family names of students subscribed to a
/// course of Professor Jaeger") translated for `handle`'s strategy.
pub fn paper_query(handle: &Handle) -> String {
    handle
        .path_query(
            &["Student", "LName"],
            Some((&["Student", "Course", "Professor", "PName"], "Jaeger")),
        )
        .expect("the paper query translates")
}

/// An object table of `n` professors forming a boss REF chain, plus one
/// course per professor holding a REF to it — the deref-heavy workload for
/// the OID-directory experiments (every navigation step is one OID lookup).
pub fn ref_chain_db(n: usize) -> Database {
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(
        "CREATE TYPE T_Prof AS OBJECT(pname VARCHAR(30), subject VARCHAR(30), boss REF T_Prof);
         CREATE TYPE T_Course AS OBJECT(cname VARCHAR(30), prof REF T_Prof);
         CREATE TABLE TabProf OF T_Prof;
         CREATE TABLE TabCourse OF T_Course;",
    )
    .unwrap();
    for i in 0..n {
        db.execute(&format!(
            "INSERT INTO TabProf VALUES (T_Prof('prof{i}', 'subj{}', NULL))",
            i % 7
        ))
        .unwrap();
        if i > 0 {
            db.execute(&format!(
                "UPDATE TabProf SET boss = (SELECT REF(b) FROM TabProf b WHERE b.pname = 'prof{}') \
                 WHERE pname = 'prof{i}'",
                i - 1
            ))
            .unwrap();
        }
        db.execute(&format!(
            "INSERT INTO TabCourse VALUES (T_Course('course{i}',
               (SELECT REF(p) FROM TabProf p WHERE p.pname = 'prof{i}')))"
        ))
        .unwrap();
    }
    db
}
