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

use std::fmt::Write as _;

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

/// The document sizes (students) E6 loads.
pub const E6_STUDENTS: [usize; 3] = [10, 100, 1000];

/// What loading one university document sent to the engine under one
/// strategy (E6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadRow {
    pub strategy: MappingStrategy,
    pub students: usize,
    /// Elements in the document.
    pub elements: usize,
    /// INSERT statements the strategy issued.
    pub statements: usize,
    pub rows: usize,
}

/// E6 — the §1/§4.1 claim: load a university document of each size in
/// `students` into a fresh instance of every strategy and count the INSERT
/// statements and rows it takes, sizes outer, strategies in
/// [`MappingStrategy::ALL`] order.
pub fn e6_load(students: &[usize]) -> Vec<LoadRow> {
    let mut table = Vec::new();
    for &students in students {
        let (xml, doc) = university_doc(students);
        let elements = xml.matches("</").count();
        for strategy in MappingStrategy::ALL {
            let counts = university(strategy)
                .load(&doc)
                .unwrap_or_else(|e| panic!("{}: {e}", strategy.label()));
            table.push(LoadRow {
                strategy,
                students,
                elements,
                statements: counts.statements,
                rows: counts.rows,
            });
        }
    }
    table
}

/// [`e6_load`]'s rows as the text table `experiments load` prints, a blank
/// line after each size.
pub fn e6_table(rows: &[LoadRow]) -> String {
    let mut out = format!(
        "{:<8} {:>9} {:>12} {:>10} {:>10}\n",
        "strategy", "students", "elements", "INSERTs", "rows"
    );
    for (n, row) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<8} {:>9} {:>12} {:>10} {:>10}",
            row.strategy.label(),
            row.students,
            row.elements,
            row.statements,
            row.rows
        );
        if rows.get(n + 1).is_none_or(|next| next.students != row.students) {
            out.push('\n');
        }
    }
    out
}
