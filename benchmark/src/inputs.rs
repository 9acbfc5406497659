//! Inputs made from `--seed`, and what the outputs must be: the canonical
//! form a retrieved document is compared in, and the row counts the §4.1
//! query must return, both taken from the generator's own DOM.

use std::collections::BTreeSet;

use xmlord_dtd::ast::Dtd;
use xmlord_prng::Prng;
use xmlord_workload::university::{university_xml, UniversityConfig};
use xmlord_xml::serializer::{serialize, SerializeOptions};
use xmlord_xml::Document;

/// Students per corpus document (≈24 KB of XML).
pub const CORPUS_STUDENTS: usize = 50;

/// The professor the §4.1 query asks for.
pub const QUERY_PROFESSOR: &str = "Jaeger";
pub const QUERY_STEPS: [&str; 2] = ["Student", "LName"];
pub const QUERY_PREDICATE: [&str; 4] = ["Student", "Course", "Professor", "PName"];

/// Seed of document `index` in stream `stream` of a run: SplitMix64's
/// finalizer over the three, so neighbouring runs share no documents.
pub fn doc_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn document(seed: u64, stream: u64, index: u64, students: usize) -> String {
    university_xml(&UniversityConfig {
        students,
        seed: doc_seed(seed, stream, index),
        ..Default::default()
    })
}

/// `count` corpus documents of stream `stream`.
pub fn corpus(seed: u64, stream: u64, count: usize) -> Vec<String> {
    (0..count as u64)
        .map(|i| document(seed, stream, i, CORPUS_STUDENTS))
        .collect()
}

/// `count` indices below `len`, drawn with replacement from the run's seed.
pub fn sample_indices(seed: u64, stream: u64, len: usize, count: usize) -> Vec<usize> {
    let mut rng = Prng::seed_from_u64(doc_seed(seed, stream, u64::MAX));
    (0..count).map(|_| rng.gen_range(0..len)).collect()
}

pub fn parse(xml: &str, dtd: &Dtd) -> Result<Document, String> {
    xmlord_xml::parse_with_catalog(xml, dtd.entity_catalog()).map_err(|e| e.to_string())
}

/// `serialize(parse(x), compact)`: entity references expanded, no prolog.
pub fn canonical(xml: &str, dtd: &Dtd) -> Result<String, String> {
    Ok(serialize(&parse(xml, dtd)?, &SerializeOptions::compact()))
}

/// What the §4.1 query returns for one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectedRows {
    /// One row per (student, course, professor) whose `PName` matches —
    /// what the object-relational translation un-nests to.
    pub matches: usize,
    /// Distinct family names among the matching students — what the
    /// shredding baselines' `SELECT DISTINCT` returns.
    pub distinct_names: usize,
}

pub fn expected_rows(doc: &Document) -> ExpectedRows {
    let mut matches = 0;
    let mut names = BTreeSet::new();
    let Some(root) = doc.root_element() else {
        return ExpectedRows {
            matches,
            distinct_names: 0,
        };
    };
    for student in doc.child_elements_named(root, "Student") {
        let mut hits = 0;
        for course in doc.child_elements_named(student, "Course") {
            for professor in doc.child_elements_named(course, "Professor") {
                let pname = doc
                    .first_child_named(professor, "PName")
                    .map(|n| doc.text_content(n));
                if pname.as_deref() == Some(QUERY_PROFESSOR) {
                    hits += 1;
                }
            }
        }
        if hits > 0 {
            matches += hits;
            if let Some(lname) = doc.first_child_named(student, "LName") {
                names.insert(doc.text_content(lname));
            }
        }
    }
    ExpectedRows {
        matches,
        distinct_names: names.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlord_dtd::parse_dtd;
    use xmlord_workload::university::university_dtd;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        assert_eq!(corpus(7, 0, 5), corpus(7, 0, 5));
        assert_ne!(corpus(7, 0, 5), corpus(8, 0, 5));
        assert_ne!(corpus(7, 0, 5), corpus(7, 1, 5));
        assert_eq!(sample_indices(7, 2, 100, 20), sample_indices(7, 2, 100, 20));
        assert_ne!(sample_indices(7, 2, 100, 20), sample_indices(8, 2, 100, 20));
        assert!(sample_indices(7, 2, 3, 50).iter().all(|&i| i < 3));
    }

    #[test]
    fn expected_rows_come_from_the_dom() {
        let dtd = parse_dtd(university_dtd()).unwrap();
        let xml = "<University><StudyCourse>x</StudyCourse>\
            <Student StudNr=\"1\"><LName>A</LName><FName>f</FName>\
              <Course><Name>c</Name><Professor><PName>Jaeger</PName><Subject>s</Subject><Dept>d</Dept></Professor></Course>\
              <Course><Name>c</Name><Professor><PName>Jaeger</PName><Subject>s</Subject><Dept>d</Dept></Professor></Course>\
            </Student>\
            <Student StudNr=\"2\"><LName>A</LName><FName>f</FName>\
              <Course><Name>c</Name><Professor><PName>Jaeger</PName><Subject>s</Subject><Dept>d</Dept></Professor></Course>\
            </Student>\
            <Student StudNr=\"3\"><LName>B</LName><FName>f</FName>\
              <Course><Name>c</Name><Professor><PName>Meier</PName><Subject>s</Subject><Dept>d</Dept></Professor></Course>\
            </Student></University>";
        let doc = parse(xml, &dtd).unwrap();
        assert_eq!(
            expected_rows(&doc),
            ExpectedRows {
                matches: 3,
                distinct_names: 1
            }
        );
    }

    #[test]
    fn canonical_form_expands_entities() {
        let dtd = parse_dtd(university_dtd()).unwrap();
        let a = canonical(
            "<University><StudyCourse>&cs;</StudyCourse></University>",
            &dtd,
        )
        .unwrap();
        let b = canonical(
            "<University><StudyCourse>Computer Science</StudyCourse></University>",
            &dtd,
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
