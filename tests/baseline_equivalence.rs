//! Cross-strategy answer equivalence: every storage strategy must return
//! the same answer set for the same path queries over the same document —
//! the precondition for the E6–E8 comparisons being meaningful.

use std::collections::BTreeSet;

use xml_ordb::dtd::{parse_dtd, MappingStrategy};
use xml_ordb::mapping::model::MappingOptions;
use xml_ordb::mapping::strategy::{self, Handle};
use xml_ordb::workload::university::{university_dtd, university_xml, UniversityConfig};

/// A path query: steps plus an optional (path, value) predicate.
type QuerySpec<'a> = (Vec<&'a str>, Option<(Vec<&'a str>, &'a str)>);

/// Answer set of one query under one strategy.
fn answers(handle: &mut Handle, (steps, predicate): &QuerySpec) -> BTreeSet<String> {
    let predicate = predicate.as_ref().map(|(path, value)| (path.as_slice(), *value));
    let sql = handle.path_query(steps, predicate).unwrap();
    handle
        .database()
        .query(&sql)
        .unwrap_or_else(|e| panic!("{e}\n{sql}"))
        .rows
        .into_iter()
        .map(|row| row[0].as_str().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn all_strategies_agree_on_all_queries() {
    let config = UniversityConfig { students: 8, seed: 77, ..Default::default() };
    let xml = university_xml(&config);
    let dtd = parse_dtd(university_dtd()).unwrap();
    let doc = xml_ordb::xml::parse(&xml).unwrap();

    let queries: Vec<QuerySpec> = vec![
        (vec!["StudyCourse"], None),
        (vec!["Student", "LName"], None),
        (vec!["Student", "@StudNr"], None),
        (vec!["Student", "Course", "Name"], None),
        (vec!["Student", "Course", "Professor", "PName"], None),
        (vec!["Student", "Course", "Professor", "Subject"], None),
        (
            vec!["Student", "LName"],
            Some((vec!["Student", "Course", "Professor", "PName"], "Jaeger")),
        ),
        (
            vec!["Student", "Course", "Name"],
            Some((vec!["Student", "Course", "Professor", "PName"], "Kudrass")),
        ),
    ];

    // Reference: the Oracle 9 object-relational store, which runs first;
    // every other strategy must agree with it.
    let mut reference: Vec<BTreeSet<String>> = Vec::new();
    for strategy in MappingStrategy::ALL {
        let mut handle =
            strategy::setup(strategy, &dtd, "University", &MappingOptions::default()).unwrap();
        handle.load(&doc).unwrap();
        for (index, query) in queries.iter().enumerate() {
            let got = answers(&mut handle, query);
            if strategy == MappingStrategy::Or9 {
                reference.push(got);
                continue;
            }
            assert_eq!(
                got,
                reference[index],
                "{} disagrees on {:?} [{:?}]",
                strategy.label(),
                query.0,
                query.1
            );
        }
    }
}
