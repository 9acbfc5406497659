//! E6 as a checked claim (§1/§4.1): the Oracle 9 object-relational mapping
//! stores a document with a single INSERT, while every other strategy
//! "turns the upload of a document into a large number of relational
//! insert operations". The table `experiments load` prints is pinned in
//! `tests/golden/e6_load.txt` — INSERT statements and rows per strategy at
//! 10, 100 and 1 000 students — and the claim is asserted on its numbers.
//! What an INSERT costs may change; how many each strategy sends may not
//! without this golden changing with it.

use xmlord_bench::{e6_load, e6_table, LoadRow, E6_STUDENTS};
use xmlord_dtd::MappingStrategy;

#[test]
fn e6_statement_counts_match_the_golden_and_the_paper() {
    let rows = e6_load(&E6_STUDENTS);
    let path = format!("{}/tests/golden/e6_load.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let table = e6_table(&rows);
    assert_eq!(
        table, golden,
        "`experiments load` drifted from {path}; it now prints:\n{table}"
    );

    let per_size = |strategy: MappingStrategy| -> Vec<&LoadRow> {
        rows.iter().filter(|row| row.strategy == strategy).collect()
    };
    // One INSERT, one row, per document at every size.
    for row in per_size(MappingStrategy::ALL[0]) {
        assert_eq!(row.strategy.label(), "or9");
        assert_eq!((row.statements, row.rows), (1, 1), "{row:?}");
    }
    // Every other strategy's count grows linearly with the document: the
    // three sizes lie on one line, at least one statement per student.
    for strategy in &MappingStrategy::ALL[1..] {
        let sizes = per_size(*strategy);
        let [small, mid, large] = sizes[..] else {
            panic!("{strategy:?}: {sizes:?}")
        };
        let slope = (mid.statements - small.statements) / (mid.students - small.students);
        assert!(slope >= 1, "{sizes:?}");
        for row in [small, mid, large] {
            assert_eq!(
                row.statements,
                small.statements + slope * (row.students - small.students),
                "{row:?}"
            );
        }
    }
}
