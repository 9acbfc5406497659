//! The engine's counters for the paper's §4.1 query, pinned exactly.
//!
//! The executor may change how a candidate row is tested or how a result
//! row is kept, but not what its cursors read: every access path counts at
//! the moment it opens or reads, so `rows_scanned`, `join_pairs`,
//! `oid_index_hits`, `index_scans` and the hash-join counters are a
//! function of the plan and the data alone. A change that moves any of the
//! numbers below changed what the plan reads, not how it reads it.

use xmlord_bench::{paper_query, university, university_doc};
use xmlord_dtd::MappingStrategy;

/// What one run of a query returned and moved.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    /// The rows returned; for `COUNT(*)`, the count.
    rows: usize,
    rows_scanned: u64,
    join_pairs: u64,
    oid_index_hits: u64,
    index_scans: u64,
    hash_join_builds: u64,
    hash_join_probes: u64,
}

/// The §4.1 query for `strategy` with its select list as written, as
/// `COUNT(*)` and as `*`, each run once on a 100-student university.
fn counts(strategy: MappingStrategy) -> [Counts; 3] {
    let mut handle = university(strategy);
    let (_, doc) = university_doc(100);
    handle.load(&doc).unwrap();
    let sql = paper_query(&handle);
    let from = &sql[sql.find(" FROM ").expect("the query has a FROM clause")..];
    let queries = [sql.clone(), format!("SELECT COUNT(*){from}"), format!("SELECT *{from}")];
    let db = handle.database();
    queries.map(|sql| {
        let before = db.stats();
        let result = db.query(&sql).unwrap();
        let rows = match result.scalar().and_then(|v| v.as_num()) {
            Some(count) if sql.starts_with("SELECT COUNT(*)") => count as usize,
            _ => result.rows.len(),
        };
        let d = db.stats().since(&before);
        Counts {
            rows,
            rows_scanned: d.rows_scanned,
            join_pairs: d.join_pairs,
            oid_index_hits: d.oid_index_hits,
            index_scans: d.index_scans,
            hash_join_builds: d.hash_join_builds,
            hash_join_probes: d.hash_join_probes,
        }
    })
}

/// `Counts` for the three forms of one query, which read alike:
/// `(rows, count, star rows)` and the counters.
fn pinned(
    rows: [usize; 3],
    scanned: u64,
    pairs: u64,
    oid: u64,
    index: u64,
    hash: (u64, u64),
) -> [Counts; 3] {
    rows.map(|rows| Counts {
        rows,
        rows_scanned: scanned,
        join_pairs: pairs,
        oid_index_hits: oid,
        index_scans: index,
        hash_join_builds: hash.0,
        hash_join_probes: hash.1,
    })
}

/// or8 walks up from the professors by OID probes; or9 un-nests three
/// levels; rel and inline walk up the parents' keys (`DISTINCT` folds
/// their 19 rows into 9 names); edge hashes one self-join per step. The
/// strategies agree on the 19 combinations.
#[test]
fn paper_query_counts_are_exact_on_every_join_shape() {
    let expected = [
        (MappingStrategy::Or8, pinned([19, 19, 19], 257, 57, 57, 0, (0, 0))),
        (MappingStrategy::Or9, pinned([19, 19, 19], 501, 500, 0, 0, (0, 0))),
        (MappingStrategy::Relational, pinned([9, 19, 19], 257, 57, 0, 3, (0, 0))),
        (MappingStrategy::Inline, pinned([9, 19, 19], 257, 57, 0, 3, (0, 0))),
        (MappingStrategy::Edge, pinned([9, 19, 19], 30_226, 3_101, 0, 0, (9, 1_201))),
    ];
    for (strategy, want) in expected {
        assert_eq!(counts(strategy), want, "{strategy:?}");
    }
}
