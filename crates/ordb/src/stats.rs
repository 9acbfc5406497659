//! Execution statistics.
//!
//! The paper argues qualitatively ("a large number of relational insert
//! operations", "without executing join operations"); these counters turn
//! those claims into measurements for the E6–E8 experiments. The fast-path
//! counters (`plan_cache_hits`, `hash_join_builds`, `oid_index_hits`) report
//! how often the engine's PR-1 optimizations fire, so the experiments can
//! separate mapping-strategy cost from execution-substrate cost.

/// Cumulative counters for one [`crate::Database`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// SQL statements executed (DDL + DML + queries).
    pub statements: u64,
    /// INSERT statements executed.
    pub inserts: u64,
    /// Rows materialized into tables (top-level rows, not nested objects).
    pub rows_inserted: u64,
    /// Rows scanned while evaluating FROM clauses: every row a scan
    /// expands, every candidate an index probe fetches — a key REF's probe
    /// included — and the one row an OID probe keeps.
    pub rows_scanned: u64,
    /// Join pairings formed (each row combination beyond a single-table
    /// FROM counts once) — the paper's "join operations" metric. Hash
    /// equi-joins count only the pairings they actually emit, which is the
    /// point of the measurement; an index probe counts its candidates and
    /// an OID probe the one row it keeps.
    pub join_pairs: u64,
    /// FROM clauses with more than one item (join queries).
    pub join_queries: u64,
    /// Tables created.
    pub tables_created: u64,
    /// Types created.
    pub types_created: u64,
    /// REF dereferences performed during path navigation.
    pub derefs: u64,
    /// OID lookups answered by the OID directory's index (O(1) slot access
    /// instead of a table scan): one per REF dereference, and one per REF
    /// an OID probe (`REF(b) = e` in a join) resolves — whichever table the
    /// row lives in.
    pub oid_index_hits: u64,
    /// Hash tables built for equi-join FROM items.
    pub hash_join_builds: u64,
    /// Probe operations into equi-join hash tables (one per outer combo).
    pub hash_join_probes: u64,
    /// Statements answered from the parse/plan cache without re-parsing.
    pub plan_cache_hits: u64,
    /// Statements that had to be parsed and were then cached.
    pub plan_cache_misses: u64,
    /// Rollbacks performed: explicit `ROLLBACK [TO name]`, the implicit
    /// per-statement rollback of a failing statement, and `Atomic`-policy
    /// script rollbacks.
    pub txn_rollbacks: u64,
    /// Undo-log records written by statements (inverse operations logged
    /// by storage and catalog mutations).
    pub undo_records: u64,
    /// Explicit `SAVEPOINT name` statements executed.
    pub savepoints: u64,
    /// Rows inserted through the batched path
    /// ([`crate::Database::execute_batch`]).
    pub batched_rows: u64,
    /// FROM items answered by a secondary-index probe instead of a full
    /// scan (one count per index-driven scan, not per probe). A key REF
    /// answered by its key's index counts one, as the planned probe of its
    /// subquery would.
    pub index_scans: u64,
    /// Secondary-index maintenance row operations: incremental bucket
    /// updates plus rows visited during stale-index rebuilds.
    pub index_maintenance_ops: u64,
    /// SELECT plans chosen by the cost-based planner using ANALYZE
    /// statistics (as opposed to the static heuristic order), or probing
    /// an index. A key REF answered by its key's index plans nothing and
    /// counts none.
    pub planner_plans_costed: u64,
    /// `ANALYZE TABLE … COMPUTE STATISTICS` statements executed.
    pub analyze_runs: u64,
    /// Full table passes performed by document reconstruction (root-row
    /// scans, per-parent child scans on the naive walker, and the bulk
    /// path's single hash-build passes).
    pub retrieve_table_scans: u64,
    /// Secondary-index probes performed by document reconstruction
    /// instead of table scans (root-row lookup, inverted-children
    /// buckets).
    pub retrieve_index_probes: u64,
    /// Documents reconstructed through the set-oriented bulk path
    /// ([`crate::Database::set_bulk_retrieval`]).
    pub bulk_retrieves: u64,
}

impl ExecStats {
    /// Difference since `earlier` (for per-operation measurements).
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            statements: self.statements - earlier.statements,
            inserts: self.inserts - earlier.inserts,
            rows_inserted: self.rows_inserted - earlier.rows_inserted,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
            join_pairs: self.join_pairs - earlier.join_pairs,
            join_queries: self.join_queries - earlier.join_queries,
            tables_created: self.tables_created - earlier.tables_created,
            types_created: self.types_created - earlier.types_created,
            derefs: self.derefs - earlier.derefs,
            oid_index_hits: self.oid_index_hits - earlier.oid_index_hits,
            hash_join_builds: self.hash_join_builds - earlier.hash_join_builds,
            hash_join_probes: self.hash_join_probes - earlier.hash_join_probes,
            plan_cache_hits: self.plan_cache_hits - earlier.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses - earlier.plan_cache_misses,
            txn_rollbacks: self.txn_rollbacks - earlier.txn_rollbacks,
            undo_records: self.undo_records - earlier.undo_records,
            savepoints: self.savepoints - earlier.savepoints,
            batched_rows: self.batched_rows - earlier.batched_rows,
            index_scans: self.index_scans - earlier.index_scans,
            index_maintenance_ops: self.index_maintenance_ops - earlier.index_maintenance_ops,
            planner_plans_costed: self.planner_plans_costed - earlier.planner_plans_costed,
            analyze_runs: self.analyze_runs - earlier.analyze_runs,
            retrieve_table_scans: self.retrieve_table_scans - earlier.retrieve_table_scans,
            retrieve_index_probes: self.retrieve_index_probes - earlier.retrieve_index_probes,
            bulk_retrieves: self.bulk_retrieves - earlier.bulk_retrieves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_fieldwise() {
        let a = ExecStats {
            statements: 10,
            inserts: 4,
            plan_cache_hits: 6,
            hash_join_builds: 3,
            oid_index_hits: 9,
            ..Default::default()
        };
        let b = ExecStats {
            statements: 3,
            inserts: 1,
            plan_cache_hits: 2,
            hash_join_builds: 1,
            oid_index_hits: 4,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.statements, 7);
        assert_eq!(d.inserts, 3);
        assert_eq!(d.rows_inserted, 0);
        assert_eq!(d.plan_cache_hits, 4);
        assert_eq!(d.hash_join_builds, 2);
        assert_eq!(d.oid_index_hits, 5);
    }
}
