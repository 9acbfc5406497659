//! The benchmark's fixed vocabulary — workloads, metrics, bounds, settings —
//! and `BENCHMARK.json`, which is generated from it (`benchmark manifest`).

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 30;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "corpus_or9",
        why: "many mid-size documents, Oracle 9 nesting: few rows per document, so xml+dtd+core::loader dominate store time and ordb does little",
    },
    WorkloadDef {
        name: "corpus_or8",
        why: "same corpus, Oracle 8 inverted mapping: many rows, REF-wiring subqueries and index probes, so core::loader and ordb dominate and the XML front end is under a third",
    },
    WorkloadDef {
        name: "bigdoc_baselines",
        why: "one large document through rel/edge/attr/inline as SQL text: ordb::sql parsing, plan cache, per-statement execution and index upkeep dominate; XML parsing is about 1 %",
    },
    WorkloadDef {
        name: "wire_mixed",
        why: "server child process on a durable directory, reader beside writer, SIGKILL and restart: the only path through crates/server, WAL fsync, MVCC refresh and recovery",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics: the ones every workload has. Every workload
/// reports every one of them; `README.md` says what each means on each
/// workload, and why the issue's tails, commit, recovery and space metrics
/// are per-layer metrics instead.
///
/// Bounds: every timing has the quarter the driver accepts at most. What
/// spreads a timing here is not the program but the host's other tenants,
/// who slow whole runs by a fifth and more for minutes at a time
/// (`README.md` has the spreads); a tighter bound would only reject the same
/// code more often. `peak_alloc_mb` is a count and repeats.
pub const END_TO_END: [EndToEndDef; 7] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "store_mb_per_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "store_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "retrieve_mb_per_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "retrieve_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "query_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_alloc_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

/// Per-layer metrics, layer = crate. A workload that does not exercise a
/// layer reports 0 for its metrics (0 s busy, 0 operations).
pub const PER_LAYER: [LayerDef; 73] = [
    // xml
    layer("xml.parse_s", "s", Lower),
    layer("xml.parse_mb_per_s", "MB/s", Higher),
    layer("xml.parse_allocs_per_kb", "1/KB", Lower),
    layer("xml.serialize_s", "s", Lower),
    layer("xml.serialize_mb_per_s", "MB/s", Higher),
    // dtd
    layer("dtd.parse_dtd_ms", "ms", Lower),
    layer("dtd.validate_s", "s", Lower),
    layer("dtd.validate_elements_per_s", "1/s", Higher),
    layer("dtd.validate_allocs_per_element", "count", Lower),
    // core
    layer("core.register_ms", "ms", Lower),
    layer("core.load_ops_s", "s", Lower),
    layer("core.load_ops_per_doc", "count", Lower),
    layer("core.plan_batches_s", "s", Lower),
    layer("core.retrieve_s", "s", Lower),
    layer("core.retrieve_ms_at_100_docs", "ms", Lower),
    layer("core.retrieve_ms_at_1000_docs", "ms", Lower),
    layer("core.pathquery_translate_us", "us", Lower),
    layer("core.store_p95_ms", "ms", Lower),
    layer("core.retrieve_p95_ms", "ms", Lower),
    layer("core.rel.shred_s", "s", Lower),
    layer("core.rel.load_s", "s", Lower),
    layer("core.rel.reconstruct_s", "s", Lower),
    // shred
    layer("shred.edge.shred_s", "s", Lower),
    layer("shred.edge.load_s", "s", Lower),
    layer("shred.edge.query_ms", "ms", Lower),
    layer("shred.edge.reconstruct_s", "s", Lower),
    layer("shred.edge.statements", "count", Lower),
    layer("shred.attr.shred_s", "s", Lower),
    layer("shred.attr.load_s", "s", Lower),
    layer("shred.attr.query_ms", "ms", Lower),
    layer("shred.attr.reconstruct_s", "s", Lower),
    layer("shred.attr.statements", "count", Lower),
    layer("shred.inline.shred_s", "s", Lower),
    layer("shred.inline.load_s", "s", Lower),
    layer("shred.inline.query_ms", "ms", Lower),
    layer("shred.inline.reconstruct_s", "s", Lower),
    layer("shred.inline.statements", "count", Lower),
    // ordb
    layer("ordb.apply_s", "s", Lower),
    layer("ordb.rows_inserted", "count", Lower),
    layer("ordb.rows_per_s", "1/s", Higher),
    layer("ordb.index_maintenance_ops", "count", Lower),
    layer("ordb.text_stmt_us", "us", Lower),
    layer("ordb.plan_cache_hit_ratio", "ratio", Higher),
    layer("ordb.query_s", "s", Lower),
    layer("ordb.rows_scanned_per_result_row", "ratio", Lower),
    layer("ordb.index_scans", "count", Higher),
    layer("ordb.retrieve_index_probes", "count", Higher),
    layer("ordb.retrieve_table_scans", "count", Lower),
    layer("ordb.commit_p50_ms", "ms", Lower),
    layer("ordb.commit_p95_ms", "ms", Lower),
    layer("ordb.wal_bytes_per_xml_byte", "ratio", Lower),
    layer("ordb.wal_entries", "count", Lower),
    layer("ordb.stored_bytes_per_xml_byte", "ratio", Lower),
    layer("ordb.snapshot_s", "s", Lower),
    layer("ordb.snapshot_bytes", "count", Lower),
    layer("ordb.recovery_open_s", "s", Lower),
    layer("ordb.recovery_entries_replayed", "count", Lower),
    layer("ordb.mvcc.read_session_ms", "ms", Lower),
    layer("ordb.mvcc.refresh_us", "us", Lower),
    layer("ordb.mvcc.refresh_fresh", "count", Higher),
    layer("ordb.mvcc.refresh_incremental", "count", Lower),
    layer("ordb.mvcc.refresh_full", "count", Lower),
    // server
    layer("server.stmt_roundtrip_us", "us", Lower),
    layer("server.get_quiet_p50_ms", "ms", Lower),
    layer("server.get_overhead_ms", "ms", Lower),
    layer("server.store_p95_ms", "ms", Lower),
    layer("server.recovery_s", "s", Lower),
    layer("server.bytes_out_per_get", "count", Lower),
    layer("server.failed_requests", "count", Lower),
    layer("server.peak_rss_mb", "MB", Lower),
    // workload generator, and the trace's own reconciliation
    layer("workload.generate_s", "s", Lower),
    layer("trace.self_time_coverage_pct", "%", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// Settings that are the same on every commit, recorded in every output.
pub const FIXED_SETTINGS: [(&str, &str); 11] = [
    ("profile", "release"),
    (
        "loop",
        "closed; workloads 1-3 one thread, wire_mixed two client connections",
    ),
    ("load_workers", "1"),
    ("load_strategy", "LoadStrategy::Batched (default)"),
    (
        "indexes",
        "create_load_indexes + create_retrieval_indexes right after register_dtd",
    ),
    (
        "flush_policy",
        "engine default: WAL append + fsync on every COMMIT, snapshot_every 1024",
    ),
    (
        "corpus",
        "xmlord_workload::university_xml, 50 students per document, seeds derived from --seed",
    ),
    (
        "counts",
        "fixed operations per round; rounds repeat until --seconds have been measured",
    ),
    (
        "aggregation",
        "a round's timing is the median of its samples; a run reports the best decile of its rounds' values, setup_s the median of its set-ups; wire_mixed pools its rounds' samples",
    ),
    (
        "wire_pacing",
        "writer pauses 5-15 ms before each document, one schedule on every run and seed",
    ),
    ("claim", "null"),
];

/// `BENCHMARK.json` as the driver's contract wants it: exactly these keys.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
    }

    #[test]
    fn units_whys_and_bounds_are_within_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` sits one directory up in a checkout; where it does,
    /// it must be what `benchmark manifest` prints.
    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(committed, manifest().pretty());
        }
    }
}
