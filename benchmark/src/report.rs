//! What one run of one workload produces, and how it is printed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::alloc::Usage;
use crate::json::Json;
use crate::registry::{Better, END_TO_END, FIXED_SETTINGS, PER_LAYER};
use crate::span::{layer_self_times, Span, Tracer};
use crate::stats::{best_decile, median, ratio, Samples};
use xmlord_ordb::ExecStats;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny counts, one round: a check that everything still runs.
    pub smoke: bool,
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    /// Operations attempted and failed. A failure is an error reply, a
    /// retrieved document whose canonical form differs from the original's,
    /// a query row count other than the generator's, or an acknowledged
    /// document missing after a restart.
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and failed checks, in words (the first few).
    pub problems: Vec<String>,
    suppressed_problems: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Counters that must repeat exactly for the same seed: per round on
    /// the single-threaded workloads.
    pub counts: BTreeMap<String, u64>,
    /// Sample counts, percentiles used, rounds, sizes.
    pub details: Vec<(String, Json)>,
}

const MAX_PROBLEMS: usize = 12;

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            ..Default::default()
        }
    }

    fn note(&mut self, message: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(message);
        } else {
            self.suppressed_problems += 1;
        }
    }

    /// Count one attempted operation; `outcome` says whether it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            self.note(message);
        }
    }

    /// A check that is not an operation (counts repeat, dumps agree, ...).
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.note(message());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: impl Into<String>, value: Json) {
        self.details.push((key.into(), value));
    }

    /// A tail under a `*_p95_ms` name: the highest percentile `samples`
    /// supports (`stats::tail_percentile`), which the record names.
    pub fn tail_metric(&mut self, name: &'static str, samples: &Samples) {
        let (value, percentile) = samples.tail();
        self.metric(name, value);
        self.detail(
            format!("{name}.percentile"),
            Json::obj([
                ("percentile", Json::Int(u64::from(percentile))),
                ("samples", Json::Int(samples.len() as u64)),
            ]),
        );
    }

    /// Record this round's deterministic counters; from the second round on
    /// they must equal the first round's.
    pub fn round_counts(&mut self, round: usize, counts: BTreeMap<String, u64>) {
        if round == 0 {
            self.counts = counts;
        } else if counts != self.counts {
            let first = self.counts.clone();
            self.check(false, || {
                let differing: Vec<String> = counts
                    .iter()
                    .filter(|(k, v)| first.get(*k) != Some(v))
                    .map(|(k, v)| format!("{k}: {:?} then {v}", first.get(k)))
                    .collect();
                format!(
                    "round {round}: counters did not repeat: {}",
                    differing.join(", ")
                )
            });
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Close the report: every metric of this run's kind must be present.
    /// A layer the workload does not exercise reports 0; an end-to-end
    /// metric has no such excuse.
    pub fn finish(mut self) -> Report {
        if self.traced {
            for m in &PER_LAYER {
                self.metrics.entry(m.name).or_insert(0.0);
            }
        } else {
            for m in &END_TO_END {
                let value = self.metrics.get(m.name).copied();
                let usable = value.is_some_and(|v| v.is_finite() && v > 0.0);
                self.check(usable, || {
                    format!("end-to-end metric {} is {value:?}", m.name)
                });
            }
        }
        self
    }

    /// Name and unit of every metric of this run's kind, in registry order.
    fn units(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self.units().into_iter().map(|(name, unit)| {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full record: the result plus everything needed to read it.
    pub fn record(&self, args: &RunArgs) -> Json {
        let mut problems: Vec<Json> = self.problems.iter().map(Json::str).collect();
        if self.suppressed_problems > 0 {
            problems.push(Json::str(format!(
                "... and {} more",
                self.suppressed_problems
            )));
        }
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("seed", Json::Int(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("host", host_fingerprint()),
            (
                "settings",
                Json::obj(FIXED_SETTINGS.iter().map(|(k, v)| (*k, Json::str(*v)))),
            ),
            ("result", self.result_line()),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (k.clone(), Json::Int(*v)))),
            ),
            ("details", Json::Obj(self.details.clone())),
            ("problems", Json::Arr(problems)),
            (
                "caveats",
                Json::Arr(vec![
                    Json::str(
                        "a kill leaves the operating system's cache intact, so the readback after \
                         SIGKILL proves the WAL protocol, not fsync itself",
                    ),
                    Json::str(
                        "latencies are this sandbox's, not a storage device's or a network's",
                    ),
                ]),
            ),
        ])
    }

    /// Every metric by name and unit, then what was attempted and failed.
    pub fn print_human(&self) {
        let kind = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end (untraced)"
        };
        println!("== {} — {kind} ==", self.workload);
        for (name, unit) in self.units() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            println!("  {name:<36} {value:>16.6} {unit}");
        }
        for (key, value) in &self.details {
            println!("  {key}: {}", value.compact());
        }
        println!(
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for problem in &self.problems {
            println!("  PROBLEM: {problem}");
        }
    }
}

/// Where spans, records and scratch databases go: `out/` beside this
/// package's manifest, inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU count, compiler and commit: what a reader needs to compare two
/// outputs. The commit is `unknown` in a checkout that is not a repository.
pub fn host_fingerprint() -> Json {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    Json::obj([
        ("cpus", Json::Int(cpus)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// Reconcile a traced round. The self times of the crate layers in `spans`
/// must sum to within 5 % of `spans_wall`, the wall they were recorded in.
/// The `bench` layer — the benchmark's own wrapper spans — is what no crate
/// span covers; it is reported as unattributed and is no part of the sum.
/// `traced_secs` against `untraced_secs`, the same work with and without
/// spans, is the tracing overhead.
pub fn reconcile(
    report: &mut Report,
    spans: &[Span],
    spans_wall: f64,
    traced_secs: f64,
    untraced_secs: f64,
) {
    let mut layers = layer_self_times(spans);
    let unattributed = layers.remove("bench").unwrap_or(0.0);
    let coverage = 100.0 * layers.values().sum::<f64>() / spans_wall;
    report.check((95.0..=100.5).contains(&coverage), || {
        format!("crate layers' self times sum to {coverage:.1} % of the traced wall")
    });
    report.metric("trace.self_time_coverage_pct", coverage);
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced_secs - untraced_secs) / untraced_secs,
    );
    report.detail("traced_s", Json::Num(traced_secs));
    report.detail("untraced_s", Json::Num(untraced_secs));
    report.detail("traced_wall_s", Json::Num(spans_wall));
    report.detail("unattributed_s", Json::Num(unattributed));
    report.detail(
        "layer_self_s",
        Json::obj(
            layers
                .iter()
                .map(|(layer, secs)| (*layer, Json::Num(*secs))),
        ),
    );
}

/// One traced in-process round, as the metrics the in-process workloads
/// share are read from it.
pub struct TracedRound<'a> {
    pub spans: &'a Tracer,
    pub setup: &'a Tracer,
    /// XML bytes stored and serialized bytes retrieved.
    pub xml_bytes: f64,
    pub retrieved_bytes: f64,
    /// Seconds inside the engine's statement-applying calls.
    pub apply_s: f64,
    /// Engine counters the store and the query phases moved, per store.
    pub store: &'a [ExecStats],
    pub query: &'a [ExecStats],
    pub result_rows: u64,
}

/// The `xml`, `dtd`, `ordb` and `workload` metrics every in-process
/// workload reads the same way from its spans and engine counters.
pub fn shared_layer_metrics(report: &mut Report, r: &TracedRound) {
    let sum =
        |deltas: &[ExecStats], f: fn(&ExecStats) -> u64| deltas.iter().map(f).sum::<u64>() as f64;
    let t = r.spans;
    let text = t.total("ordb.execute_text");
    let rows_inserted = sum(r.store, |d| d.rows_inserted);
    let hits = sum(r.store, |d| d.plan_cache_hits);
    let misses = sum(r.store, |d| d.plan_cache_misses);
    for (name, value) in [
        ("xml.parse_s", t.seconds("xml.parse")),
        (
            "xml.parse_mb_per_s",
            ratio(r.xml_bytes / 1e6, t.seconds("xml.parse")),
        ),
        (
            "xml.parse_allocs_per_kb",
            ratio(t.allocs("xml.parse") as f64, r.xml_bytes / 1024.0),
        ),
        ("xml.serialize_s", t.seconds("xml.serialize")),
        (
            "xml.serialize_mb_per_s",
            ratio(r.retrieved_bytes / 1e6, t.seconds("xml.serialize")),
        ),
        ("dtd.parse_dtd_ms", r.setup.seconds("dtd.parse_dtd") * 1e3),
        ("ordb.apply_s", r.apply_s),
        ("ordb.rows_inserted", rows_inserted),
        ("ordb.rows_per_s", ratio(rows_inserted, r.apply_s)),
        (
            "ordb.index_maintenance_ops",
            sum(r.store, |d| d.index_maintenance_ops),
        ),
        ("ordb.text_stmt_us", ratio(text.0 * 1e6, text.1 as f64)),
        ("ordb.plan_cache_hit_ratio", ratio(hits, hits + misses)),
        ("ordb.query_s", t.seconds("ordb.query")),
        (
            "ordb.rows_scanned_per_result_row",
            ratio(sum(r.query, |d| d.rows_scanned), r.result_rows as f64),
        ),
        ("ordb.index_scans", sum(r.query, |d| d.index_scans)),
        ("workload.generate_s", r.setup.seconds("workload.generate")),
    ] {
        report.metric(name, value);
    }
}

/// What the allocator counted over the first round's timed phases.
pub fn allocator_detail(report: &mut Report, usage: &Usage) {
    report.detail(
        "allocator_first_round",
        Json::obj([
            ("allocations", Json::Int(usage.allocations)),
            ("bytes", Json::Int(usage.bytes)),
            ("peak_live_bytes", Json::Int(usage.peak_bytes)),
        ]),
    );
}

/// The engine counters a phase moved, under `<prefix>.<counter>`.
pub fn add_exec_counts(counts: &mut BTreeMap<String, u64>, prefix: &str, delta: &ExecStats) {
    for (name, value) in [
        ("statements", delta.statements),
        ("rows_inserted", delta.rows_inserted),
        ("rows_scanned", delta.rows_scanned),
        ("index_scans", delta.index_scans),
        ("index_maintenance_ops", delta.index_maintenance_ops),
        ("plan_cache_hits", delta.plan_cache_hits),
        ("plan_cache_misses", delta.plan_cache_misses),
        ("retrieve_table_scans", delta.retrieve_table_scans),
        ("retrieve_index_probes", delta.retrieve_index_probes),
    ] {
        counts.insert(format!("{prefix}.{name}"), value);
    }
}

/// Write the run's spans to `out/trace-<workload>.tsv` and note where.
pub fn write_trace(report: &mut Report, tracer: &Tracer) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.tsv", report.workload));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.detail("spans", Json::Int(tracer.spans.len() as u64));
    report.detail("trace_file", Json::str(path.display().to_string()));
    Ok(())
}

/// The end-to-end values of a run, round by round. Every round is a
/// repetition on a fresh store, so the run reports, for each metric, the
/// rounds' best decile (`stats::best_decile`): the value a tenth of the
/// rounds reached or bettered.
#[derive(Default)]
pub struct Rounds {
    values: BTreeMap<&'static str, Vec<f64>>,
    /// Samples behind each timing value, as of the latest value.
    samples: BTreeMap<&'static str, usize>,
}

impl Rounds {
    pub fn push(&mut self, metric: &'static str, value: f64) {
        self.values.entry(metric).or_default().push(value);
    }

    /// Timing samples (a round's, usually): their median under `p50`.
    pub fn timing(&mut self, p50: &'static str, samples: &Samples) {
        self.push(p50, samples.median());
        self.samples.insert(p50, samples.len());
    }

    /// Report each metric's best decile over the rounds, and the rounds'
    /// values and sample counts beside them.
    pub fn finish(self, report: &mut Report) {
        report.detail(
            "samples",
            Json::obj(
                self.samples
                    .iter()
                    .map(|(metric, n)| (*metric, Json::Int(*n as u64))),
            ),
        );
        report.detail(
            "by_round",
            Json::obj(self.values.iter().map(|(metric, v)| {
                (
                    *metric,
                    Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                )
            })),
        );
        for (metric, values) in self.values {
            let better = END_TO_END
                .iter()
                .find(|m| m.name == metric)
                .map_or(Better::Lower, |m| m.better);
            report.metric(metric, best_decile(&values, better));
        }
    }
}

/// What a round's closure is asked for: a whole round, or its set-up alone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// Set up, run the timed phases, check; `0` is the first round.
    Round(usize),
    /// Set up and stop: a further `setup_s` sample.
    SetupOnly,
}

/// The untraced run of every workload: rounds until `--seconds` have
/// passed (one in a smoke run), then set-ups until there are `min_setups`.
/// `round` sets up — returning the seconds that took — and, asked for a
/// whole round, pushes the round's values. `setup_s` is the set-ups' median.
pub fn measure(
    args: &RunArgs,
    report: &mut Report,
    min_setups: usize,
    mut round: impl FnMut(Ask, &mut Report, &mut Rounds) -> Result<f64, String>,
) -> Result<Rounds, String> {
    let start = Instant::now();
    let mut rounds = Rounds::default();
    let mut setup_secs = Vec::new();
    let mut done = 0;
    loop {
        setup_secs.push(round(Ask::Round(done), report, &mut rounds)?);
        done += 1;
        if args.smoke || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    while setup_secs.len() < min_setups && !args.smoke {
        setup_secs.push(round(Ask::SetupOnly, report, &mut rounds)?);
    }
    report.metric("setup_s", median(&setup_secs));
    report.detail("setups", Json::Int(setup_secs.len() as u64));
    report.detail("rounds", Json::Int(done as u64));
    Ok(rounds)
}
