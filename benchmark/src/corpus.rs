//! `corpus_or9` and `corpus_or8`: many mid-size documents through the
//! object-relational mapping, in process and in memory.
//!
//! A round is: set up (generate the corpus, a fresh `Xml2OrDb`, register,
//! index), store every document, retrieve a seeded sample, run the §4.1
//! query. Every round uses the same corpus and a fresh store, so rounds are
//! repetitions and their counters must agree.

use std::collections::btree_map::{BTreeMap, Entry};
use std::time::Instant;

use xml2ordb::pathquery::{translate, PathQuery};
use xml2ordb::Xml2OrDb;
use xmlord_dtd::ast::Dtd;
use xmlord_dtd::parse_dtd;
use xmlord_ordb::DbMode;
use xmlord_workload::university::{university_dtd, UniversityConfig};

use crate::alloc::{self, Usage};
use crate::inputs::{self, CORPUS_STUDENTS, QUERY_PREDICATE, QUERY_PROFESSOR, QUERY_STEPS};
use crate::json::Json;
use crate::lifecycle::{self, doc_id, new_system, SCHEMA};
use crate::report::{
    add_exec_counts, allocator_detail, measure, reconcile, shared_layer_metrics, write_trace, Ask,
    Report, RunArgs, TracedRound,
};
use crate::span::Tracer;
use crate::stats::{ratio, Samples};

/// Operation counts of one round. Fixed, so that counters repeat exactly.
pub struct Params {
    pub docs: usize,
    pub retrieves: usize,
    pub queries: usize,
    /// Store sizes at which the traced run probes retrieval cost.
    pub probe_sizes: [usize; 2],
    pub probe_retrieves: usize,
}

impl Params {
    pub fn of(smoke: bool) -> Params {
        if smoke {
            Params {
                docs: 24,
                retrieves: 6,
                queries: 1,
                probe_sizes: [8, 40],
                probe_retrieves: 3,
            }
        } else {
            Params {
                docs: 100,
                retrieves: 50,
                queries: 3,
                probe_sizes: [100, 1000],
                probe_retrieves: 20,
            }
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("docs_per_round", Json::Int(self.docs as u64)),
            ("retrieves_per_round", Json::Int(self.retrieves as u64)),
            ("queries_per_round", Json::Int(self.queries as u64)),
            ("students_per_doc", Json::Int(CORPUS_STUDENTS as u64)),
        ])
    }
}

/// Set-ups a run makes at least. A set-up takes milliseconds, so the median
/// of a few more than the rounds give steadies `setup_s`.
const MIN_SETUPS: usize = 15;

const STREAM_CORPUS: u64 = 1;
const STREAM_SAMPLE: u64 = 2;
const STREAM_SCALE: u64 = 3;

struct Inputs {
    docs: Vec<String>,
    /// Indices into `docs` of the documents the retrieve phase asks for.
    sample: Vec<usize>,
}

fn generate(seed: u64, p: &Params) -> Inputs {
    Inputs {
        docs: inputs::corpus(seed, STREAM_CORPUS, p.docs),
        sample: inputs::sample_indices(seed, STREAM_SAMPLE, p.docs, p.retrieves),
    }
}

/// What the outputs must be, from the generator's own DOM.
struct Expected {
    query_rows: usize,
    /// Canonical originals of the sampled documents, by corpus index.
    canon: BTreeMap<usize, String>,
}

fn expectations(inputs: &Inputs, dtd: &Dtd) -> Result<Expected, String> {
    let mut query_rows = 0;
    for xml in &inputs.docs {
        query_rows += inputs::expected_rows(&inputs::parse(xml, dtd)?).matches;
    }
    let mut canon = BTreeMap::new();
    for &i in &inputs.sample {
        if let Entry::Vacant(slot) = canon.entry(i) {
            slot.insert(inputs::canonical(&inputs.docs[i], dtd)?);
        }
    }
    Ok(Expected { query_rows, canon })
}

pub fn paper_query() -> PathQuery {
    PathQuery::parse(&QUERY_STEPS.join("/"))
        .with_predicate(&QUERY_PREDICATE.join("/"), QUERY_PROFESSOR)
}

fn check_document(got: &str, want: &str, dtd: &Dtd, what: &str) -> Result<(), String> {
    match inputs::canonical(got, dtd) {
        Ok(canon) if canon == want => Ok(()),
        Ok(_) => Err(format!(
            "{what}: canonical form differs from the original's"
        )),
        Err(e) => Err(format!("{what}: retrieved text does not parse: {e}")),
    }
}

/// The timed phases of one round on the façade, as a user calls it.
struct Phases {
    store: Samples,
    store_wall: f64,
    store_bytes: u64,
    retrieve: Samples,
    retrieve_wall: f64,
    retrieve_bytes: u64,
    query: Samples,
    query_wall: f64,
    /// What the allocator counted over the three phases.
    usage: Usage,
    counts: BTreeMap<String, u64>,
    state_dump: Option<String>,
}

fn facade_round(
    sys: &mut Xml2OrDb,
    inputs: &Inputs,
    expected: &Expected,
    p: &Params,
    dtd: &Dtd,
    report: &mut Report,
    want_dump: bool,
) -> Phases {
    let mut counts = BTreeMap::new();
    let window = alloc::Window::open();

    let before = sys.stats();
    let mut store = Samples::default();
    let mut ids: Vec<Option<String>> = Vec::with_capacity(inputs.docs.len());
    let phase = Instant::now();
    for xml in &inputs.docs {
        let start = Instant::now();
        let stored = sys.store_document(SCHEMA, xml);
        store.push_secs(start.elapsed().as_secs_f64());
        ids.push(stored.ok());
    }
    let store_wall = phase.elapsed().as_secs_f64();
    add_exec_counts(&mut counts, "store", &sys.stats().since(&before));
    let store_bytes = inputs.docs.iter().map(|d| d.len() as u64).sum();
    let all_stored = ids.iter().all(Option::is_some);
    for (i, id) in ids.iter().enumerate() {
        report.op(id
            .as_ref()
            .map(|_| ())
            .ok_or_else(|| format!("store of document {i} failed")));
    }
    let state_dump = want_dump.then(|| sys.database().state_dump());

    let before = sys.stats();
    let mut retrieve = Samples::default();
    let mut texts = Vec::with_capacity(inputs.sample.len());
    let phase = Instant::now();
    for &i in &inputs.sample {
        let start = Instant::now();
        let text = match &ids[i] {
            Some(id) => sys.retrieve_document(id).map_err(|e| format!("{id}: {e}")),
            None => Err(format!("document {i} was never stored")),
        };
        retrieve.push_secs(start.elapsed().as_secs_f64());
        texts.push(text);
    }
    let retrieve_wall = phase.elapsed().as_secs_f64();
    add_exec_counts(&mut counts, "retrieve", &sys.stats().since(&before));

    let before = sys.stats();
    let query = paper_query();
    let mut query_samples = Samples::default();
    let mut row_counts = Vec::with_capacity(p.queries);
    let phase = Instant::now();
    for _ in 0..p.queries {
        let start = Instant::now();
        let result = sys.query_path(SCHEMA, &query);
        query_samples.push_secs(start.elapsed().as_secs_f64());
        row_counts.push(result.map(|r| r.rows.len()).map_err(|e| e.to_string()));
    }
    let query_wall = phase.elapsed().as_secs_f64();
    add_exec_counts(&mut counts, "query", &sys.stats().since(&before));
    let usage = window.close();

    // Checks, outside the timed sections.
    let mut retrieve_bytes = 0;
    for (&i, text) in inputs.sample.iter().zip(texts) {
        let outcome = text.and_then(|got| {
            retrieve_bytes += got.len() as u64;
            check_document(
                &got,
                &expected.canon[&i],
                dtd,
                &format!("retrieve of document {i}"),
            )
        });
        report.op(outcome);
    }
    for rows in row_counts {
        let outcome = rows.and_then(|n| {
            (n == expected.query_rows || !all_stored)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "query returned {n} rows, the generator's DOM has {}",
                        expected.query_rows
                    )
                })
        });
        report.op(outcome);
    }
    counts.insert("query.result_rows".into(), expected.query_rows as u64);
    counts.insert("input.xml_bytes".into(), store_bytes);

    Phases {
        store,
        store_wall,
        store_bytes,
        retrieve,
        retrieve_wall,
        retrieve_bytes,
        query: query_samples,
        query_wall,
        usage,
        counts,
        state_dump,
    }
}

fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

pub fn untraced(mode: DbMode, args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let p = Params::of(args.smoke);
    let dtd = parse_dtd(university_dtd()).map_err(|e| e.to_string())?;
    let mut expected = None;

    let rounds = measure(args, report, MIN_SETUPS, |ask, report, rounds| {
        let start = Instant::now();
        let inputs = generate(args.seed, &p);
        let (mut sys, _) = new_system(mode)?;
        let setup_secs = start.elapsed().as_secs_f64();
        let Ask::Round(round_no) = ask else {
            return Ok(setup_secs);
        };
        if expected.is_none() {
            expected = Some(expectations(&inputs, &dtd)?);
        }
        let expected = expected.as_ref().expect("just set");

        let phases = facade_round(&mut sys, &inputs, expected, &p, &dtd, report, false);
        drop(sys);
        if round_no == 0 {
            allocator_detail(report, &phases.usage);
        }
        report.round_counts(round_no, phases.counts);

        rounds.push(
            "store_mb_per_s",
            mb_per_s(phases.store_bytes, phases.store_wall),
        );
        rounds.timing("store_p50_ms", &phases.store);
        rounds.push(
            "retrieve_mb_per_s",
            mb_per_s(phases.retrieve_bytes, phases.retrieve_wall),
        );
        rounds.timing("retrieve_p50_ms", &phases.retrieve);
        rounds.timing("query_p50_ms", &phases.query);
        rounds.push("peak_alloc_mb", phases.usage.peak_bytes as f64 / 1e6);
        Ok(setup_secs)
    })?;
    report.detail("params", p.json());
    rounds.finish(report);
    Ok(())
}

/// Elements of one corpus document, for the validator's rate.
fn elements_per_doc() -> usize {
    UniversityConfig {
        students: CORPUS_STUDENTS,
        ..Default::default()
    }
    .element_count()
}

/// Median `retrieve_document` time at the store's present size: a few
/// documents spread over the store.
fn probe_retrieve(sys: &mut Xml2OrDb, stored: usize, count: usize) -> Result<f64, String> {
    let mut samples = Samples::default();
    for k in 0..count {
        let id = doc_id(1 + (k * stored) / count);
        let start = Instant::now();
        sys.retrieve_document(&id)
            .map_err(|e| format!("probe {id}: {e}"))?;
        samples.push_secs(start.elapsed().as_secs_f64());
    }
    Ok(samples.median())
}

/// The round again, decomposed into the layers' public calls with a span
/// around each, beside one round on the façade to compare with.
pub fn traced(mode: DbMode, args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let p = Params::of(args.smoke);

    let mut setup = Tracer::new(true);
    let inputs = setup.span("workload.generate", 0, |_| generate(args.seed, &p));
    let dtd = setup
        .span("dtd.parse_dtd", 0, |_| parse_dtd(university_dtd()))
        .map_err(|e| e.to_string())?;
    let expected = expectations(&inputs, &dtd)?;

    // Retrieval cost against store size, on the façade. It comes first
    // because it also grows the heap past what the rounds below need, so
    // that neither of the two rounds compared pays for a cold one.
    let [probe_small, probe_large] = p.probe_sizes;
    let (mut ladder, _) = new_system(mode)?;
    let extra = inputs::corpus(args.seed, STREAM_SCALE, probe_large.saturating_sub(p.docs));
    let mut probes = Vec::new();
    for (n, xml) in inputs
        .docs
        .iter()
        .chain(&extra)
        .take(probe_large)
        .enumerate()
    {
        ladder
            .store_document(SCHEMA, xml)
            .map_err(|e| format!("ladder store: {e}"))?;
        if n + 1 == probe_small || n + 1 == probe_large {
            probes.push(probe_retrieve(&mut ladder, n + 1, p.probe_retrieves)?);
        }
    }
    drop(ladder);

    // The reference: the same phases on the façade, untraced.
    let (mut reference, _) = new_system(mode)?;
    let facade = facade_round(&mut reference, &inputs, &expected, &p, &dtd, report, true);
    drop(reference);
    let untraced_wall = facade.store_wall + facade.retrieve_wall + facade.query_wall;

    let mut sys = Xml2OrDb::new(mode);
    let reg = setup.span("core.register", 0, |_| lifecycle::register(&mut sys))?;

    let mut t = Tracer::new(true);
    let mut ops_total = 0;
    let before = sys.stats();
    let leg = Instant::now();
    for (i, xml) in inputs.docs.iter().enumerate() {
        match lifecycle::store(&mut t, sys.database(), &reg, xml, &doc_id(i + 1), i as u32) {
            Ok(ops) => ops_total += ops,
            Err(e) => report.check(false, || format!("traced store: {e}")),
        }
    }
    let mut traced_wall = leg.elapsed().as_secs_f64();
    let store_delta = sys.stats().since(&before);
    let dump = sys.database().state_dump();
    report.check(facade.state_dump.as_deref() == Some(dump.as_str()), || {
        "the decomposed store left a state_dump() that differs from store_document's".to_string()
    });
    drop(dump);

    let before = sys.stats();
    let mut retrieved_bytes = 0u64;
    let leg = Instant::now();
    for &i in &inputs.sample {
        match lifecycle::retrieve(&mut t, sys.database(), &reg, &doc_id(i + 1), i as u32) {
            Ok(text) => retrieved_bytes += text.len() as u64,
            Err(e) => report.check(false, || format!("traced retrieve: {e}")),
        }
    }
    traced_wall += leg.elapsed().as_secs_f64();
    let retrieve_delta = sys.stats().since(&before);

    let before = sys.stats();
    let query = paper_query();
    let mut result_rows = 0u64;
    let leg = Instant::now();
    for _ in 0..p.queries {
        result_rows += t.span("bench.query", 0, |t| {
            let sql = t
                .span("core.translate", 0, |_| translate(&reg.schema, &query))
                .map_err(|e| e.to_string())?;
            let result = t
                .span("ordb.query", 0, |_| sys.database().query(&sql.sql))
                .map_err(|e| e.to_string())?;
            let rows = result.rows.len() as u64;
            t.span("ordb.drop_result", 0, |_| drop(result));
            Ok::<u64, String>(rows)
        })?;
    }
    traced_wall += leg.elapsed().as_secs_f64();
    let query_delta = sys.stats().since(&before);
    drop(sys);
    report.check(
        result_rows == (expected.query_rows * p.queries) as u64,
        || {
            format!(
                "traced queries returned {result_rows} rows in all, expected {}",
                expected.query_rows * p.queries
            )
        },
    );

    reconcile(report, &t.spans, traced_wall, traced_wall, untraced_wall);

    let elements = (p.docs * elements_per_doc()) as f64;
    shared_layer_metrics(
        report,
        &TracedRound {
            spans: &t,
            setup: &setup,
            xml_bytes: facade.store_bytes as f64,
            retrieved_bytes: retrieved_bytes as f64,
            apply_s: t.seconds("ordb.execute_batch")
                + t.seconds("ordb.execute_stmt")
                + t.seconds("ordb.execute_text"),
            store: &[store_delta],
            query: &[query_delta],
            result_rows,
        },
    );
    report.metric("dtd.validate_s", t.seconds("dtd.validate"));
    report.metric(
        "dtd.validate_elements_per_s",
        ratio(elements, t.seconds("dtd.validate")),
    );
    report.metric(
        "dtd.validate_allocs_per_element",
        ratio(t.allocs("dtd.validate") as f64, elements),
    );
    report.metric("core.register_ms", setup.seconds("core.register") * 1e3);
    report.metric("core.load_ops_s", t.seconds("core.load_ops"));
    report.metric("core.load_ops_per_doc", ops_total as f64 / p.docs as f64);
    report.metric("core.plan_batches_s", t.seconds("core.plan_batches"));
    report.metric("core.retrieve_s", t.seconds("core.retrieve"));
    report.metric(
        "core.retrieve_ms_at_100_docs",
        probes.first().copied().unwrap_or(0.0),
    );
    report.metric(
        "core.retrieve_ms_at_1000_docs",
        probes.get(1).copied().unwrap_or(0.0),
    );
    report.metric(
        "core.pathquery_translate_us",
        ratio(t.seconds("core.translate") * 1e6, p.queries as f64),
    );
    // The tails of the façade round: too unsteady on this host to guard
    // end to end, so they are read here.
    report.tail_metric("core.store_p95_ms", &facade.store);
    report.tail_metric("core.retrieve_p95_ms", &facade.retrieve);
    report.metric(
        "ordb.retrieve_index_probes",
        retrieve_delta.retrieve_index_probes as f64,
    );
    report.metric(
        "ordb.retrieve_table_scans",
        retrieve_delta.retrieve_table_scans as f64,
    );
    let mut counts = BTreeMap::new();
    add_exec_counts(&mut counts, "store", &store_delta);
    add_exec_counts(&mut counts, "retrieve", &retrieve_delta);
    add_exec_counts(&mut counts, "query", &query_delta);
    report.check(
        counts.iter().all(|(k, v)| facade.counts.get(k) == Some(v)),
        || "the decomposed round's engine counters differ from the façade round's".to_string(),
    );
    counts.insert("core.load_ops".into(), ops_total as u64);
    report.round_counts(0, counts);

    report.detail("params", p.json());
    setup.absorb(t);
    write_trace(report, &setup)
}
