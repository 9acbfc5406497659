//! `bigdoc_baselines`: one large document through the four shredding
//! schemes — `rel` (`core::views`), `edge`, `attr`, `inline` (`shred`) — as
//! SQL text, one statement at a time: the paper's per-scheme comparison.
//!
//! A round is: set up (generate the document, a fresh in-memory `Database`
//! and the scheme's DDL, four times), then per scheme store (parse, shred,
//! `execute` every statement, `COMMIT`), the §4.1 query, and reconstruct +
//! serialize. A round's sample of a latency is the mean over the schemes —
//! the values aggregate the four — and the per-scheme layer metrics say
//! which one moved.

use std::collections::BTreeMap;
use std::time::Instant;

use xml2ordb::model::{MappedSchema, MappingOptions};
use xml2ordb::schemagen::{generate_schema, IdrefTargets};
use xml2ordb::views::{self, RelationalSchema};
use xmlord_dtd::ast::Dtd;
use xmlord_dtd::parse_dtd;
use xmlord_ordb::{Database, DbMode, ExecStats};
use xmlord_shred::inline::InlineSchema;
use xmlord_shred::retrieve::{reconstruct_attrtab, reconstruct_edge, reconstruct_inline};
use xmlord_shred::{attrtab, edge};
use xmlord_workload::university::university_dtd;
use xmlord_xml::serializer::{serialize, SerializeOptions};
use xmlord_xml::Document;

use crate::alloc::{self, Usage};
use crate::inputs::{self, QUERY_PREDICATE, QUERY_PROFESSOR, QUERY_STEPS};
use crate::json::Json;
use crate::report::{
    add_exec_counts, allocator_detail, measure, reconcile, shared_layer_metrics, write_trace, Ask,
    Report, RunArgs, TracedRound,
};
use crate::span::Tracer;
use crate::stats::Samples;

const ROOT: &str = "University";
/// Set-ups a run makes at least; they take milliseconds, `setup_s` is their
/// median.
const MIN_SETUPS: usize = 25;
const MODE: DbMode = DbMode::Oracle9;

pub struct Params {
    /// Students of the large document: 500 ≈ 0.24 MB, ten of the corpus's
    /// documents. `rel` and `inline` load quadratically in it, and a round has
    /// to be short for a run to hold the fifty-odd that steady its values.
    pub students: usize,
}

impl Params {
    pub fn of(smoke: bool) -> Params {
        if smoke {
            Params { students: 60 }
        } else {
            Params { students: 500 }
        }
    }

    fn json(&self) -> Json {
        Json::obj([("students", Json::Int(self.students as u64))])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Rel,
    Edge,
    Attr,
    Inline,
}

/// Span names of one scheme's own calls; `rel` lives in `core::views`.
struct SpanNames {
    shred: &'static str,
    drop_statements: &'static str,
    path_query: &'static str,
    reconstruct: &'static str,
}

impl Scheme {
    pub const ALL: [Scheme; 4] = [Scheme::Rel, Scheme::Edge, Scheme::Attr, Scheme::Inline];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Rel => "rel",
            Scheme::Edge => "edge",
            Scheme::Attr => "attr",
            Scheme::Inline => "inline",
        }
    }

    /// The shared identifier of this scheme's spans.
    fn id(self) -> u32 {
        self as u32
    }

    fn spans(self) -> SpanNames {
        match self {
            Scheme::Rel => SpanNames {
                shred: "core.rel.shred",
                drop_statements: "core.rel.drop_statements",
                path_query: "core.rel.path_query",
                reconstruct: "core.rel.reconstruct",
            },
            Scheme::Edge => SpanNames {
                shred: "shred.edge.shred",
                drop_statements: "shred.edge.drop_statements",
                path_query: "shred.edge.path_query",
                reconstruct: "shred.edge.reconstruct",
            },
            Scheme::Attr => SpanNames {
                shred: "shred.attr.shred",
                drop_statements: "shred.attr.drop_statements",
                path_query: "shred.attr.path_query",
                reconstruct: "shred.attr.reconstruct",
            },
            Scheme::Inline => SpanNames {
                shred: "shred.inline.shred",
                drop_statements: "shred.inline.drop_statements",
                path_query: "shred.inline.path_query",
                reconstruct: "shred.inline.reconstruct",
            },
        }
    }
}

/// One scheme's database with what its shredder and reader need.
struct Store {
    scheme: Scheme,
    db: Database,
    rel: Option<(MappedSchema, RelationalSchema)>,
    inline: Option<InlineSchema>,
}

impl Store {
    /// A fresh in-memory database with the scheme's DDL executed and
    /// committed.
    fn create(scheme: Scheme, dtd: &Dtd) -> Result<Store, String> {
        let rel = match scheme {
            Scheme::Rel => {
                let options = MappingOptions {
                    with_doc_id: false,
                    ..Default::default()
                };
                let schema = generate_schema(dtd, ROOT, MODE, options, &IdrefTargets::new())
                    .map_err(|e| e.to_string())?;
                let rel = views::relational_schema(&schema);
                Some((schema, rel))
            }
            _ => None,
        };
        let inline = (scheme == Scheme::Inline).then(|| InlineSchema::build(dtd, ROOT));
        let mut store = Store {
            scheme,
            db: Database::new(MODE),
            rel,
            inline,
        };
        let ddl = match scheme {
            Scheme::Rel => views::relational_ddl(&store.rel.as_ref().expect("rel").1, 4000),
            Scheme::Edge => edge::ddl().to_string(),
            Scheme::Attr => attrtab::ddl(dtd, ROOT),
            Scheme::Inline => store.inline.as_ref().expect("inline").ddl(),
        };
        store
            .db
            .execute_script(&ddl)
            .map_err(|e| format!("{} DDL: {e}", scheme.name()))?;
        store.db.commit().map_err(|e| e.to_string())?;
        Ok(store)
    }

    fn shred(&self, doc: &Document) -> Result<Vec<String>, String> {
        match self.scheme {
            Scheme::Rel => {
                let (schema, rel) = self.rel.as_ref().expect("rel");
                views::relational_load_script(schema, rel, doc).map_err(|e| e.to_string())
            }
            Scheme::Edge => Ok(edge::load(doc)),
            Scheme::Attr => Ok(attrtab::load(doc)),
            Scheme::Inline => self
                .inline
                .as_ref()
                .expect("inline")
                .load(doc)
                .map_err(|e| e.to_string()),
        }
    }

    /// The §4.1 query in this scheme's SQL; `rel` has no generator.
    fn query_sql(&self) -> Result<Option<String>, String> {
        let predicate = Some((&QUERY_PREDICATE[..], QUERY_PROFESSOR));
        match self.scheme {
            Scheme::Rel => Ok(None),
            Scheme::Edge => Ok(Some(edge::path_query(ROOT, &QUERY_STEPS, predicate))),
            Scheme::Attr => Ok(Some(attrtab::path_query(ROOT, &QUERY_STEPS, predicate))),
            Scheme::Inline => self
                .inline
                .as_ref()
                .expect("inline")
                .path_query(&QUERY_STEPS, predicate)
                .map(Some)
                .map_err(|e| e.to_string()),
        }
    }

    fn reconstruct(&self, dtd: &Dtd) -> Result<Document, String> {
        let storage = self.db.storage();
        match self.scheme {
            Scheme::Rel => {
                let (schema, rel) = self.rel.as_ref().expect("rel");
                views::reconstruct_relational(schema, rel, &storage, true)
                    .map_err(|e| e.to_string())
            }
            Scheme::Edge => reconstruct_edge(&storage, true).map_err(|e| e.to_string()),
            Scheme::Attr => {
                reconstruct_attrtab(&storage, dtd, ROOT, true).map_err(|e| e.to_string())
            }
            Scheme::Inline => {
                reconstruct_inline(&storage, self.inline.as_ref().expect("inline"), dtd, true)
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// Parse `xml`, shred it, execute every statement, `COMMIT`; returns the
/// number of statements.
fn store_doc(t: &mut Tracer, store: &mut Store, dtd: &Dtd, xml: &str) -> Result<usize, String> {
    let id = store.scheme.id();
    let names = store.scheme.spans();
    t.span("bench.store_doc", id, |t| {
        let doc = t
            .span("xml.parse", id, |_| {
                xmlord_xml::parse_with_catalog(xml, dtd.entity_catalog())
            })
            .map_err(|e| e.to_string())?;
        let statements = t.span(names.shred, id, |_| store.shred(&doc))?;
        t.span("ordb.load_statements", id, |t| {
            for sql in &statements {
                t.span("ordb.execute_text", id, |_| store.db.execute(sql))
                    .map_err(|e| format!("{}: {e}", store.scheme.name()))?;
            }
            Ok::<(), String>(())
        })?;
        t.span("ordb.commit", id, |_| store.db.execute("COMMIT"))
            .map_err(|e| e.to_string())?;
        let count = statements.len();
        // Freeing the statements and the DOM is work of the layers that
        // built them.
        t.span(names.drop_statements, id, |_| drop(statements));
        t.span("xml.drop_dom", id, |_| drop(doc));
        Ok(count)
    })
}

/// The §4.1 query: rows returned, or `None` where the scheme has none.
fn query_doc(t: &mut Tracer, store: &mut Store) -> Result<Option<usize>, String> {
    let id = store.scheme.id();
    let names = store.scheme.spans();
    t.span("bench.query", id, |t| {
        let Some(sql) = t.span(names.path_query, id, |_| store.query_sql())? else {
            return Ok(None);
        };
        let result = t
            .span("ordb.query", id, |_| store.db.query(&sql))
            .map_err(|e| e.to_string())?;
        Ok(Some(result.rows.len()))
    })
}

fn retrieve_doc(t: &mut Tracer, store: &Store, dtd: &Dtd) -> Result<String, String> {
    let id = store.scheme.id();
    let names = store.scheme.spans();
    t.span("bench.retrieve_doc", id, |t| {
        let doc = t.span(names.reconstruct, id, |_| store.reconstruct(dtd))?;
        let text = t.span("xml.serialize", id, |_| {
            serialize(&doc, &SerializeOptions::compact())
        });
        t.span("xml.drop_dom", id, |_| drop(doc));
        Ok(text)
    })
}

/// The large document of a run.
fn generate(seed: u64, p: &Params) -> String {
    inputs::document(seed, 1, 0, p.students)
}

struct Expected {
    canon: String,
    distinct_names: usize,
}

fn expectations(xml: &str, dtd: &Dtd) -> Result<Expected, String> {
    let doc = inputs::parse(xml, dtd)?;
    Ok(Expected {
        canon: serialize(&doc, &SerializeOptions::compact()),
        distinct_names: inputs::expected_rows(&doc).distinct_names,
    })
}

/// One round's timed phases over the four in-memory stores.
#[derive(Default)]
struct Phases {
    store_secs: f64,
    query_secs: f64,
    retrieve_secs: f64,
    queries: usize,
    retrieved_bytes: u64,
    /// What the allocator counted over the round's timed phases.
    usage: Usage,
    counts: BTreeMap<String, u64>,
    store_delta: Vec<ExecStats>,
    query_delta: Vec<ExecStats>,
    result_rows: u64,
    dumps: Vec<String>,
}

fn round(
    t: &mut Tracer,
    stores: &mut [Store],
    xml: &str,
    expected: &Expected,
    dtd: &Dtd,
    report: &mut Report,
    want_dumps: bool,
) -> Phases {
    let mut out = Phases::default();
    out.counts
        .insert("input.xml_bytes".into(), xml.len() as u64);
    let window = alloc::Window::open();
    let mut texts = Vec::new();
    let mut rows = Vec::new();
    for store in stores.iter_mut() {
        let scheme = store.scheme;
        let before = store.db.stats();
        let start = Instant::now();
        let stored = store_doc(t, store, dtd, xml);
        out.store_secs += start.elapsed().as_secs_f64();
        let delta = store.db.stats().since(&before);
        add_exec_counts(&mut out.counts, &format!("{}.store", scheme.name()), &delta);
        out.store_delta.push(delta);
        if let Ok(statements) = &stored {
            out.counts.insert(
                format!("{}.shredded_statements", scheme.name()),
                *statements as u64,
            );
        }
        report.op(stored.map(|_| ()));
        if want_dumps {
            out.dumps.push(store.db.state_dump());
        }

        let before = store.db.stats();
        let start = Instant::now();
        let queried = query_doc(t, store);
        let secs = start.elapsed().as_secs_f64();
        let delta = store.db.stats().since(&before);
        add_exec_counts(&mut out.counts, &format!("{}.query", scheme.name()), &delta);
        out.query_delta.push(delta);
        if !matches!(queried, Ok(None)) {
            out.query_secs += secs;
            out.queries += 1;
            rows.push((scheme, queried));
        }

        let start = Instant::now();
        let text = retrieve_doc(t, store, dtd);
        out.retrieve_secs += start.elapsed().as_secs_f64();
        texts.push((scheme, text));
    }
    out.usage = window.close();

    for (scheme, text) in texts {
        let outcome = text.and_then(|got| {
            out.retrieved_bytes += got.len() as u64;
            (got == expected.canon).then_some(()).ok_or_else(|| {
                format!(
                    "{}: reconstructed document differs from the original",
                    scheme.name()
                )
            })
        });
        report.op(outcome);
    }
    for (scheme, queried) in rows {
        let outcome = queried.and_then(|n| {
            let n = n.unwrap_or(0);
            out.result_rows += n as u64;
            (n == expected.distinct_names).then_some(()).ok_or_else(|| {
                format!(
                    "{}: query returned {n} rows, the DOM has {}",
                    scheme.name(),
                    expected.distinct_names
                )
            })
        });
        report.op(outcome);
    }
    out
}

fn create_stores(dtd: &Dtd) -> Result<Vec<Store>, String> {
    Scheme::ALL
        .into_iter()
        .map(|scheme| Store::create(scheme, dtd))
        .collect()
}

pub fn untraced(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let p = Params::of(args.smoke);
    let dtd = parse_dtd(university_dtd()).map_err(|e| e.to_string())?;
    let schemes = Scheme::ALL.len() as f64;
    let mut expected = None;
    let mut off = Tracer::new(false);

    let rounds = measure(args, report, MIN_SETUPS, |ask, report, rounds| {
        let start = Instant::now();
        let xml = generate(args.seed, &p);
        let mut stores = create_stores(&dtd)?;
        let setup_secs = start.elapsed().as_secs_f64();
        let Ask::Round(round_no) = ask else {
            return Ok(setup_secs);
        };
        if expected.is_none() {
            expected = Some(expectations(&xml, &dtd)?);
        }
        let expected = expected.as_ref().expect("just set");

        let phases = round(&mut off, &mut stores, &xml, expected, &dtd, report, false);
        drop(stores);
        if round_no == 0 {
            allocator_detail(report, &phases.usage);
        }
        report.round_counts(round_no, phases.counts);

        // One sample a round: the mean over the schemes.
        let per_scheme = |secs: f64, n: f64| Samples(vec![secs * 1e3 / n]);
        rounds.push(
            "store_mb_per_s",
            xml.len() as f64 * schemes / 1e6 / phases.store_secs,
        );
        rounds.timing("store_p50_ms", &per_scheme(phases.store_secs, schemes));
        rounds.push(
            "retrieve_mb_per_s",
            phases.retrieved_bytes as f64 / 1e6 / phases.retrieve_secs,
        );
        rounds.timing(
            "retrieve_p50_ms",
            &per_scheme(phases.retrieve_secs, schemes),
        );
        rounds.timing(
            "query_p50_ms",
            &per_scheme(phases.query_secs, phases.queries.max(1) as f64),
        );
        rounds.push("peak_alloc_mb", phases.usage.peak_bytes as f64 / 1e6);
        Ok(setup_secs)
    })?;
    report.detail("params", p.json());
    rounds.finish(report);
    Ok(())
}

/// Seconds of the spans named `name` that belong to `scheme`.
fn scheme_seconds(t: &Tracer, name: &str, scheme: Scheme) -> f64 {
    t.spans
        .iter()
        .filter(|s| s.name == name && s.doc == scheme.id())
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

pub fn traced(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let p = Params::of(args.smoke);
    let mut setup = Tracer::new(true);
    let xml = setup.span("workload.generate", 0, |_| generate(args.seed, &p));
    let dtd = setup
        .span("dtd.parse_dtd", 0, |_| parse_dtd(university_dtd()))
        .map_err(|e| e.to_string())?;
    let expected = expectations(&xml, &dtd)?;

    // The reference round, untraced, then the same round with spans.
    let mut stores = create_stores(&dtd)?;
    let reference = round(
        &mut Tracer::new(false),
        &mut stores,
        &xml,
        &expected,
        &dtd,
        report,
        true,
    );
    drop(stores);
    let untraced_wall = reference.store_secs + reference.query_secs + reference.retrieve_secs;

    let mut stores = create_stores(&dtd)?;
    let mut t = Tracer::new(true);
    let phases = round(&mut t, &mut stores, &xml, &expected, &dtd, report, true);
    drop(stores);
    let traced_wall = phases.store_secs + phases.query_secs + phases.retrieve_secs;
    report.check(phases.dumps == reference.dumps, || {
        "the traced round left a state_dump() that differs from the untraced round's".to_string()
    });
    report.check(phases.counts == reference.counts, || {
        "the traced round's engine counters differ from the untraced round's".to_string()
    });

    // `rel` has no query; its empty `bench.query` span is outside the wall.
    reconcile(report, &t.spans, traced_wall, traced_wall, untraced_wall);

    shared_layer_metrics(
        report,
        &TracedRound {
            spans: &t,
            setup: &setup,
            xml_bytes: (xml.len() * Scheme::ALL.len()) as f64,
            retrieved_bytes: phases.retrieved_bytes as f64,
            apply_s: t.seconds("ordb.load_statements"),
            store: &phases.store_delta,
            query: &phases.query_delta,
            result_rows: phases.result_rows,
        },
    );
    report.metric("core.rel.shred_s", t.seconds("core.rel.shred"));
    report.metric(
        "core.rel.load_s",
        scheme_seconds(&t, "ordb.load_statements", Scheme::Rel),
    );
    report.metric("core.rel.reconstruct_s", t.seconds("core.rel.reconstruct"));
    for (scheme, shred, load, query, reconstruct, statements) in [
        (
            Scheme::Edge,
            "shred.edge.shred_s",
            "shred.edge.load_s",
            "shred.edge.query_ms",
            "shred.edge.reconstruct_s",
            "shred.edge.statements",
        ),
        (
            Scheme::Attr,
            "shred.attr.shred_s",
            "shred.attr.load_s",
            "shred.attr.query_ms",
            "shred.attr.reconstruct_s",
            "shred.attr.statements",
        ),
        (
            Scheme::Inline,
            "shred.inline.shred_s",
            "shred.inline.load_s",
            "shred.inline.query_ms",
            "shred.inline.reconstruct_s",
            "shred.inline.statements",
        ),
    ] {
        let names = scheme.spans();
        report.metric(shred, t.seconds(names.shred));
        report.metric(load, scheme_seconds(&t, "ordb.load_statements", scheme));
        report.metric(query, scheme_seconds(&t, "bench.query", scheme) * 1e3);
        report.metric(reconstruct, t.seconds(names.reconstruct));
        let count = phases
            .counts
            .get(&format!("{}.shredded_statements", scheme.name()))
            .copied();
        report.metric(statements, count.unwrap_or(0) as f64);
    }
    report.round_counts(0, phases.counts);
    report.detail("params", p.json());
    setup.absorb(t);
    write_trace(report, &setup)
}
