//! `wire_mixed`: the server as a child process on a durable directory, a
//! reader connection beside a writer connection, `SIGKILL`, restart, and a
//! readback of every acknowledged commit.
//!
//! A round is: set up (generate, preload the directory through
//! `Xml2OrDb::open`, close it with a snapshot, pre-generate the writer's
//! scripts, start `benchmark serve` and connect); the mixed phase, a writer
//! that stores a fixed number of documents, one every 5–15 ms, beside a
//! reader (`.get` of seeded-random committed documents, every fifth request
//! the §4.1 `SELECT`) that keeps asking until the writer is done, so every
//! sampled read meets fresh commits; then kill, restart, and read back every
//! document whose `COMMIT` was acknowledged. The traced round also asks a
//! quiet server first and restarts a few times, for the per-layer numbers.
//!
//! A kill leaves the operating system's cache intact: the readback proves
//! the WAL protocol, not fsync. Latencies are this sandbox's loopback's.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use xml2ordb::loader::load_script;
use xml2ordb::metadata::metadata_insert;
use xml2ordb::pathquery::translate;
use xml2ordb::pipeline::{
    apply_attribute_defaults, retrieval_serialize_options, schema_via_session, RegisteredSchema,
};
use xml2ordb::retriever::retrieve_via_session;
use xml2ordb::{MappingOptions, Xml2OrDb};
use xmlord_dtd::ast::Dtd;
use xmlord_dtd::{parse_dtd, validate};
use xmlord_ordb::{Database, DbMode};
use xmlord_prng::Prng;
use xmlord_server::Server;
use xmlord_workload::university::university_dtd;
use xmlord_xml::serializer::serialize_to;

use crate::corpus::paper_query;
use crate::inputs;
use crate::json::Json;
use crate::lifecycle::{self, doc_id, SCHEMA};
use crate::report::{measure, reconcile, write_trace, Ask, Report, RunArgs};
use crate::span::Tracer;
use crate::stats::{median, ratio, Samples};
use crate::util::{counter, dir_bytes, ScratchDir};

const MODE: DbMode = DbMode::Oracle9;

pub struct Params {
    /// Documents preloaded in set-up.
    pub preload: usize,
    /// Documents the writer stores, pausing `THINK_MS` before each; the
    /// reader asks beside it for as long as that takes.
    pub writer_docs: usize,
    /// Connections the readback after the restart is spread over.
    pub readback_connections: usize,
    /// Traced round only: `.get` requests on the quiet server before the
    /// mixed phase, one-row `SELECT`s for the round-trip floor, and
    /// kill-and-restart cycles (one recovery sample each; an untraced round
    /// restarts once, for the readback).
    pub quiet_gets: usize,
    pub roundtrips: usize,
    pub restarts: usize,
}

/// Every `SELECT_EVERY`th request of the reader is the §4.1 `SELECT`.
const SELECT_EVERY: usize = 5;
/// The writer's pause before each document, drawn from the seed, in ms.
///
/// Short against a read: a `.get` beside the writer takes some 130 ms at the
/// seed commit, about half of it under the engine lock while its snapshot
/// refreshes. So a dozen commits land between two reads and every read
/// refreshes; and of the documents only the one or two that arrive while the
/// lock is held wait for it, which keeps them a clear minority. Slower
/// pacing made every document an independent draw against the lock — half
/// waited — and lockstep (one document per read) made reads alternate
/// between a refreshing and a fresh one; a median over two equal modes is
/// no measurement.
const THINK_MS: std::ops::Range<u64> = 5..15;
/// The pauses follow one schedule on every run, whatever its `--seed`: they
/// are the load generator's, not an input of the program, and a schedule
/// drawn from the run's seed moved the share of documents that wait for the
/// engine lock, and with it the store rate, from seed to seed.
const PACING_SEED: u64 = 0x5EED_0FA5_7EAD_1E55;
/// Set-ups a run makes at least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;

impl Params {
    pub fn of(smoke: bool) -> Params {
        if smoke {
            Params {
                preload: 10,
                writer_docs: 40,
                readback_connections: 2,
                quiet_gets: 3,
                roundtrips: 3,
                restarts: 1,
            }
        } else {
            Params {
                preload: 200,
                writer_docs: 100,
                readback_connections: 8,
                quiet_gets: 10,
                roundtrips: 20,
                restarts: 3,
            }
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("preload_docs", Json::Int(self.preload as u64)),
            ("writer_docs", Json::Int(self.writer_docs as u64)),
            (
                "writer_think_ms",
                Json::Arr(vec![Json::Int(THINK_MS.start), Json::Int(THINK_MS.end)]),
            ),
            ("select_every", Json::Int(SELECT_EVERY as u64)),
            ("client_connections", Json::Int(2)),
            (
                "overlap",
                Json::str(
                    "the reader asks until the writer is done; a read is sampled when it was \
                     sent after the first COMMIT acknowledgement and answered before the last",
                ),
            ),
        ])
    }
}

/// `benchmark serve`: the program under test, as the child process runs it.
pub fn serve(addr: &str, dir: &str) -> Result<(), String> {
    let db = Database::open(dir, MODE).map_err(|e| format!("open {dir}: {e}"))?;
    let server = Server::bind(addr, db).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    // The parent learns the ephemeral port from this line.
    println!("{bound}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// The server child. Killed (SIGKILL) and reaped when dropped, so no exit
/// path of the benchmark leaves it running.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn start(dir: &Path) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut proc = ServerProc {
            child,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("server address: {e}"))?;
        if line.trim().is_empty() {
            return Err("the server exited before it printed its address".into());
        }
        proc.addr = line.trim().to_string();
        Ok(proc)
    }

    /// The child's peak resident set (`VmHWM`), in MB.
    fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|status| {
                let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map(|kb| kb * 1024.0 / 1e6)
            .unwrap_or(0.0)
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

struct Reply {
    ok: bool,
    status: String,
    /// The lines before the status line, joined.
    body: String,
    /// Bytes read for this reply.
    bytes: usize,
}

impl Reply {
    /// The `n` of `OK n`.
    fn count(&self) -> usize {
        self.status
            .split_whitespace()
            .nth(1)
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A hung server must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        let mut greeting = String::new();
        conn.reader
            .read_line(&mut greeting)
            .map_err(|e| format!("greeting: {e}"))?;
        if !greeting.starts_with('#') {
            return Err(format!("unexpected greeting {greeting:?}"));
        }
        Ok(conn)
    }

    /// Send one line (a statement ending in `;` or a dot-command) as one
    /// write, and read up to the `OK`/`ERR` line.
    fn request(&mut self, line: &str) -> Result<Reply, String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = Reply {
            ok: false,
            status: String::new(),
            body: String::new(),
            bytes: 0,
        };
        let mut buf = String::new();
        loop {
            buf.clear();
            let n = self
                .reader
                .read_line(&mut buf)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("the server closed the connection".into());
            }
            reply.bytes += n;
            if buf.starts_with("OK ") || buf.starts_with("ERR ") {
                reply.ok = buf.starts_with("OK ");
                reply.status = buf.trim_end().to_string();
                return Ok(reply);
            }
            reply.body.push_str(buf.trim_end_matches('\n'));
        }
    }
}

struct Inputs {
    preload: Vec<String>,
    writer: Vec<String>,
}

fn generate(seed: u64, p: &Params) -> Inputs {
    Inputs {
        preload: inputs::corpus(seed, 1, p.preload),
        writer: inputs::corpus(seed, 2, p.writer_docs),
    }
}

impl Inputs {
    /// The original of document `uni-<n>`.
    fn original(&self, n: usize) -> &str {
        if n <= self.preload.len() {
            &self.preload[n - 1]
        } else {
            &self.writer[n - self.preload.len() - 1]
        }
    }
}

/// One document as the statements a client sends: `load_script` +
/// `metadata_insert`, each one line ending in `;`.
fn script(reg: &RegisteredSchema, xml: &str, id: &str) -> Result<Vec<String>, String> {
    let mut dom = inputs::parse(xml, &reg.dtd)?;
    if !validate(&dom, &reg.dtd).is_valid() {
        return Err(format!("{id}: generated document is not valid"));
    }
    apply_attribute_defaults(&mut dom, &reg.dtd);
    let mut statements = load_script(&reg.schema, &reg.dtd, &dom, id).map_err(|e| e.to_string())?;
    statements.push(metadata_insert(
        &reg.schema,
        &reg.dtd,
        &dom,
        id,
        "",
        "",
        "2002-03-25",
    ));
    Ok(statements
        .into_iter()
        .map(|s| format!("{};", s.trim().trim_end_matches(';').replace('\n', " ")))
        .collect())
}

/// A directory preloaded and closed, the writer's scripts, and the server
/// running on it.
struct Deployment {
    dir: ScratchDir,
    server: ServerProc,
    scripts: Vec<Vec<String>>,
    select_sql: String,
    snapshot_secs: f64,
    snapshot_bytes: u64,
}

fn deploy(t: &mut Tracer, inputs: &Inputs) -> Result<Deployment, String> {
    let dir = ScratchDir::new("wire")?;
    let mut sys = Xml2OrDb::open(dir.path(), MODE).map_err(|e| e.to_string())?;
    let reg = t.span("core.register", 0, |_| lifecycle::register(&mut sys))?;
    for xml in &inputs.preload {
        sys.store_document(SCHEMA, xml)
            .map_err(|e| format!("preload: {e}"))?;
    }
    let start = Instant::now();
    t.span("ordb.snapshot", 0, |_| sys.into_database().close())
        .map_err(|e| e.to_string())?;
    let snapshot_secs = start.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(dir.path().join("snapshot.db"))
        .map(|m| m.len())
        .unwrap_or(0);

    let scripts = inputs
        .writer
        .iter()
        .enumerate()
        .map(|(i, xml)| script(&reg, xml, &doc_id(inputs.preload.len() + i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    let select_sql = translate(&reg.schema, &paper_query())
        .map_err(|e| e.to_string())?
        .sql;
    let server = ServerProc::start(dir.path())?;
    Conn::open(&server.addr)?;
    Ok(Deployment {
        dir,
        server,
        scripts,
        select_sql: format!("{};", select_sql.replace('\n', " ")),
        snapshot_secs,
        snapshot_bytes,
    })
}

enum Request {
    Get {
        n: usize,
    },
    Select {
        acked_before: usize,
        acked_after: usize,
    },
}

struct Served {
    request: Request,
    reply: Reply,
    /// Sent after the first `COMMIT` acknowledgement and answered before
    /// the last: a read beside the writer, whose latency counts.
    beside_writer: bool,
}

/// What the outputs must be, from the generator's own DOM. The inputs are
/// the seed's, so one computation serves every round of a run.
struct Expected {
    /// Canonical original of `uni-<n>` at `n - 1`.
    canon: Vec<String>,
    /// Rows of the `SELECT` after the preload and each writer document.
    rows_after: Vec<usize>,
}

fn expectations(inputs: &Inputs, dtd: &Dtd) -> Result<Expected, String> {
    let rows = |xml: &String| -> Result<usize, String> {
        Ok(inputs::expected_rows(&inputs::parse(xml, dtd)?).matches)
    };
    let mut total = 0;
    for xml in &inputs.preload {
        total += rows(xml)?;
    }
    let mut rows_after = vec![total];
    for xml in &inputs.writer {
        total += rows(xml)?;
        rows_after.push(total);
    }
    let canon = inputs
        .preload
        .iter()
        .chain(&inputs.writer)
        .map(|xml| inputs::canonical(xml, dtd))
        .collect::<Result<_, String>>()?;
    Ok(Expected { canon, rows_after })
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_secs: f64,
    quiet: Samples,
    get: Samples,
    select: Samples,
    store: Samples,
    statement: Samples,
    commit: Samples,
    recovery: Samples,
    stored_xml_bytes: u64,
    get_bytes: u64,
    failed_requests: u64,
    disk_bytes: u64,
    total_xml_bytes: u64,
    peak_rss_mb: f64,
    acked: usize,
    stats_lines: Vec<String>,
    roundtrip: Samples,
    snapshot_secs: f64,
    snapshot_bytes: u64,
    /// The reader's loop, first request sent to last reply.
    reader_wall: f64,
    /// The writer's loop without its pauses.
    writer_busy: f64,
}

fn check_get(served: &Served, expected: &Expected, dtd: &Dtd) -> Result<(), String> {
    let Request::Get { n } = served.request else {
        unreachable!("only gets are checked here")
    };
    let id = doc_id(n);
    if !served.reply.ok {
        return Err(format!(".get {id}: {}", served.reply.status));
    }
    match inputs::canonical(&served.reply.body, dtd) {
        Ok(got) if got == expected.canon[n - 1] => Ok(()),
        Ok(_) => Err(format!(
            ".get {id}: canonical form differs from the original's"
        )),
        Err(e) => Err(format!(".get {id}: reply does not parse: {e}")),
    }
}

/// What the writer connection did in the mixed phase.
#[derive(Default)]
struct Written {
    /// First statement to `COMMIT` acknowledgement, per document.
    store: Samples,
    statement: Samples,
    commit: Samples,
    xml_bytes: u64,
    /// The loop's wall without its pauses.
    busy_secs: f64,
    outcomes: Vec<Result<(), String>>,
}

/// The writer: pause, then send the next document as its statements and
/// `COMMIT;`, until all are sent.
fn write_documents(
    conn: &mut Conn,
    scripts: &[Vec<String>],
    originals: &[String],
    acked: &AtomicUsize,
    t: &mut Tracer,
) -> Result<Written, String> {
    let mut out = Written::default();
    let mut rng = Prng::seed_from_u64(PACING_SEED);
    let wall = Instant::now();
    let mut paused = Duration::ZERO;
    for (i, statements) in scripts.iter().enumerate() {
        let pause = Instant::now();
        std::thread::sleep(Duration::from_millis(rng.gen_range(THINK_MS)));
        paused += pause.elapsed();
        let outcome = t.span(
            "bench.store_doc",
            i as u32,
            |t| -> Result<Result<(), String>, String> {
                let start = Instant::now();
                for sql in statements {
                    let sent = Instant::now();
                    let reply = t.span("server.statement", i as u32, |_| conn.request(sql))?;
                    out.statement.push_secs(sent.elapsed().as_secs_f64());
                    if !reply.ok {
                        // Leave no half-stored document behind.
                        conn.request("ROLLBACK;")?;
                        return Ok(Err(format!("writer document {i}: {}", reply.status)));
                    }
                }
                let sent = Instant::now();
                let reply = t.span("server.commit", i as u32, |_| conn.request("COMMIT;"))?;
                if !reply.ok {
                    return Ok(Err(format!(
                        "writer document {i}: COMMIT: {}",
                        reply.status
                    )));
                }
                out.commit.push_secs(sent.elapsed().as_secs_f64());
                out.store.push_secs(start.elapsed().as_secs_f64());
                Ok(Ok(()))
            },
        )?;
        // Documents are acknowledged in order, so the count names them; a
        // failed one ends the acknowledged prefix.
        if outcome.is_ok() && acked.load(SeqCst) == i {
            acked.store(i + 1, SeqCst);
            out.xml_bytes += originals[i].len() as u64;
        }
        out.outcomes.push(outcome);
    }
    out.busy_secs = (wall.elapsed() - paused).as_secs_f64();
    Ok(out)
}

/// Where a round's spans go: set-up's, and one tracer per connection.
struct Tracers {
    setup: Tracer,
    reader: Tracer,
    writer: Tracer,
}

impl Tracers {
    fn new(enabled: bool) -> Tracers {
        Tracers {
            setup: Tracer::new(enabled),
            reader: Tracer::new(enabled),
            writer: Tracer::new(enabled),
        }
    }
}

/// One reader request: the `.get` of document `n`, or the `SELECT`.
fn ask(
    reader: &mut Conn,
    t: &mut Tracer,
    request: Option<usize>,
    select_sql: &str,
) -> Result<(Reply, f64), String> {
    let start = Instant::now();
    let reply = match request {
        Some(n) => t.span("server.get", n as u32, |_| {
            reader.request(&format!(".get {}", doc_id(n)))
        }),
        None => t.span("server.select", 0, |_| reader.request(select_sql)),
    }?;
    Ok((reply, start.elapsed().as_secs_f64()))
}

/// One round, or with `Ask::SetupOnly` its set-up alone. A traced round
/// hands back its directory.
fn round(
    ask_for: Ask,
    seed: u64,
    p: &Params,
    dtd: &Dtd,
    expected: &mut Option<Expected>,
    report: &mut Report,
    tracers: &mut Tracers,
) -> Result<(Round, Option<(Inputs, ScratchDir)>), String> {
    let Tracers {
        setup: setup_t,
        reader: reader_t,
        writer: writer_t,
    } = tracers;
    let traced = reader_t.enabled();
    let mut out = Round::default();
    let start = Instant::now();
    let inputs = setup_t.span("workload.generate", 0, |_| generate(seed, p));
    let Deployment {
        dir,
        mut server,
        scripts,
        select_sql,
        snapshot_secs,
        snapshot_bytes,
    } = deploy(setup_t, &inputs)?;
    out.setup_secs = start.elapsed().as_secs_f64();
    out.snapshot_secs = snapshot_secs;
    out.snapshot_bytes = snapshot_bytes;
    if ask_for == Ask::SetupOnly {
        return Ok((out, None));
    }
    if expected.is_none() {
        *expected = Some(expectations(&inputs, dtd)?);
    }
    let expected = expected.as_ref().expect("just set");

    let mut rng = Prng::seed_from_u64(inputs::doc_seed(seed, 3, 0));
    let mut reader = Conn::open(&server.addr)?;
    let mut served = Vec::new();
    if traced {
        // The quiet server, and the floor of a request.
        for _ in 0..p.quiet_gets {
            let n = rng.gen_range(1..p.preload + 1);
            let (reply, secs) = ask(&mut reader, reader_t, Some(n), &select_sql)?;
            out.quiet.push_secs(secs);
            served.push(Served {
                request: Request::Get { n },
                reply,
                beside_writer: false,
            });
        }
        for _ in 0..p.roundtrips {
            let start = Instant::now();
            let reply = reader_t.span("server.select_one_row", 0, |_| {
                reader.request("SELECT COUNT(*) FROM TabMetadata;")
            })?;
            out.roundtrip.push_secs(start.elapsed().as_secs_f64());
            out.failed_requests += u64::from(!reply.ok);
        }
    }

    // The mixed phase: the writer's fixed count, the reader beside it for
    // as long as that takes.
    let acked = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let mut writer = Conn::open(&server.addr)?;
    let written = std::thread::scope(|scope| -> Result<Written, String> {
        let writer_thread = scope.spawn(|| {
            // Set when the writer ends, however it ends: the reader's loop
            // must not outlive a writer that panicked.
            struct Done<'a>(&'a AtomicBool);
            impl Drop for Done<'_> {
                fn drop(&mut self) {
                    self.0.store(true, SeqCst);
                }
            }
            let _done = Done(&writer_done);
            write_documents(&mut writer, &scripts, &inputs.writer, &acked, writer_t)
        });

        let wall = Instant::now();
        let mut reader_outcome = Ok(());
        let mut j = 0;
        while !writer_done.load(SeqCst) {
            j += 1;
            let acked_before = acked.load(SeqCst);
            let request =
                (j % SELECT_EVERY != 0).then(|| rng.gen_range(1..p.preload + acked_before + 1));
            match ask(&mut reader, reader_t, request, &select_sql) {
                Ok((reply, secs)) => {
                    let beside_writer = acked_before > 0 && !writer_done.load(SeqCst);
                    let request = match request {
                        Some(n) => Request::Get { n },
                        None => Request::Select {
                            acked_before,
                            acked_after: acked.load(SeqCst),
                        },
                    };
                    if beside_writer && reply.ok {
                        match request {
                            Request::Get { .. } => {
                                out.get.push_secs(secs);
                                out.get_bytes += reply.bytes as u64;
                            }
                            Request::Select { .. } => out.select.push_secs(secs),
                        }
                    }
                    served.push(Served {
                        request,
                        reply,
                        beside_writer,
                    });
                }
                Err(e) => {
                    reader_outcome = Err(e);
                    break;
                }
            }
        }
        out.reader_wall = wall.elapsed().as_secs_f64();
        let written = writer_thread
            .join()
            .map_err(|_| "the writer thread panicked".to_string())?;
        reader_outcome.and(written)
    })?;
    out.acked = acked.load(SeqCst);
    out.store = written.store;
    out.statement = written.statement;
    out.commit = written.commit;
    out.stored_xml_bytes = written.xml_bytes;
    out.writer_busy = written.busy_secs;
    for outcome in written.outcomes {
        report.op(outcome);
    }
    if traced {
        let reply = reader.request(".stats")?;
        out.stats_lines = reply
            .body
            .split('#')
            .map(|l| l.trim().to_string())
            .collect();
    }
    drop(reader);
    drop(writer);

    // Checks of what was served, outside the timed sections.
    for s in &served {
        out.failed_requests += u64::from(!s.reply.ok);
        match s.request {
            Request::Get { .. } => report.op(check_get(s, expected, dtd)),
            Request::Select {
                acked_before,
                acked_after,
            } => {
                // The snapshot the SELECT ran on held at least the commits
                // acknowledged before it was sent and at most one more than
                // those acknowledged when its reply arrived.
                let low = expected.rows_after[acked_before];
                let high = expected.rows_after[(acked_after + 1).min(inputs.writer.len())];
                let n = s.reply.count();
                let outcome = if !s.reply.ok {
                    Err(format!("SELECT: {}", s.reply.status))
                } else if (low..=high).contains(&n) {
                    Ok(())
                } else {
                    Err(format!(
                        "SELECT returned {n} rows, the generator's DOM has {low}..={high}"
                    ))
                };
                report.op(outcome);
            }
        }
    }
    report.check(served.iter().any(|s| s.beside_writer), || {
        "no read was answered beside the writer".to_string()
    });

    // Kill, restart, first successful .get. The server's peak memory is
    // that of the phases above: the restarted processes only recover and
    // serve the readback.
    out.peak_rss_mb = server.peak_rss_mb();
    let probe_id = doc_id(p.preload + out.acked);
    for _ in 0..if traced { p.restarts.max(1) } else { 1 } {
        server.kill();
        let start = Instant::now();
        server = ServerProc::start(dir.path())?;
        let reply = Conn::open(&server.addr)?.request(&format!(".get {probe_id}"))?;
        out.recovery.push_secs(start.elapsed().as_secs_f64());
        if !reply.ok {
            return Err(format!("first .get after restart: {}", reply.status));
        }
    }

    // Read back every acknowledged document from the restarted server.
    let first = p.preload + 1;
    let ids: Vec<usize> = (first..first + out.acked).collect();
    let connections = p.readback_connections.max(1);
    let readback: Vec<Result<Vec<Served>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let (ids, addr) = (&ids, &server.addr);
                scope.spawn(move || -> Result<Vec<Served>, String> {
                    let mut conn = Conn::open(addr)?;
                    ids.iter()
                        .skip(c)
                        .step_by(connections)
                        .map(|&n| {
                            let reply = conn.request(&format!(".get {}", doc_id(n)))?;
                            Ok(Served {
                                request: Request::Get { n },
                                reply,
                                beside_writer: false,
                            })
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a readback thread panicked".to_string()))
            })
            .collect()
    });
    for batch in readback {
        for s in batch? {
            report.op(check_get(&s, expected, dtd).map_err(|e| format!("after restart: {e}")));
        }
    }
    server.kill();
    out.disk_bytes = dir_bytes(dir.path());
    out.total_xml_bytes =
        inputs.preload.iter().map(|d| d.len() as u64).sum::<u64>() + out.stored_xml_bytes;
    Ok((out, traced.then_some((inputs, dir))))
}

pub fn untraced(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let p = Params::of(args.smoke);
    let dtd = parse_dtd(university_dtd()).map_err(|e| e.to_string())?;
    let mut expected = None;
    // A round's samples are few and a run's rounds about eight, so
    // everything is pooled over the run: timing samples, and the bytes and
    // busy seconds behind the rates.
    let mut pooled = Round::default();
    let mut peak_rss_mb = Vec::new();
    let mut rounds = measure(args, report, MIN_SETUPS, |ask_for, report, _rounds| {
        let mut off = Tracers::new(false);
        let (r, _) = round(
            ask_for,
            args.seed,
            &p,
            &dtd,
            &mut expected,
            report,
            &mut off,
        )?;
        if ask_for == Ask::SetupOnly {
            return Ok(r.setup_secs);
        }
        peak_rss_mb.push(r.peak_rss_mb);
        pooled.store.extend(&r.store);
        pooled.get.extend(&r.get);
        pooled.select.extend(&r.select);
        pooled.stored_xml_bytes += r.stored_xml_bytes;
        pooled.get_bytes += r.get_bytes;
        Ok(r.setup_secs)
    })?;
    // Rates over the time the connection was busy with such requests, not
    // over the phase: the writer pauses between documents.
    rounds.push(
        "store_mb_per_s",
        pooled.stored_xml_bytes as f64 / 1e6 / (pooled.store.sum() / 1e3),
    );
    rounds.push(
        "retrieve_mb_per_s",
        pooled.get_bytes as f64 / 1e6 / (pooled.get.sum() / 1e3),
    );
    rounds.timing("store_p50_ms", &pooled.store);
    rounds.timing("retrieve_p50_ms", &pooled.get);
    rounds.timing("query_p50_ms", &pooled.select);
    // Peak memory of the program under test: here the server child's peak
    // resident set, its allocator being out of this process's reach. The
    // rounds' median: a round whose reader met fewer commits peaks lower,
    // which is no better.
    rounds.push("peak_alloc_mb", median(&peak_rss_mb));
    report.detail("params", p.json());
    rounds.finish(report);
    Ok(())
}

/// A counter printed by `.stats`: `name value` among the `#` lines.
fn stat(lines: &[String], name: &str) -> f64 {
    counter(lines.iter().map(String::as_str), name).unwrap_or(0) as f64
}

/// `key=value` on the `.stats` reader line.
fn reader_stat(lines: &[String], key: &str) -> f64 {
    lines
        .iter()
        .filter(|l| l.starts_with("reader:"))
        .flat_map(|l| l.split_whitespace())
        .find_map(|word| {
            word.strip_prefix(key)?
                .strip_prefix('=')?
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

pub fn traced(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let p = Params::of(args.smoke);
    let mut tracers = Tracers::new(true);
    let dtd = tracers
        .setup
        .span("dtd.parse_dtd", 0, |_| parse_dtd(university_dtd()))
        .map_err(|e| e.to_string())?;

    // The reference round, untraced, then the same round with spans.
    let mut expected = None;
    let mut off = Tracers::new(false);
    let first = Ask::Round(0);
    let (reference, _) = round(first, args.seed, &p, &dtd, &mut expected, report, &mut off)?;
    let (r, kept) = round(
        first,
        args.seed,
        &p,
        &dtd,
        &mut expected,
        report,
        &mut tracers,
    )?;
    let Tracers {
        setup: mut setup_t,
        reader: reader_t,
        writer: writer_t,
    } = tracers;
    let (inputs, dir) = kept.expect("a traced round keeps its directory");

    // Both connections' spans against both connections' wall: the reader's
    // loop and its quiet requests, and the writer's loop without its pauses,
    // which are the benchmark's own. Overhead compares the writer's stores
    // and the reader's median request at the reference round's counts, the
    // two readers having asked for as long as their writers took.
    let busy = |samples: &Samples| samples.sum() / 1e3;
    let spans_wall = r.reader_wall + busy(&r.quiet) + busy(&r.roundtrip) + r.writer_busy;
    let per_request = |x: &Round| {
        busy(&x.store)
            + x.get.median() / 1e3 * reference.get.len() as f64
            + x.select.median() / 1e3 * reference.select.len() as f64
    };
    let mut client_t = reader_t;
    client_t.absorb(writer_t);
    reconcile(
        report,
        &client_t.spans,
        spans_wall,
        per_request(&r),
        per_request(&reference),
    );

    // The recovered directory in process: what recovery replays, what the
    // MVCC reader costs, and what `.get` costs without the wire.
    let db = setup_t
        .span("ordb.recovery_open", 0, |_| {
            Database::open(dir.path(), MODE)
        })
        .map_err(|e| e.to_string())?;
    let entries_replayed = db
        .recovery_report()
        .map(|x| x.entries_replayed)
        .unwrap_or(0);
    let mut session = setup_t.span("ordb.mvcc.read_session", 0, |_| db.read_session());
    for _ in 0..32 {
        setup_t.span("ordb.mvcc.refresh", 0, |_| session.refresh());
    }
    let schema = schema_via_session(&mut session, SCHEMA, &MappingOptions::default())
        .map_err(|e| e.to_string())?;
    let mut local = Samples::default();
    let mut rng = Prng::seed_from_u64(inputs::doc_seed(args.seed, 3, 0));
    let before = session.stats();
    for _ in 0..p.quiet_gets {
        let id = doc_id(rng.gen_range(1..p.preload + 1));
        let start = Instant::now();
        let (doc, meta) =
            retrieve_via_session(&mut session, &schema, &id).map_err(|e| e.to_string())?;
        let mut sink = Vec::new();
        serialize_to(&doc, &retrieval_serialize_options(&meta), &mut sink)
            .map_err(|e| e.to_string())?;
        local.push_secs(start.elapsed().as_secs_f64());
    }
    let local_delta = session.stats().since(&before);

    // What the wire wrote and recovery rebuilt must be the state that
    // `store_document` leaves for the same documents in the same order.
    let (mut facade, _) = lifecycle::new_system(MODE)?;
    for n in 1..=p.preload + r.acked {
        facade
            .store_document(SCHEMA, inputs.original(n))
            .map_err(|e| e.to_string())?;
    }
    report.check(facade.database().state_dump() == db.state_dump(), || {
        "the recovered directory's state_dump() differs from store_document's for the same documents"
            .to_string()
    });

    let stats = &r.stats_lines;
    let apply_s = busy(&r.statement);
    report.metric("dtd.parse_dtd_ms", setup_t.seconds("dtd.parse_dtd") * 1e3);
    report.metric("core.register_ms", setup_t.seconds("core.register") * 1e3);
    report.metric("workload.generate_s", setup_t.seconds("workload.generate"));
    report.metric("ordb.apply_s", apply_s);
    report.metric("ordb.rows_inserted", stat(stats, "rows_inserted"));
    report.metric(
        "ordb.rows_per_s",
        ratio(stat(stats, "rows_inserted"), apply_s),
    );
    report.metric(
        "ordb.index_maintenance_ops",
        stat(stats, "index_maintenance_ops"),
    );
    report.metric(
        "ordb.text_stmt_us",
        ratio(apply_s * 1e6, r.statement.len() as f64),
    );
    report.metric(
        "ordb.plan_cache_hit_ratio",
        ratio(
            stat(stats, "plan_cache_hits"),
            stat(stats, "plan_cache_hits") + stat(stats, "plan_cache_misses"),
        ),
    );
    report.metric("ordb.query_s", busy(&r.select));
    report.metric(
        "ordb.retrieve_index_probes",
        local_delta.retrieve_index_probes as f64,
    );
    report.metric(
        "ordb.retrieve_table_scans",
        local_delta.retrieve_table_scans as f64,
    );
    report.metric("ordb.commit_p50_ms", r.commit.median());
    report.tail_metric("ordb.commit_p95_ms", &r.commit);
    report.metric(
        "ordb.wal_bytes_per_xml_byte",
        ratio(stat(stats, "wal_bytes"), r.stored_xml_bytes as f64),
    );
    report.metric("ordb.wal_entries", stat(stats, "wal_entries"));
    report.metric(
        "ordb.stored_bytes_per_xml_byte",
        ratio(r.disk_bytes as f64, r.total_xml_bytes as f64),
    );
    report.metric("ordb.snapshot_s", r.snapshot_secs);
    report.metric("ordb.snapshot_bytes", r.snapshot_bytes as f64);
    report.metric(
        "ordb.recovery_open_s",
        setup_t.seconds("ordb.recovery_open"),
    );
    report.metric("ordb.recovery_entries_replayed", entries_replayed as f64);
    report.metric(
        "ordb.mvcc.read_session_ms",
        setup_t.seconds("ordb.mvcc.read_session") * 1e3,
    );
    report.metric(
        "ordb.mvcc.refresh_us",
        median(&setup_t.durations_ms("ordb.mvcc.refresh")) * 1e3,
    );
    report.metric("ordb.mvcc.refresh_fresh", reader_stat(stats, "fresh"));
    report.metric(
        "ordb.mvcc.refresh_incremental",
        reader_stat(stats, "incremental"),
    );
    report.metric("ordb.mvcc.refresh_full", reader_stat(stats, "full"));
    report.metric("server.stmt_roundtrip_us", r.roundtrip.median() * 1e3);
    report.metric("server.get_quiet_p50_ms", r.quiet.median());
    report.metric("server.get_overhead_ms", r.quiet.median() - local.median());
    report.tail_metric("server.store_p95_ms", &r.store);
    report.metric("server.recovery_s", r.recovery.median() / 1e3);
    report.metric(
        "server.bytes_out_per_get",
        ratio(r.get_bytes as f64, r.get.len() as f64),
    );
    report.metric("server.failed_requests", r.failed_requests as f64);
    report.metric("server.peak_rss_mb", r.peak_rss_mb);
    report.counts = BTreeMap::from([
        ("acked_documents".to_string(), r.acked as u64),
        ("recovery.entries_replayed".to_string(), entries_replayed),
    ]);
    report.detail("params", p.json());
    report.detail("in_process_get_p50_ms", Json::Num(local.median()));
    setup_t.absorb(client_t);
    write_trace(report, &setup_t)
}
