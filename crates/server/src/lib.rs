//! A minimal text-protocol front end over the engine.
//!
//! One process owns the single writing [`Database`]; every TCP connection
//! gets its own session. SELECT / EXPLAIN statements run on the
//! connection's private [`ReadSession`] — a committed-state snapshot
//! cache, so queries never block ingest and never observe uncommitted
//! state ([`xmlord_ordb::mvcc`]). Everything else (DDL, DML, COMMIT,
//! ROLLBACK) is serialized through the writer behind a mutex, exactly one
//! statement at a time.
//!
//! # Protocol
//!
//! Line-oriented, UTF-8. The client sends SQL terminated by `;` (possibly
//! spanning multiple lines) or a one-line dot-command. The server answers:
//!
//! ```text
//! | v1 <TAB> v2 ...     one line per result row (SELECT / EXPLAIN)
//! OK <n>                success; n = rows returned (queries) or 0
//! ERR <message>         failure (single line, newlines flattened)
//! # ...                 informational lines (greeting, .stats output)
//! ```
//!
//! A result cell never contains a raw control character that frames the
//! protocol: inside a cell, backslash, newline, tab and carriage return
//! are written as the two characters `\\`, `\n`, `\t`, `\r`. So a line
//! that starts with `OK ` or `ERR ` is always the server's status line,
//! never a stored string, and a tab always separates two cells. Cells
//! without those four characters — every other value — are sent verbatim.
//!
//! Dot-commands: `.help`, `.stats` (the connection's reader statistics and
//! the writer's report), `.epoch` (the reader's pinned committed epochs),
//! `.get <doc-id>` (reconstruct a stored XML document on this connection's
//! snapshot reader and send it down the wire), `.quit`. A command is the
//! whole word: `.get` takes its argument after whitespace.
//!
//! Transaction semantics are the engine's: writes become visible to the
//! read sessions of *all* connections at `COMMIT;`, not before.
//!
//! # Flush discipline
//!
//! Everything a connection sends goes through one [`BufWriter`] sized for
//! a typical document (64 KiB) and is flushed exactly once
//! per response: after the greeting, and after each response's `OK`/`ERR`
//! line — never in the middle of one. With `TCP_NODELAY` set on accept, a
//! reply that fits the buffer leaves in one write and one segment train,
//! instead of one small segment per line (or per serializer fragment of a
//! `.get`) with the last of them waiting out the peer's delayed ACK.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

use xml2ordb::pipeline::schema_via_session;
use xml2ordb::retriever::write_via_session;
use xml2ordb::{MappedSchema, MappingOptions};
use xmlord_ordb::mvcc::ReadSession;
use xmlord_ordb::{Database, QueryResult};

/// The shared writer handle: every connection's write path funnels
/// through this mutex; read paths never take it (they refresh against the
/// engine's internal lock instead).
pub type SharedWriter = Arc<Mutex<Database>>;

/// A bound, not-yet-serving server. [`Server::bind`] to create,
/// [`Server::run`] to serve forever, or [`Server::spawn`] to serve from a
/// background thread (tests bind port 0 and spawn).
pub struct Server {
    listener: TcpListener,
    writer: SharedWriter,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7878"`, or port 0 for an ephemeral
    /// port) around an already-constructed database.
    pub fn bind(addr: &str, db: Database) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, writer: Arc::new(Mutex::new(db)) })
    }

    /// The bound address — the way to learn the real port after binding 0.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared writer handle (for embedding scenarios that pre-load
    /// data or inspect state while the server runs).
    pub fn writer(&self) -> SharedWriter {
        Arc::clone(&self.writer)
    }

    /// Accept loop: one thread per connection, forever. Accept errors on
    /// an individual connection are logged to stderr and skipped.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            match stream {
                Ok(stream) => {
                    let writer = Arc::clone(&self.writer);
                    thread::spawn(move || {
                        let peer = stream.peer_addr().map(|a| a.to_string());
                        if let Err(e) = serve_stream(stream, writer) {
                            eprintln!(
                                "connection {} ended: {e}",
                                peer.as_deref().unwrap_or("?")
                            );
                        }
                    });
                }
                Err(e) => eprintln!("accept failed: {e}"),
            }
        }
        Ok(())
    }

    /// Run the accept loop on a background thread; returns the handle the
    /// caller can use to reach the shared writer. The thread serves until
    /// the process exits.
    pub fn spawn(self) -> SharedWriter {
        let writer = Arc::clone(&self.writer);
        thread::spawn(move || {
            let _ = self.run();
        });
        writer
    }
}

/// Capacity of a connection's reply buffer: a typical stored document
/// (and any ordinary result set) fits, so its reply is one write.
const REPLY_BUFFER_BYTES: usize = 64 * 1024;

/// Serve one accepted socket: Nagle off, requests read through a
/// [`BufReader`], replies written only through the connection's
/// [`BufWriter`].
fn serve_stream(stream: TcpStream, writer: SharedWriter) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let out = BufWriter::with_capacity(REPLY_BUFFER_BYTES, stream.try_clone()?);
    serve_connection(BufReader::new(stream), out, writer)
}

/// Serve one connection to completion: greeting, then a
/// statement/dot-command loop until `.quit` or EOF. `out` is flushed once
/// per response (see the module docs) — generic over both ends so a test
/// can drive a script through in-memory buffers and count the flushes.
pub fn serve_connection(
    input: impl BufRead,
    mut out: impl Write,
    writer: SharedWriter,
) -> io::Result<()> {
    let mut reader =
        writer.lock().unwrap_or_else(PoisonError::into_inner).read_session();
    // Per-connection schema cache for `.get`: document-type schemas are
    // rebuilt from the registry rows in this reader's snapshot on first
    // use, then reused for the connection's lifetime.
    let mut schemas: HashMap<String, MappedSchema> = HashMap::new();
    // Per-connection `.get` reply buffer, reused by every document.
    let mut document = String::new();
    writeln!(out, "# xmlord server ready (statements end with ';', .help for commands)")?;
    out.flush()?;

    let mut pending = String::new();
    for line in input.lines() {
        let line = line?;
        let trimmed = line.trim();
        if pending.is_empty() && trimmed.starts_with('.') {
            let flow = run_dot_command(
                trimmed,
                &mut out,
                &mut reader,
                &writer,
                &mut schemas,
                &mut document,
            )?;
            out.flush()?;
            match flow {
                ControlFlow::Continue => continue,
                ControlFlow::Quit => break,
            }
        }
        if !pending.is_empty() {
            pending.push('\n');
        }
        pending.push_str(&line);
        let statement = pending.trim();
        if !statement.ends_with(';') {
            continue;
        }
        let statement = statement.trim_end_matches(';').trim().to_string();
        pending.clear();
        if statement.is_empty() {
            writeln!(out, "OK 0")?;
        } else {
            respond(&mut out, &statement, &mut reader, &writer)?;
        }
        out.flush()?;
    }
    Ok(())
}

enum ControlFlow {
    Continue,
    Quit,
}

fn run_dot_command(
    cmd: &str,
    out: &mut impl Write,
    reader: &mut ReadSession,
    writer: &SharedWriter,
    schemas: &mut HashMap<String, MappedSchema>,
    document: &mut String,
) -> io::Result<ControlFlow> {
    // `.get` alone or followed by whitespace; `.getfoo` is not `.get foo`.
    let get_arg = cmd
        .strip_prefix(".get")
        .filter(|rest| rest.is_empty() || rest.starts_with(char::is_whitespace));
    if let Some(arg) = get_arg {
        let doc_id = arg.trim();
        if doc_id.is_empty() {
            writeln!(out, "ERR usage: .get <doc-id>")?;
        } else {
            get_document(doc_id, out, reader, schemas, document)?;
        }
        return Ok(ControlFlow::Continue);
    }
    match cmd {
        ".quit" | ".exit" => {
            writeln!(out, "OK 0")?;
            return Ok(ControlFlow::Quit);
        }
        ".help" => {
            writeln!(out, "# statements: any engine SQL terminated by ';'")?;
            writeln!(out, "# SELECT/EXPLAIN run on this connection's snapshot reader;")?;
            writeln!(out, "# other statements go to the shared writer (COMMIT publishes)")?;
            writeln!(out, "# dot-commands: .help .stats .epoch .get <doc-id> .quit")?;
            writeln!(out, "OK 0")?;
        }
        ".stats" => {
            let stats = reader.stats();
            let (fresh, incremental, full) = reader.refresh_counts();
            writeln!(
                out,
                "# reader: statements={} rows_scanned={} refreshes fresh={fresh} \
                 incremental={incremental} full={full}",
                stats.statements, stats.rows_scanned
            )?;
            let report = writer.lock().unwrap_or_else(PoisonError::into_inner).stats_report();
            for line in report.lines() {
                writeln!(out, "# {line}")?;
            }
            writeln!(out, "OK 0")?;
        }
        ".epoch" => {
            let (storage, catalog) = reader.refresh();
            writeln!(out, "# pinned storage epoch {storage}, catalog epoch {catalog}")?;
            writeln!(out, "OK 0")?;
        }
        other => {
            writeln!(out, "ERR unknown command {other} (try .help)")?;
        }
    }
    Ok(ControlFlow::Continue)
}

/// `.get <doc-id>`: reconstruct a stored XML document on this
/// connection's snapshot reader, the walk writing its text straight into
/// `document` (the connection's reusable buffer, no DOM built and no
/// writer lock), then send it with its `OK 1` in one write. All or
/// nothing: a walk that fails — a dangling REF, say — replies `ERR` alone,
/// with no byte of the document before it. The reader refreshes first, so
/// the response reflects the latest *committed* state, like any SELECT.
fn get_document(
    doc_id: &str,
    out: &mut impl Write,
    reader: &mut ReadSession,
    schemas: &mut HashMap<String, MappedSchema>,
    document: &mut String,
) -> io::Result<()> {
    // DocIDs are `<schema>-<n>` (`Xml2OrDb::store_document`).
    let Some((schema_name, _)) = doc_id.rsplit_once('-') else {
        return write_err(out, &format!("malformed document id '{doc_id}' (want <schema>-<n>)"));
    };
    if !schemas.contains_key(schema_name) {
        match schema_via_session(reader, schema_name, &MappingOptions::default()) {
            Ok(schema) => {
                schemas.insert(schema_name.to_string(), schema);
            }
            Err(e) => return write_err(out, &e.to_string()),
        }
    }
    let schema = &schemas[schema_name];
    document.clear();
    match write_via_session(reader, schema, doc_id, document) {
        Ok(()) => {
            document.push_str("\nOK 1\n");
            out.write_all(document.as_bytes())
        }
        Err(e) => write_err(out, &e.to_string()),
    }
}

/// Execute one statement and write its response. Queries go to the
/// snapshot reader; everything else locks the writer for the duration of
/// the single statement.
fn respond(
    out: &mut impl Write,
    statement: &str,
    reader: &mut ReadSession,
    writer: &SharedWriter,
) -> io::Result<()> {
    if is_read_only(statement) {
        match reader.query(statement) {
            Ok(result) => write_result(out, &result),
            Err(e) => write_err(out, &e.to_string()),
        }
    } else {
        let outcome =
            writer.lock().unwrap_or_else(PoisonError::into_inner).execute(statement);
        match outcome {
            Ok(Some(result)) => write_result(out, &result),
            Ok(None) => writeln!(out, "OK 0"),
            Err(e) => write_err(out, &e.to_string()),
        }
    }
}

/// Route on the leading keyword: SELECT and EXPLAIN are served by the
/// snapshot reader. The engine re-validates either way — a mis-routed
/// write would be rejected by the read session, never silently applied.
fn is_read_only(statement: &str) -> bool {
    let first = statement.split_whitespace().next().unwrap_or("");
    first.eq_ignore_ascii_case("SELECT") || first.eq_ignore_ascii_case("EXPLAIN")
}

fn write_result(out: &mut impl Write, result: &QueryResult) -> io::Result<()> {
    for row in &result.rows {
        let cells: Vec<String> = row.iter().map(|v| escape_cell(v.to_string())).collect();
        writeln!(out, "| {}", cells.join("\t"))?;
    }
    writeln!(out, "OK {}", result.rows.len())
}

/// Escape the characters that frame the protocol (module docs): a cell
/// holding none of them — nearly every cell — passes through untouched.
fn escape_cell(cell: String) -> String {
    if !cell.contains(['\\', '\n', '\t', '\r']) {
        return cell;
    }
    let mut escaped = String::with_capacity(cell.len() + 2);
    for c in cell.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\t' => escaped.push_str("\\t"),
            '\r' => escaped.push_str("\\r"),
            c => escaped.push(c),
        }
    }
    escaped
}

fn write_err(out: &mut impl Write, message: &str) -> io::Result<()> {
    writeln!(out, "ERR {}", message.replace('\n', " "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xml2ordb::pipeline::Xml2OrDb;
    use xmlord_ordb::DbMode;

    /// A writer that remembers what arrived between flushes.
    #[derive(Default)]
    struct FlushLog {
        flushed: Vec<String>,
        unflushed: Vec<u8>,
    }

    impl Write for &mut FlushLog {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.unflushed.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            let chunk = String::from_utf8(std::mem::take(&mut self.unflushed)).unwrap();
            self.flushed.push(chunk);
            Ok(())
        }
    }

    /// Serve `script` on a connection over in-memory buffers; returns what
    /// was sent, one entry per flush.
    fn serve(db: Database, script: &str) -> Vec<String> {
        let mut log = FlushLog::default();
        serve_connection(script.as_bytes(), &mut log, Arc::new(Mutex::new(db))).unwrap();
        assert!(log.unflushed.is_empty(), "bytes left unflushed: {:?}", log.unflushed);
        log.flushed
    }

    /// The smoke test's conversation on one connection: DDL, DML, COMMIT
    /// visibility, a multi-line statement, EXPLAIN, errors, every
    /// dot-command with a deterministic reply, `.get` of a stored document.
    const SMOKE_SCRIPT: &str = "\
CREATE TYPE Type_P AS OBJECT(name VARCHAR(20), dept VARCHAR(20));
CREATE TABLE TabP OF Type_P;
COMMIT;
INSERT INTO TabP VALUES (Type_P('Kudrass', 'DB'));
SELECT name FROM TabP;
COMMIT;
SELECT name FROM TabP;
INSERT INTO TabP VALUES (Type_P('Conrad', 'DB'));
COMMIT;
SELECT name, dept FROM TabP
ORDER BY name;
EXPLAIN SELECT name FROM TabP;
SELECT nope FROM TabMissing;
SELECT COUNT(*) FROM TabP;
;
DELETE FROM TabP WHERE name = 'Conrad';
COMMIT;
SELECT COUNT(*) FROM TabP;
.epoch
.help
.nonsense
.get
.get nonsense
.get uni-1
.get uni-100
.quit
SELECT 'never reached' FROM TabP;
";

    /// Every byte the server sent for [`SMOKE_SCRIPT`] over TCP before
    /// replies were buffered (captured from a build of that commit).
    const SMOKE_TRANSCRIPT: &str = "\
# xmlord server ready (statements end with ';', .help for commands)
OK 0
OK 0
OK 0
OK 0
OK 0
OK 0
| Kudrass
OK 1
OK 0
OK 0
| Conrad\tDB
| Kudrass\tDB
OK 2
| EXPLAIN (Oracle9)
| SELECT
|   from[0] TabP: scan object table TabP OF Type_P
|   project name
|   read-only: no undo-log records
OK 5
ERR table or view 'TabMissing' does not exist
| 2
OK 1
OK 0
OK 0
OK 0
| 1
OK 1
# pinned storage epoch 6, catalog epoch 2
OK 0
# statements: any engine SQL terminated by ';'
# SELECT/EXPLAIN run on this connection's snapshot reader;
# other statements go to the shared writer (COMMIT publishes)
# dot-commands: .help .stats .epoch .get <doc-id> .quit
OK 0
ERR unknown command .nonsense (try .help)
ERR usage: .get <doc-id>
ERR malformed document id 'nonsense' (want <schema>-<n>)
<?xml version=\"1.0\"?>
<University><Student StudNr=\"4711\"><Name>Ada</Name></Student><Student StudNr=\"4712\"><Name>Grace</Name></Student></University>
OK 1
ERR no document with id 'uni-100'
OK 0
";

    fn uni_database() -> Database {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd(
            "uni",
            "<!ELEMENT University (Student*)>\n\
             <!ELEMENT Student (Name)>\n\
             <!ATTLIST Student StudNr CDATA #REQUIRED>\n\
             <!ELEMENT Name (#PCDATA)>",
            "University",
        )
        .unwrap();
        let doc_id = sys
            .store_document(
                "uni",
                "<?xml version=\"1.0\"?>\
                 <University><Student StudNr=\"4711\"><Name>Ada</Name></Student>\
                 <Student StudNr=\"4712\"><Name>Grace</Name></Student></University>",
            )
            .unwrap();
        assert_eq!(doc_id, "uni-1");
        sys.into_database()
    }

    #[test]
    fn a_response_is_flushed_once_and_the_smoke_transcript_is_unchanged() {
        let responses = serve(uni_database(), SMOKE_SCRIPT);
        // Greeting plus one response per request up to and including
        // `.quit`; nothing after it is served.
        let requests = SMOKE_SCRIPT.lines().filter(|l| l.ends_with(';') || l.starts_with('.'));
        assert_eq!(responses.len(), 1 + requests.count() - 1);
        for response in &responses[1..] {
            // One flush per response and none mid-response: every flushed
            // chunk is whole lines ending in its only status line.
            let status = |l: &str| l.starts_with("OK ") || l.starts_with("ERR ");
            assert!(response.ends_with('\n'), "{response:?}");
            assert_eq!(response.lines().filter(|l| status(l)).count(), 1, "{response:?}");
            assert!(response.lines().last().is_some_and(status), "{response:?}");
        }
        assert_eq!(responses.concat(), SMOKE_TRANSCRIPT);
    }

    /// A stored string holding a newline and `OK 0` used to arrive as a
    /// status line of its own, leaving the client one reply out of step.
    #[test]
    fn a_stored_string_cannot_forge_a_status_line() {
        let responses = serve(
            Database::new(DbMode::Oracle9),
            "CREATE TABLE T (a VARCHAR(40), b VARCHAR(40));\n\
             INSERT INTO T VALUES ('x\nOK 0', 'tab\there \\ cr\rend');\n\
             COMMIT;\n\
             SELECT a, b FROM T;\n\
             SELECT COUNT(*) FROM T;\n",
        );
        assert_eq!(
            responses[1..],
            [
                "OK 0\n",
                "OK 0\n",
                "OK 0\n",
                "| x\\nOK 0\ttab\\there \\\\ cr\\rend\nOK 1\n",
                "| 1\nOK 1\n",
            ]
        );
    }

    /// `.get` is a whole word: `.getuni-1` is an unknown command, not
    /// `.get uni-1`.
    #[test]
    fn get_requires_a_separator_before_its_argument() {
        let responses = serve(uni_database(), ".getuni-1\n.get\tuni-1\n.get\n");
        assert_eq!(responses[1], "ERR unknown command .getuni-1 (try .help)\n");
        assert!(responses[2].ends_with("</University>\nOK 1\n"), "{:?}", responses[2]);
        assert_eq!(responses[3], "ERR usage: .get <doc-id>\n");
    }

    /// A `.get` whose walk fails partway — here on a REF to a professor
    /// deleted after the document was stored — replies `ERR` alone: the
    /// document is rendered whole before any of it is sent, so no prefix of
    /// it precedes the error line.
    #[test]
    fn a_get_whose_walk_fails_sends_no_document_bytes() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd(
            "prof",
            "<!ELEMENT Professor (PName,Dept)>\n\
             <!ELEMENT Dept (DName,Professor*)>\n\
             <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>",
            "Professor",
        )
        .unwrap();
        let doc_id = sys
            .store_document(
                "prof",
                "<Professor><PName>Kudrass</PName><Dept><DName>CS</DName>\
                 <Professor><PName>Jaeger</PName><Dept><DName>CAD</DName></Dept></Professor>\
                 </Dept></Professor>",
            )
            .unwrap();
        let script = format!(
            ".get {doc_id}\n\
             DELETE FROM TabProfessor WHERE attrPName = 'Jaeger';\n\
             COMMIT;\n\
             .get {doc_id}\n"
        );
        let responses = serve(sys.into_database(), &script);
        assert!(responses[1].starts_with("<Professor><PName>Kudrass</PName>"), "{responses:?}");
        assert_eq!(responses[2..4], ["OK 0\n", "OK 0\n"], "{responses:?}");
        assert_eq!(responses[4], "ERR database error: REF does not point to a live row object\n");
    }
}
