//! The high-level façade: the paper's `XML2Oracle` utility as an API.
//!
//! Fig. 1's flow, end to end: parse the DTD (DTD parser), parse and
//! validate the document (XML parser + validity check), generate the
//! object-relational schema (Fig. 2 algorithm), execute the generated SQL
//! script, load documents (single nested INSERT on Oracle 9), maintain the
//! §5 meta-tables, and retrieve documents back out — with §6.1 entity
//! re-substitution.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use xmlord_dtd::ast::Dtd;
use xmlord_dtd::{parse_dtd, validate};
use xmlord_ordb::{Database, DbMode, ExecStats, Ident, RecoveryPolicy, ResultMode, SpanToken};
use xmlord_xml::serializer::SerializeOptions;
use xmlord_xml::{Document, QName};

use crate::ddlgen::create_script;
use crate::error::MappingError;
use crate::loader::{load_ops, plan_batches, LoadUnit};
use crate::maplint::MapLintReport;
use crate::metadata::{
    metadata_ddl, metadata_insert, read_schema_registry, schema_registry_insert,
    DocMetadata, SchemaRegistryRow,
};
use crate::model::{MappedSchema, MappingOptions};
use crate::retriever::{retrieve_from, write_document, write_snapshot};
use crate::schemagen::{generate_schema, IdrefTargets};

/// One registered document type (DTD + generated schema).
#[derive(Debug, Clone)]
pub struct RegisteredSchema {
    pub name: String,
    pub dtd: Dtd,
    pub root: String,
    pub schema: MappedSchema,
    pub create_script: String,
}

/// The XML document management system.
#[derive(Debug)]
pub struct Xml2OrDb {
    db: Database,
    options: MappingOptions,
    /// Assign `S1`, `S2`, … schema ids automatically per registered DTD.
    auto_schema_ids: bool,
    /// Shared, so storing a document holds its schema without copying it.
    schemas: BTreeMap<String, Arc<RegisteredSchema>>,
    /// doc id → schema name.
    documents: BTreeMap<String, String>,
    /// Per-schema document counters (DocIDs are `<schema>-<n>`).
    doc_counters: BTreeMap<String, u64>,
    schema_counter: u64,
    meta_ready: bool,
    /// Shredding workers for [`Self::store_documents`].
    load_workers: usize,
}

impl Xml2OrDb {
    /// A system with default options on the given engine mode.
    pub fn new(mode: DbMode) -> Xml2OrDb {
        Xml2OrDb::with_options(mode, MappingOptions::default())
    }

    pub fn with_options(mode: DbMode, options: MappingOptions) -> Xml2OrDb {
        Xml2OrDb::from_database(Database::new(mode), options)
    }

    /// Open (or create) a durable document store in directory `dir`.
    ///
    /// The engine recovers schema and data from its snapshot + write-ahead
    /// log ([`Database::open`]); the mapping layer then re-derives every
    /// registered schema from the persistent registry (`TabSchemas`) — the
    /// Fig. 2 mapping is deterministic, so the rebuilt mappings agree with
    /// the recovered tables — and re-counts stored documents from the §5
    /// meta-table.
    pub fn open(dir: impl AsRef<Path>, mode: DbMode) -> Result<Xml2OrDb, MappingError> {
        Xml2OrDb::open_with_options(dir, mode, MappingOptions::default())
    }

    /// [`Self::open`] with explicit [`MappingOptions`]. The options must
    /// match the ones the store was created with — the registry records a
    /// schema's inputs (source text, root, SchemaID, IDREF targets), not
    /// the global option set.
    pub fn open_with_options(
        dir: impl AsRef<Path>,
        mode: DbMode,
        options: MappingOptions,
    ) -> Result<Xml2OrDb, MappingError> {
        let db = Database::open(dir, mode).map_err(MappingError::Db)?;
        let mut sys = Xml2OrDb::from_database(db, options);
        sys.rehydrate()?;
        Ok(sys)
    }

    fn from_database(db: Database, options: MappingOptions) -> Xml2OrDb {
        Xml2OrDb {
            db,
            options,
            auto_schema_ids: false,
            schemas: BTreeMap::new(),
            documents: BTreeMap::new(),
            doc_counters: BTreeMap::new(),
            schema_counter: 0,
            meta_ready: false,
            load_workers: 1,
        }
    }

    /// Rebuild the in-memory registries from a reopened database.
    fn rehydrate(&mut self) -> Result<(), MappingError> {
        if self.db.catalog().get_table(&Ident::internal("TabSchemas")).is_none() {
            return Ok(()); // fresh store: nothing was ever registered
        }
        self.meta_ready = true;
        for row in read_schema_registry(&mut self.db)? {
            let schema_id = (!row.schema_id.is_empty()).then(|| row.schema_id.clone());
            if let Some(n) = row.schema_id.strip_prefix('S').and_then(|s| s.parse::<u64>().ok()) {
                self.schema_counter = self.schema_counter.max(n);
            }
            let targets: IdrefTargets = row
                .idref_targets
                .iter()
                .map(|(e, a, t)| ((e.clone(), a.clone()), t.clone()))
                .collect();
            let (dtd, schema, script) = match row.kind.as_str() {
                "xsd" => self.build_xsd_schema(&row.source, &row.root, schema_id)?,
                _ => self.build_dtd_schema(&row.source, &row.root, schema_id, &targets)?,
            };
            self.schemas.insert(
                row.name.clone(),
                Arc::new(RegisteredSchema {
                    name: row.name.clone(),
                    dtd,
                    root: row.root.clone(),
                    schema,
                    create_script: script,
                }),
            );
        }
        self.schema_counter = self.schema_counter.max(self.schemas.len() as u64);
        if self.db.catalog().get_table(&Ident::internal("TabMetadata")).is_none() {
            return Ok(()); // meta-table dropped out-of-band: no documents to recount
        }
        let result = self
            .db
            .query("SELECT m.DocID FROM TabMetadata m")
            .map_err(MappingError::Db)?;
        for row in &result.rows {
            let Some(doc_id) = row[0].as_str() else { continue };
            // DocIDs are `<schema>-<n>` ([`Self::store_document`]).
            let Some((schema_name, n)) = doc_id.rsplit_once('-') else { continue };
            let Ok(n) = n.parse::<u64>() else { continue };
            if !self.schemas.contains_key(schema_name) {
                continue;
            }
            self.documents.insert(doc_id.to_string(), schema_name.to_string());
            let counter = self.doc_counters.entry(schema_name.to_string()).or_insert(0);
            *counter = (*counter).max(n);
        }
        Ok(())
    }

    /// Number of shredding workers [`Self::store_documents`] may use
    /// (clamped to at least 1; default 1 — no threads are spawned then).
    pub fn set_load_workers(&mut self, workers: usize) {
        self.load_workers = workers.max(1);
    }

    /// Enable §5 SchemaIDs (`S1`, `S2`, …) so DTDs with identical element
    /// names can coexist in one database.
    pub fn with_auto_schema_ids(mut self) -> Xml2OrDb {
        self.auto_schema_ids = true;
        self
    }

    pub fn mode(&self) -> DbMode {
        self.db.mode()
    }

    /// Direct access to the underlying database (for ad-hoc SQL).
    pub fn database(&mut self) -> &mut Database {
        &mut self.db
    }

    pub fn stats(&self) -> ExecStats {
        self.db.stats()
    }

    pub fn schema(&self, name: &str) -> Option<&RegisteredSchema> {
        self.schemas.get(name).map(Arc::as_ref)
    }

    /// The registered schema `name`, shared.
    fn registered(&self, name: &str) -> Result<Arc<RegisteredSchema>, MappingError> {
        self.schemas
            .get(name)
            .cloned()
            .ok_or_else(|| MappingError::Unsupported(format!("schema '{name}' is not registered")))
    }

    /// Open a trace span, formatting its detail only when tracing is on.
    fn span(&self, phase: &'static str, detail: impl FnOnce() -> String) -> Option<SpanToken> {
        self.db.trace_enabled().then(|| self.db.trace_begin(phase, detail())).flatten()
    }

    /// Run the mapping-level lints ([`crate::maplint::lint_schema`]) and the
    /// catalog-drift check ([`crate::maplint::check_catalog_drift`]) over a
    /// registered schema, against the live catalog. Drift Errors mean a
    /// later [`Self::store_document`] for this schema would fail at load
    /// time: someone altered the backing objects underneath the mapping.
    pub fn maplint(&self, schema_name: &str) -> Result<MapLintReport, MappingError> {
        let reg = self.schemas.get(schema_name).ok_or_else(|| {
            MappingError::InconsistentMapping(format!("schema '{schema_name}' is not registered"))
        })?;
        let mut report = crate::maplint::lint_schema(&reg.schema)?;
        let drift = crate::maplint::check_catalog_drift(&reg.schema, &self.db.catalog())?;
        report.diagnostics.extend(drift.diagnostics);
        Ok(report)
    }

    /// Parse a DTD, run the Fig. 2 mapping for `root`, and execute the
    /// generated DDL. Returns the registered schema.
    pub fn register_dtd(
        &mut self,
        name: &str,
        dtd_text: &str,
        root: &str,
    ) -> Result<&RegisteredSchema, MappingError> {
        self.register_dtd_with_idrefs(name, dtd_text, root, &IdrefTargets::new())
    }

    /// Like [`Self::register_dtd`], but derives §4.4 IDREF targets from a
    /// sample document first (the paper: "This kind of information cannot be
    /// captured from the DTD, rather from the XML document").
    pub fn register_dtd_with_sample(
        &mut self,
        name: &str,
        dtd_text: &str,
        root: &str,
        sample_xml: &str,
    ) -> Result<&RegisteredSchema, MappingError> {
        let dtd = parse_dtd(dtd_text).map_err(MappingError::Dtd)?;
        let doc = xmlord_xml::parse_with_catalog(sample_xml, dtd.entity_catalog())
            .map_err(MappingError::Xml)?;
        let report = validate(&doc, &dtd);
        if !report.is_valid() {
            return Err(MappingError::Invalid(report.errors));
        }
        let mut targets = IdrefTargets::new();
        for (node, attr, id) in &report.idrefs {
            if let Some(target_node) = report.ids.get(id) {
                targets.insert(
                    (doc.name(*node).as_raw().to_string(), attr.clone()),
                    doc.name(*target_node).as_raw().to_string(),
                );
            }
        }
        self.register_dtd_with_idrefs(name, dtd_text, root, &targets)
    }

    /// Register an **XML Schema** instead of a DTD — the paper's §7
    /// future-work item. The XSD subset is analyzed into the same structural
    /// model, and its simple types become real column types: `xs:integer` →
    /// `NUMBER`, `xs:date` → `DATE`, `maxLength` restrictions → bounded
    /// `VARCHAR(n)` — lifting the §7 drawback "simple elements and
    /// attributes can only be assigned the VARCHAR datatype".
    pub fn register_xsd(
        &mut self,
        name: &str,
        xsd_text: &str,
        root: &str,
    ) -> Result<&RegisteredSchema, MappingError> {
        if self.schemas.contains_key(name) {
            return Err(MappingError::Unsupported(format!(
                "schema '{name}' is already registered"
            )));
        }
        self.schema_counter += 1;
        let schema_id = self.auto_schema_id();
        let (dtd, schema, script) = self.build_xsd_schema(xsd_text, root, schema_id)?;
        self.install_schema(name, root, "xsd", xsd_text, dtd, schema, script, &IdrefTargets::new())
    }

    pub fn register_dtd_with_idrefs(
        &mut self,
        name: &str,
        dtd_text: &str,
        root: &str,
        idref_targets: &IdrefTargets,
    ) -> Result<&RegisteredSchema, MappingError> {
        if self.schemas.contains_key(name) {
            return Err(MappingError::Unsupported(format!(
                "schema '{name}' is already registered"
            )));
        }
        self.schema_counter += 1;
        let schema_id = self.auto_schema_id();
        let (dtd, schema, script) =
            self.build_dtd_schema(dtd_text, root, schema_id, idref_targets)?;
        self.install_schema(name, root, "dtd", dtd_text, dtd, schema, script, idref_targets)
    }

    fn auto_schema_id(&self) -> Option<String> {
        (self.auto_schema_ids && self.options.schema_id.is_none())
            .then(|| format!("S{}", self.schema_counter))
    }

    /// Derive a DTD schema's mapping — a pure function of the DTD text, the
    /// root, the SchemaID and the IDREF targets, so registration and
    /// [`Self::rehydrate`] share it and agree byte-for-byte.
    fn build_dtd_schema(
        &self,
        dtd_text: &str,
        root: &str,
        schema_id: Option<String>,
        idref_targets: &IdrefTargets,
    ) -> Result<(Dtd, MappedSchema, String), MappingError> {
        derive_dtd_schema(dtd_text, root, schema_id, idref_targets, self.db.mode(), &self.options)
    }

    /// XSD counterpart of [`Self::build_dtd_schema`].
    fn build_xsd_schema(
        &self,
        xsd_text: &str,
        root: &str,
        schema_id: Option<String>,
    ) -> Result<(Dtd, MappedSchema, String), MappingError> {
        derive_xsd_schema(xsd_text, root, schema_id, self.db.mode(), &self.options)
    }

    /// Execute a derived schema's DDL plus its `TabSchemas` registry row as
    /// one unit, then record it in the in-memory registry. A failure in
    /// either leaves no trace of the registration.
    #[allow(clippy::too_many_arguments)]
    fn install_schema(
        &mut self,
        name: &str,
        root: &str,
        kind: &str,
        source: &str,
        dtd: Dtd,
        schema: MappedSchema,
        script: String,
        idref_targets: &IdrefTargets,
    ) -> Result<&RegisteredSchema, MappingError> {
        self.ensure_meta_schema()?;
        let mark = self.db.txn_mark();
        let row = SchemaRegistryRow {
            name: name.to_string(),
            root: root.to_string(),
            kind: kind.to_string(),
            source: source.to_string(),
            schema_id: schema.options.schema_id.clone().unwrap_or_default(),
            idref_targets: idref_targets
                .iter()
                .map(|((e, a), t)| (e.clone(), a.clone(), t.clone()))
                .collect(),
        };
        let result = self
            .run_atomic(&script)
            .and_then(|()| {
                self.db
                    .execute(&schema_registry_insert(&row))
                    .map(|_| ())
                    .map_err(MappingError::Db)
            })
            // Registration is durable on its own: a crash after this point
            // must not lose a schema whose documents it later accepts.
            .and_then(|()| self.db.commit().map_err(MappingError::Db));
        if let Err(e) = result {
            self.db.rollback_to_mark(mark);
            return Err(e);
        }
        let registered = RegisteredSchema {
            name: name.to_string(),
            dtd,
            root: root.to_string(),
            schema,
            create_script: script,
        };
        self.schemas.insert(name.to_string(), Arc::new(registered));
        Ok(&self.schemas[name])
    }

    fn ensure_meta_schema(&mut self) -> Result<(), MappingError> {
        if !self.meta_ready {
            self.run_atomic(metadata_ddl())?;
            self.meta_ready = true;
        }
        Ok(())
    }

    /// Execute a generated script all-or-nothing: a failure anywhere rolls
    /// the whole script back, so a half-created schema never leaks into the
    /// database (the paper's CreateSchema step either fully succeeds or
    /// leaves no trace).
    fn run_atomic(&mut self, sql: &str) -> Result<(), MappingError> {
        // Generated DDL is executed for effect only — don't materialize
        // per-statement results.
        let outcome = self
            .db
            .execute_script_opts(sql, RecoveryPolicy::Atomic, ResultMode::Discard)
            .map_err(MappingError::Db)?;
        match outcome.errors.into_iter().next() {
            Some(e) => Err(MappingError::Db(e.error)),
            None => Ok(()),
        }
    }

    /// Store a document under the named schema: well-formedness check,
    /// validity check, attribute-default injection, INSERT generation and
    /// execution, meta-table maintenance. Returns the assigned DocID.
    pub fn store_document(
        &mut self,
        schema_name: &str,
        xml_text: &str,
    ) -> Result<String, MappingError> {
        self.store_document_named(schema_name, xml_text, "", "")
    }

    /// [`Self::store_document`] with explicit DocName/URL meta-data: the
    /// one-document case of [`Self::store_documents`] — the same pieces in
    /// the same bracket — run on this thread with a span per phase.
    pub fn store_document_named(
        &mut self,
        schema_name: &str,
        xml_text: &str,
        doc_name: &str,
        url: &str,
    ) -> Result<String, MappingError> {
        let registered = self.registered(schema_name)?;
        let span = self.span("shred", || format!("{schema_name}: parse + validate"));
        let checked = parse_checked(&registered, xml_text);
        self.db.trace_end(span);
        let doc = checked?;

        let doc_id = self.next_doc_ids(schema_name, 1).remove(0);
        let span = self.span("generate", || format!("{doc_id}: INSERT script"));
        let generated = generate_load(&registered, &doc, &doc_id, doc_name, url);
        self.db.trace_end(span);
        let (load, meta) = generated?;

        let span = self.span("load", || doc_id.clone());
        let result = self.load_atomically(schema_name, std::slice::from_ref(&doc_id), |db| {
            apply_load(db, &load, &meta)
        });
        self.db.trace_end(span);
        result.map(|()| doc_id)
    }

    /// Store many documents under one schema in a single transaction.
    ///
    /// Parsing, validation, shredding and binding run on up to
    /// [`Self::set_load_workers`] worker threads; a single writer applies
    /// each document's batches in submission order, so the resulting
    /// database state is identical to storing the documents one by one —
    /// regardless of the worker count. All-or-nothing: any failure rolls
    /// the whole bulk load back and no DocIDs are consumed.
    ///
    /// Returns the assigned DocIDs, in input order.
    pub fn store_documents(
        &mut self,
        schema_name: &str,
        docs: &[(&str, &str)],
    ) -> Result<Vec<String>, MappingError> {
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let registered = self.registered(schema_name)?;
        let doc_ids = self.next_doc_ids(schema_name, docs.len());
        let workers = self.load_workers.min(docs.len());
        let span = self.span("bulk", || {
            format!("{schema_name}: {} documents, {workers} workers", docs.len())
        });
        let result = self.load_atomically(schema_name, &doc_ids, |db| {
            ordered_fan(
                docs.len(),
                workers,
                || {
                    |i: usize| {
                        let (name, xml) = docs[i];
                        let doc = parse_checked(&registered, xml)?;
                        generate_load(&registered, &doc, &doc_ids[i], name, "")
                    }
                },
                |(load, meta)| apply_load(db, &load, &meta),
            )
        });
        self.db.trace_end(span);
        result.map(|()| doc_ids)
    }

    /// The DocIDs (`<schema>-<n>`) the next `count` documents stored under
    /// `schema_name` get. Nothing is consumed until
    /// [`Self::load_atomically`] succeeds.
    fn next_doc_ids(&self, schema_name: &str, count: usize) -> Vec<String> {
        let base = self.doc_counters.get(schema_name).copied().unwrap_or(0);
        (1..=count as u64).map(|n| format!("{schema_name}-{}", base + n)).collect()
    }

    /// The one load bracket. Everything `apply` writes — content rows plus
    /// meta-table rows — and the commit are one transaction: a failure
    /// anywhere rolls all of it back, so a document is either fully stored
    /// or absent (never a torn load with content rows but no
    /// XML_DOCUMENTS entry, or vice versa). The commit is part of the
    /// load: if the WAL append (fsync) fails, nothing was acknowledged, so
    /// it rolls back with the rest. Only a successful load consumes
    /// `doc_ids`.
    fn load_atomically(
        &mut self,
        schema_name: &str,
        doc_ids: &[String],
        apply: impl FnOnce(&mut Database) -> Result<(), MappingError>,
    ) -> Result<(), MappingError> {
        let mark = self.db.txn_mark();
        let result =
            apply(&mut self.db).and_then(|()| self.db.commit().map_err(MappingError::Db));
        if let Err(e) = result {
            self.db.rollback_to_mark(mark);
            return Err(e);
        }
        *self.doc_counters.entry(schema_name.to_string()).or_insert(0) += doc_ids.len() as u64;
        for doc_id in doc_ids {
            self.documents.insert(doc_id.clone(), schema_name.to_string());
        }
        Ok(())
    }

    /// The registered schema document `doc_id` is stored under.
    fn schema_of(&self, doc_id: &str) -> Result<Arc<RegisteredSchema>, MappingError> {
        let schema_name = self
            .documents
            .get(doc_id)
            .ok_or_else(|| MappingError::NoSuchDocument(doc_id.to_string()))?;
        self.schemas.get(schema_name).cloned().ok_or_else(|| {
            MappingError::InconsistentMapping(format!(
                "document '{doc_id}' references schema '{schema_name}' which is no longer registered"
            ))
        })
    }

    /// Reconstruct a stored document as a DOM.
    pub fn retrieve_dom(&mut self, doc_id: &str) -> Result<(Document, DocMetadata), MappingError> {
        let registered = self.schema_of(doc_id)?;
        let span = self.span("retrieve", || doc_id.to_string());
        let bulk = self.db.bulk_retrieval();
        // One storage guard for metadata row and document rows alike.
        let result = retrieve_from(&self.db.storage(), &registered.schema, doc_id, bulk);
        self.db.trace_end(span);
        let (doc, meta, stats) = result?;
        self.db.record_retrieval(stats.table_scans, stats.index_probes, bulk);
        Ok((doc, meta))
    }

    /// Reconstruct a stored document as XML text, re-substituting the
    /// original entity references from the meta-data (§6.1). The walk
    /// writes the text itself ([`crate::retriever::write_document`]): no
    /// `Document` is built, and the bytes are those of serializing
    /// [`Self::retrieve_dom`]'s tree with [`retrieval_serialize_options`].
    pub fn retrieve_document(&mut self, doc_id: &str) -> Result<String, MappingError> {
        let registered = self.schema_of(doc_id)?;
        let span = self.span("retrieve", || doc_id.to_string());
        let bulk = self.db.bulk_retrieval();
        let mut text = String::new();
        let result =
            write_document(&self.db.storage(), &registered.schema, doc_id, bulk, &mut text);
        self.db.trace_end(span);
        let stats = result?;
        self.db.record_retrieval(stats.table_scans, stats.index_probes, bulk);
        Ok(text)
    }

    /// [`Self::retrieve_document`] written to `out` in one `write_all`: a
    /// walk that fails writes nothing ([`MappingError::Io`] surfaces writer
    /// failures).
    pub fn export_to_writer<W: std::io::Write>(
        &mut self,
        doc_id: &str,
        out: &mut W,
    ) -> Result<(), MappingError> {
        let text = self.retrieve_document(doc_id)?;
        out.write_all(text.as_bytes())?;
        Ok(())
    }

    /// Reconstruct many stored documents, fanning the work across
    /// [`xmlord_ordb::ReadSession`] snapshot readers — one per worker (see
    /// [`Self::set_load_workers`]). Results come back in request order and
    /// are byte-identical to serial [`Self::retrieve_document`] calls; the
    /// retrieval counters fold into this handle's [`ExecStats`] afterwards.
    pub fn retrieve_documents(&mut self, doc_ids: &[&str]) -> Result<Vec<String>, MappingError> {
        if doc_ids.is_empty() {
            return Ok(Vec::new());
        }
        let workers = self.load_workers.min(doc_ids.len());
        if workers <= 1 {
            return doc_ids.iter().map(|id| self.retrieve_document(id)).collect();
        }
        // Resolve every document's schema up front: unknown ids fail before
        // any worker starts, exactly as the serial loop's first failure.
        let jobs: Vec<(&str, Arc<RegisteredSchema>)> = doc_ids
            .iter()
            .map(|&doc_id| Ok((doc_id, self.schema_of(doc_id)?)))
            .collect::<Result<_, MappingError>>()?;

        let span = self.span("bulk-retrieve", || {
            format!("{} documents, {workers} workers", doc_ids.len())
        });
        let db = &self.db;
        let mut texts = Vec::with_capacity(jobs.len());
        let mut all_stats = Vec::with_capacity(jobs.len());
        let result = ordered_fan(
            jobs.len(),
            workers,
            || {
                // Each worker reads through its own MVCC snapshot reader;
                // the sessions all pin the same committed state, so worker
                // count cannot change the bytes.
                let mut session = db.read_session();
                let jobs = &jobs;
                move |i: usize| {
                    let (doc_id, registered) = &jobs[i];
                    let mut text = String::new();
                    let schema = &registered.schema;
                    let stats = write_snapshot(&mut session, schema, doc_id, &mut text)?;
                    Ok((text, stats))
                }
            },
            |(text, stats)| {
                texts.push(text);
                all_stats.push(stats);
                Ok(())
            },
        );
        self.db.trace_end(span);
        result?;
        let bulk = self.db.bulk_retrieval();
        for s in all_stats {
            self.db.record_retrieval(s.table_scans, s.index_probes, bulk);
        }
        Ok(texts)
    }

    /// Reconstruct every stored document — `(doc_id, xml)` pairs in DocID
    /// order — through the parallel fan of [`Self::retrieve_documents`].
    pub fn retrieve_all(&mut self) -> Result<Vec<(String, String)>, MappingError> {
        let ids: Vec<String> = self.documents.keys().cloned().collect();
        let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let texts = self.retrieve_documents(&id_refs)?;
        Ok(ids.into_iter().zip(texts).collect())
    }

    /// Create the secondary indexes of one registered schema that are not
    /// keys already: one per ParentRef column
    /// ([`crate::pathquery::index_targets`]), which the Oracle 8 inverted
    /// mapping's reconstruction and translated path queries probe. The
    /// root table's document-id column needs none — it is a PRIMARY KEY,
    /// and a key is its own index. Columns that already carry an index are
    /// skipped; returns how many indexes were created.
    pub fn create_retrieval_indexes(&mut self, schema_name: &str) -> Result<usize, MappingError> {
        let registered = self.schemas.get(schema_name).ok_or_else(|| {
            MappingError::Unsupported(format!("schema '{schema_name}' is not registered"))
        })?;
        let mut created = 0usize;
        for target in crate::pathquery::index_targets(&registered.schema) {
            let table = Ident::internal(&target.table);
            let column = Ident::internal(&target.column);
            let covered = self
                .db
                .catalog()
                .indexes_on(&table)
                .any(|ix| ix.columns.len() == 1 && ix.columns[0] == column);
            if covered {
                continue;
            }
            self.db.execute(&target.create_statement()).map_err(MappingError::Db)?;
            created += 1;
        }
        Ok(created)
    }

    /// Nothing is left to create: every column this indexed — the synthetic
    /// IDs the Oracle 8 parent wiring and IDREF resolution look up — is a
    /// PRIMARY KEY, and the planner probes a key's own index. Kept, as the
    /// schema check it always began with, only because
    /// `benchmark/src/lifecycle.rs` calls it and may not be edited beside
    /// this crate (ROADMAP item 9); call and function go together.
    pub fn create_load_indexes(&mut self, schema_name: &str) -> Result<usize, MappingError> {
        if !self.schemas.contains_key(schema_name) {
            return Err(MappingError::Unsupported(format!(
                "schema '{schema_name}' is not registered"
            )));
        }
        Ok(0)
    }

    /// Tear down the façade and hand back the engine — e.g. to move a
    /// bulk-loaded database into a wire server.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// Run a path query (§4.1 dot notation) against a registered schema.
    pub fn query_path(
        &mut self,
        schema_name: &str,
        query: &crate::pathquery::PathQuery,
    ) -> Result<xmlord_ordb::QueryResult, MappingError> {
        let registered = self.schemas.get(schema_name).ok_or_else(|| {
            MappingError::Unsupported(format!("schema '{schema_name}' is not registered"))
        })?;
        let translated = crate::pathquery::translate(&registered.schema, query)?;
        Ok(self.db.query(&translated.sql)?)
    }

    /// Compare a stored document against its reconstruction (experiment E9).
    pub fn fidelity(&mut self, doc_id: &str, original_xml: &str) -> Result<crate::roundtrip::FidelityReport, MappingError> {
        let registered = self.schema_of(doc_id)?;
        let original =
            xmlord_xml::parse_with_catalog(original_xml, registered.dtd.entity_catalog())
                .map_err(MappingError::Xml)?;
        let (restored, _) = self.retrieve_dom(doc_id)?;
        Ok(crate::roundtrip::compare(&original, &restored))
    }
}

/// How retrieved documents serialize: declaration restored from the
/// meta-table, entities re-substituted (§6.1), no added whitespace.
pub fn retrieval_serialize_options(meta: &DocMetadata) -> SerializeOptions {
    SerializeOptions {
        include_declaration: true,
        include_doctype: false,
        indent: None,
        entity_catalog: Some(meta.entity_catalog()),
    }
}

/// Derive a mapped schema from DTD source — the schema-building core of
/// [`Xml2OrDb::register_dtd`], callable without a pipeline instance (the
/// wire server rebuilds schemas from registry rows this way).
fn derive_dtd_schema(
    dtd_text: &str,
    root: &str,
    schema_id: Option<String>,
    idref_targets: &IdrefTargets,
    mode: DbMode,
    base_options: &MappingOptions,
) -> Result<(Dtd, MappedSchema, String), MappingError> {
    let dtd = parse_dtd(dtd_text).map_err(MappingError::Dtd)?;
    let mut options = base_options.clone();
    if options.schema_id.is_none() {
        options.schema_id = schema_id;
    }
    if !idref_targets.is_empty() {
        options.map_idrefs = true;
    }
    let schema = generate_schema(&dtd, root, mode, options, idref_targets)?;
    let script = create_script(&schema)?;
    Ok((dtd, schema, script))
}

/// XSD counterpart of [`derive_dtd_schema`].
fn derive_xsd_schema(
    xsd_text: &str,
    root: &str,
    schema_id: Option<String>,
    mode: DbMode,
    base_options: &MappingOptions,
) -> Result<(Dtd, MappedSchema, String), MappingError> {
    let xsd = xmlord_dtd::xsd::parse_xsd(xsd_text)
        .map_err(|e| MappingError::Unsupported(format!("XSD analysis failed: {e}")))?;
    if xsd.dtd.element(root).is_none() {
        return Err(MappingError::RootNotDeclared(root.to_string()));
    }
    let mut options = base_options.clone();
    if options.schema_id.is_none() {
        options.schema_id = schema_id;
    }
    // Convert the XSD scalar hints into mapping type hints.
    let to_scalar = |h: &xmlord_dtd::xsd::ScalarHint| match h {
        xmlord_dtd::xsd::ScalarHint::Varchar(n) => crate::model::ScalarType::Varchar(*n),
        xmlord_dtd::xsd::ScalarHint::Clob => crate::model::ScalarType::Clob,
        xmlord_dtd::xsd::ScalarHint::Number => crate::model::ScalarType::Number,
        xmlord_dtd::xsd::ScalarHint::Date => crate::model::ScalarType::Date,
    };
    for (element, hint) in &xsd.element_hints {
        options.type_hints.elements.insert(element.clone(), to_scalar(hint));
    }
    for (key, hint) in &xsd.attribute_hints {
        options.type_hints.attributes.insert(key.clone(), to_scalar(hint));
    }
    let schema = generate_schema(&xsd.dtd, root, mode, options, &IdrefTargets::new())?;
    let script = create_script(&schema)?;
    Ok((xsd.dtd, schema, script))
}

/// Rebuild the [`MappedSchema`] registered under `name` by reading its
/// `TabSchemas` row through an MVCC read session — how a wire-server
/// connection resolves a document's schema from its own pinned snapshot,
/// without touching the writer or holding a pipeline instance. `options`
/// must match the store's creation options (the registry records a
/// schema's inputs, not the global option set — the same caveat as
/// [`Xml2OrDb::open_with_options`]).
pub fn schema_via_session(
    session: &mut xmlord_ordb::ReadSession,
    name: &str,
    options: &MappingOptions,
) -> Result<MappedSchema, MappingError> {
    let mode = session.mode();
    let row = read_schema_registry(session)?
        .into_iter()
        .find(|r| r.name == name)
        .ok_or_else(|| {
            MappingError::InconsistentMapping(format!("schema '{name}' is not registered"))
        })?;
    let schema_id = (!row.schema_id.is_empty()).then(|| row.schema_id.clone());
    let targets: IdrefTargets = row
        .idref_targets
        .iter()
        .map(|(e, a, t)| ((e.clone(), a.clone()), t.clone()))
        .collect();
    let (_, schema, _) = match row.kind.as_str() {
        "xsd" => derive_xsd_schema(&row.source, &row.root, schema_id, mode, options)?,
        _ => derive_dtd_schema(&row.source, &row.root, schema_id, &targets, mode, options)?,
    };
    Ok(schema)
}

/// Well-formedness check, validity check and attribute-default injection
/// for one document — no database access, so this runs off the engine
/// thread.
fn parse_checked(registered: &RegisteredSchema, xml_text: &str) -> Result<Document, MappingError> {
    let mut doc = xmlord_xml::parse_with_catalog(xml_text, registered.dtd.entity_catalog())
        .map_err(MappingError::Xml)?;
    let report = validate(&doc, &registered.dtd);
    if !report.is_valid() {
        return Err(MappingError::Invalid(report.errors));
    }
    apply_attribute_defaults(&mut doc, &registered.dtd);
    Ok(doc)
}

/// Shred a checked document into its planned content load plus its §5
/// meta-table INSERT — no database access either.
fn generate_load(
    registered: &RegisteredSchema,
    doc: &Document,
    doc_id: &str,
    doc_name: &str,
    url: &str,
) -> Result<(Vec<LoadUnit>, String), MappingError> {
    let ops = load_ops(&registered.schema, &registered.dtd, doc, doc_id)?;
    let meta = metadata_insert(
        &registered.schema,
        &registered.dtd,
        doc,
        doc_id,
        doc_name,
        url,
        "2002-03-25", // the workshop's date — deterministic by design
    );
    Ok((plan_batches(ops), meta))
}

/// Apply one document's content operations plus its meta-table row.
fn apply_load(db: &mut Database, load: &[LoadUnit], meta: &str) -> Result<(), MappingError> {
    for unit in load {
        match unit {
            LoadUnit::Batch(batch) => db.execute_batch(batch).map(|_| ()),
            LoadUnit::Stmt(stmt) => db.execute_stmt(stmt).map(|_| ()),
        }
        .map_err(MappingError::Db)?;
    }
    db.execute(meta).map_err(MappingError::Db)?;
    Ok(())
}

/// The ordered worker fan both bulk directions run on: up to `workers`
/// threads claim the job indices `0..jobs` in order and run their worker on
/// each, and the calling thread hands the outcomes to `apply` strictly in
/// submission order — so what `apply` builds is independent of scheduling.
/// The first error, a job's or `apply`'s, is returned and stops the workers
/// claiming further jobs. With one worker no thread is spawned.
///
/// `make_worker` runs once on each worker thread, so a worker may own
/// per-thread state (a snapshot reader) that never crosses threads.
fn ordered_fan<T, W>(
    jobs: usize,
    workers: usize,
    make_worker: impl Fn() -> W + Sync,
    mut apply: impl FnMut(T) -> Result<(), MappingError>,
) -> Result<(), MappingError>
where
    T: Send,
    W: FnMut(usize) -> Result<T, MappingError>,
{
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;

    if workers <= 1 {
        let mut work = make_worker();
        return (0..jobs).try_for_each(|i| apply(work(i)?));
    }
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, cancelled, make_worker) = (&next, &cancelled, &make_worker);
            s.spawn(move || {
                let mut work = make_worker();
                while !cancelled.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs || tx.send((i, work(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Workers finish in any order; outcomes wait here for their turn.
        let mut pending = BTreeMap::new();
        let mut next_apply = 0usize;
        let result = (|| {
            while next_apply < jobs {
                let (i, out) = rx.recv().expect("every job sends one result");
                pending.insert(i, out);
                while let Some(out) = pending.remove(&next_apply) {
                    apply(out?)?;
                    next_apply += 1;
                }
            }
            Ok(())
        })();
        if result.is_err() {
            // Stop claiming new jobs; in-flight ones drain into the
            // (unbounded) channel, which drops with `rx`.
            cancelled.store(true, Ordering::Relaxed);
        }
        result
    })
}

/// Inject DTD attribute defaults (`#FIXED "v"`, `attr CDATA "v"`) into a
/// document, as a validating parser would.
pub fn apply_attribute_defaults(doc: &mut Document, dtd: &Dtd) {
    let declares_a_default = dtd
        .attlists
        .values()
        .any(|list| list.attributes.iter().any(|def| def.default.default_value().is_some()));
    if !declares_a_default {
        return;
    }
    let Some(root) = doc.root_element() else { return };
    for node in doc.descendants(root) {
        let Some(el) = doc.element(node) else { continue };
        for def in dtd.attributes_of(el.name.as_raw()) {
            if let Some(value) = def.default.default_value() {
                if doc.attribute(node, &def.name).is_none() {
                    doc.set_attribute(node, QName::local(&def.name), value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlord_ordb::Value;

    const UNIVERSITY_DTD: &str = r#"
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ENTITY cs "Computer Science">
<!ELEMENT LName (#PCDATA)> <!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)> <!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)> <!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)> <!ELEMENT CreditPts (#PCDATA)>
"#;

    const UNIVERSITY_XML: &str = "<University><StudyCourse>&cs;</StudyCourse>\
<Student StudNr=\"23374\"><LName>Conrad</LName><FName>Matthias</FName>\
<Course><Name>DBS II</Name><Professor><PName>Kudrass</PName>\
<Subject>DBS</Subject><Subject>OS</Subject><Dept>&cs;</Dept></Professor>\
<CreditPts>4</CreditPts></Course></Student></University>";

    #[test]
    fn full_pipeline_store_and_retrieve_with_entities() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        let doc_id = sys.store_document("uni", UNIVERSITY_XML).unwrap();
        let restored = sys.retrieve_document(&doc_id).unwrap();
        // §6.1: the entity reference comes back.
        assert!(restored.contains("<StudyCourse>&cs;</StudyCourse>"), "{restored}");
        assert!(restored.contains("<Dept>&cs;</Dept>"), "{restored}");
        assert!(restored.contains("StudNr=\"23374\""));
    }

    #[test]
    fn fidelity_report_shows_data_preserved() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        let doc_id = sys.store_document("uni", UNIVERSITY_XML).unwrap();
        let report = sys.fidelity(&doc_id, UNIVERSITY_XML).unwrap();
        assert!(report.is_exact(), "{:?}", report.losses);
    }

    #[test]
    fn invalid_documents_are_rejected() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        // Missing required StudNr.
        let err = sys
            .store_document(
                "uni",
                "<University><StudyCourse>x</StudyCourse><Student><LName>a</LName><FName>b</FName></Student></University>",
            )
            .unwrap_err();
        assert!(matches!(err, MappingError::Invalid(_)));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        assert!(matches!(
            sys.store_document("uni", "<University><broken"),
            Err(MappingError::Xml(_))
        ));
    }

    #[test]
    fn multiple_documents_under_one_schema() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        let a = sys.store_document("uni", UNIVERSITY_XML).unwrap();
        let b = sys
            .store_document(
                "uni",
                "<University><StudyCourse>Math</StudyCourse></University>",
            )
            .unwrap();
        assert_ne!(a, b);
        assert!(sys.retrieve_document(&b).unwrap().contains("Math"));
        assert!(sys.retrieve_document(&a).unwrap().contains("&cs;"));
    }

    #[test]
    fn auto_schema_ids_let_identical_element_names_coexist() {
        // §5: "SchemaIDs are necessary to deal with identical element names
        // from different DTDs."
        let mut sys = Xml2OrDb::new(DbMode::Oracle9).with_auto_schema_ids();
        sys.register_dtd("a", "<!ELEMENT Item (#PCDATA)>", "Item").unwrap();
        sys.register_dtd("b", "<!ELEMENT Item (Name)><!ELEMENT Name (#PCDATA)>", "Item")
            .unwrap();
        let d1 = sys.store_document("a", "<Item>plain</Item>").unwrap();
        let d2 = sys.store_document("b", "<Item><Name>structured</Name></Item>").unwrap();
        assert!(sys.retrieve_document(&d1).unwrap().contains("plain"));
        assert!(sys.retrieve_document(&d2).unwrap().contains("<Name>structured</Name>"));
    }

    #[test]
    fn without_schema_ids_identical_names_collide() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("a", "<!ELEMENT Item (#PCDATA)>", "Item").unwrap();
        let err = sys
            .register_dtd("b", "<!ELEMENT Item (Name)><!ELEMENT Name (#PCDATA)>", "Item")
            .unwrap_err();
        assert!(matches!(err, MappingError::Db(_)));
    }

    #[test]
    fn path_queries_run_through_the_facade() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        sys.store_document("uni", UNIVERSITY_XML).unwrap();
        let q = crate::pathquery::PathQuery::parse("Student/LName")
            .with_predicate("Student/Course/Professor/PName", "Kudrass");
        let rows = sys.query_path("uni", &q).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]]);
    }

    #[test]
    fn attribute_defaults_are_applied() {
        let dtd_text = r#"<!ELEMENT e EMPTY>
            <!ATTLIST e kind CDATA "standard" fixed CDATA #FIXED "42">"#;
        let dtd = parse_dtd(dtd_text).unwrap();
        let mut doc = xmlord_xml::parse("<e/>").unwrap();
        apply_attribute_defaults(&mut doc, &dtd);
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "kind"), Some("standard"));
        assert_eq!(doc.attribute(root, "fixed"), Some("42"));
        // Existing values are not overwritten.
        let mut doc2 = xmlord_xml::parse("<e kind=\"special\"/>").unwrap();
        apply_attribute_defaults(&mut doc2, &dtd);
        assert_eq!(doc2.attribute(doc2.root_element().unwrap(), "kind"), Some("special"));
    }

    #[test]
    fn idref_sample_registration_end_to_end() {
        let dtd_text = r#"
            <!ELEMENT db (person*)>
            <!ELEMENT person (#PCDATA)>
            <!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>"#;
        let xml = r#"<db><person id="p1">Kudrass</person><person id="p2" boss="p1">Conrad</person></db>"#;
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd_with_sample("org", dtd_text, "db", xml).unwrap();
        let doc_id = sys.store_document("org", xml).unwrap();
        let restored = sys.retrieve_document(&doc_id).unwrap();
        assert!(restored.contains("boss=\"p1\""), "{restored}");
    }

    #[test]
    fn stats_expose_the_headline_numbers() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        let before = sys.stats();
        sys.store_document("uni", UNIVERSITY_XML).unwrap();
        let delta = sys.stats().since(&before);
        // One document INSERT plus one metadata INSERT.
        assert_eq!(delta.inserts, 2);
    }

    #[test]
    fn failed_store_leaves_no_torn_state() {
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let mut sys = Xml2OrDb::new(mode);
            sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            // Sabotage the meta-table so the *last* statement of the load
            // fails, after all the content INSERTs have succeeded.
            sys.database().execute("DROP TABLE TabMetadata").unwrap();
            sys.database().commit().unwrap();
            let before = sys.database().state_dump();

            let err = sys.store_document("uni", UNIVERSITY_XML).unwrap_err();
            assert!(matches!(err, MappingError::Db(_)), "{mode:?}: {err}");
            // Atomic load: the content rows rolled back with the failure.
            assert_eq!(
                sys.database().state_dump(),
                before,
                "{mode:?}: failed load left residue"
            );
            assert!(sys.retrieve_document("uni-1").is_err());

            // Restore the meta-table (its types survived the DROP): the
            // next store succeeds and reuses the DocID the failed load
            // gave back.
            let tab_ddl = metadata_ddl()
                .split_once("CREATE TABLE TabMetadata")
                .map(|(_, tail)| format!("CREATE TABLE TabMetadata{tail}"))
                .unwrap();
            sys.database().execute_script(&tab_ddl).unwrap();
            let doc_id = sys.store_document("uni", UNIVERSITY_XML).unwrap();
            assert_eq!(doc_id, "uni-1", "{mode:?}");
            assert!(sys.retrieve_document(&doc_id).unwrap().contains("Conrad"));
        }
    }

    /// Regression: a store that fails after its DocID is worked out but
    /// before the load bracket (here `load_ops` on a root mismatch — the
    /// document is valid for the DTD, which declares `StudyCourse`) must not
    /// consume the DocID, on either entry point, live or after a reopen.
    #[test]
    fn store_failing_before_the_load_consumes_no_doc_id() {
        const WRONG_ROOT: &str = "<StudyCourse>x</StudyCourse>";
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        let err = sys.store_document("uni", WRONG_ROOT).unwrap_err();
        assert!(!matches!(err, MappingError::Invalid(_) | MappingError::Db(_)), "{err}");
        assert_eq!(sys.store_document("uni", UNIVERSITY_XML).unwrap(), "uni-1");

        let mut bulk = Xml2OrDb::new(DbMode::Oracle9);
        bulk.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        bulk.store_documents("uni", &[("bad", WRONG_ROOT)]).unwrap_err();
        assert_eq!(bulk.store_documents("uni", &[("good", UNIVERSITY_XML)]).unwrap(), ["uni-1"]);

        // Durable: reopen re-counts DocIDs from TabMetadata, so a handle
        // reopened after the failure and one that lived through it must
        // hand out the same next DocID.
        let next_after_failure = |reopen: bool| {
            let dir = temp_store_dir("docid");
            let mut sys = Xml2OrDb::open(&dir, DbMode::Oracle9).unwrap();
            sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            sys.store_document("uni", UNIVERSITY_XML).unwrap();
            sys.store_document("uni", WRONG_ROOT).unwrap_err();
            if reopen {
                drop(sys);
                sys = Xml2OrDb::open(&dir, DbMode::Oracle9).unwrap();
            }
            let next = sys.store_document("uni", UNIVERSITY_XML).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            next
        };
        assert_eq!(next_after_failure(false), "uni-2");
        assert_eq!(next_after_failure(true), "uni-2");
    }

    #[test]
    fn unknown_doc_and_schema_errors() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        assert!(matches!(
            sys.store_document("nope", "<a/>"),
            Err(MappingError::Unsupported(_))
        ));
        assert!(matches!(
            sys.retrieve_document("ghost"),
            Err(MappingError::NoSuchDocument(_))
        ));
    }

    #[test]
    fn traced_pipeline_emits_shred_generate_load_retrieve_spans() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle9);
        let (handle, ring) = xmlord_ordb::TraceHandle::ring(4096);
        sys.database().set_trace_sink(Some(handle));
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        let doc_id = sys.store_document("uni", UNIVERSITY_XML).unwrap();
        sys.retrieve_document(&doc_id).unwrap();
        let ring = ring.lock().unwrap();
        let phases: Vec<&str> = ring.events().map(|e| e.phase).collect();
        for phase in ["shred", "generate", "load", "retrieve"] {
            assert!(phases.contains(&phase), "missing {phase} in {phases:?}");
        }
        // The load span accounts for the content + metadata INSERTs.
        let load = ring.events().find(|e| e.phase == "load").unwrap();
        assert_eq!(load.detail, "uni-1");
        assert_eq!(load.delta.inserts, 2);
        // The retrieve span covers only reads: no undo-log records.
        let retrieve = ring.events().find(|e| e.phase == "retrieve").unwrap();
        assert_eq!(retrieve.delta.undo_records, 0);
    }

    #[test]
    fn batched_and_text_loads_produce_identical_state() {
        // The bulk path must be invisible in the data: the façade's planned
        // batches and the same documents sent as the public `load_script`
        // + `metadata_insert` text, statement by statement (what a wire
        // client sends), leave byte-identical state dumps.
        let documents =
            [UNIVERSITY_XML, "<University><StudyCourse>Math</StudyCourse></University>"];
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let mut batched = Xml2OrDb::new(mode);
            batched.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            for xml in documents {
                batched.store_document("uni", xml).unwrap();
            }

            let mut text = Xml2OrDb::new(mode);
            text.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            let registered = text.schema("uni").unwrap().clone();
            for (n, xml) in documents.iter().enumerate() {
                let doc_id = format!("uni-{}", n + 1);
                let doc = parse_checked(&registered, xml).unwrap();
                let mut statements =
                    crate::loader::load_script(&registered.schema, &registered.dtd, &doc, &doc_id)
                        .unwrap();
                statements.push(metadata_insert(
                    &registered.schema,
                    &registered.dtd,
                    &doc,
                    &doc_id,
                    "",
                    "",
                    "2002-03-25",
                ));
                for statement in &statements {
                    text.database().execute(statement).unwrap();
                }
                text.database().commit().unwrap();
            }
            assert_eq!(
                batched.database().state_dump(),
                text.database().state_dump(),
                "{mode:?}: deliveries diverged"
            );
        }
    }

    #[test]
    fn key_refs_load_like_their_script_text() {
        // The key REFs the university load never makes: ref-held children
        // of a recursive DTD (inserted before the row that holds them) and
        // IDREF attributes (wired by deferred UPDATEs, forward references
        // included). The batched façade and the `load_script` text must
        // leave byte-identical state.
        let recursive_dtd = "<!ELEMENT Professor (PName,Dept)> <!ELEMENT Dept (DName,Professor*)>
            <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>";
        let recursive_docs = [
            "<Professor><PName>Kudrass</PName><Dept><DName>CS</DName>\
             <Professor><PName>Jaeger</PName><Dept><DName>CAD</DName></Dept></Professor>\
             <Professor><PName>Conrad</PName><Dept><DName>DB</DName>\
             <Professor><PName>Meier</PName><Dept><DName>IS</DName></Dept></Professor>\
             </Dept></Professor></Dept></Professor>",
            "<Professor><PName>Ralf</PName><Dept><DName>Math</DName>\
             <Professor><PName>Anna</PName><Dept><DName>Stats</DName></Dept></Professor>\
             </Dept></Professor>",
        ];
        let idref_dtd = "<!ELEMENT db (person*)> <!ELEMENT person (#PCDATA)>
            <!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>";
        let idref_docs = [
            r#"<db><person id="a1" boss="a2">Kudrass</person><person id="a2">Conrad</person><person id="a3" boss="a1">Meier</person></db>"#,
            r#"<db><person id="b1" boss="b1">Jaeger</person><person id="b2" boss="b1">Ralf</person></db>"#,
        ];
        let mut idrefs = IdrefTargets::new();
        idrefs.insert(("person".into(), "boss".into()), "person".into());
        let cases = [
            (recursive_dtd, "Professor", IdrefTargets::new(), &recursive_docs),
            (idref_dtd, "db", idrefs, &idref_docs),
        ];
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            for (dtd, root, targets, documents) in &cases {
                let mut batched = Xml2OrDb::new(mode);
                batched.register_dtd_with_idrefs("s", dtd, root, targets).unwrap();
                for xml in documents.iter() {
                    batched.store_document("s", xml).unwrap();
                }

                let mut text = Xml2OrDb::new(mode);
                let registered = text.register_dtd_with_idrefs("s", dtd, root, targets).unwrap();
                let registered = registered.clone();
                for (n, xml) in documents.iter().enumerate() {
                    let doc_id = format!("s-{}", n + 1);
                    let doc = parse_checked(&registered, xml).unwrap();
                    let mut statements = crate::loader::load_script(
                        &registered.schema,
                        &registered.dtd,
                        &doc,
                        &doc_id,
                    )
                    .unwrap();
                    assert!(
                        statements.iter().any(|s| s.contains("(SELECT REF(x) FROM ")),
                        "{mode:?} <{root}>: no key REF in {statements:#?}"
                    );
                    statements.push(metadata_insert(
                        &registered.schema,
                        &registered.dtd,
                        &doc,
                        &doc_id,
                        "",
                        "",
                        "2002-03-25",
                    ));
                    for statement in &statements {
                        text.database().execute(statement).unwrap();
                    }
                    text.database().commit().unwrap();
                }
                assert_eq!(
                    batched.database().state_dump(),
                    text.database().state_dump(),
                    "{mode:?} <{root}>: deliveries diverged"
                );
            }
        }
    }

    #[test]
    fn parallel_bulk_store_matches_sequential_storing() {
        let corpus: Vec<(String, String)> = (0..8)
            .map(|i| {
                (
                    format!("doc{i}"),
                    format!("<University><StudyCourse>C{i}</StudyCourse></University>"),
                )
            })
            .collect();
        let docs: Vec<(&str, &str)> =
            corpus.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
        let baseline = {
            let mut sys = Xml2OrDb::new(DbMode::Oracle9);
            sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            for (name, xml) in &docs {
                sys.store_document_named("uni", xml, name, "").unwrap();
            }
            sys.database().state_dump()
        };
        for workers in [1, 2, 4] {
            let mut sys = Xml2OrDb::new(DbMode::Oracle9);
            sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            sys.set_load_workers(workers);
            let ids = sys.store_documents("uni", &docs).unwrap();
            assert_eq!(ids.first().map(String::as_str), Some("uni-1"));
            assert_eq!(ids.len(), docs.len());
            assert_eq!(
                sys.database().state_dump(),
                baseline,
                "workers={workers}: bulk store diverged from one-by-one"
            );
            assert!(sys.retrieve_document(&ids[3]).unwrap().contains("C3"));
        }
    }

    #[test]
    fn failed_bulk_store_rolls_everything_back() {
        for workers in [1, 2] {
            let mut sys = Xml2OrDb::new(DbMode::Oracle9);
            sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            sys.set_load_workers(workers);
            let before = sys.database().state_dump();
            let err = sys
                .store_documents("uni", &[("good", UNIVERSITY_XML), ("bad", "<University><broken")])
                .unwrap_err();
            assert!(matches!(err, MappingError::Xml(_)), "workers={workers}: {err}");
            assert_eq!(
                sys.database().state_dump(),
                before,
                "workers={workers}: failed bulk store left residue"
            );
            // The failed bulk load consumed no DocIDs.
            assert_eq!(sys.store_document("uni", UNIVERSITY_XML).unwrap(), "uni-1");
        }
    }

    #[test]
    fn oracle8_pipeline_round_trips_too() {
        let mut sys = Xml2OrDb::new(DbMode::Oracle8);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        let doc_id = sys.store_document("uni", UNIVERSITY_XML).unwrap();
        let restored = sys.retrieve_document(&doc_id).unwrap();
        assert!(restored.contains("<LName>Conrad</LName>"));
        assert!(restored.contains("&cs;"));
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "xmlord-pipeline-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn durable_store_survives_reopen() {
        let dir = temp_store_dir("reopen");
        let dumps = {
            let mut sys = Xml2OrDb::open(&dir, DbMode::Oracle9).unwrap().with_auto_schema_ids();
            sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            let doc_id = sys.store_document("uni", UNIVERSITY_XML).unwrap();
            assert_eq!(doc_id, "uni-1");
            (sys.database().state_dump(), sys.retrieve_document(&doc_id).unwrap())
        };

        // A brand-new process image: everything must come back from disk.
        let mut sys = Xml2OrDb::open(&dir, DbMode::Oracle9).unwrap().with_auto_schema_ids();
        assert_eq!(sys.database().state_dump(), dumps.0, "recovered engine state differs");
        assert_eq!(sys.retrieve_document("uni-1").unwrap(), dumps.1);
        assert!(sys.schema("uni").is_some(), "schema registry not rehydrated");

        // DocID allocation continues where it left off, and the re-derived
        // mapping accepts new documents for the recovered schema.
        let doc_id = sys.store_document("uni", UNIVERSITY_XML).unwrap();
        assert_eq!(doc_id, "uni-2");

        // A second schema gets a fresh SchemaID, not a reused one.
        let mini_dtd = "<!ELEMENT Note (#PCDATA)>";
        sys.register_dtd("note", mini_dtd, "Note").unwrap();
        let id = sys.schema("note").unwrap().schema.options.schema_id.clone();
        assert_eq!(id.as_deref(), Some("S2"));

        // Third generation: both schemas and all documents survive again.
        drop(sys);
        let mut sys = Xml2OrDb::open(&dir, DbMode::Oracle9).unwrap();
        assert!(sys.retrieve_document("uni-2").unwrap().contains("Conrad"));
        assert!(sys.schema("note").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_failed_store_survives_reopen_clean() {
        // A failed (rolled-back) store must leave nothing on disk either.
        let dir = temp_store_dir("rollback");
        let before = {
            let mut sys = Xml2OrDb::open(&dir, DbMode::Oracle9).unwrap();
            sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            sys.database().execute("DROP TABLE TabMetadata").unwrap();
            sys.database().commit().unwrap();
            sys.store_document("uni", UNIVERSITY_XML).unwrap_err();
            sys.database().state_dump()
        };
        let mut sys = Xml2OrDb::open(&dir, DbMode::Oracle9).unwrap();
        assert_eq!(sys.database().state_dump(), before, "rolled-back load leaked to disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn loaded_corpus(mode: DbMode) -> (Xml2OrDb, Vec<String>) {
        let mut sys = Xml2OrDb::new(mode);
        sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
        let corpus: Vec<(String, String)> = (0..6)
            .map(|i| {
                (
                    format!("doc{i}"),
                    format!(
                        "<University><StudyCourse>C{i}</StudyCourse>\
                         <Student StudNr=\"{i:05}\"><LName>L{i}</LName><FName>F{i}</FName>\
                         <Course><Name>N{i}</Name></Course></Student></University>"
                    ),
                )
            })
            .collect();
        let docs: Vec<(&str, &str)> =
            corpus.iter().map(|(n, x)| (n.as_str(), x.as_str())).collect();
        let ids = sys.store_documents("uni", &docs).unwrap();
        (sys, ids)
    }

    #[test]
    fn parallel_retrieval_matches_serial_byte_for_byte() {
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let (mut sys, ids) = loaded_corpus(mode);
            let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
            let serial: Vec<String> =
                id_refs.iter().map(|id| sys.retrieve_document(id).unwrap()).collect();
            for workers in [1, 2, 4] {
                sys.set_load_workers(workers);
                let parallel = sys.retrieve_documents(&id_refs).unwrap();
                assert_eq!(parallel, serial, "{mode:?} workers={workers}");
            }
            let all = sys.retrieve_all().unwrap();
            assert_eq!(all.len(), ids.len());
            for ((doc_id, text), id) in all.iter().zip(&ids) {
                assert_eq!(doc_id, id);
                let serial_text = sys.retrieve_document(id).unwrap();
                assert_eq!(*text, serial_text);
            }
        }
    }

    #[test]
    fn parallel_retrieval_reports_unknown_documents() {
        let (mut sys, ids) = loaded_corpus(DbMode::Oracle9);
        sys.set_load_workers(4);
        let err = sys.retrieve_documents(&[ids[0].as_str(), "ghost"]).unwrap_err();
        assert!(matches!(err, MappingError::NoSuchDocument(_)), "{err:?}");
    }

    #[test]
    fn streaming_export_matches_string_retrieval() {
        let (mut sys, ids) = loaded_corpus(DbMode::Oracle9);
        let text = sys.retrieve_document(&ids[2]).unwrap();
        let mut bytes = Vec::new();
        sys.export_to_writer(&ids[2], &mut bytes).unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), text);
    }

    /// Retrieval goes through index probes, visible in the engine's
    /// `index_scans` counter: the root-row lookup probes the document-id
    /// key with no index call at all, and Oracle 8's inverted-child lookups
    /// probe the ParentRef indexes once `create_retrieval_indexes` made
    /// them.
    #[test]
    fn retrieval_indexes_route_lookups_through_index_probes() {
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let (mut sys, ids) = loaded_corpus(mode);
            let before = sys.stats();
            let plain = sys.retrieve_document(&ids[0]).unwrap();
            let root_probes = sys.stats().since(&before).retrieve_index_probes;
            assert!(root_probes > 0, "{mode:?}: the document-id key was not probed");

            let parent_refs = crate::pathquery::index_targets(&sys.schema("uni").unwrap().schema);
            assert_eq!(parent_refs.is_empty(), mode == DbMode::Oracle9);
            assert_eq!(sys.create_retrieval_indexes("uni").unwrap(), parent_refs.len(), "{mode:?}");
            // Idempotent: a second call finds every column covered.
            assert_eq!(sys.create_retrieval_indexes("uni").unwrap(), 0);
            let before = sys.stats();
            let with_index = sys.retrieve_document(&ids[0]).unwrap();
            let delta = sys.stats().since(&before);
            assert!(delta.index_scans > 0, "{mode:?}: {delta:?}");
            assert_eq!(
                delta.retrieve_index_probes > root_probes,
                mode == DbMode::Oracle8,
                "{mode:?}: {delta:?}"
            );
            assert_eq!(delta.retrieve_table_scans, 0, "{mode:?}: {delta:?}");
            assert_eq!(delta.bulk_retrieves, 1, "{mode:?}: {delta:?}");
            assert_eq!(with_index, plain, "{mode:?}: the indexes changed the bytes");

            // The naive valve reconstructs the same bytes without probing.
            sys.database().set_bulk_retrieval(false);
            let before = sys.stats();
            let naive = sys.retrieve_document(&ids[0]).unwrap();
            let delta = sys.stats().since(&before);
            assert_eq!(delta.retrieve_index_probes, 0, "{mode:?}: {delta:?}");
            assert_eq!(delta.bulk_retrieves, 0, "{mode:?}: {delta:?}");
            assert!(delta.retrieve_table_scans > 0, "{mode:?}: {delta:?}");
            assert_eq!(naive, with_index, "{mode:?}: valve changed the bytes");
        }
    }

    /// Index names are unique in the catalog, not per call: two auto-id
    /// schemas of one DTD whose table names only differ in the SchemaID
    /// suffix — which a name cut at 30 characters used to lose — both get
    /// their indexes, through the façade and through `index_script`, and
    /// the planner probes every one of them.
    #[test]
    fn index_names_of_long_elements_do_not_collide_across_schemas() {
        const LONG_DTD: &str = "\
<!ELEMENT InternationalUniversityRegistry (StudentOfTheInternationalUniversity*)>
<!ELEMENT StudentOfTheInternationalUniversity (LName,CourseOfTheInternationalUniversity*)>
<!ELEMENT CourseOfTheInternationalUniversity (Name)>
<!ELEMENT LName (#PCDATA)> <!ELEMENT Name (#PCDATA)>";
        let register = |mode: DbMode| {
            let mut sys = Xml2OrDb::new(mode).with_auto_schema_ids();
            for name in ["a", "b"] {
                sys.register_dtd(name, LONG_DTD, "InternationalUniversityRegistry").unwrap();
            }
            sys
        };
        let assert_probed = |sys: &mut Xml2OrDb, schema_name: &str| {
            let schema = sys.schema(schema_name).unwrap().schema.clone();
            let targets = crate::pathquery::index_targets(&schema);
            for target in &targets {
                assert!(target.name.len() <= 30, "{target:?}");
                let child = schema.elements.values().find(|m| m.table.as_ref() == Some(&target.table));
                let parent = child
                    .and_then(|m| m.fields.iter().find(|f| f.db_name == target.column))
                    .and_then(|f| match &f.source {
                        crate::model::FieldSource::ParentRef(parent) => schema.mapping(parent),
                        _ => None,
                    })
                    .and_then(|m| m.table.clone())
                    .unwrap();
                let plan = sys
                    .database()
                    .query(&format!(
                        "EXPLAIN SELECT REF(c) FROM {parent} p, {} c WHERE c.{} = REF(p)",
                        target.table, target.column
                    ))
                    .unwrap();
                let probe = format!("index probe {} ", target.name);
                assert!(
                    plan.rows.iter().any(|r| r[0].as_str().unwrap().contains(&probe)),
                    "{target:?}: {plan:?}"
                );
            }
            targets.len()
        };
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let expected = if mode == DbMode::Oracle8 { 2 } else { 0 };
            let mut sys = register(mode);
            for name in ["a", "b"] {
                assert_eq!(sys.create_retrieval_indexes(name).unwrap(), expected, "{mode:?} {name}");
                assert_eq!(assert_probed(&mut sys, name), expected);
            }
            let mut scripted = register(mode);
            for name in ["a", "b"] {
                let schema = scripted.schema(name).unwrap().schema.clone();
                for statement in crate::pathquery::index_script(&schema) {
                    scripted.database().execute(&statement).unwrap_or_else(|e| {
                        panic!("{mode:?} {name}: {statement}: {e}")
                    });
                }
                assert_eq!(assert_probed(&mut scripted, name), expected);
            }
        }
    }

    /// A reader beside an ingest pays for the document just stored, not for
    /// the store: its refresh after one more `store_document` copies that
    /// document's rows (and its meta-table row) — the same count at either
    /// store size, in either mode — and never replaces a heap.
    #[test]
    fn a_readers_refresh_after_a_store_copies_that_documents_rows_only() {
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let mut sys = Xml2OrDb::new(mode);
            sys.register_dtd("uni", UNIVERSITY_DTD, "University").unwrap();
            sys.create_retrieval_indexes("uni").unwrap();
            let document = |i: usize| {
                format!(
                    "<University><StudyCourse>C{i}</StudyCourse>\
                     <Student StudNr=\"{i:05}\"><LName>L{i}</LName><FName>F{i}</FName>\
                     <Course><Name>N{i}</Name></Course></Student></University>"
                )
            };
            let mut reader = sys.database().read_session();
            let mut stored = 0;
            let mut copied_per_document = Vec::new();
            for store_size in [20, 80] {
                while stored < store_size {
                    sys.store_document("uni", &document(stored)).unwrap();
                    stored += 1;
                }
                reader.refresh();
                let rows_before = sys.database().storage().total_rows();
                let copied_before = reader.rows_copied();
                sys.store_document("uni", &document(stored)).unwrap();
                stored += 1;
                reader.refresh();
                let rows_of_document = sys.database().storage().total_rows() - rows_before;
                let copied = reader.rows_copied() - copied_before;
                assert_eq!(copied, rows_of_document as u64, "{mode:?} at {store_size}");
                copied_per_document.push(copied);
            }
            assert_eq!(copied_per_document[0], copied_per_document[1], "{mode:?}");
            assert_eq!(reader.splice_counts().1, 0, "{mode:?}: a load replaced a heap");
        }
    }

    /// PR 10's regression minus its set-up line. The Oracle 8 inverted
    /// mapping wires each child row to its parent with a `(SELECT REF(p) …
    /// WHERE p.<id> = …)` subquery on a PRIMARY KEY column; the planner
    /// probes the key's own index, so a fresh system ingests linearly with
    /// no index call. A failure means a key lookup is scanning again.
    #[test]
    fn oracle8_ingest_is_linear_with_no_index_call() {
        use xmlord_workload::university::{university_dtd, university_xml, UniversityConfig};
        let documents: Vec<String> = (0..40u64)
            .map(|seed| university_xml(&UniversityConfig { students: 6, seed, ..Default::default() }))
            .collect();
        // (rows scanned and index probes while storing each document,
        // every stored document's bytes)
        let ingest = |with_helpers: bool| {
            let mut sys = Xml2OrDb::new(DbMode::Oracle8);
            sys.register_dtd("uni", university_dtd(), "University").unwrap();
            if with_helpers {
                assert_eq!(sys.create_load_indexes("uni").unwrap(), 0);
                assert!(sys.create_retrieval_indexes("uni").unwrap() > 0);
            }
            let mut per_document = Vec::new();
            for xml in &documents {
                let before = sys.stats();
                sys.store_document("uni", xml).unwrap();
                let delta = sys.stats().since(&before);
                per_document.push((delta.rows_scanned, delta.index_scans));
            }
            (per_document, sys.retrieve_all().unwrap())
        };
        let (plain, plain_texts) = ingest(false);
        assert!(plain.iter().all(|&(_, probes)| probes > 0), "{plain:?}");
        // What storing a document scans does not grow with the store: the
        // 40th costs what the 2nd cost, give or take the documents' own
        // sizes (a scanning lookup reads 39 documents' rows per child row).
        let (second, last) = (plain[1].0, plain[39].0);
        assert!(last.abs_diff(second) <= 8, "rows scanned grew with the store: {plain:?}");
        let (helped, helped_texts) = ingest(true);
        assert_eq!(plain, helped, "the index helpers changed what an ingest reads");
        assert_eq!(plain_texts, helped_texts, "the index helpers changed the stored bytes");
    }
}
