//! The store and retrieve lifecycles rebuilt from the layers' public
//! functions, one span around every call.
//!
//! `store` makes exactly the calls `Xml2OrDb::store_document` makes, in the
//! same order, so the database it leaves is byte-identical (`state_dump`) —
//! the traced run checks that.

use xml2ordb::loader::{load_ops, plan_batches, LoadUnit};
use xml2ordb::metadata::{metadata_insert, read_metadata};
use xml2ordb::pipeline::{apply_attribute_defaults, retrieval_serialize_options, RegisteredSchema};
use xml2ordb::retriever::retrieve_with_stats;
use xml2ordb::Xml2OrDb;
use xmlord_dtd::validate;
use xmlord_ordb::{Database, DbMode};
use xmlord_workload::university::university_dtd;
use xmlord_xml::serializer::serialize;

use crate::span::Tracer;

/// The name every corpus document type is registered under; DocIDs are
/// `uni-<n>`, as the façade assigns them.
pub const SCHEMA: &str = "uni";

pub fn doc_id(n: usize) -> String {
    format!("{SCHEMA}-{n}")
}

/// The fixed set-up of a document store: one load worker, the university
/// DTD registered, load and retrieval indexes created right after.
pub fn register(sys: &mut Xml2OrDb) -> Result<RegisteredSchema, String> {
    sys.set_load_workers(1);
    sys.register_dtd(SCHEMA, university_dtd(), "University")
        .map_err(|e| e.to_string())?;
    sys.create_load_indexes(SCHEMA).map_err(|e| e.to_string())?;
    sys.create_retrieval_indexes(SCHEMA)
        .map_err(|e| e.to_string())?;
    Ok(sys.schema(SCHEMA).expect("just registered").clone())
}

pub fn new_system(mode: DbMode) -> Result<(Xml2OrDb, RegisteredSchema), String> {
    let mut sys = Xml2OrDb::new(mode);
    let reg = register(&mut sys)?;
    Ok((sys, reg))
}

/// Store `xml` as document `doc_id` through the layers' public functions;
/// returns the number of load operations generated for it.
pub fn store(
    t: &mut Tracer,
    db: &mut Database,
    reg: &RegisteredSchema,
    xml: &str,
    doc_id: &str,
    doc: u32,
) -> Result<usize, String> {
    t.span("bench.store_doc", doc, |t| {
        let mut dom = t
            .span("xml.parse", doc, |_| {
                xmlord_xml::parse_with_catalog(xml, reg.dtd.entity_catalog())
            })
            .map_err(|e| e.to_string())?;
        let report = t.span("dtd.validate", doc, |_| validate(&dom, &reg.dtd));
        if !report.is_valid() {
            return Err(format!("{doc_id}: {} validity errors", report.errors.len()));
        }
        t.span("core.attribute_defaults", doc, |_| {
            apply_attribute_defaults(&mut dom, &reg.dtd)
        });
        let ops = t
            .span("core.load_ops", doc, |_| {
                load_ops(&reg.schema, &reg.dtd, &dom, doc_id)
            })
            .map_err(|e| e.to_string())?;
        let op_count = ops.len();
        let units = t.span("core.plan_batches", doc, |_| plan_batches(ops));
        let meta = t.span("core.metadata_insert", doc, |_| {
            metadata_insert(&reg.schema, &reg.dtd, &dom, doc_id, "", "", "2002-03-25")
        });

        let mark = db.txn_mark();
        let applied = (|| {
            for unit in &units {
                match unit {
                    LoadUnit::Batch(batch) => t
                        .span("ordb.execute_batch", doc, |_| db.execute_batch(batch))
                        .map(|_| ()),
                    LoadUnit::Stmt(stmt) => t
                        .span("ordb.execute_stmt", doc, |_| db.execute_stmt(stmt))
                        .map(|_| ()),
                }?;
            }
            t.span("ordb.execute_text", doc, |_| db.execute(&meta))?;
            t.span("ordb.commit", doc, |_| db.commit())
        })();
        // Freeing the plan and the DOM is work of the layers that built
        // them; `store_document` pays it before it returns, too.
        t.span("core.drop_plan", doc, |_| drop((units, meta)));
        t.span("xml.drop_dom", doc, |_| drop(dom));
        match applied {
            Ok(()) => Ok(op_count),
            Err(e) => {
                db.rollback_to_mark(mark);
                Err(format!("{doc_id}: {e}"))
            }
        }
    })
}

/// Retrieve document `doc_id` as text through the layers' public functions
/// — what `Xml2OrDb::retrieve_document` does on the writer's handle.
pub fn retrieve(
    t: &mut Tracer,
    db: &mut Database,
    reg: &RegisteredSchema,
    doc_id: &str,
    doc: u32,
) -> Result<String, String> {
    t.span("bench.retrieve_doc", doc, |t| {
        let meta = t
            .span("core.read_metadata", doc, |_| read_metadata(db, doc_id))
            .map_err(|e| e.to_string())?;
        let (dom, stats) = t
            .span("core.retrieve", doc, |_| {
                retrieve_with_stats(db, &reg.schema, &meta)
            })
            .map_err(|e| e.to_string())?;
        let bulk = db.bulk_retrieval();
        db.record_retrieval(stats.table_scans, stats.index_probes, bulk);
        let text = t.span("xml.serialize", doc, |_| {
            serialize(&dom, &retrieval_serialize_options(&meta))
        });
        t.span("xml.drop_dom", doc, |_| drop(dom));
        Ok(text)
    })
}
