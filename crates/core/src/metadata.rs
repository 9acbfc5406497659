//! The meta-data structures of §5 (and their §6.1 entity extension).
//!
//! "XML2Oracle maintains a meta-table during the transformation to capture
//! information about the source XML document. Each XML document to be stored
//! is assigned a unique DocID …" The meta-table records document name and
//! location, prolog information (XML version, character set, standalone),
//! the SchemaID, namespaces, and — per generated database attribute — a
//! `Type_DocData` entry telling whether it came from an XML *element* or an
//! XML *attribute* (`XML_Type`), under which name (`XML_Name`/`DB_Name`)
//! and with which database type (`DB_Type`).
//!
//! §6.1's proposal is implemented too: internal entity definitions are
//! stored (`Type_Entity`) so the retriever can re-substitute the original
//! entity references.

use xmlord_dtd::ast::{Dtd, EntityDecl};
use xmlord_ordb::ident::Ident;
use xmlord_ordb::storage::Storage;
use xmlord_ordb::{Database, DbError, QueryResult, ReadSession, Value};
use xmlord_xml::{Document, EntityCatalog};

use crate::error::MappingError;
use crate::model::{FieldSource, MappedSchema};
use crate::retriever::RetrievalStats;

/// A source the metadata readers can read: the writer handle, or an MVCC
/// [`ReadSession`] (which answers from its pinned committed snapshot).
pub trait MetaSource {
    fn meta_query(&mut self, sql: &str) -> Result<QueryResult, DbError>;

    /// [`metadata_row`] on the source's storage, the access recorded in
    /// the source's own statistics.
    fn metadata_row(&mut self, doc_id: &str) -> Result<DocMetadata, MappingError>;
}

impl MetaSource for Database {
    fn meta_query(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        self.query(sql)
    }

    fn metadata_row(&mut self, doc_id: &str) -> Result<DocMetadata, MappingError> {
        let (meta, stats) = metadata_row(&self.storage(), doc_id, self.bulk_retrieval())?;
        self.record_retrieval(stats.table_scans, stats.index_probes, false);
        Ok(meta)
    }
}

impl MetaSource for ReadSession {
    fn meta_query(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        self.query(sql)
    }

    fn metadata_row(&mut self, doc_id: &str) -> Result<DocMetadata, MappingError> {
        let bulk = self.bulk_retrieval();
        let (meta, stats) = metadata_row(self.snapshot().1, doc_id, bulk)?;
        self.record_retrieval(stats.table_scans, stats.index_probes, false);
        Ok(meta)
    }
}

/// The fixed meta-schema DDL. Executed once per database.
///
/// The paper's §5 sketch names the date column `Date`; that is a reserved
/// word in SQL (the very trap §5 warns about for element names), so the
/// column is called `DocDate` here.
pub fn metadata_ddl() -> &'static str {
    "CREATE TYPE Type_DocData AS OBJECT (\n\
     \u{20}   XML_Type VARCHAR(30),\n\
     \u{20}   XML_Name VARCHAR(4000),\n\
     \u{20}   DB_Name VARCHAR(64),\n\
     \u{20}   DB_Type VARCHAR(4000),\n\
     \u{20}   NameSpace VARCHAR(4000)\n\
     );\n\
     CREATE TYPE TypeVA_DocData AS VARRAY(10000) OF Type_DocData;\n\
     CREATE TYPE Type_Entity AS OBJECT (\n\
     \u{20}   EntityName VARCHAR(4000),\n\
     \u{20}   Substitution VARCHAR(4000)\n\
     );\n\
     CREATE TYPE TypeVA_Entity AS VARRAY(10000) OF Type_Entity;\n\
     CREATE TABLE TabSchemas (\n\
     \u{20}   SchemaName VARCHAR(4000) PRIMARY KEY,\n\
     \u{20}   RootElement VARCHAR(4000),\n\
     \u{20}   SourceKind VARCHAR(10),\n\
     \u{20}   SourceText CLOB,\n\
     \u{20}   SchemaID VARCHAR(4000),\n\
     \u{20}   IdrefTargets CLOB\n\
     );\n\
     CREATE TABLE TabMetadata (\n\
     \u{20}   DocID VARCHAR(4000) PRIMARY KEY,\n\
     \u{20}   DocName VARCHAR(4000),\n\
     \u{20}   URL VARCHAR(4000),\n\
     \u{20}   SchemaID VARCHAR(4000),\n\
     \u{20}   NameSpace VARCHAR(4000),\n\
     \u{20}   XMLVersion VARCHAR(10),\n\
     \u{20}   CharacterSet VARCHAR(40),\n\
     \u{20}   Standalone CHAR(1),\n\
     \u{20}   DocData TypeVA_DocData,\n\
     \u{20}   Entities TypeVA_Entity,\n\
     \u{20}   DocDate DATE\n\
     );"
}

/// Everything the retriever needs to restore a document faithfully.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocMetadata {
    pub doc_id: String,
    pub doc_name: String,
    pub url: String,
    pub schema_id: String,
    pub namespace: Option<String>,
    pub xml_version: Option<String>,
    pub character_set: Option<String>,
    pub standalone: Option<bool>,
    /// (xml_type, xml_name, db_name, db_type) provenance entries.
    pub doc_data: Vec<(String, String, String, String)>,
    /// Internal entity definitions (§6.1).
    pub entities: Vec<(String, String)>,
    pub date: String,
}

impl DocMetadata {
    /// Rebuild the entity catalog for §6.1 re-substitution.
    pub fn entity_catalog(&self) -> EntityCatalog {
        let mut cat = EntityCatalog::new();
        for (name, replacement) in &self.entities {
            cat.declare(name, replacement);
        }
        cat
    }
}

/// Build the provenance entries for a mapped schema: one `Type_DocData` row
/// per generated database attribute, telling elements and attributes apart
/// (the distinction the mapping itself loses, §5).
pub fn doc_data_entries(schema: &MappedSchema) -> Vec<(String, String, String, String)> {
    let varchar = schema.options.varchar_len;
    let mut out = Vec::new();
    for element in &schema.creation_order {
        let mapping = &schema.elements[element];
        if let Some(table) = &mapping.table {
            out.push(("element".to_string(), element.clone(), table.clone(), "TABLE".to_string()));
        }
        let owner = mapping
            .object_type
            .clone()
            .or_else(|| mapping.table.clone())
            .unwrap_or_else(|| element.clone());
        for field in &mapping.fields {
            let (xml_type, xml_name) = match &field.source {
                FieldSource::Text => ("element", element.clone()),
                FieldSource::ChildElement(c) => ("element", c.clone()),
                FieldSource::XmlAttribute(a) => ("attribute", a.clone()),
                FieldSource::AttrList => ("attribute-list", element.clone()),
                FieldSource::SyntheticId => ("synthetic", element.clone()),
                FieldSource::ParentRef(p) => ("synthetic", p.clone()),
            };
            out.push((
                xml_type.to_string(),
                xml_name,
                format!("{owner}.{}", field.db_name),
                field.kind.sql_type_text(varchar),
            ));
        }
        if let Some(attr_list) = &mapping.attr_list {
            for f in &attr_list.fields {
                out.push((
                    "attribute".to_string(),
                    f.xml_attribute.clone(),
                    format!("{}.{}", attr_list.type_name, f.db_name),
                    format!("VARCHAR({varchar})"),
                ));
            }
        }
    }
    out
}

/// Generate the INSERT for one document's metadata row.
pub fn metadata_insert(
    schema: &MappedSchema,
    dtd: &Dtd,
    doc: &Document,
    doc_id: &str,
    doc_name: &str,
    url: &str,
    date: &str,
) -> String {
    let q = |s: &str| format!("'{}'", s.replace('\'', "''"));
    let decl = doc.declaration.as_ref();
    let xml_version = decl.map(|d| d.version.clone()).unwrap_or_default();
    let charset = decl.and_then(|d| d.encoding.clone()).unwrap_or_default();
    let standalone = match decl.and_then(|d| d.standalone) {
        Some(true) => "'Y'".to_string(),
        Some(false) => "'N'".to_string(),
        None => "NULL".to_string(),
    };
    let namespace = doc
        .root_element()
        .and_then(|root| doc.attribute(root, "xmlns"))
        .map(&q)
        .unwrap_or_else(|| "NULL".to_string());

    let doc_data: Vec<String> = doc_data_entries(schema)
        .into_iter()
        .map(|(t, x, d, ty)| {
            format!("Type_DocData({}, {}, {}, {}, NULL)", q(&t), q(&x), q(&d), q(&ty))
        })
        .collect();
    let entities: Vec<String> = dtd
        .entities
        .iter()
        .filter_map(|e| match e {
            EntityDecl::InternalGeneral { name, replacement } => {
                Some(format!("Type_Entity({}, {})", q(name), q(replacement)))
            }
            _ => None,
        })
        .collect();

    format!(
        "INSERT INTO TabMetadata VALUES ({}, {}, {}, {}, {}, {}, {}, {}, \
         TypeVA_DocData({}), TypeVA_Entity({}), {})",
        q(doc_id),
        q(doc_name),
        q(url),
        q(schema.options.schema_id.as_deref().unwrap_or("")),
        namespace,
        q(&xml_version),
        q(&charset),
        standalone,
        doc_data.join(", "),
        entities.join(", "),
        q(date),
    )
}

/// The meta-table, and the position of its `DocID` PRIMARY KEY column —
/// fixed by [`metadata_ddl`], which [`DocMetadata::from_row`] reads by
/// position.
const METADATA_TABLE: &str = "TabMetadata";
const METADATA_DOC_ID_COL: usize = 0;

impl DocMetadata {
    /// Decode one `TabMetadata` row (values in [`metadata_ddl`]'s column
    /// order).
    pub fn from_row(row: &[Value]) -> DocMetadata {
        let opt_text = |i: usize| row.get(i).and_then(Value::as_str).map(str::to_string);
        let text = |i: usize| opt_text(i).unwrap_or_default();
        // The attribute lists of the objects in the collection at column `i`.
        let entries = |i: usize| {
            let elements = match row.get(i) {
                Some(Value::Coll { elements, .. }) => elements.as_slice(),
                _ => &[],
            };
            elements.iter().filter_map(|entry| match entry {
                Value::Obj { attrs, .. } => Some(attrs.as_slice()),
                _ => None,
            })
        };
        let attr = |attrs: &[Value], i: usize| {
            attrs.get(i).and_then(Value::as_str).unwrap_or("").to_string()
        };
        DocMetadata {
            doc_id: text(METADATA_DOC_ID_COL),
            doc_name: text(1),
            url: text(2),
            schema_id: text(3),
            namespace: opt_text(4),
            xml_version: opt_text(5).filter(|s| !s.is_empty()),
            character_set: opt_text(6).filter(|s| !s.is_empty()),
            standalone: match row.get(7) {
                Some(Value::Str(s)) if s == "Y" => Some(true),
                Some(Value::Str(s)) if s == "N" => Some(false),
                _ => None,
            },
            doc_data: entries(8)
                .map(|a| (attr(a, 0), attr(a, 1), attr(a, 2), attr(a, 3)))
                .collect(),
            entities: entries(9).map(|a| (attr(a, 0), attr(a, 1))).collect(),
            date: text(10),
        }
    }
}

/// Read a document's metadata row from a storage snapshot: one keyed
/// lookup on `TabMetadata`'s PRIMARY KEY — a maintained storage index, so
/// one probe however many documents are stored (with `bulk` off, the
/// reference scan). Returns the accesses made beside the row.
pub fn metadata_row(
    storage: &Storage,
    doc_id: &str,
    bulk: bool,
) -> Result<(DocMetadata, RetrievalStats), MappingError> {
    let mut reader = storage
        .keyed_reader(&Ident::internal(METADATA_TABLE), METADATA_DOC_ID_COL, bulk)
        .ok_or_else(|| map_meta_err(DbError::UnknownTable(METADATA_TABLE.to_string())))?;
    let slot = reader
        .first_slot(&Value::str(doc_id))
        .ok_or_else(|| MappingError::NoSuchDocument(doc_id.to_string()))?;
    let meta = DocMetadata::from_row(&reader.rows()[slot].values);
    let stats =
        RetrievalStats { table_scans: reader.table_scans, index_probes: reader.index_probes };
    Ok((meta, stats))
}

/// Read a document's metadata back from the database ([`metadata_row`] on
/// the source's current state).
pub fn read_metadata<S: MetaSource + ?Sized>(
    db: &mut S,
    doc_id: &str,
) -> Result<DocMetadata, MappingError> {
    db.metadata_row(doc_id)
}

fn map_meta_err(e: DbError) -> MappingError {
    MappingError::Db(e)
}

// -- persistent schema registry (`TabSchemas`) ------------------------------

/// One row of the persistent schema registry: everything needed to
/// re-derive a registered schema deterministically when a durable database
/// is reopened (the mapping itself is a pure function of these inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaRegistryRow {
    pub name: String,
    pub root: String,
    /// `"dtd"` or `"xsd"`.
    pub kind: String,
    /// The DTD or XSD source text, verbatim.
    pub source: String,
    /// The §5 SchemaID assigned at registration (empty = none).
    pub schema_id: String,
    /// §4.4 IDREF targets: (element, attribute) → target element.
    pub idref_targets: Vec<(String, String, String)>,
}

/// Serialize IDREF targets for the registry. XML names cannot contain
/// spaces or `;`, so `elem attr target` triples joined by `;` are
/// unambiguous.
fn encode_idref_targets(targets: &[(String, String, String)]) -> String {
    targets
        .iter()
        .map(|(e, a, t)| format!("{e} {a} {t}"))
        .collect::<Vec<_>>()
        .join(";")
}

fn decode_idref_targets(text: &str) -> Vec<(String, String, String)> {
    text.split(';')
        .filter(|s| !s.is_empty())
        .filter_map(|triple| {
            let mut it = triple.split(' ');
            Some((it.next()?.to_string(), it.next()?.to_string(), it.next()?.to_string()))
        })
        .collect()
}

/// The INSERT statement registering one schema in `TabSchemas`.
pub fn schema_registry_insert(row: &SchemaRegistryRow) -> String {
    let q = |s: &str| format!("'{}'", s.replace('\'', "''"));
    format!(
        "INSERT INTO TabSchemas VALUES ({}, {}, {}, {}, {}, {})",
        q(&row.name),
        q(&row.root),
        q(&row.kind),
        q(&row.source),
        q(&row.schema_id),
        q(&encode_idref_targets(&row.idref_targets)),
    )
}

/// Read the full schema registry back, in registration-independent
/// (name-sorted) order.
pub fn read_schema_registry<S: MetaSource + ?Sized>(
    db: &mut S,
) -> Result<Vec<SchemaRegistryRow>, MappingError> {
    let result = db
        .meta_query(
            "SELECT s.SchemaName, s.RootElement, s.SourceKind, s.SourceText, \
             s.SchemaID, s.IdrefTargets FROM TabSchemas s ORDER BY s.SchemaName",
        )
        .map_err(map_meta_err)?;
    let text = |v: &Value| v.as_str().unwrap_or("").to_string();
    Ok(result
        .rows
        .iter()
        .map(|row| SchemaRegistryRow {
            name: text(&row[0]),
            root: text(&row[1]),
            kind: text(&row[2]),
            source: text(&row[3]),
            schema_id: text(&row[4]),
            idref_targets: decode_idref_targets(&text(&row[5])),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MappingOptions;
    use crate::schemagen::{generate_schema, IdrefTargets};
    use xmlord_dtd::parse_dtd;
    use xmlord_ordb::DbMode;

    const DTD: &str = r#"
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ENTITY cs "Computer Science">
<!ELEMENT LName (#PCDATA)> <!ELEMENT FName (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
"#;

    fn fixture() -> (Database, MappedSchema, Dtd, Document) {
        let dtd = parse_dtd(DTD).unwrap();
        let doc = xmlord_xml::parse_with_catalog(
            "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>\
             <University xmlns=\"urn:uni\"><StudyCourse>&cs;</StudyCourse></University>",
            dtd.entity_catalog(),
        )
        .unwrap();
        let schema = generate_schema(
            &dtd,
            "University",
            DbMode::Oracle9,
            MappingOptions { schema_id: Some("S1".into()), ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(metadata_ddl()).unwrap();
        (db, schema, dtd, doc)
    }

    #[test]
    fn meta_ddl_executes() {
        let (db, _, _, _) = fixture();
        // TabSchemas (the PR 8 registry) + TabMetadata.
        assert_eq!(db.catalog().table_count(), 2);
        assert_eq!(db.catalog().type_count(), 4);
    }

    #[test]
    fn metadata_round_trips_through_the_database() {
        let (mut db, schema, dtd, doc) = fixture();
        let insert = metadata_insert(&schema, &dtd, &doc, "doc1", "uni.xml", "file:///uni.xml", "2002-03-25");
        db.execute(&insert).unwrap();
        let meta = read_metadata(&mut db, "doc1").unwrap();
        assert_eq!(meta.doc_id, "doc1");
        assert_eq!(meta.doc_name, "uni.xml");
        assert_eq!(meta.schema_id, "S1");
        assert_eq!(meta.namespace.as_deref(), Some("urn:uni"));
        assert_eq!(meta.xml_version.as_deref(), Some("1.0"));
        assert_eq!(meta.character_set.as_deref(), Some("UTF-8"));
        assert_eq!(meta.standalone, Some(true));
        assert_eq!(meta.date, "2002-03-25");
        // §6.1: the entity definition survives.
        assert_eq!(meta.entities, vec![("cs".to_string(), "Computer Science".to_string())]);
        assert_eq!(meta.entity_catalog().lookup("cs"), Some("Computer Science"));
        // Provenance entries distinguish elements from attributes.
        assert!(meta
            .doc_data
            .iter()
            .any(|(t, x, d, _)| t == "attribute" && x == "StudNr" && d.contains("attrStudNr")));
        assert!(meta
            .doc_data
            .iter()
            .any(|(t, x, _, _)| t == "element" && x == "LName"));
    }

    #[test]
    fn missing_document_reports_no_such_document() {
        let (mut db, _, _, _) = fixture();
        assert!(matches!(
            read_metadata(&mut db, "ghost"),
            Err(MappingError::NoSuchDocument(_))
        ));
    }

    #[test]
    fn doc_data_entries_cover_every_field() {
        let (_, schema, _, _) = fixture();
        let entries = doc_data_entries(&schema);
        let total_fields: usize =
            schema.elements.values().map(|m| m.fields.len()).sum();
        assert!(entries.len() >= total_fields);
        // DB_Type strings are real SQL types.
        assert!(entries.iter().any(|(_, _, _, ty)| ty == "VARCHAR(4000)"));
    }

    #[test]
    fn second_document_with_same_id_is_rejected() {
        let (mut db, schema, dtd, doc) = fixture();
        let insert = metadata_insert(&schema, &dtd, &doc, "doc1", "a.xml", "", "2002-01-01");
        db.execute(&insert).unwrap();
        let err = db.execute(&insert).unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
    }
}
