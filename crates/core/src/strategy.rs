//! One handle over the six storage strategies the paper compares.
//!
//! The paper's argument is a comparison: the object-relational mapping for
//! Oracle 9 and Oracle 8 (§4, §6.2) against the generic relational
//! storage of §1 and §6.3. [`setup`] instantiates any of them, keyed by
//! [`MappingStrategy`], on a fresh [`Database`]; the [`Handle`] then
//! shreds, loads, translates path queries and reconstructs through the
//! strategy's own code:
//!
//! | strategy | schema | load | path query | reconstruct |
//! |----------|--------|------|------------|-------------|
//! | `or9`, `or8` | [`generate_schema`] + [`create_script`] | [`load_script`] | [`translate`] | [`retriever::reconstruct`] |
//! | `rel` | [`views::relational_schema`] (+ the view types) | [`views::relational_load_script`] | [`views::relational_path_query`] | [`views::reconstruct_relational`] |
//! | `edge` | [`edge::ddl`] | [`edge::load`] | [`edge::path_query`] | [`retrieve::reconstruct_edge`] |
//! | `attr` | [`attrtab::ddl`] | [`attrtab::load`] | [`attrtab::path_query`] | [`retrieve::reconstruct_attrtab`] |
//! | `inline` | [`InlineSchema::build`] | [`InlineSchema::load`] | [`InlineSchema::path_query`] | [`retrieve::reconstruct_inline`] |
//!
//! A handle holds one document: the generic strategies number their rows
//! from scratch per document, and the object-relational ones store it
//! under [`DOC_ID`].

use xmlord_dtd::ast::Dtd;
use xmlord_dtd::MappingStrategy;
use xmlord_ordb::{Database, DbMode};
use xmlord_shred::inline::InlineSchema;
use xmlord_shred::{attrtab, edge, retrieve};
use xmlord_xml::Document;

use crate::ddlgen::{create_script, types_script};
use crate::error::MappingError;
use crate::loader::load_script;
use crate::metadata::DocMetadata;
use crate::model::{MappedSchema, MappingOptions};
use crate::pathquery::{translate, PathQuery};
use crate::retriever;
use crate::schemagen::{generate_schema, IdrefTargets};
use crate::views::{self, RelationalSchema};

/// The document id the object-relational strategies store under.
pub const DOC_ID: &str = "doc1";

/// What a strategy generated at setup and consults afterwards.
enum Schema {
    Object(MappedSchema),
    Relational(MappedSchema, RelationalSchema),
    Edge,
    AttributeTables,
    Inline(InlineSchema),
}

/// One storage strategy set up for one DTD: its DDL executed on its own
/// database, ready to load a document.
pub struct Handle {
    db: Database,
    dtd: Dtd,
    root: String,
    ddl: String,
    schema: Schema,
}

/// What [`Handle::load`] did: statements executed, and the rows and tables
/// the database holds afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadCounts {
    pub statements: usize,
    pub rows: usize,
    pub tables: usize,
}

/// Generate `strategy`'s schema for documents of `dtd` rooted at `root` and
/// execute its DDL on a fresh database — Oracle 8 rules for `or8`, Oracle 9
/// for the rest. `options` reach the strategies that generate a
/// [`MappedSchema`]; `rel` always maps without a document-id column.
pub fn setup(
    strategy: MappingStrategy,
    dtd: &Dtd,
    root: &str,
    options: &MappingOptions,
) -> Result<Handle, MappingError> {
    let mode = if strategy == MappingStrategy::Or8 { DbMode::Oracle8 } else { DbMode::Oracle9 };
    let generate =
        |options: MappingOptions| generate_schema(dtd, root, mode, options, &IdrefTargets::new());
    let (ddl, schema) = match strategy {
        MappingStrategy::Or9 | MappingStrategy::Or8 => {
            let schema = generate(options.clone())?;
            (create_script(&schema)?, Schema::Object(schema))
        }
        MappingStrategy::Relational => {
            // The types are those the §6.3 object view constructs.
            let schema = generate(MappingOptions { with_doc_id: false, ..options.clone() })?;
            let rel = views::relational_schema(&schema);
            let ddl = format!(
                "{}\n{}",
                types_script(&schema)?,
                views::relational_ddl(&rel, schema.options.varchar_len)
            );
            (ddl, Schema::Relational(schema, rel))
        }
        MappingStrategy::Edge => (edge::ddl().to_string(), Schema::Edge),
        MappingStrategy::AttributeTables => (attrtab::ddl(dtd, root), Schema::AttributeTables),
        MappingStrategy::Inline => {
            let schema = InlineSchema::build(dtd, root);
            (schema.ddl(), Schema::Inline(schema))
        }
    };
    let mut db = Database::new(mode);
    db.execute_script(&ddl)?;
    Ok(Handle { db, dtd: dtd.clone(), root: root.to_string(), ddl, schema })
}

impl Handle {
    /// The DDL script [`setup`] executed.
    pub fn ddl(&self) -> &str {
        &self.ddl
    }

    /// The database the strategy's tables live in.
    pub fn database(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Shred `doc` into the strategy's INSERT statements (not executed).
    pub fn load_statements(&self, doc: &Document) -> Result<Vec<String>, MappingError> {
        Ok(match &self.schema {
            Schema::Object(schema) => load_script(schema, &self.dtd, doc, DOC_ID)?,
            Schema::Relational(schema, rel) => views::relational_load_script(schema, rel, doc)?,
            Schema::Edge => edge::load(doc),
            Schema::AttributeTables => attrtab::load(doc),
            Schema::Inline(schema) => schema.load(doc)?,
        })
    }

    /// Shred `doc` and execute the statements; stops at the first one the
    /// database rejects.
    pub fn load(&mut self, doc: &Document) -> Result<LoadCounts, MappingError> {
        let statements = self.load_statements(doc)?;
        for statement in &statements {
            self.db.execute(statement)?;
        }
        Ok(LoadCounts {
            statements: statements.len(),
            rows: self.db.storage().total_rows(),
            tables: self.db.catalog().table_count(),
        })
    }

    /// Translate a path query below the root (`@name` as a final step reads
    /// an attribute) with an optional equality predicate on another path.
    pub fn path_query(
        &self,
        steps: &[&str],
        predicate: Option<(&[&str], &str)>,
    ) -> Result<String, MappingError> {
        let owned = |path: &[&str]| path.iter().map(|s| s.to_string()).collect();
        Ok(match &self.schema {
            Schema::Object(schema) => {
                let query = PathQuery {
                    steps: owned(steps),
                    predicate: predicate.map(|(path, value)| (owned(path), value.to_string())),
                };
                translate(schema, &query)?.sql
            }
            Schema::Relational(_, rel) => views::relational_path_query(rel, steps, predicate)?,
            Schema::Edge => edge::path_query(&self.root, steps, predicate),
            Schema::AttributeTables => attrtab::path_query(&self.root, steps, predicate),
            Schema::Inline(schema) => schema.path_query(steps, predicate)?,
        })
    }

    /// Rebuild the stored document; `bulk` picks the set-oriented access
    /// path over the naive per-node walker, as it does everywhere.
    pub fn reconstruct(&self, bulk: bool) -> Result<Document, MappingError> {
        let storage = self.db.storage();
        Ok(match &self.schema {
            Schema::Object(schema) => {
                let meta = DocMetadata { doc_id: DOC_ID.to_string(), ..Default::default() };
                retriever::reconstruct(&storage, schema, &meta, bulk)?.0
            }
            Schema::Relational(schema, rel) => {
                views::reconstruct_relational(schema, rel, &storage, bulk)?
            }
            Schema::Edge => retrieve::reconstruct_edge(&storage, bulk)?,
            Schema::AttributeTables => {
                retrieve::reconstruct_attrtab(&storage, &self.dtd, &self.root, bulk)?
            }
            Schema::Inline(schema) => retrieve::reconstruct_inline(&storage, schema, &self.dtd, bulk)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use xmlord_dtd::parse_dtd;
    use xmlord_ordb::Value;
    use xmlord_workload::university::{university_dtd, university_xml, UniversityConfig};
    use xmlord_xml::serializer::{serialize, SerializeOptions};

    const PAPER_STEPS: &[&str] = &["Student", "LName"];
    const PAPER_PREDICATE: (&[&str], &str) = (&["Student", "Course", "Professor", "PName"], "Jaeger");

    fn university(strategy: MappingStrategy) -> Handle {
        let dtd = parse_dtd(university_dtd()).unwrap();
        setup(strategy, &dtd, "University", &MappingOptions::default()).unwrap()
    }

    fn university_doc(students: usize) -> Document {
        let config = UniversityConfig { students, ..Default::default() };
        xmlord_xml::parse(&university_xml(&config)).unwrap()
    }

    fn answers(handle: &mut Handle, sql: &str) -> BTreeSet<String> {
        let result = handle.database().query(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
        result.rows.iter().map(|row| row[0].as_str().unwrap_or_default().to_string()).collect()
    }

    #[test]
    fn every_strategy_loads_and_answers_the_paper_query() {
        let doc = university_doc(8);
        let mut expected = None;
        for strategy in MappingStrategy::ALL {
            let mut handle = university(strategy);
            let counts = handle.load(&doc).unwrap();
            assert!(counts.statements >= 1, "{}", strategy.label());
            let sql = handle.path_query(PAPER_STEPS, Some(PAPER_PREDICATE)).unwrap();
            let rows = answers(&mut handle, &sql);
            // or9 runs first and is the reference.
            let expected = expected.get_or_insert_with(|| rows.clone());
            assert!(!expected.is_empty(), "the fixture has a Jaeger student");
            assert_eq!(&rows, expected, "{}: {sql}", strategy.label());
        }
    }

    #[test]
    fn or9_single_insert_vs_baselines() {
        let doc = university_doc(3);
        assert_eq!(university(MappingStrategy::Or9).load_statements(&doc).unwrap().len(), 1);
        for strategy in [
            MappingStrategy::Relational,
            MappingStrategy::Edge,
            MappingStrategy::AttributeTables,
            MappingStrategy::Inline,
        ] {
            let n = university(strategy).load_statements(&doc).unwrap().len();
            assert!(n > 5, "{}: {n}", strategy.label());
        }
    }

    #[test]
    fn or9_query_reports_zero_relational_joins_for_single_valued_paths() {
        let mut handle = university(MappingStrategy::Or9);
        handle.load(&university_doc(2)).unwrap();
        let sql = handle.path_query(&["StudyCourse"], None).unwrap();
        let before = handle.database().stats();
        handle.database().query(&sql).unwrap();
        assert_eq!(handle.database().stats().since(&before).join_pairs, 0);
    }

    /// A hand-written two-student fixture: exactly one student attends a
    /// course of Professor Jaeger, under every strategy.
    #[test]
    fn every_strategy_answers_the_fixture_query_exactly() {
        let dtd = parse_dtd(
            r#"
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ELEMENT LName (#PCDATA)> <!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)> <!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)> <!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)> <!ELEMENT CreditPts (#PCDATA)>
"#,
        )
        .unwrap();
        let doc = xmlord_xml::parse(
            "<University><StudyCourse>CS</StudyCourse>\
             <Student StudNr=\"1\"><LName>Conrad</LName><FName>M</FName>\
             <Course><Name>DBS</Name><Professor><PName>Jaeger</PName><Subject>CAD</Subject>\
             <Dept>CS</Dept></Professor></Course></Student>\
             <Student StudNr=\"2\"><LName>Meier</LName><FName>R</FName></Student></University>",
        )
        .unwrap();
        for strategy in MappingStrategy::ALL {
            let mut handle =
                setup(strategy, &dtd, "University", &MappingOptions::default()).unwrap();
            handle.load(&doc).unwrap();
            let sql = handle.path_query(PAPER_STEPS, Some(PAPER_PREDICATE)).unwrap();
            let rows = handle.database().query(&sql).unwrap().rows;
            assert_eq!(rows, vec![vec![Value::str("Conrad")]], "{}: {sql}", strategy.label());
        }
    }

    #[test]
    fn every_strategy_reconstructs_the_stored_document() {
        let doc = university_doc(3);
        let expected = serialize(&doc, &SerializeOptions::compact());
        for strategy in MappingStrategy::ALL {
            let mut handle = university(strategy);
            handle.load(&doc).unwrap();
            for bulk in [false, true] {
                let restored = handle.reconstruct(bulk).unwrap();
                assert_eq!(
                    serialize(&restored, &SerializeOptions::compact()),
                    expected,
                    "{} bulk={bulk}",
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn a_failed_setup_or_load_is_an_error() {
        let dtd = parse_dtd("<!ELEMENT r (a)><!ELEMENT a (#PCDATA)>").unwrap();
        let options = MappingOptions::default();
        assert!(setup(MappingStrategy::Or9, &dtd, "missing", &options).is_err());
        let mut handle = setup(MappingStrategy::Relational, &dtd, "r", &options).unwrap();
        let undeclared = xmlord_xml::parse("<r><a>1</a><b>2</b></r>").unwrap();
        assert!(handle.load(&undeclared).is_err());
    }
}
