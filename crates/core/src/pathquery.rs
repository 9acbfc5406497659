//! Path queries over the object-relational schema.
//!
//! §4.1: "The object structure can be traversed using the dot notation
//! without executing join operations … tight correspondence with XPath
//! expressions." This module translates a simple XPath-like path (steps of
//! element names, optionally a final `@attribute`, optionally one equality
//! predicate) into the corresponding SELECT:
//!
//! * embedded single-valued steps → dot navigation,
//! * set-valued steps → `TABLE(…)` collection un-nesting,
//! * REF steps → implicit dereference in the path,
//! * Oracle 8 inverted steps → a join with the child's table on its
//!   back-pointing REF attribute.

use xmlord_ordb::sql::printer::quote_literal;

use crate::error::MappingError;
use crate::model::{FieldKind, FieldSource, MappedSchema};
use crate::naming::{NameGenerator, NameKind};

/// A parsed path query, e.g.
/// `University/Student/Course/Professor/PName[.= 'Jaeger']` is
/// `{ steps: [Student, Course, Professor, PName], predicate: … }` relative
/// to the mapped root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathQuery {
    /// Steps below the root element. A final step may be `@name` for an
    /// attribute.
    pub steps: Vec<String>,
    /// Optional equality predicate on another path below the root.
    pub predicate: Option<(Vec<String>, String)>,
}

impl PathQuery {
    /// Parse `"Student/Course/@CreditPts"` style text (no predicate).
    pub fn parse(text: &str) -> PathQuery {
        PathQuery {
            steps: text.split('/').filter(|s| !s.is_empty()).map(str::to_string).collect(),
            predicate: None,
        }
    }

    pub fn with_predicate(mut self, path: &str, value: &str) -> PathQuery {
        self.predicate = Some((
            path.split('/').filter(|s| !s.is_empty()).map(str::to_string).collect(),
            value.to_string(),
        ));
        self
    }
}

/// The generated SQL plus bookkeeping for the experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatedQuery {
    pub sql: String,
    /// FROM items beyond the root table (TABLE() un-nestings + O8 joins).
    pub extra_from_items: usize,
    /// True relational joins (Oracle 8 inverted relationships).
    pub relational_joins: usize,
}

/// Translate a path query against a mapped schema. The predicate path
/// shares its common prefix with the result path, so set-valued steps
/// un-nest through the *same* `TABLE(…)` alias and the predicate is
/// correlated correctly.
///
/// Every generated equality — the user predicate (`alias.col = 'v'`) and
/// the Oracle 8 back-pointing joins (`alias.ref = REF(parent)`) — keeps a
/// bare two-part `alias.column` on one side, the shape the cost-based
/// planner matches against secondary indexes. With the [`index_script`]
/// DDL applied, translated path queries run as index probes instead of
/// full scans.
pub fn translate(schema: &MappedSchema, query: &PathQuery) -> Result<TranslatedQuery, MappingError> {
    let mut builder = Builder {
        schema,
        from: vec![format!("{} t0", schema.root_table)],
        where_clauses: Vec::new(),
        next_alias: 1,
        relational_joins: 0,
    };
    let root_cursor = Cursor { expr: "t0".to_string(), element: schema.root_element.clone() };
    let select_expr = match &query.predicate {
        None => builder.walk(root_cursor, &query.steps)?,
        Some((pred_path, value)) => {
            let shared = query
                .steps
                .iter()
                .zip(pred_path.iter())
                .take_while(|(a, b)| a == b)
                .count()
                .min(query.steps.len().saturating_sub(1))
                .min(pred_path.len().saturating_sub(1));
            let mut cursor = root_cursor;
            for step in &query.steps[..shared] {
                cursor = builder.advance(cursor, step)?;
            }
            let select_expr = builder.walk(cursor.clone(), &query.steps[shared..])?;
            let pred_expr = builder.walk(cursor, &pred_path[shared..])?;
            builder
                .where_clauses
                .push(format!("{pred_expr} = {}", quote_literal(value)));
            select_expr
        }
    };
    let mut sql = format!("SELECT {select_expr} FROM {}", builder.from.join(", "));
    if !builder.where_clauses.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&builder.where_clauses.join(" AND "));
    }
    Ok(TranslatedQuery {
        sql,
        extra_from_items: builder.from.len() - 1,
        relational_joins: builder.relational_joins,
    })
}

/// One secondary index a mapping wants beside its keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexTarget {
    pub name: String,
    pub table: String,
    pub column: String,
}

impl IndexTarget {
    pub fn create_statement(&self) -> String {
        format!("CREATE INDEX {} ON {} ({})", self.name, self.table, self.column)
    }
}

/// The columns of a mapping worth a secondary index: every back-pointing
/// REF column (the join key each Oracle 8 inverted relationship probes, in
/// translated path queries and in reconstruction alike). The synthetic IDs
/// — parent wiring, IDREF resolution, the root table's document id — are
/// PRIMARY KEYs, and a key is its own index.
///
/// Names come from the schema's own [`NameGenerator`] rule, so they keep the
/// SchemaID suffix inside the 30-character limit and are unique in the
/// catalog exactly as the table names are — not per call.
pub fn index_targets(schema: &MappedSchema) -> Vec<IndexTarget> {
    let mut names = match &schema.options.schema_id {
        Some(id) => NameGenerator::with_schema_id(id),
        None => NameGenerator::new(),
    };
    let mut out = Vec::new();
    for mapping in schema.elements.values() {
        let Some(table) = &mapping.table else { continue };
        let parent_refs =
            mapping.fields.iter().filter(|f| matches!(f.source, FieldSource::ParentRef(_)));
        for (nth, field) in parent_refs.enumerate() {
            // A table with several parents numbers its indexes before the
            // SchemaID, where no other schema's suffix can read the same.
            let stem = match nth {
                0 => mapping.element.clone(),
                _ => format!("{}{}", mapping.element, nth + 1),
            };
            out.push(IndexTarget {
                name: names.global(NameKind::Index, &stem),
                table: table.clone(),
                column: field.db_name.clone(),
            });
        }
    }
    out
}

/// DDL that accelerates translated path queries: the [`index_targets`]
/// plus an `ANALYZE` per object table so the cost-based planner can order
/// joins by cardinality. Run it *after* loading documents — ANALYZE
/// snapshots the current row counts.
pub fn index_script(schema: &MappedSchema) -> Vec<String> {
    let indexes = index_targets(schema).into_iter().map(|t| t.create_statement());
    let analyzes = schema
        .elements
        .values()
        .filter_map(|m| m.table.as_ref())
        .map(|table| format!("ANALYZE TABLE {table} COMPUTE STATISTICS"));
    indexes.chain(analyzes).collect()
}

/// Position while translating: a SQL expression plus the element it denotes.
#[derive(Debug, Clone)]
struct Cursor {
    expr: String,
    element: String,
}

struct Builder<'a> {
    schema: &'a MappedSchema,
    from: Vec<String>,
    where_clauses: Vec<String>,
    next_alias: u32,
    relational_joins: usize,
}

impl<'a> Builder<'a> {
    fn fresh_alias(&mut self) -> String {
        let alias = format!("t{}", self.next_alias);
        self.next_alias += 1;
        alias
    }

    /// Walk all steps from `cursor` and return the SQL expression of the
    /// final step's value.
    fn walk(&mut self, cursor: Cursor, steps: &[String]) -> Result<String, MappingError> {
        let Some((last, prefix)) = steps.split_last() else {
            return Ok(cursor.expr);
        };
        let mut cursor = cursor;
        for step in prefix {
            cursor = self.advance(cursor, step)?;
        }
        self.terminal(cursor, last)
    }

    /// Advance one *non-terminal* step (must lead to a complex element).
    fn advance(&mut self, cursor: Cursor, step: &str) -> Result<Cursor, MappingError> {
        let mapping = self
            .schema
            .mapping(&cursor.element)
            .ok_or_else(|| MappingError::UndeclaredElement(cursor.element.clone()))?;
        if let Some(field) = mapping.field_for_child(step) {
            let child_expr = format!("{}.{}", cursor.expr, field.db_name);
            return match &field.kind {
                FieldKind::Object(_) | FieldKind::Ref(_) => {
                    // Dot navigation — REFs dereference implicitly (§2.3).
                    Ok(Cursor { expr: child_expr, element: step.to_string() })
                }
                FieldKind::ObjectCollection { .. } => {
                    let alias = self.fresh_alias();
                    self.from.push(format!("TABLE({child_expr}) {alias}"));
                    Ok(Cursor { expr: alias, element: step.to_string() })
                }
                FieldKind::RefCollection { .. } => {
                    let alias = self.fresh_alias();
                    self.from.push(format!("TABLE({child_expr}) {alias}"));
                    // Collection elements are REFs → COLUMN_VALUE, then
                    // implicit dereference on further navigation.
                    Ok(Cursor {
                        expr: format!("{alias}.COLUMN_VALUE"),
                        element: step.to_string(),
                    })
                }
                FieldKind::Scalar(_) | FieldKind::ScalarCollection(_) => {
                    Err(MappingError::Unsupported(format!(
                        "<{step}> is a simple element; cannot continue path"
                    )))
                }
            };
        }
        // Oracle 8 inverted relationship: join the child's table on its
        // back-pointing REF (cursor.expr is a bare table alias then).
        if let Some(child_mapping) = self.schema.mapping(step) {
            let back_ref = child_mapping.fields.iter().find(
                |f| matches!(&f.source, FieldSource::ParentRef(p) if p == &cursor.element),
            );
            if let (Some(back_ref), Some(child_table)) = (back_ref, &child_mapping.table) {
                let alias = self.fresh_alias();
                self.from.push(format!("{child_table} {alias}"));
                self.where_clauses
                    .push(format!("{alias}.{} = REF({})", back_ref.db_name, cursor.expr));
                self.relational_joins += 1;
                return Ok(Cursor { expr: alias, element: step.to_string() });
            }
        }
        Err(MappingError::Unsupported(format!(
            "<{}> has no mapped child <{step}>",
            cursor.element
        )))
    }

    /// Resolve the final step to a value expression.
    fn terminal(&mut self, cursor: Cursor, step: &str) -> Result<String, MappingError> {
        let mapping = self
            .schema
            .mapping(&cursor.element)
            .ok_or_else(|| MappingError::UndeclaredElement(cursor.element.clone()))?;

        // Attribute step.
        if let Some(attr) = step.strip_prefix('@') {
            if let Some(field) = mapping.field_for_attribute(attr) {
                return Ok(format!("{}.{}", cursor.expr, field.db_name));
            }
            if let Some(attr_list) = &mapping.attr_list {
                let list_field = mapping
                    .fields
                    .iter()
                    .find(|f| f.source == FieldSource::AttrList)
                    .ok_or_else(|| {
                        MappingError::MalformedMapping(format!(
                            "<{}> has an attribute-list mapping but no attrList field",
                            cursor.element
                        ))
                    })?;
                if let Some(inner) = attr_list.fields.iter().find(|f| f.xml_attribute == attr) {
                    return Ok(format!(
                        "{}.{}.{}",
                        cursor.expr, list_field.db_name, inner.db_name
                    ));
                }
            }
            return Err(MappingError::Unsupported(format!(
                "<{}> has no attribute '{attr}'",
                cursor.element
            )));
        }

        if let Some(field) = mapping.field_for_child(step) {
            let child_expr = format!("{}.{}", cursor.expr, field.db_name);
            return match &field.kind {
                FieldKind::Scalar(_) | FieldKind::Object(_) | FieldKind::Ref(_) => Ok(child_expr),
                FieldKind::ScalarCollection(_) => {
                    let alias = self.fresh_alias();
                    self.from.push(format!("TABLE({child_expr}) {alias}"));
                    Ok(format!("{alias}.COLUMN_VALUE"))
                }
                FieldKind::ObjectCollection { .. } | FieldKind::RefCollection { .. } => {
                    let alias = self.fresh_alias();
                    self.from.push(format!("TABLE({child_expr}) {alias}"));
                    Ok(format!("{alias}.COLUMN_VALUE"))
                }
            };
        }
        // Oracle 8 inverted terminal: join and return the whole row alias.
        let cursor2 = self.advance(cursor, step)?;
        Ok(cursor2.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddlgen::create_script;
    use crate::loader::load_script;
    use crate::model::MappingOptions;
    use crate::schemagen::{generate_schema, IdrefTargets};
    use xmlord_dtd::parse_dtd;
    use xmlord_ordb::{Database, DbMode, Value};

    const UNIVERSITY_DTD: &str = r#"
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ELEMENT LName (#PCDATA)> <!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)> <!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)> <!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)> <!ELEMENT CreditPts (#PCDATA)>
"#;

    const XML: &str = "<University><StudyCourse>CS</StudyCourse>\
<Student StudNr=\"1\"><LName>Conrad</LName><FName>M</FName>\
<Course><Name>DBS</Name><Professor><PName>Jaeger</PName><Subject>CAD</Subject>\
<Dept>CS</Dept></Professor></Course></Student></University>";

    fn loaded(mode: DbMode) -> (Database, MappedSchema) {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let doc = xmlord_xml::parse(XML).unwrap();
        let schema = generate_schema(
            &dtd,
            "University",
            mode,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let mut db = Database::new(mode);
        db.execute_script(&create_script(&schema).unwrap()).unwrap();
        for stmt in load_script(&schema, &dtd, &doc, "d").unwrap() {
            db.execute(&stmt).unwrap();
        }
        (db, schema)
    }

    #[test]
    fn simple_dot_navigation_has_no_extra_from_items() {
        let (mut db, schema) = loaded(DbMode::Oracle9);
        let q = PathQuery::parse("StudyCourse");
        let t = translate(&schema, &q).unwrap();
        assert_eq!(t.extra_from_items, 0);
        assert_eq!(t.relational_joins, 0);
        assert_eq!(db.query_scalar(&t.sql).unwrap(), Value::str("CS"));
    }

    #[test]
    fn paper_query_translates_and_runs_on_oracle9() {
        let (mut db, schema) = loaded(DbMode::Oracle9);
        // "Family names of students who subscribed to a course of
        // Professor Jaeger" (§4.1).
        let q = PathQuery::parse("Student/LName")
            .with_predicate("Student/Course/Professor/PName", "Jaeger");
        let t = translate(&schema, &q).unwrap();
        // No relational joins — the paper's claim.
        assert_eq!(t.relational_joins, 0);
        let rows = db.query(&t.sql).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]]);
    }

    #[test]
    fn same_query_on_oracle8_needs_relational_joins() {
        let (mut db, schema) = loaded(DbMode::Oracle8);
        let q = PathQuery::parse("Student/LName")
            .with_predicate("Student/Course/Professor/PName", "Jaeger");
        let t = translate(&schema, &q).unwrap();
        assert!(t.relational_joins >= 2, "{t:?}");
        let rows = db.query(&t.sql).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]]);
    }

    #[test]
    fn attribute_steps_resolve() {
        let (mut db, schema) = loaded(DbMode::Oracle9);
        let q = PathQuery::parse("Student/@StudNr");
        let t = translate(&schema, &q).unwrap();
        assert_eq!(db.query_scalar(&t.sql).unwrap(), Value::str("1"));
    }

    #[test]
    fn scalar_collection_terminal_step() {
        let (mut db, schema) = loaded(DbMode::Oracle9);
        let q = PathQuery::parse("Student/Course/Professor/Subject");
        let t = translate(&schema, &q).unwrap();
        let rows = db.query(&t.sql).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("CAD")]]);
    }

    #[test]
    fn unknown_step_is_reported() {
        let (_, schema) = loaded(DbMode::Oracle9);
        let q = PathQuery::parse("Student/Bogus");
        assert!(matches!(
            translate(&schema, &q),
            Err(MappingError::Unsupported(_))
        ));
    }

    #[test]
    fn continuing_past_a_simple_element_is_an_error() {
        let (_, schema) = loaded(DbMode::Oracle9);
        let q = PathQuery::parse("StudyCourse/Deeper");
        assert!(translate(&schema, &q).is_err());
    }

    #[test]
    fn predicate_is_correlated_not_existential() {
        // Two students; only one attends a Jaeger course. An uncorrelated
        // translation would return both LNames.
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let xml = "<University><StudyCourse>CS</StudyCourse>\
<Student StudNr=\"1\"><LName>Conrad</LName><FName>M</FName>\
<Course><Name>DBS</Name><Professor><PName>Jaeger</PName><Subject>CAD</Subject>\
<Dept>CS</Dept></Professor></Course></Student>\
<Student StudNr=\"2\"><LName>Meier</LName><FName>R</FName>\
<Course><Name>OS</Name><Professor><PName>Kudrass</PName><Subject>OS</Subject>\
<Dept>CS</Dept></Professor></Course></Student></University>";
        let doc = xmlord_xml::parse(xml).unwrap();
        for mode in [DbMode::Oracle9, DbMode::Oracle8] {
            let schema = generate_schema(
                &dtd,
                "University",
                mode,
                MappingOptions::default(),
                &IdrefTargets::new(),
            )
            .unwrap();
            let mut db = Database::new(mode);
            db.execute_script(&crate::ddlgen::create_script(&schema).unwrap()).unwrap();
            for stmt in crate::loader::load_script(&schema, &dtd, &doc, "d").unwrap() {
                db.execute(&stmt).unwrap();
            }
            let q = PathQuery::parse("Student/LName")
                .with_predicate("Student/Course/Professor/PName", "Jaeger");
            let t = translate(&schema, &q).unwrap();
            let rows = db.query(&t.sql).unwrap();
            assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]], "{mode}: {}", t.sql);
        }
    }

    #[test]
    fn oracle8_path_predicates_become_index_probes() {
        let (mut db, schema) = loaded(DbMode::Oracle8);
        let q = PathQuery::parse("Student/LName")
            .with_predicate("Student/Course/Professor/PName", "Jaeger");
        let t = translate(&schema, &q).unwrap();
        let naive = db.query(&t.sql).unwrap();
        for stmt in index_script(&schema) {
            db.execute(&stmt).unwrap();
        }
        // The generated back-ref equalities are planner-matchable: the plan
        // starts at the professor's name and walks *up* the back-pointing
        // REFs, each parent found by its OID in one directory lookup — no
        // REF index, hash table or scan above the professor table.
        let plan = db.query(&format!("EXPLAIN {}", t.sql)).unwrap();
        let lines: Vec<String> =
            plan.rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect();
        let seeded = "join order: seeded at t3 (t3, t2, t1, t0) — constant filter, one-row probes";
        assert!(lines.iter().any(|l| l.trim() == seeded), "{lines:#?}");
        assert_eq!(lines.iter().filter(|l| l.contains("— OID probe (key: ")).count(), 3, "{lines:#?}");
        // Execution returns exactly the rows, in the order, it returned
        // before the indexes and statistics existed.
        let before = db.stats();
        assert_eq!(db.query(&t.sql).unwrap(), naive);
        assert_eq!(db.stats().since(&before).oid_index_hits, 3);
    }

    #[test]
    fn parse_helper_splits_steps() {
        let q = PathQuery::parse("/Student/Course/@CreditPts");
        assert_eq!(q.steps, vec!["Student", "Course", "@CreditPts"]);
    }
}
