//! DTD-aware hybrid inlining, after Shanmugasundaram et al. \[9\].
//!
//! The third storage family the paper's §1 references ("Relational
//! Databases for Querying XML Documents: Limitations and Opportunities").
//! Elements that can occur at most once are *inlined* into their nearest
//! relation ancestor as flat columns; elements that are set-valued anywhere
//! or recursive get their own relations with a `ParentID` foreign key.
//! Compared to the edge/attribute tables, queries need joins only at
//! relation boundaries — but the schema is DTD-specific and every relation
//! boundary still costs the joins §4.1's dot notation avoids.

use std::collections::{BTreeMap, BTreeSet};

use xmlord_dtd::ast::{ContentSpec, Dtd};
use xmlord_dtd::graph::ElementGraph;
use xmlord_ordb::DbError;
use xmlord_ordb::sql::printer::quote_literal;
use xmlord_xml::{Document, NodeId};

use crate::naming::{scope_with, NameGenerator, NameKind};

/// One column of an inlined relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineColumn {
    pub name: String,
    /// Element path below the relation element (empty = the element itself).
    pub path: Vec<String>,
    /// Set when the column stores an XML attribute rather than text.
    pub attr: Option<String>,
}

/// One relation of the inlined schema.
#[derive(Debug, Clone)]
pub struct InlineRelation {
    pub element: String,
    pub table: String,
    pub columns: Vec<InlineColumn>,
}

/// The complete inlined schema for one DTD + root.
#[derive(Debug, Clone)]
pub struct InlineSchema {
    pub root: String,
    pub relations: BTreeMap<String, InlineRelation>,
}

impl InlineSchema {
    /// Compute the inlining: relations for the root, for elements that are
    /// set-valued under any parent, and for recursive elements.
    pub fn build(dtd: &Dtd, root: &str) -> InlineSchema {
        let graph = ElementGraph::build(dtd);
        let reachable = graph.reachable_from(root);
        let mut relation_elements: BTreeSet<String> = BTreeSet::new();
        relation_elements.insert(root.to_string());
        for element in &reachable {
            if graph.is_recursive(element) {
                relation_elements.insert(element.clone());
            }
            if let Some(decl) = dtd.element(element) {
                for (child, card) in decl.content.child_cardinalities() {
                    if card.set_valued && reachable.contains(&child) {
                        relation_elements.insert(child);
                    }
                }
            }
        }

        let mut names = NameGenerator::new();
        let mut relations = BTreeMap::new();
        for element in relation_elements.intersection(&reachable) {
            let mut columns = Vec::new();
            let mut scope = scope_with(&["ID", "ParentID", "txt"]);
            collect_columns(
                dtd,
                element,
                &relation_elements,
                &mut Vec::new(),
                &mut columns,
                &names,
                &mut scope,
            );
            relations.insert(
                element.clone(),
                InlineRelation {
                    element: element.clone(),
                    table: names.global(NameKind::InlineRelation, element),
                    columns,
                },
            );
        }
        InlineSchema { root: root.to_string(), relations }
    }

    pub fn relation(&self, element: &str) -> Option<&InlineRelation> {
        self.relations.get(element)
    }

    /// DDL for all relations.
    pub fn ddl(&self) -> String {
        let mut out = String::new();
        for relation in self.relations.values() {
            let mut cols =
                vec!["    ID NUMBER PRIMARY KEY".to_string(), "    ParentID NUMBER".to_string()];
            for column in &relation.columns {
                cols.push(format!("    {} VARCHAR(4000)", column.name));
            }
            out.push_str(&format!(
                "CREATE TABLE {} (\n{}\n);\n",
                relation.table,
                cols.join(",\n")
            ));
        }
        out
    }

    /// Shred a document into INSERTs.
    pub fn load(&self, doc: &Document) -> Result<Vec<String>, DbError> {
        let root = doc
            .root_element()
            .ok_or_else(|| DbError::Execution("document has no root".into()))?;
        let mut out = Vec::new();
        let mut next = 0u64;
        self.load_relation(doc, root, None, &mut next, &mut out)?;
        Ok(out)
    }

    fn load_relation(
        &self,
        doc: &Document,
        node: NodeId,
        parent_id: Option<u64>,
        next: &mut u64,
        out: &mut Vec<String>,
    ) -> Result<(), DbError> {
        let element = doc.name(node).as_raw();
        let relation = self.relations.get(element).ok_or_else(|| {
            DbError::Execution(format!("<{element}> has no inlined relation"))
        })?;
        *next += 1;
        let my_id = *next;
        let mut values = vec![
            my_id.to_string(),
            parent_id.map(|p| p.to_string()).unwrap_or_else(|| "NULL".into()),
        ];
        for column in &relation.columns {
            let value = resolve_column(doc, node, column);
            values.push(value.map(|v| quote_literal(&v)).unwrap_or_else(|| "NULL".into()));
        }
        out.push(format!("INSERT INTO {} VALUES ({})", relation.table, values.join(", ")));
        // Recurse into nested relation elements (at any inlined depth).
        self.descend_for_relations(doc, node, my_id, next, out)?;
        Ok(())
    }

    fn descend_for_relations(
        &self,
        doc: &Document,
        node: NodeId,
        parent_row: u64,
        next: &mut u64,
        out: &mut Vec<String>,
    ) -> Result<(), DbError> {
        for child in doc.child_elements(node) {
            let child_name = doc.name(child).as_raw();
            if self.relations.contains_key(child_name) {
                self.load_relation(doc, child, Some(parent_row), next, out)?;
            } else {
                self.descend_for_relations(doc, child, parent_row, next, out)?;
            }
        }
        Ok(())
    }

    /// Translate a path query with optional predicate.
    pub fn path_query(
        &self,
        steps: &[&str],
        predicate: Option<(&[&str], &str)>,
    ) -> Result<String, DbError> {
        let mut b = QueryBuilder { schema: self, from: Vec::new(), wheres: Vec::new(), next: 0 };
        let root_alias = b.join_relation(&self.root, None)?;
        let start = Cursor { alias: root_alias, element: self.root.clone(), path: Vec::new() };
        match predicate {
            None => {
                let expr = b.descend(start, steps)?;
                Ok(b.render(&expr))
            }
            Some((pred_steps, value)) => {
                let shared = steps
                    .iter()
                    .zip(pred_steps.iter())
                    .take_while(|(a, b)| a == b)
                    .count()
                    .min(steps.len().saturating_sub(1))
                    .min(pred_steps.len().saturating_sub(1));
                let mut cursor = start;
                for step in &steps[..shared] {
                    cursor = b.advance(cursor, step)?;
                }
                let expr = b.descend(cursor.clone(), &steps[shared..])?;
                let pred_expr = b.descend(cursor, &pred_steps[shared..])?;
                b.wheres.push(format!("{pred_expr} = {}", quote_literal(value)));
                Ok(b.render(&expr))
            }
        }
    }
}

/// Position during query building: a table alias plus the inline path
/// walked so far inside that relation.
#[derive(Debug, Clone)]
struct Cursor {
    alias: String,
    element: String,
    path: Vec<String>,
}

struct QueryBuilder<'a> {
    schema: &'a InlineSchema,
    from: Vec<String>,
    wheres: Vec<String>,
    next: usize,
}

impl<'a> QueryBuilder<'a> {
    fn join_relation(&mut self, element: &str, parent: Option<&str>) -> Result<String, DbError> {
        let relation = self.schema.relations.get(element).ok_or_else(|| {
            DbError::Execution(format!("<{element}> has no inlined relation"))
        })?;
        let alias = format!("t{}", self.next);
        self.next += 1;
        self.from.push(format!("{} {alias}", relation.table));
        if let Some(parent_alias) = parent {
            self.wheres.push(format!("{alias}.ParentID = {parent_alias}.ID"));
        }
        Ok(alias)
    }

    fn advance(&mut self, cursor: Cursor, step: &str) -> Result<Cursor, DbError> {
        if self.schema.relations.contains_key(step) {
            let alias = self.join_relation(step, Some(&cursor.alias))?;
            Ok(Cursor { alias, element: step.to_string(), path: Vec::new() })
        } else {
            let mut path = cursor.path;
            path.push(step.to_string());
            Ok(Cursor { alias: cursor.alias, element: cursor.element, path })
        }
    }

    fn descend(&mut self, cursor: Cursor, steps: &[&str]) -> Result<String, DbError> {
        let mut cursor = cursor;
        for (i, step) in steps.iter().enumerate() {
            if let Some(attr) = step.strip_prefix('@') {
                if i != steps.len() - 1 {
                    return Err(DbError::Execution("attribute steps must be final".into()));
                }
                let relation = self.schema.relations.get(&cursor.element).expect("joined");
                let column = relation
                    .columns
                    .iter()
                    .find(|c| c.path == cursor.path && c.attr.as_deref() == Some(attr))
                    .ok_or_else(|| {
                        DbError::UnknownColumn(format!("@{attr} below {}", cursor.element))
                    })?;
                return Ok(format!("{}.{}", cursor.alias, column.name));
            }
            cursor = self.advance(cursor, step)?;
        }
        // Terminal text column at the cursor.
        let relation = self.schema.relations.get(&cursor.element).expect("joined");
        let column = relation
            .columns
            .iter()
            .find(|c| c.path == cursor.path && c.attr.is_none())
            .ok_or_else(|| {
                DbError::UnknownColumn(format!(
                    "text of {}/{}",
                    cursor.element,
                    cursor.path.join("/")
                ))
            })?;
        Ok(format!("{}.{}", cursor.alias, column.name))
    }

    fn render(&self, expr: &str) -> String {
        let mut sql = format!("SELECT DISTINCT {expr} FROM {}", self.from.join(", "));
        if !self.wheres.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&self.wheres.join(" AND "));
        }
        sql
    }
}

/// Collect the columns of a relation element: its own text and attributes,
/// then (recursively) every inlined descendant's text and attributes,
/// stopping at relation boundaries. Column names are unique in `scope`.
fn collect_columns(
    dtd: &Dtd,
    element: &str,
    relations: &BTreeSet<String>,
    path: &mut Vec<String>,
    out: &mut Vec<InlineColumn>,
    names: &NameGenerator,
    scope: &mut BTreeSet<String>,
) {
    let Some(decl) = dtd.element(element) else { return };
    // Own text.
    let has_text = matches!(
        decl.content,
        ContentSpec::PcData | ContentSpec::Mixed(_) | ContentSpec::Any
    );
    if has_text {
        let name = if path.is_empty() {
            "txt".to_string()
        } else {
            names.scoped(NameKind::InlineText, &path.join("_"), scope)
        };
        out.push(InlineColumn { name, path: path.clone(), attr: None });
    }
    // Own attributes.
    for def in dtd.attributes_of(element) {
        let below: Vec<&str> =
            path.iter().map(String::as_str).chain([def.name.as_str()]).collect();
        out.push(InlineColumn {
            name: names.scoped(NameKind::InlineAttribute, &below.join("_"), scope),
            path: path.clone(),
            attr: Some(def.name.clone()),
        });
    }
    // Inlined children.
    for child in decl.content.child_names() {
        if relations.contains(&child) {
            continue; // relation boundary
        }
        path.push(child.clone());
        collect_columns(dtd, &child, relations, path, out, names, scope);
        path.pop();
    }
}

fn resolve_column(doc: &Document, node: NodeId, column: &InlineColumn) -> Option<String> {
    // Walk the inline path (first occurrence at each step).
    let mut cur = node;
    for step in &column.path {
        cur = doc.first_child_tagged(cur, step)?;
    }
    match &column.attr {
        Some(attr) => doc.attribute(cur, attr).map(str::to_string),
        None => {
            let mut text = String::new();
            for child in doc.children(cur) {
                match doc.kind(*child) {
                    xmlord_xml::NodeKind::Text(t) | xmlord_xml::NodeKind::CData(t) => {
                        text.push_str(t)
                    }
                    _ => {}
                }
            }
            Some(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn relation_selection_follows_hybrid_inlining() {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let schema = InlineSchema::build(&dtd, "University");
        // Root + Student* + Course* + Professor* + Subject+ are relations.
        let names: Vec<&str> = schema.relations.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["Course", "Professor", "Student", "Subject", "University"]);
        // Single-valued simple children are inlined as columns.
        let student = schema.relation("Student").unwrap();
        let cols: Vec<&str> = student.columns.iter().map(|c| c.name.as_str()).collect();
        assert!(cols.contains(&"c_LName"), "{cols:?}");
        assert!(cols.contains(&"a_StudNr"), "{cols:?}");
        // Course inlines CreditPts (optional single) but not Professor.
        let course = schema.relation("Course").unwrap();
        let ccols: Vec<&str> = course.columns.iter().map(|c| c.name.as_str()).collect();
        assert!(ccols.contains(&"c_CreditPts"), "{ccols:?}");
        assert!(!ccols.iter().any(|c| c.contains("Professor")), "{ccols:?}");
    }

    #[test]
    fn load_and_query_university() {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let doc = xmlord_xml::parse(
            "<University><StudyCourse>CS</StudyCourse>\
             <Student StudNr=\"1\"><LName>Conrad</LName><FName>M</FName>\
             <Course><Name>DBS</Name><Professor><PName>Jaeger</PName>\
             <Subject>CAD</Subject><Dept>CS</Dept></Professor></Course></Student>\
             </University>",
        )
        .unwrap();
        let schema = InlineSchema::build(&dtd, "University");
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&schema.ddl()).unwrap();
        let stmts = schema.load(&doc).unwrap();
        // 1 university + 1 student + 1 course + 1 professor + 1 subject.
        assert_eq!(stmts.len(), 5, "{stmts:#?}");
        for s in &stmts {
            db.execute(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        }
        let sql = schema
            .path_query(
                &["Student", "LName"],
                Some((&["Student", "Course", "Professor", "PName"], "Jaeger")),
            )
            .unwrap();
        let rows = db.query(&sql).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("Conrad")]], "{sql}");
    }

    #[test]
    fn inlined_path_needs_no_join() {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let schema = InlineSchema::build(&dtd, "University");
        // StudyCourse is inlined into the root relation: single table scan.
        let sql = schema.path_query(&["StudyCourse"], None).unwrap();
        assert_eq!(sql.matches("Inl").count(), 1, "{sql}");
    }

    #[test]
    fn recursive_elements_get_their_own_relations() {
        let dtd = parse_dtd(
            r#"<!ELEMENT Professor (PName,Dept)>
               <!ELEMENT Dept (DName,Professor*)>
               <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>"#,
        )
        .unwrap();
        let schema = InlineSchema::build(&dtd, "Professor");
        assert!(schema.relation("Professor").is_some());
        assert!(schema.relation("Dept").is_some());
        let doc = xmlord_xml::parse(
            "<Professor><PName>K</PName><Dept><DName>CS</DName>\
             <Professor><PName>J</PName><Dept><DName>Lab</DName></Dept></Professor>\
             </Dept></Professor>",
        )
        .unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&schema.ddl()).unwrap();
        for s in schema.load(&doc).unwrap() {
            db.execute(&s).unwrap();
        }
        assert_eq!(db.row_count("InlProfessor"), 2);
        assert_eq!(db.row_count("InlDept"), 2);
    }

    #[test]
    fn long_names_get_bounded_distinct_columns_deterministically() {
        let long = "VeryLongElementName_".repeat(2);
        let dtd = parse_dtd(&format!(
            "<!ELEMENT r ({long}A, {long}B)>\
             <!ELEMENT {long}A (#PCDATA)><!ELEMENT {long}B (#PCDATA)>"
        ))
        .unwrap();
        let schema = InlineSchema::build(&dtd, "r");
        let cols: Vec<&str> = schema.relations["r"].columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(cols, ["c_VeryLongElementName_VeryLong", "c_VeryLongElementName_VeryLon2"]);
        assert_eq!(schema.ddl(), InlineSchema::build(&dtd, "r").ddl());
    }
}
