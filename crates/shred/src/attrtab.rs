//! The attribute-table mapping of Florescu & Kossmann \[5\].
//!
//! Instead of one universal edge table, there is one table *per element or
//! attribute name* ("attribute tables" in the paper's §1):
//!
//! ```sql
//! CREATE TABLE AttStudent (Source NUMBER, Ordinal NUMBER, Target NUMBER, Val VARCHAR(4000));
//! ```
//!
//! Element rows carry `Target` (the child node id) and a NULL `Val`; the
//! text content of a node is stored in the element's own table as a row
//! with NULL `Target`. Attribute values live in `Att…` tables named after
//! the attribute with an `A_` name prefix. Both names come from
//! [`crate::naming::stateless`]: the loader and the path queries see one
//! name at a time, never the DTD. Queries join the per-name tables
//! — fewer rows per table than the edge approach, but still one join per
//! path step.

use std::collections::BTreeSet;

use xmlord_dtd::ast::Dtd;
use xmlord_dtd::graph::ElementGraph;
use xmlord_xml::{Document, NodeId, NodeKind};

use crate::naming::{stateless, NameKind};

/// Table name for an element name.
pub fn element_table(name: &str) -> String {
    stateless(NameKind::ElementTable, name)
}

/// Table name for an attribute name.
pub fn attribute_table(name: &str) -> String {
    stateless(NameKind::AttributeTable, name)
}

/// DDL: one table per element reachable from `root` plus one per declared
/// attribute name (the tables [`crate::retrieve`] reads back).
pub fn ddl(dtd: &Dtd, root: &str) -> String {
    let reachable = ElementGraph::build(dtd).reachable_from(root);
    let mut out = String::new();
    for element in &reachable {
        out.push_str(&format!(
            "CREATE TABLE {} (\n    Source NUMBER,\n    Ordinal NUMBER,\n    Target NUMBER,\n    Val VARCHAR(4000)\n);\n",
            element_table(element)
        ));
    }
    let mut attr_names: BTreeSet<String> = BTreeSet::new();
    for element in &reachable {
        for def in dtd.attributes_of(element) {
            attr_names.insert(def.name.clone());
        }
    }
    for attr in attr_names {
        out.push_str(&format!(
            "CREATE TABLE {} (\n    Source NUMBER,\n    Ordinal NUMBER,\n    Val VARCHAR(4000)\n);\n",
            attribute_table(&attr)
        ));
    }
    out
}

/// Shred a document into the per-name tables.
pub fn load(doc: &Document) -> Vec<String> {
    let mut out = Vec::new();
    let mut next = 0u64;
    if let Some(root) = doc.root_element() {
        shred(doc, root, 0, 0, &mut next, &mut out);
    }
    out
}

fn shred(
    doc: &Document,
    node: NodeId,
    parent: u64,
    ordinal: usize,
    next: &mut u64,
    out: &mut Vec<String>,
) {
    *next += 1;
    let my_id = *next;
    let name = doc.name(node).as_raw();
    // Element edge row.
    out.push(format!(
        "INSERT INTO {} VALUES ({parent}, {ordinal}, {my_id}, NULL)",
        crate::intern::element_table(name)
    ));
    // Text content row (NULL Target).
    let text: String = doc
        .children(node)
        .iter()
        .filter_map(|c| match doc.kind(*c) {
            NodeKind::Text(t) | NodeKind::CData(t) => Some(t.as_str()),
            _ => None,
        })
        .collect();
    if !text.trim().is_empty() {
        out.push(format!(
            "INSERT INTO {} VALUES ({my_id}, 0, NULL, {})",
            crate::intern::element_table(name),
            sql_str(&text)
        ));
    }
    // Attributes.
    for (i, attr) in doc.attributes(node).iter().enumerate() {
        out.push(format!(
            "INSERT INTO {} VALUES ({my_id}, {i}, {})",
            crate::intern::attribute_table(attr.name.as_raw()),
            sql_str(&attr.value)
        ));
    }
    // Child elements.
    for (ord, child) in doc.child_elements(node).into_iter().enumerate() {
        shred(doc, child, my_id, ord, next, out);
    }
}

/// Path query: join the per-name tables along the path; predicate paths
/// share the longest common prefix (correlation as in the edge baseline).
pub fn path_query(root: &str, steps: &[&str], predicate: Option<(&[&str], &str)>) -> String {
    let mut b = Builder::default();
    let root_alias = b.step("0", root);
    match predicate {
        None => {
            let expr = b.descend(&root_alias, steps);
            b.render(&expr)
        }
        Some((pred_steps, value)) => {
            let shared = steps
                .iter()
                .zip(pred_steps.iter())
                .take_while(|(a, b)| a == b)
                .count()
                .min(steps.len().saturating_sub(1))
                .min(pred_steps.len().saturating_sub(1));
            let mut prev = root_alias;
            for step in &steps[..shared] {
                prev = b.step(&format!("{prev}.Target"), step);
            }
            let expr = b.descend(&prev, &steps[shared..]);
            let pred_expr = b.descend(&prev, &pred_steps[shared..]);
            b.wheres.push(format!("{pred_expr} = {}", sql_str(value)));
            b.render(&expr)
        }
    }
}

#[derive(Default)]
struct Builder {
    from: Vec<String>,
    wheres: Vec<String>,
    next: usize,
}

impl Builder {
    /// Join the element table of `name` below source expression `source`.
    fn step(&mut self, source: &str, name: &str) -> String {
        let a = format!("t{}", self.next);
        self.next += 1;
        self.from.push(format!("{} {a}", element_table(name)));
        self.wheres.push(format!("{a}.Source = {source}"));
        self.wheres.push(format!("{a}.Target IS NOT NULL"));
        a
    }

    fn descend(&mut self, start: &str, steps: &[&str]) -> String {
        let mut prev = start.to_string();
        for (i, step) in steps.iter().enumerate() {
            if let Some(attr) = step.strip_prefix('@') {
                assert_eq!(i, steps.len() - 1, "attribute steps must be final");
                let a = format!("t{}", self.next);
                self.next += 1;
                self.from.push(format!("{} {a}", attribute_table(attr)));
                self.wheres.push(format!("{a}.Source = {prev}.Target"));
                return format!("{a}.Val");
            }
            prev = self.step(&format!("{prev}.Target"), step);
        }
        // Terminal text row: same element table, NULL Target.
        let last = steps.last().expect("non-empty steps");
        let a = format!("t{}", self.next);
        self.next += 1;
        self.from.push(format!("{} {a}", element_table(last)));
        self.wheres.push(format!("{a}.Source = {prev}.Target"));
        self.wheres.push(format!("{a}.Target IS NULL"));
        format!("{a}.Val")
    }

    fn render(&self, expr: &str) -> String {
        format!(
            "SELECT DISTINCT {expr} FROM {} WHERE {}",
            self.from.join(", "),
            self.wheres.join(" AND ")
        )
    }
}

fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlord_dtd::parse_dtd;
    use xmlord_ordb::{Database, DbMode, Value};

    const DTD: &str = r#"
        <!ELEMENT a (p*)>
        <!ELEMENT p (name,age?)>
        <!ATTLIST p kind CDATA #IMPLIED>
        <!ELEMENT name (#PCDATA)> <!ELEMENT age (#PCDATA)>"#;

    fn setup(xml: &str) -> (Database, usize) {
        let dtd = parse_dtd(DTD).unwrap();
        let doc = xmlord_xml::parse(xml).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&ddl(&dtd, "a")).unwrap();
        let stmts = load(&doc);
        let n = stmts.len();
        for s in &stmts {
            db.execute(s).unwrap_or_else(|e| panic!("{e}\n{s}"));
        }
        (db, n)
    }

    #[test]
    fn one_table_per_name_is_created() {
        let dtd = parse_dtd(DTD).unwrap();
        let script = ddl(&dtd, "a");
        assert!(script.contains("CREATE TABLE Attp "));
        assert!(script.contains("CREATE TABLE Attname "));
        assert!(script.contains("CREATE TABLE AttA_kind "));
    }

    #[test]
    fn rows_distribute_across_name_tables() {
        let (db, statements) = setup(
            r#"<a><p kind="x"><name>n1</name><age>7</age></p><p><name>n2</name></p></a>"#,
        );
        assert!(statements >= 8);
        assert!(db.storage().row_count(&xmlord_ordb::ident::Ident::internal("Attp")) >= 2);
    }

    #[test]
    fn path_and_predicate_queries_work() {
        let (mut db, _) = setup(
            r#"<a><p kind="x"><name>n1</name><age>7</age></p><p><name>n2</name><age>9</age></p></a>"#,
        );
        let all = path_query("a", &["p", "name"], None);
        assert_eq!(db.query(&all).unwrap().rows.len(), 2);
        let filtered = path_query("a", &["p", "name"], Some((&["p", "age"], "9")));
        let rows = db.query(&filtered).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("n2")]], "{filtered}");
        let attr = path_query("a", &["p", "@kind"], None);
        assert_eq!(db.query_scalar(&attr).unwrap(), Value::str("x"));
    }

    /// DTD010 restates the naming rule's one blind spot: for every pair of
    /// element names and every pair of attribute names, the lint fires
    /// exactly when the two tables coincide ignoring case, and an element
    /// table never coincides with an attribute table.
    #[test]
    fn dtd010_fires_exactly_where_table_names_coincide() {
        let long = "Averylongelementnamepastthelimit";
        let short =
            ["a", "A", "b", "a-b", "A-B", "a_b", "A_B", "a.b", "A_x", "a_x", "x", "ß", "SS", "é", "É"];
        let long = [format!("{long}a"), format!("{long}A"), long.to_string(), long.to_uppercase()];
        let pool: Vec<String> = short.iter().map(|s| s.to_string()).chain(long).collect();
        let fold = |name: String| name.to_uppercase();
        let lint_fires = |dtd_text: &str| {
            let (dtd, src) = xmlord_dtd::parse_dtd_spanned(dtd_text).unwrap();
            let verdicts = xmlord_dtd::lint_dtd(&dtd, &src, "r");
            let attr = verdicts
                .iter()
                .find(|v| v.strategy == xmlord_dtd::MappingStrategy::AttributeTables)
                .unwrap();
            let ddl_fails = Database::new(DbMode::Oracle9).execute_script(&ddl(&dtd, "r")).is_err();
            (attr.diagnostics.iter().any(|d| d.code == "DTD010"), ddl_fails)
        };
        for first in &pool {
            for second in pool.iter().filter(|n| *n != first) {
                let (e1, e2) = (fold(element_table(first)), fold(element_table(second)));
                let (a1, a2) = (fold(attribute_table(first)), fold(attribute_table(second)));
                assert_ne!(e1, a2, "<{first}> and @{second}");
                let element_clash = e1 == e2 || [&e1, &e2].contains(&&fold(element_table("r")));
                let elements = format!(
                    "<!ELEMENT r ({first}, {second})>\
                     <!ELEMENT {first} (#PCDATA)><!ELEMENT {second} (#PCDATA)>"
                );
                assert_eq!(lint_fires(&elements), (element_clash, element_clash), "{elements}");
                let attributes = format!(
                    "<!ELEMENT r EMPTY><!ATTLIST r {first} CDATA #IMPLIED {second} CDATA #IMPLIED>"
                );
                assert_eq!(lint_fires(&attributes), (a1 == a2, a1 == a2), "{attributes}");
            }
        }
    }
}
