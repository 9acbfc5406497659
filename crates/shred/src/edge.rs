//! The edge-table mapping of Florescu & Kossmann \[5\].
//!
//! Two generic tables hold any document:
//!
//! ```sql
//! CREATE TABLE TabEdge  (Source NUMBER, Ordinal NUMBER, Name VARCHAR(250),
//!                        Flag VARCHAR(10), Target NUMBER);
//! CREATE TABLE TabValue (VID NUMBER, Val VARCHAR(4000));
//! ```
//!
//! Every element, attribute and text node becomes edges/values — the "high
//! degree of decomposition" §1 criticizes. Attributes are edges whose name
//! is prefixed with `@`; text content is an edge flagged `val` pointing
//! into `TabValue`. The virtual document root has node id 0.
//!
//! Path queries become chains of self-joins over `TabEdge` — one join per
//! step — plus a final join to `TabValue`.

use xmlord_xml::{Document, NodeId, NodeKind};

/// The generic schema (identical for every document type).
pub fn ddl() -> &'static str {
    "CREATE TABLE TabEdge (\n\
     \x20   Source NUMBER,\n\
     \x20   Ordinal NUMBER,\n\
     \x20   Name VARCHAR(250),\n\
     \x20   Flag VARCHAR(10),\n\
     \x20   Target NUMBER\n\
     );\n\
     CREATE TABLE TabValue (\n\
     \x20   VID NUMBER,\n\
     \x20   Val VARCHAR(4000)\n\
     );"
}

/// Shred a document into edge/value INSERTs.
pub fn load(doc: &Document) -> Vec<String> {
    let mut out = Vec::new();
    let mut next_node = 0u64;
    if let Some(root) = doc.root_element() {
        let mut ctx = EdgeLoader { doc, out: &mut out, next_node: &mut next_node };
        ctx.element(root, 0, 0);
    }
    out
}

struct EdgeLoader<'a> {
    doc: &'a Document,
    out: &'a mut Vec<String>,
    next_node: &'a mut u64,
}

impl<'a> EdgeLoader<'a> {
    fn fresh(&mut self) -> u64 {
        *self.next_node += 1;
        *self.next_node
    }

    fn element(&mut self, node: NodeId, parent: u64, ordinal: usize) {
        let my_id = self.fresh();
        let name = self.doc.name(node).as_raw();
        self.out.push(format!(
            "INSERT INTO TabEdge VALUES ({parent}, {ordinal}, {}, 'ref', {my_id})",
            crate::intern::name_literal(name)
        ));
        // Attributes.
        for (i, attr) in self.doc.attributes(node).iter().enumerate() {
            let vid = self.fresh();
            self.out.push(format!(
                "INSERT INTO TabEdge VALUES ({my_id}, {i}, {}, 'val', {vid})",
                crate::intern::name_literal(&format!("@{}", attr.name.as_raw()))
            ));
            self.out
                .push(format!("INSERT INTO TabValue VALUES ({vid}, {})", sql_str(&attr.value)));
        }
        // Children: elements recurse; text becomes value edges.
        let mut ordinal = 0usize;
        for child in self.doc.children(node) {
            match self.doc.kind(*child) {
                NodeKind::Element(_) => {
                    self.element(*child, my_id, ordinal);
                    ordinal += 1;
                }
                NodeKind::Text(t) | NodeKind::CData(t)
                    if !t.trim().is_empty() => {
                        let vid = self.fresh();
                        self.out.push(format!(
                            "INSERT INTO TabEdge VALUES ({my_id}, {ordinal}, 'text()', 'val', {vid})"
                        ));
                        self.out.push(format!(
                            "INSERT INTO TabValue VALUES ({vid}, {})",
                            sql_str(t)
                        ));
                        ordinal += 1;
                    }
                // Comments and PIs are not data — dropped, like the paper
                // notes generic mappings do.
                _ => {}
            }
        }
    }
}

/// Translate a path (root, steps…) with an optional equality predicate into
/// the self-join chain. `steps` ends at a simple element or `@attribute`.
/// The result path and the predicate path share their longest common
/// prefix, so the predicate is correlated at the right node (these are the
/// very joins §4.1 says the dot notation avoids).
pub fn path_query(root: &str, steps: &[&str], predicate: Option<(&[&str], &str)>) -> String {
    let mut b = ChainBuilder::default();
    let root_alias = b.root(root);
    match predicate {
        None => {
            let expr = b.descend_all(&root_alias, steps);
            b.render(&expr)
        }
        Some((pred_steps, value)) => {
            let shared = steps
                .iter()
                .zip(pred_steps.iter())
                .take_while(|(a, b)| a == b)
                .count()
                // Never share the terminal step of either path.
                .min(steps.len().saturating_sub(1))
                .min(pred_steps.len().saturating_sub(1));
            let mut prev = root_alias;
            for step in &steps[..shared] {
                prev = b.element_step(&prev, step);
            }
            let expr = b.descend_all(&prev, &steps[shared..]);
            let pred_expr = b.descend_all(&prev, &pred_steps[shared..]);
            b.wheres.push(format!("{pred_expr} = {}", sql_str(value)));
            b.render(&expr)
        }
    }
}

#[derive(Default)]
struct ChainBuilder {
    from: Vec<String>,
    wheres: Vec<String>,
    next: usize,
}

impl ChainBuilder {
    fn edge_alias(&mut self) -> String {
        let a = format!("e{}", self.next);
        self.next += 1;
        self.from.push(format!("TabEdge {a}"));
        a
    }

    fn value_alias(&mut self) -> String {
        let v = format!("v{}", self.next);
        self.next += 1;
        self.from.push(format!("TabValue {v}"));
        v
    }

    /// Edge from the virtual root (node 0) to the document element.
    fn root(&mut self, root: &str) -> String {
        let a = self.edge_alias();
        self.wheres.push(format!("{a}.Source = 0"));
        self.wheres.push(format!("{a}.Name = {}", sql_str(root)));
        a
    }

    /// One element step below `prev`; returns the new edge alias.
    fn element_step(&mut self, prev: &str, step: &str) -> String {
        let a = self.edge_alias();
        self.wheres.push(format!("{a}.Source = {prev}.Target"));
        self.wheres.push(format!("{a}.Name = {}", sql_str(step)));
        a
    }

    /// Descend through all steps and return the text/attribute value expr.
    fn descend_all(&mut self, start: &str, steps: &[&str]) -> String {
        let mut prev = start.to_string();
        for step in steps {
            if let Some(attr) = step.strip_prefix('@') {
                let a = self.element_step(&prev, &format!("@{attr}"));
                let v = self.value_alias();
                self.wheres.push(format!("{v}.VID = {a}.Target"));
                return format!("{v}.Val");
            }
            prev = self.element_step(&prev, step);
        }
        // Terminal text: text() edge below the last element.
        let t = self.element_step(&prev, "text()");
        let v = self.value_alias();
        self.wheres.push(format!("{v}.VID = {t}.Target"));
        format!("{v}.Val")
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
    use xmlord_ordb::{Database, DbMode, Value};

    fn setup(xml: &str) -> (Database, usize) {
        let doc = xmlord_xml::parse(xml).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(ddl()).unwrap();
        let stmts = load(&doc);
        let n = stmts.len();
        for s in &stmts {
            db.execute(s).unwrap();
        }
        (db, n)
    }

    #[test]
    fn tiny_document_explodes_into_many_rows() {
        let (db, statements) = setup("<a x=\"1\"><b>t</b></a>");
        // a-edge, @x edge+value, b-edge, text edge+value = 6 statements.
        assert_eq!(statements, 6);
        assert_eq!(db.storage().total_rows(), 6);
    }

    #[test]
    fn path_query_finds_text() {
        let (mut db, _) = setup("<a><b><c>hit</c></b><b><c>hit2</c></b></a>");
        let sql = path_query("a", &["b", "c"], None);
        let rows = db.query(&sql).unwrap();
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.rows[0][0], Value::str("hit"));
    }

    #[test]
    fn attribute_query() {
        let (mut db, _) = setup("<a><b k=\"42\"/></a>");
        let sql = path_query("a", &["b", "@k"], None);
        assert_eq!(db.query_scalar(&sql).unwrap(), Value::str("42"));
    }

    #[test]
    fn predicate_is_correlated_via_the_shared_prefix() {
        let (mut db, _) = setup(
            "<a><p><name>x</name><age>1</age></p><p><name>y</name><age>2</age></p></a>",
        );
        let sql = path_query("a", &["p", "name"], Some((&["p", "age"], "2")));
        // The shared <p> step correlates both chains.
        assert!(sql.matches("TabEdge").count() >= 5, "{sql}");
        let rows = db.query(&sql).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::str("y")]], "{sql}");
    }

    #[test]
    fn comments_and_pis_are_dropped() {
        let (db, _) = setup("<a><!--c--><?p d?><b>x</b></a>");
        // Only a, b, text = 4 rows (2 edges + text edge + value).
        assert_eq!(db.storage().total_rows(), 4);
    }
}
