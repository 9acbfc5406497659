//! Element dependency graph (§6.2, "Non-hierarchical and Recursive
//! Relationships").
//!
//! "The usage of a tree as an intermediate data structure implies
//! restrictions for some documents. … In such cases a graph should be the
//! preferred data structure." This module is that graph: nodes are element
//! types, edges are parent→child relationships from the content models. The
//! mapping layer uses it to find elements with multiple parents (Fig. 3) and
//! the edges on cycles that must be broken with REF-valued attributes.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::Dtd;

/// Directed graph over element type names.
#[derive(Debug, Clone, Default)]
pub struct ElementGraph {
    /// parent → children (deduplicated, ordered).
    edges: BTreeMap<String, Vec<String>>,
    /// child → parents.
    reverse: BTreeMap<String, Vec<String>>,
    nodes: BTreeSet<String>,
}

impl ElementGraph {
    /// Build the graph from all element declarations of a DTD.
    pub fn build(dtd: &Dtd) -> ElementGraph {
        let mut graph = ElementGraph::default();
        for (name, decl) in &dtd.elements {
            graph.nodes.insert(name.clone());
            for child in decl.content.child_names() {
                graph.add_edge(name, &child);
            }
        }
        graph
    }

    fn add_edge(&mut self, parent: &str, child: &str) {
        self.nodes.insert(parent.to_string());
        self.nodes.insert(child.to_string());
        let children = self.edges.entry(parent.to_string()).or_default();
        if !children.iter().any(|c| c == child) {
            children.push(child.to_string());
        }
        let parents = self.reverse.entry(child.to_string()).or_default();
        if !parents.iter().any(|p| p == parent) {
            parents.push(parent.to_string());
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    pub fn children_of(&self, name: &str) -> &[String] {
        self.edges.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn parents_of(&self, name: &str) -> &[String] {
        self.reverse.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Elements with more than one distinct parent — the Fig. 3 situation
    /// that duplicates nodes in the DTD tree.
    pub fn multi_parent_elements(&self) -> Vec<&str> {
        self.reverse
            .iter()
            .filter(|(_, parents)| parents.len() > 1)
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Candidate root elements: declared elements that appear as nobody's
    /// child. (A document's actual root is named by its DOCTYPE; this is the
    /// structural guess when none is given.)
    pub fn root_candidates(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter(|n| self.parents_of(n).is_empty())
            .map(String::as_str)
            .collect()
    }

    /// `root` and every element it can (transitively) contain — the
    /// elements a mapping rooted there derives structure for. `root` is in
    /// the set even when nothing declares it.
    pub fn reachable_from(&self, root: &str) -> BTreeSet<String> {
        let mut reachable = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(cur) = stack.pop() {
            if reachable.insert(cur.to_string()) {
                stack.extend(self.children_of(cur).iter().map(String::as_str));
            }
        }
        reachable
    }

    /// True if `name` can (transitively) contain itself.
    pub fn is_recursive(&self, name: &str) -> bool {
        let mut stack: Vec<&str> = self.children_of(name).iter().map(String::as_str).collect();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some(cur) = stack.pop() {
            if cur == name {
                return true;
            }
            if seen.insert(cur) {
                stack.extend(self.children_of(cur).iter().map(String::as_str));
            }
        }
        false
    }

    /// All elements that lie on at least one cycle.
    pub fn recursive_elements(&self) -> Vec<&str> {
        self.nodes.iter().filter(|n| self.is_recursive(n)).map(String::as_str).collect()
    }

    /// Edges whose removal breaks all cycles (a simple DFS back-edge
    /// computation; deterministic because children are ordered). The mapping
    /// layer represents each returned `(parent, child)` edge as a REF-valued
    /// attribute instead of direct aggregation (§6.2).
    pub fn back_edges(&self) -> Vec<(String, String)> {
        self.back_edges_from(None)
    }

    /// Like [`Self::back_edges`], but starts the DFS at `root` so cycles
    /// break on the natural document-down orientation (e.g. in §6.2's
    /// Professor⇄Dept cycle rooted at Professor, the broken edge is
    /// Dept→Professor — the paper's `TabRefProfessor` direction).
    pub fn back_edges_from(&self, root: Option<&str>) -> Vec<(String, String)> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color: BTreeMap<&str, Color> =
            self.nodes.iter().map(|n| (n.as_str(), Color::White)).collect();
        let mut back = Vec::new();

        // Iterative DFS preserving discovery order; the chosen root (if any)
        // is explored first.
        let starts: Vec<&String> = root
            .and_then(|r| self.nodes.get(r))
            .into_iter()
            .chain(self.nodes.iter())
            .collect();
        for start in starts {
            if color[start.as_str()] != Color::White {
                continue;
            }
            // Stack of (node, next-child-index).
            let mut stack: Vec<(&str, usize)> = vec![(start.as_str(), 0)];
            color.insert(start.as_str(), Color::Grey);
            while let Some((node, idx)) = stack.pop() {
                let children = self.children_of(node);
                if idx < children.len() {
                    stack.push((node, idx + 1));
                    let child = children[idx].as_str();
                    match color[child] {
                        Color::White => {
                            color.insert(child, Color::Grey);
                            stack.push((child, 0));
                        }
                        Color::Grey => back.push((node.to_string(), child.to_string())),
                        Color::Black => {}
                    }
                } else {
                    color.insert(node, Color::Black);
                }
            }
        }
        back
    }

    /// Topological order of the non-cyclic part: children before parents
    /// (the order in which object types must be created, §4.1). Elements on
    /// cycles are appended at the end in name order — the DDL generator
    /// handles them with forward (incomplete) type declarations.
    pub fn bottom_up_order(&self) -> Vec<String> {
        self.bottom_up_order_from(None)
    }

    /// [`Self::bottom_up_order`] with cycle-breaking consistent with
    /// [`Self::back_edges_from`] for the given root.
    pub fn bottom_up_order_from(&self, root: Option<&str>) -> Vec<String> {
        let back: BTreeSet<(String, String)> =
            self.back_edges_from(root).into_iter().collect();
        let mut order = Vec::new();
        let mut done: BTreeSet<&str> = BTreeSet::new();
        // Kahn-style: repeatedly take nodes whose (non-back-edge) children
        // are all done.
        loop {
            let mut progressed = false;
            for node in &self.nodes {
                if done.contains(node.as_str()) {
                    continue;
                }
                let ready = self.children_of(node).iter().all(|c| {
                    c == node
                        || done.contains(c.as_str())
                        || back.contains(&(node.clone(), c.clone()))
                });
                if ready {
                    order.push(node.clone());
                    done.insert(node.as_str());
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // Any remaining nodes (pathological cycles): append deterministically.
        for node in &self.nodes {
            if !done.contains(node.as_str()) {
                order.push(node.clone());
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;

    #[test]
    fn university_graph_shape() {
        let dtd = parse_dtd(
            r#"<!ELEMENT University (StudyCourse,Student*)>
               <!ELEMENT Student (LName,FName,Course*)>
               <!ELEMENT Course (Name,Professor*,CreditPts?)>
               <!ELEMENT Professor (PName,Subject+,Dept)>
               <!ELEMENT LName (#PCDATA)> <!ELEMENT FName (#PCDATA)>
               <!ELEMENT Name (#PCDATA)> <!ELEMENT PName (#PCDATA)>
               <!ELEMENT Subject (#PCDATA)> <!ELEMENT Dept (#PCDATA)>
               <!ELEMENT StudyCourse (#PCDATA)>
<!ELEMENT CreditPts (#PCDATA)>"#,
        )
        .unwrap();
        let g = ElementGraph::build(&dtd);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.children_of("Course"), &["Name", "Professor", "CreditPts"]);
        assert_eq!(g.parents_of("Professor"), &["Course"]);
        assert_eq!(g.root_candidates(), vec!["University"]);
        assert!(g.multi_parent_elements().is_empty());
        assert!(g.recursive_elements().is_empty());
        let below_course: Vec<String> = g.reachable_from("Course").into_iter().collect();
        let expected = ["Course", "CreditPts", "Dept", "Name", "PName", "Professor", "Subject"];
        assert_eq!(below_course, expected);
        assert_eq!(g.reachable_from("Undeclared").len(), 1);
        assert!(g.back_edges().is_empty());
    }

    #[test]
    fn fig3_multi_parent_detection() {
        let dtd = parse_dtd(
            r#"<!ELEMENT Faculty (Professor,Student)>
               <!ELEMENT Professor (PName,Address)>
               <!ELEMENT Address (Street,City)>
               <!ELEMENT Student (Address,SName)>
               <!ELEMENT PName (#PCDATA)> <!ELEMENT SName (#PCDATA)>
               <!ELEMENT Street (#PCDATA)> <!ELEMENT City (#PCDATA)>"#,
        )
        .unwrap();
        let g = ElementGraph::build(&dtd);
        assert_eq!(g.multi_parent_elements(), vec!["Address"]);
        assert_eq!(g.parents_of("Address"), &["Professor", "Student"]);
    }

    #[test]
    fn section_6_2_recursion_detection() {
        let dtd = parse_dtd(
            r#"<!ELEMENT Professor (PName,Dept)>
               <!ELEMENT Dept (DName,Professor*)>
               <!ELEMENT PName (#PCDATA)>
               <!ELEMENT DName (#PCDATA)>"#,
        )
        .unwrap();
        let g = ElementGraph::build(&dtd);
        assert!(g.is_recursive("Professor"));
        assert!(g.is_recursive("Dept"));
        assert!(!g.is_recursive("PName"));
        let back = g.back_edges();
        assert_eq!(back.len(), 1);
        // The cycle Professor→Dept→Professor is broken at exactly one edge.
        let (from, to) = &back[0];
        assert!(
            (from == "Dept" && to == "Professor") || (from == "Professor" && to == "Dept"),
            "unexpected back edge {from}->{to}"
        );
    }

    #[test]
    fn self_recursive_element() {
        let dtd = parse_dtd("<!ELEMENT part (name,part*)><!ELEMENT name (#PCDATA)>").unwrap();
        let g = ElementGraph::build(&dtd);
        assert!(g.is_recursive("part"));
        assert_eq!(g.back_edges(), vec![("part".to_string(), "part".to_string())]);
    }

    #[test]
    fn bottom_up_order_puts_children_first() {
        let dtd = parse_dtd(
            r#"<!ELEMENT a (b,c)><!ELEMENT b (d)><!ELEMENT c (#PCDATA)>
               <!ELEMENT d (#PCDATA)>"#,
        )
        .unwrap();
        let g = ElementGraph::build(&dtd);
        let order = g.bottom_up_order();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("d") < pos("b"));
        assert!(pos("b") < pos("a"));
        assert!(pos("c") < pos("a"));
    }

    #[test]
    fn bottom_up_order_handles_cycles() {
        let dtd = parse_dtd(
            r#"<!ELEMENT Professor (PName,Dept)>
               <!ELEMENT Dept (DName,Professor*)>
               <!ELEMENT PName (#PCDATA)>
               <!ELEMENT DName (#PCDATA)>"#,
        )
        .unwrap();
        let g = ElementGraph::build(&dtd);
        let order = g.bottom_up_order();
        assert_eq!(order.len(), 4);
        // Every element appears exactly once.
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn edge_count_deduplicates() {
        // b referenced twice in one model — single edge.
        let dtd = parse_dtd("<!ELEMENT a (b,b)><!ELEMENT b (#PCDATA)>").unwrap();
        let g = ElementGraph::build(&dtd);
        assert_eq!(g.edge_count(), 1);
    }
}
