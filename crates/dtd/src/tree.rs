//! The "DTD DOM tree" — the paper's intermediate representation.
//!
//! Fig. 1: "The DTD is also represented in a tree structure considering
//! constraints, such as occurrence and optionality of elements. The DTD tree
//! representation is the precondition for the definition of the database
//! schema." This module builds that tree: starting from a root element, each
//! node is an element type annotated with the *cardinality* it has in its
//! parent's content model, plus its attribute definitions.
//!
//! §6.2 notes the limits of a tree: an element with multiple parents is
//! "represented repeatedly as node in the generated DTD tree" (we do the
//! same), and recursion cannot be represented at all. Recursive expansions
//! are cut by marking the node [`DtdTreeNode::recursion_cut`]; the mapping
//! layer consults the [`crate::graph::ElementGraph`] and breaks such edges
//! with `REF` attributes.

use crate::ast::{AttDef, ChildCardinality, ContentSpec, Dtd};

/// Occurrence and optionality of a node below its parent: the
/// cardinality its mention has in the parent's content model
/// ([`ContentSpec::mentions`]). Nested groups can make an element both
/// "set-valued" and "optional" even if the name itself carries no operator
/// (e.g. `(a,b)*` makes `b` set-valued and optional).
pub type NodeCardinality = ChildCardinality;

/// One node of the DTD tree: an element type in a specific parent context.
#[derive(Debug, Clone)]
pub struct DtdTreeNode {
    /// Element type name.
    pub name: String,
    /// Cardinality within the parent (ROOT for the root node).
    pub cardinality: NodeCardinality,
    /// Content classification of the element type.
    pub content: ContentSpec,
    /// Attribute definitions from the merged ATTLISTs.
    pub attributes: Vec<AttDef>,
    /// Child nodes in content-model order (complex elements only).
    pub children: Vec<DtdTreeNode>,
    /// True when this element already occurred on the path from the root —
    /// expansion stops here and the mapping layer must emit a REF (§6.2).
    pub recursion_cut: bool,
    /// True when the element is declared as a child somewhere in the DTD but
    /// has no `<!ELEMENT>` declaration of its own.
    pub undeclared: bool,
}

impl DtdTreeNode {
    /// Paper §4.1: simple = `(#PCDATA)` only.
    pub fn is_simple(&self) -> bool {
        self.content.is_simple()
    }

    pub fn is_complex(&self) -> bool {
        self.content.is_complex()
    }

    /// Depth-first pre-order walk.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a DtdTreeNode, usize)) {
        self.walk_at(0, visit);
    }

    fn walk_at<'a>(&'a self, depth: usize, visit: &mut impl FnMut(&'a DtdTreeNode, usize)) {
        visit(self, depth);
        for child in &self.children {
            child.walk_at(depth + 1, visit);
        }
    }

    /// Render an indented outline (used by examples and tests).
    pub fn outline(&self) -> String {
        let mut out = String::new();
        self.walk(&mut |node, depth| {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&node.name);
            if node.cardinality != NodeCardinality::ROOT {
                out.push_str(&format!(" [{}]", node.cardinality));
            }
            if node.recursion_cut {
                out.push_str(" (recursive)");
            }
            if node.is_simple() {
                out.push_str(" #PCDATA");
            }
            for attr in &node.attributes {
                out.push_str(&format!(" @{}", attr.name));
            }
            out.push('\n');
        });
        out
    }
}

/// The DTD tree rooted at a chosen document element.
#[derive(Debug, Clone)]
pub struct DtdTree {
    pub root: DtdTreeNode,
}

impl DtdTree {
    /// Build the tree for `root_element`. Elements with multiple parents are
    /// duplicated (as the paper's Fig. 3 shows); recursion is cut with
    /// [`DtdTreeNode::recursion_cut`].
    pub fn build(dtd: &Dtd, root_element: &str) -> DtdTree {
        let mut path = Vec::new();
        let root = build_node(dtd, root_element, NodeCardinality::ROOT, &mut path);
        DtdTree { root }
    }

    /// All nodes in pre-order.
    pub fn nodes(&self) -> Vec<&DtdTreeNode> {
        let mut out = Vec::new();
        self.root.walk(&mut |node, _| out.push(node));
        out
    }

    /// Count of nodes whose element name is `name` (multi-parent elements
    /// appear once per parent context).
    pub fn occurrences_of(&self, name: &str) -> usize {
        self.nodes().iter().filter(|n| n.name == name).count()
    }

    /// True if any node was cut due to recursion.
    pub fn has_recursion(&self) -> bool {
        self.nodes().iter().any(|n| n.recursion_cut)
    }
}

fn build_node(
    dtd: &Dtd,
    name: &str,
    cardinality: NodeCardinality,
    path: &mut Vec<String>,
) -> DtdTreeNode {
    let attributes = dtd.attributes_of(name).to_vec();
    let decl = dtd.element(name);
    let content = decl.map(|d| d.content.clone()).unwrap_or(ContentSpec::Any);
    let undeclared = decl.is_none();
    if path.iter().any(|p| p == name) {
        return DtdTreeNode {
            name: name.to_string(),
            cardinality,
            content,
            attributes,
            children: Vec::new(),
            recursion_cut: true,
            undeclared,
        };
    }
    path.push(name.to_string());
    let mut children = Vec::new();
    if !undeclared {
        // One node per mention; the mapping layer deduplicates by name.
        for (child, card) in content.mentions() {
            children.push(build_node(dtd, child, card, path));
        }
    }
    path.pop();
    DtdTreeNode {
        name: name.to_string(),
        cardinality,
        content,
        attributes,
        children,
        recursion_cut: false,
        undeclared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;

    const UNIVERSITY: &str = r#"
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ELEMENT LName (#PCDATA)>
<!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)>
<!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)>
<!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
<!ELEMENT CreditPts (#PCDATA)>
"#;

    #[test]
    fn builds_the_university_tree() {
        let dtd = parse_dtd(UNIVERSITY).unwrap();
        let tree = DtdTree::build(&dtd, "University");
        assert_eq!(tree.root.name, "University");
        assert_eq!(tree.root.children.len(), 2);
        let student = &tree.root.children[1];
        assert_eq!(student.name, "Student");
        assert!(student.cardinality.set_valued && student.cardinality.optional);
        assert_eq!(student.attributes.len(), 1);
        let course = &student.children[2];
        assert_eq!(course.name, "Course");
        let professor = &course.children[1];
        let subject = &professor.children[1];
        assert_eq!(subject.name, "Subject");
        assert!(subject.cardinality.set_valued && !subject.cardinality.optional); // '+'
        let credit = &course.children[2];
        assert_eq!(credit.name, "CreditPts");
        assert!(!credit.cardinality.set_valued && credit.cardinality.optional); // '?'
        assert!(!tree.has_recursion());
    }

    #[test]
    fn group_operators_propagate_to_members() {
        let dtd = parse_dtd(
            "<!ELEMENT a ((b,c)*)><!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>",
        )
        .unwrap();
        let tree = DtdTree::build(&dtd, "a");
        for child in &tree.root.children {
            assert!(child.cardinality.set_valued, "{}", child.name);
            assert!(child.cardinality.optional, "{}", child.name);
        }
    }

    #[test]
    fn choice_members_become_optional() {
        let dtd =
            parse_dtd("<!ELEMENT a (b|c)><!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>").unwrap();
        let tree = DtdTree::build(&dtd, "a");
        assert!(tree.root.children.iter().all(|c| c.cardinality.optional));
        assert!(tree.root.children.iter().all(|c| !c.cardinality.set_valued));
    }

    #[test]
    fn multi_parent_elements_are_duplicated_like_fig3() {
        // Fig. 3: Address below both Professor and Student.
        let dtd = parse_dtd(
            r#"<!ELEMENT Faculty (Professor,Student)>
               <!ELEMENT Professor (PName,Address)>
               <!ELEMENT Address (Street,City)>
               <!ELEMENT Student (Address,SName)>
               <!ELEMENT PName (#PCDATA)>
               <!ELEMENT SName (#PCDATA)>
               <!ELEMENT Street (#PCDATA)>
               <!ELEMENT City (#PCDATA)>"#,
        )
        .unwrap();
        let tree = DtdTree::build(&dtd, "Faculty");
        assert_eq!(tree.occurrences_of("Address"), 2);
        assert_eq!(tree.occurrences_of("Street"), 2);
    }

    #[test]
    fn recursion_is_cut_with_a_marker() {
        // §6.2's Professor/Dept cycle.
        let dtd = parse_dtd(
            r#"<!ELEMENT Professor (PName,Dept)>
               <!ELEMENT Dept (DName,Professor*)>
               <!ELEMENT PName (#PCDATA)>
               <!ELEMENT DName (#PCDATA)>"#,
        )
        .unwrap();
        let tree = DtdTree::build(&dtd, "Professor");
        assert!(tree.has_recursion());
        let dept = &tree.root.children[1];
        let inner_prof = &dept.children[1];
        assert_eq!(inner_prof.name, "Professor");
        assert!(inner_prof.recursion_cut);
        assert!(inner_prof.children.is_empty());
    }

    #[test]
    fn undeclared_children_are_flagged() {
        let dtd = parse_dtd("<!ELEMENT a (ghost)>").unwrap();
        let tree = DtdTree::build(&dtd, "a");
        assert!(tree.root.children[0].undeclared);
    }

    #[test]
    fn mixed_content_children_are_starred() {
        let dtd = parse_dtd("<!ELEMENT p (#PCDATA|em)*><!ELEMENT em (#PCDATA)>").unwrap();
        let tree = DtdTree::build(&dtd, "p");
        let em = &tree.root.children[0];
        assert!(em.cardinality.set_valued && em.cardinality.optional);
    }

    #[test]
    fn outline_is_readable() {
        let dtd = parse_dtd(UNIVERSITY).unwrap();
        let tree = DtdTree::build(&dtd, "University");
        let outline = tree.root.outline();
        assert!(outline.contains("University\n"), "{outline}");
        assert!(outline.contains("  Student [*] @StudNr"), "{outline}");
        assert!(outline.contains("      Subject [+] #PCDATA"), "{outline}");
    }

    #[test]
    fn cardinality_display() {
        assert_eq!(NodeCardinality { set_valued: false, optional: false }.to_string(), "1");
        assert_eq!(NodeCardinality { set_valued: false, optional: true }.to_string(), "?");
        assert_eq!(NodeCardinality { set_valued: true, optional: false }.to_string(), "+");
        assert_eq!(NodeCardinality { set_valued: true, optional: true }.to_string(), "*");
    }
}
