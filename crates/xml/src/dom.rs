//! Arena-based DOM tree.
//!
//! This is the "XML DOM tree" of the paper's Fig. 1: "the elements and their
//! values as well as the attributes and their values". Comments and
//! processing instructions are kept as first-class nodes because §6.1/§7
//! measure exactly what happens to them on the way through the database.
//!
//! Nodes live in a flat arena inside [`Document`]; [`NodeId`] is a plain
//! index, which keeps the tree cheap to clone and trivially serde-free.

use crate::name::QName;
use crate::prolog::{DoctypeDecl, XmlDeclaration};

/// Index of a node in a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An attribute instance on an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: QName,
    pub value: String,
}

/// Payload of an element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementData {
    pub name: QName,
    pub attributes: Vec<Attribute>,
    pub children: Vec<NodeId>,
}

/// The different node kinds the pipeline distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    Element(ElementData),
    /// Character data with entity and character references already expanded.
    Text(String),
    /// A CDATA section (content kept separate from Text so serialization can
    /// reproduce it, and so round-trip scoring can tell them apart).
    CData(String),
    Comment(String),
    ProcessingInstruction { target: String, data: String },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    parent: Option<NodeId>,
    kind: NodeKind,
}

/// A parsed XML document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    pub declaration: Option<XmlDeclaration>,
    pub doctype: Option<DoctypeDecl>,
    nodes: Vec<Node>,
    root: Option<NodeId>,
    /// Comments/PIs appearing before the root element.
    pub prolog_misc: Vec<NodeId>,
    /// Comments/PIs appearing after the root element.
    pub epilog_misc: Vec<NodeId>,
}

impl Document {
    pub fn new() -> Self {
        Self::default()
    }

    /// The root element, if the document has one.
    pub fn root_element(&self) -> Option<NodeId> {
        self.root
    }

    /// Install `id` as the document's root element. Public because document
    /// *builders* (the retrieval side of the pipeline, generators, tests)
    /// construct trees bottom-up and attach the root last.
    pub fn set_root(&mut self, id: NodeId) {
        self.root = Some(id);
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Allocate a node with no parent (the caller attaches it).
    pub fn push_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { parent: None, kind });
        id
    }

    /// Create a detached element node.
    pub fn create_element(&mut self, name: QName) -> NodeId {
        self.push_node(NodeKind::Element(ElementData {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        }))
    }

    /// Create a detached text node.
    pub fn create_text(&mut self, text: &str) -> NodeId {
        self.push_node(NodeKind::Text(text.to_string()))
    }

    /// Create a detached comment node.
    pub fn create_comment(&mut self, text: &str) -> NodeId {
        self.push_node(NodeKind::Comment(text.to_string()))
    }

    /// Create a detached processing-instruction node.
    pub fn create_pi(&mut self, target: &str, data: &str) -> NodeId {
        self.push_node(NodeKind::ProcessingInstruction {
            target: target.to_string(),
            data: data.to_string(),
        })
    }

    /// Create an element and install it as the document root.
    pub fn create_root(&mut self, name: QName) -> NodeId {
        let id = self.create_element(name);
        self.set_root(id);
        id
    }

    /// Append `child` to `parent`'s child list. Panics if `parent` is not an
    /// element or `child` already has a parent.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        assert!(self.nodes[child.index()].parent.is_none(), "child already attached");
        self.nodes[child.index()].parent = Some(parent);
        match &mut self.nodes[parent.index()].kind {
            NodeKind::Element(el) => el.children.push(child),
            other => panic!("cannot append a child to a non-element node: {other:?}"),
        }
    }

    /// Set (or replace) an attribute on an element node.
    pub fn set_attribute(&mut self, element: NodeId, name: QName, value: &str) {
        match &mut self.nodes[element.index()].kind {
            NodeKind::Element(el) => {
                if let Some(attr) = el.attributes.iter_mut().find(|a| a.name == name) {
                    attr.value = value.to_string();
                } else {
                    el.attributes.push(Attribute { name, value: value.to_string() });
                }
            }
            other => panic!("cannot set an attribute on a non-element node: {other:?}"),
        }
    }

    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Element payload of `id`; `None` for non-element nodes.
    pub fn element(&self, id: NodeId) -> Option<&ElementData> {
        match &self.nodes[id.index()].kind {
            NodeKind::Element(el) => Some(el),
            _ => None,
        }
    }

    /// Qualified name of an element node. Panics on non-element nodes.
    pub fn name(&self, id: NodeId) -> &QName {
        &self.element(id).expect("name() called on a non-element node").name
    }

    /// Children of an element node (empty for other nodes).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.element(id).map(|el| el.children.as_slice()).unwrap_or(&[])
    }

    /// Child *elements* of a node.
    pub fn child_elements(&self, id: NodeId) -> Vec<NodeId> {
        self.children(id)
            .iter()
            .copied()
            .filter(|c| matches!(self.kind(*c), NodeKind::Element(_)))
            .collect()
    }

    /// Child elements with the given (unprefixed) local name.
    pub fn child_elements_named(&self, id: NodeId, local: &str) -> Vec<NodeId> {
        self.children_where(id, move |name| name.local_part() == local).collect()
    }

    /// First child element with the given local name.
    pub fn first_child_named(&self, id: NodeId, local: &str) -> Option<NodeId> {
        self.children_where(id, move |name| name.local_part() == local).next()
    }

    /// Child elements whose tag name, prefix included, is `raw` — the name
    /// a DTD declares (`ns:a` is not `a`).
    pub fn child_elements_tagged(&self, id: NodeId, raw: &str) -> Vec<NodeId> {
        self.children_where(id, move |name| name.as_raw() == raw).collect()
    }

    /// First child element whose tag name, prefix included, is `raw`.
    pub fn first_child_tagged(&self, id: NodeId, raw: &str) -> Option<NodeId> {
        self.children_where(id, move |name| name.as_raw() == raw).next()
    }

    fn children_where<'d>(
        &'d self,
        id: NodeId,
        matches: impl Fn(&QName) -> bool + 'd,
    ) -> impl Iterator<Item = NodeId> + 'd {
        self.children(id)
            .iter()
            .copied()
            .filter(move |c| self.element(*c).is_some_and(|el| matches(&el.name)))
    }

    /// Attribute value by raw name (`prefix:local` or plain local name).
    pub fn attribute(&self, id: NodeId, raw_name: &str) -> Option<&str> {
        self.element(id)?
            .attributes
            .iter()
            .find(|a| a.name.as_raw() == raw_name)
            .map(|a| a.value.as_str())
    }

    /// All attributes of an element (empty slice for other nodes).
    pub fn attributes(&self, id: NodeId) -> &[Attribute] {
        self.element(id).map(|el| el.attributes.as_slice()).unwrap_or(&[])
    }

    /// Concatenated text content of the subtree rooted at `id`
    /// (Text and CData nodes, document order).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Text(t) | NodeKind::CData(t) => out.push_str(t),
            NodeKind::Element(el) => {
                for child in &el.children {
                    self.collect_text(*child, out);
                }
            }
            _ => {}
        }
    }

    /// Depth-first pre-order traversal of the subtree rooted at `id`.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            out.push(cur);
            // Push children reversed so pre-order pops left-to-right.
            for child in self.children(cur).iter().rev() {
                stack.push(*child);
            }
        }
        out
    }

    /// Count of nodes by a predicate over the whole document (root subtree
    /// plus prolog/epilog misc nodes).
    pub fn count_nodes(&self, pred: impl Fn(&NodeKind) -> bool) -> usize {
        let mut ids: Vec<NodeId> = Vec::new();
        ids.extend(&self.prolog_misc);
        if let Some(root) = self.root {
            ids.extend(self.descendants(root));
        }
        ids.extend(&self.epilog_misc);
        ids.into_iter().filter(|id| pred(self.kind(*id))).count()
    }

    /// Depth of the deepest element (root element = depth 1); 0 if no root.
    pub fn max_depth(&self) -> usize {
        fn depth_of(doc: &Document, id: NodeId) -> usize {
            match doc.kind(id) {
                NodeKind::Element(_) => {
                    1 + doc
                        .child_elements(id)
                        .into_iter()
                        .map(|c| depth_of(doc, c))
                        .max()
                        .unwrap_or(0)
                }
                _ => 0,
            }
        }
        self.root.map(|r| depth_of(self, r)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: &str) -> QName {
        QName::local(n)
    }

    #[test]
    fn builds_a_small_tree() {
        let mut doc = Document::new();
        let root = doc.create_root(q("University"));
        let student = doc.create_element(q("Student"));
        doc.append_child(root, student);
        doc.set_attribute(student, q("StudNr"), "23374");
        let name = doc.create_element(q("LName"));
        doc.append_child(student, name);
        let text = doc.create_text("Conrad");
        doc.append_child(name, text);

        assert_eq!(doc.root_element(), Some(root));
        assert_eq!(doc.name(root).local_part(), "University");
        assert_eq!(doc.attribute(student, "StudNr"), Some("23374"));
        assert_eq!(doc.text_content(student), "Conrad");
        assert_eq!(doc.parent(text), Some(name));
        assert_eq!(doc.max_depth(), 3);
    }

    #[test]
    fn set_attribute_replaces_existing() {
        let mut doc = Document::new();
        let root = doc.create_root(q("a"));
        doc.set_attribute(root, q("x"), "1");
        doc.set_attribute(root, q("x"), "2");
        assert_eq!(doc.attributes(root).len(), 1);
        assert_eq!(doc.attribute(root, "x"), Some("2"));
    }

    #[test]
    fn child_elements_filters_non_elements() {
        let mut doc = Document::new();
        let root = doc.create_root(q("a"));
        let t = doc.create_text("x");
        doc.append_child(root, t);
        let c = doc.create_comment("note");
        doc.append_child(root, c);
        let b = doc.create_element(q("b"));
        doc.append_child(root, b);
        assert_eq!(doc.child_elements(root), vec![b]);
        assert_eq!(doc.child_elements_named(root, "b"), vec![b]);
        assert_eq!(doc.first_child_named(root, "zzz"), None);
    }

    #[test]
    fn tagged_lookups_match_the_prefix_too() {
        let mut doc = Document::new();
        let root = doc.create_root(q("r"));
        let prefixed = doc.create_element(QName::parse("ns:a").unwrap());
        doc.append_child(root, prefixed);
        let plain = doc.create_element(q("a"));
        doc.append_child(root, plain);
        assert_eq!(doc.child_elements_named(root, "a"), vec![prefixed, plain]);
        assert_eq!(doc.child_elements_tagged(root, "a"), vec![plain]);
        assert_eq!(doc.first_child_tagged(root, "ns:a"), Some(prefixed));
        assert_eq!(doc.first_child_tagged(root, "ns"), None);
    }

    #[test]
    fn descendants_are_preorder() {
        let mut doc = Document::new();
        let root = doc.create_root(q("r"));
        let a = doc.create_element(q("a"));
        let b = doc.create_element(q("b"));
        let a1 = doc.create_element(q("a1"));
        doc.append_child(root, a);
        doc.append_child(a, a1);
        doc.append_child(root, b);
        assert_eq!(doc.descendants(root), vec![root, a, a1, b]);
    }

    #[test]
    fn count_nodes_includes_misc() {
        let mut doc = Document::new();
        let pi = doc.create_pi("style", "css");
        doc.prolog_misc.push(pi);
        let root = doc.create_root(q("r"));
        let c = doc.create_comment("x");
        doc.append_child(root, c);
        assert_eq!(doc.count_nodes(|k| matches!(k, NodeKind::Comment(_))), 1);
        assert_eq!(
            doc.count_nodes(|k| matches!(k, NodeKind::ProcessingInstruction { .. })),
            1
        );
    }

    #[test]
    #[should_panic(expected = "child already attached")]
    fn double_attach_panics() {
        let mut doc = Document::new();
        let root = doc.create_root(q("r"));
        let a = doc.create_element(q("a"));
        doc.append_child(root, a);
        doc.append_child(root, a);
    }
}
