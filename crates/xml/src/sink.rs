//! Writing a document from events: one producer, two sinks.
//!
//! A producer that walks some other representation of a document — the
//! retrieval side of the pipeline walks stored rows — reports it as
//! [`ContentSink`] events in document order: the declaration, then each
//! element's start, its attributes, its content and its end. Two sinks
//! consume them:
//!
//! * [`TextWriter`] appends the XML text to a `String`: escaped, §6.1
//!   entity references re-substituted, no `Document` built. Its markup and
//!   character-data rules are the serializer's own functions, so it writes
//!   exactly what [`crate::serializer::serialize`] writes for the tree
//!   [`DomBuilder`] builds from the same events (compact, declaration
//!   included, the same entity catalog).
//! * [`DomBuilder`] builds that [`Document`], for callers that want a tree.

use crate::dom::{Document, NodeId};
use crate::entities::{EntityCatalog, Resubstitution};
use crate::escape::infallible;
use crate::name::QName;
use crate::prolog::XmlDeclaration;
use crate::serializer::{write_attribute, write_close, write_declaration, write_start};

/// Receiver of a document's events. An element's attributes follow its
/// start and precede its content; every start is matched by an end naming
/// the same element. Attribute names are distinct within an element (a
/// producer resolves repeats before it reports them).
pub trait ContentSink {
    /// The XML declaration; at most once, before the root element.
    fn declaration(&mut self, decl: &XmlDeclaration);
    fn start_element(&mut self, name: &QName);
    fn attribute(&mut self, name: &str, value: &str);
    /// Character data (unescaped); an empty text is still a child node.
    fn text(&mut self, text: &str);
    fn end_element(&mut self, name: &QName);
}

/// Appends a document's XML text to a `String` as its events arrive.
pub struct TextWriter<'o> {
    out: &'o mut String,
    text: Resubstitution,
    /// A start tag is written up to its attributes and still awaits its
    /// `>` — or, if its element ends before any content, its `/>`.
    tag_open: bool,
}

impl<'o> TextWriter<'o> {
    /// A writer appending to `out`, re-substituting `entities` into text
    /// (prepared here, once per document).
    pub fn new(out: &'o mut String, entities: &EntityCatalog) -> TextWriter<'o> {
        TextWriter { out, text: Resubstitution::new(entities), tag_open: false }
    }

    /// End an open start tag: content follows.
    fn close_tag(&mut self) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
    }
}

impl ContentSink for TextWriter<'_> {
    fn declaration(&mut self, decl: &XmlDeclaration) {
        infallible(write_declaration(decl, self.out));
        self.out.push('\n');
    }

    fn start_element(&mut self, name: &QName) {
        self.close_tag();
        infallible(write_start(name.as_raw(), self.out));
        self.tag_open = true;
    }

    fn attribute(&mut self, name: &str, value: &str) {
        debug_assert!(self.tag_open, "attribute {name} after content");
        infallible(write_attribute(name, value, self.out));
    }

    fn text(&mut self, text: &str) {
        self.close_tag();
        infallible(self.text.write_text(text, self.out));
    }

    fn end_element(&mut self, name: &QName) {
        infallible(write_close(name.as_raw(), self.tag_open, self.out));
        self.tag_open = false;
    }
}

/// Builds a [`Document`] from events; the first element is the root.
#[derive(Debug, Default)]
pub struct DomBuilder {
    doc: Document,
    /// The elements started and not yet ended, innermost last.
    open: Vec<NodeId>,
}

impl DomBuilder {
    pub fn new() -> DomBuilder {
        DomBuilder::default()
    }

    /// The document built so far.
    pub fn finish(self) -> Document {
        self.doc
    }

    fn current(&self) -> NodeId {
        *self.open.last().expect("content outside any element")
    }
}

impl ContentSink for DomBuilder {
    fn declaration(&mut self, decl: &XmlDeclaration) {
        self.doc.declaration = Some(decl.clone());
    }

    fn start_element(&mut self, name: &QName) {
        let node = self.doc.create_element(name.clone());
        match self.open.last() {
            Some(&parent) => self.doc.append_child(parent, node),
            None => self.doc.set_root(node),
        }
        self.open.push(node);
    }

    fn attribute(&mut self, name: &str, value: &str) {
        let name = QName::parse(name).unwrap_or_else(|| QName::local(name));
        self.doc.set_attribute(self.current(), name, value);
    }

    fn text(&mut self, text: &str) {
        let node = self.doc.create_text(text);
        self.doc.append_child(self.current(), node);
    }

    fn end_element(&mut self, _: &QName) {
        self.open.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::{serialize, SerializeOptions};

    /// Events for `<?xml version="1.0"?><r a="x&quot;"><e/>BSc Computer
    /// Science &amp; more<e>1 &lt; 2</e><e></e></r>`, the last `<e>` holding
    /// an empty text node.
    fn replay(sink: &mut impl ContentSink) {
        let (r, e) = (QName::local("r"), QName::local("e"));
        sink.declaration(&XmlDeclaration::default());
        sink.start_element(&r);
        sink.attribute("a", "x\"");
        sink.start_element(&e);
        sink.end_element(&e);
        sink.text("BSc Computer Science & more");
        sink.start_element(&e);
        sink.text("1 < 2");
        sink.end_element(&e);
        sink.start_element(&e);
        sink.text("");
        sink.end_element(&e);
        sink.end_element(&r);
    }

    #[test]
    fn the_writer_writes_what_the_serializer_writes_for_the_built_tree() {
        let mut catalog = EntityCatalog::new();
        catalog.declare("cs", "Computer Science");
        let mut written = String::new();
        replay(&mut TextWriter::new(&mut written, &catalog));
        let mut builder = DomBuilder::new();
        replay(&mut builder);
        let opts = SerializeOptions {
            include_declaration: true,
            ..SerializeOptions::compact().with_entities(catalog)
        };
        assert_eq!(written, serialize(&builder.finish(), &opts));
        assert_eq!(
            written,
            "<?xml version=\"1.0\"?>\n<r a=\"x&quot;\"><e/>BSc &cs; &amp; more\
             <e>1 &lt; 2</e><e></e></r>"
        );
    }
}
