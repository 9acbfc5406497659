//! DOM → XML text serialization.
//!
//! This is the retrieval direction of the paper's pipeline: after a document
//! is reconstructed from the database, it must be rendered back to XML. The
//! [`SerializeOptions::entity_catalog`] hook implements §6.1's proposal of
//! re-substituting the original entity references recorded in the meta-table.
//!
//! The markup rules — a start tag and its attributes, the empty-element
//! `/>` rule, the declaration line — are functions here that the retrieval
//! writer ([`crate::sink::TextWriter`]) calls too, and character data goes
//! through the same `Resubstitution`, so the two agree byte for byte by
//! construction.

use std::io;

use crate::dom::{Document, NodeId, NodeKind};
use crate::entities::{EntityCatalog, Resubstitution};
use crate::escape::{infallible, write_attr, IoSink, Sink};
use crate::prolog::XmlDeclaration;

/// Controls for [`serialize`].
#[derive(Debug, Clone, Default)]
pub struct SerializeOptions {
    /// Emit `<?xml ...?>` when the document has one.
    pub include_declaration: bool,
    /// Emit the DOCTYPE declaration when the document has one.
    pub include_doctype: bool,
    /// Pretty-print with this many spaces per level; `None` = compact.
    pub indent: Option<usize>,
    /// Re-substitute these declared entities into text content (§6.1).
    pub entity_catalog: Option<EntityCatalog>,
}

impl SerializeOptions {
    /// Compact output, no prolog.
    pub fn compact() -> Self {
        SerializeOptions::default()
    }

    /// Full-document output: declaration + doctype, 2-space indent.
    pub fn document() -> Self {
        SerializeOptions {
            include_declaration: true,
            include_doctype: true,
            indent: Some(2),
            entity_catalog: None,
        }
    }

    pub fn with_entities(mut self, catalog: EntityCatalog) -> Self {
        self.entity_catalog = Some(catalog);
        self
    }
}

/// Serialize a whole document.
pub fn serialize(doc: &Document, opts: &SerializeOptions) -> String {
    let mut out = String::new();
    infallible(serialize_sink(doc, opts, &mut out));
    out
}

/// Serialize a whole document to any [`io::Write`] — the streaming path.
/// Emits exactly the bytes [`serialize`] would collect into a `String`,
/// without materializing the document text in memory. Wrap slow writers
/// (files, sockets) in a [`io::BufWriter`]; the call does not flush.
pub fn serialize_to<W: io::Write>(
    doc: &Document,
    opts: &SerializeOptions,
    out: &mut W,
) -> io::Result<()> {
    serialize_sink(doc, opts, &mut IoSink(out))
}

fn serialize_sink<S: Sink>(doc: &Document, opts: &SerializeOptions, out: &mut S) -> io::Result<()> {
    if opts.include_declaration {
        if let Some(decl) = &doc.declaration {
            write_declaration(decl, out)?;
            out.put_str("\n")?;
        }
    }
    if opts.include_doctype {
        if let Some(dt) = &doc.doctype {
            out.put_str(&dt.to_xml())?;
            out.put_str("\n")?;
        }
    }
    // Prepared once for the whole document, not per text node.
    let mut text = opts.entity_catalog.as_ref().map(Resubstitution::new).unwrap_or_default();
    for misc in &doc.prolog_misc {
        write_node(doc, *misc, opts, &mut text, 0, out)?;
        if opts.indent.is_some() {
            out.put_str("\n")?;
        }
    }
    if let Some(root) = doc.root_element() {
        write_node(doc, root, opts, &mut text, 0, out)?;
    }
    for misc in &doc.epilog_misc {
        if opts.indent.is_some() {
            out.put_str("\n")?;
        }
        write_node(doc, *misc, opts, &mut text, 0, out)?;
    }
    Ok(())
}

/// The declaration: `<?xml version="…" encoding="…" standalone="…"?>`.
pub(crate) fn write_declaration<S: Sink>(decl: &XmlDeclaration, out: &mut S) -> io::Result<()> {
    out.put_str("<?xml version=\"")?;
    out.put_str(&decl.version)?;
    out.put_str("\"")?;
    if let Some(encoding) = &decl.encoding {
        out.put_str(" encoding=\"")?;
        out.put_str(encoding)?;
        out.put_str("\"")?;
    }
    if let Some(standalone) = decl.standalone {
        out.put_str(if standalone { " standalone=\"yes\"" } else { " standalone=\"no\"" })?;
    }
    out.put_str("?>")
}

/// `<name`: a start tag, left open for its attributes.
pub(crate) fn write_start<S: Sink>(name: &str, out: &mut S) -> io::Result<()> {
    out.put_str("<")?;
    out.put_str(name)
}

/// ` name="value"` inside an open start tag, the value escaped.
pub(crate) fn write_attribute<S: Sink>(name: &str, value: &str, out: &mut S) -> io::Result<()> {
    out.put_str(" ")?;
    out.put_str(name)?;
    out.put_str("=\"")?;
    write_attr(value, out)?;
    out.put_str("\"")
}

/// Close an element: an element with no child node is `<name/>` — the open
/// start tag ends in `/>` — and any other ends in `</name>`.
pub(crate) fn write_close<S: Sink>(name: &str, empty: bool, out: &mut S) -> io::Result<()> {
    if empty {
        return out.put_str("/>");
    }
    out.put_str("</")?;
    out.put_str(name)?;
    out.put_str(">")
}

/// Serialize a single subtree compactly (no prolog).
pub fn serialize_node(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    let mut text = Resubstitution::default();
    infallible(write_node(doc, id, &SerializeOptions::compact(), &mut text, 0, &mut out));
    out
}

fn write_node<S: Sink>(
    doc: &Document,
    id: NodeId,
    opts: &SerializeOptions,
    text: &mut Resubstitution,
    depth: usize,
    out: &mut S,
) -> io::Result<()> {
    match doc.kind(id) {
        NodeKind::Element(el) => {
            write_start(el.name.as_raw(), out)?;
            for attr in &el.attributes {
                write_attribute(attr.name.as_raw(), &attr.value, out)?;
            }
            if el.children.is_empty() {
                return write_close(el.name.as_raw(), true, out);
            }
            out.put_str(">")?;
            // Indent only around element children; any text child forces
            // mixed-content mode, which must not introduce whitespace.
            let element_only = opts.indent.is_some()
                && el.children.iter().all(|c| {
                    matches!(
                        doc.kind(*c),
                        NodeKind::Element(_)
                            | NodeKind::Comment(_)
                            | NodeKind::ProcessingInstruction { .. }
                    )
                });
            for child in &el.children {
                if element_only {
                    out.put_str("\n")?;
                    push_indent(opts, depth + 1, out)?;
                }
                write_node(doc, *child, opts, text, depth + 1, out)?;
            }
            if element_only {
                out.put_str("\n")?;
                push_indent(opts, depth, out)?;
            }
            write_close(el.name.as_raw(), false, out)?;
        }
        NodeKind::Text(data) => text.write_text(data, out)?,
        NodeKind::CData(text) => {
            // A CDATA section cannot contain its own terminator. Split the
            // content into adjacent sections at every `]]>`: the first
            // section ends after `]]` and the next one reopens before `>`,
            // so the character data reparses unchanged.
            out.put_str("<![CDATA[")?;
            out.put_str(&text.replace("]]>", "]]]]><![CDATA[>"))?;
            out.put_str("]]>")?;
        }
        NodeKind::Comment(text) => {
            out.put_str("<!--")?;
            out.put_str(&escape_comment(text))?;
            out.put_str("-->")?;
        }
        NodeKind::ProcessingInstruction { target, data } => {
            out.put_str("<?")?;
            out.put_str(target)?;
            if !data.is_empty() {
                out.put_str(" ")?;
                // PI data cannot contain the `?>` terminator; break the
                // pair with a space so the PI still parses.
                out.put_str(&data.replace("?>", "? >"))?;
            }
            out.put_str("?>")?;
        }
    }
    Ok(())
}

/// Make comment text well-formed: XML 1.0 §2.5 forbids `--` inside a
/// comment and a trailing `-` (which would glue onto the closing `-->`).
/// A space is inserted between consecutive dashes and after a final dash;
/// the result contains neither pattern, so serialization stays infallible
/// and the output reparses as a comment.
fn escape_comment(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if c == '-' && out.ends_with('-') {
            out.push(' ');
        }
        out.push(c);
    }
    if out.ends_with('-') {
        out.push(' ');
    }
    out
}

fn push_indent<S: Sink>(opts: &SerializeOptions, depth: usize, out: &mut S) -> io::Result<()> {
    if let Some(width) = opts.indent {
        for _ in 0..depth * width {
            out.put_str(" ")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compact_round_trip_is_stable() {
        let src = "<a x=\"1\"><b>hi</b><c/><!--n--></a>";
        let doc = parse(src).unwrap();
        assert_eq!(serialize(&doc, &SerializeOptions::compact()), src);
    }

    #[test]
    fn escapes_markup_in_text_and_attrs() {
        let mut doc = Document::new();
        let root = doc.create_root(crate::QName::local("a"));
        doc.set_attribute(root, crate::QName::local("x"), "a\"b<c");
        let t = doc.create_text("1 < 2 & 3 > 2");
        doc.append_child(root, t);
        let out = serialize(&doc, &SerializeOptions::compact());
        assert_eq!(out, "<a x=\"a&quot;b&lt;c\">1 &lt; 2 &amp; 3 &gt; 2</a>");
        // And it reparses to the same values.
        let doc2 = parse(&out).unwrap();
        let r2 = doc2.root_element().unwrap();
        assert_eq!(doc2.attribute(r2, "x"), Some("a\"b<c"));
        assert_eq!(doc2.text_content(r2), "1 < 2 & 3 > 2");
    }

    #[test]
    fn pretty_print_indents_element_only_content() {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let opts = SerializeOptions { indent: Some(2), ..Default::default() };
        let out = serialize(&doc, &opts);
        assert_eq!(out, "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
    }

    #[test]
    fn pretty_print_leaves_mixed_content_alone() {
        let doc = parse("<a>text<b/>more</a>").unwrap();
        let opts = SerializeOptions { indent: Some(2), ..Default::default() };
        assert_eq!(serialize(&doc, &opts), "<a>text<b/>more</a>");
    }

    #[test]
    fn document_options_emit_prolog() {
        let doc = parse("<?xml version=\"1.0\"?><!DOCTYPE a><a/>").unwrap();
        let out = serialize(&doc, &SerializeOptions::document());
        assert!(out.starts_with("<?xml version=\"1.0\"?>\n<!DOCTYPE a>\n<a/>"), "{out}");
    }

    #[test]
    fn cdata_survives_serialization() {
        let src = "<a><![CDATA[<not & markup>]]></a>";
        let doc = parse(src).unwrap();
        assert_eq!(serialize(&doc, &SerializeOptions::compact()), src);
    }

    #[test]
    fn cdata_containing_terminator_splits_into_sections() {
        let mut doc = Document::new();
        let root = doc.create_root(crate::QName::local("a"));
        let cd = doc.push_node(NodeKind::CData("x]]>y".into()));
        doc.append_child(root, cd);
        let out = serialize(&doc, &SerializeOptions::compact());
        assert_eq!(out, "<a><![CDATA[x]]]]><![CDATA[>y]]></a>");
        // Reparses to the same character data, and a second serialization
        // is a fixpoint.
        let doc2 = parse(&out).unwrap();
        let r2 = doc2.root_element().unwrap();
        assert_eq!(doc2.text_content(r2), "x]]>y");
        assert_eq!(serialize(&doc2, &SerializeOptions::compact()), out);
    }

    #[test]
    fn comment_with_double_dash_is_escaped() {
        let mut doc = Document::new();
        let root = doc.create_root(crate::QName::local("a"));
        for text in ["a--b", "a---b", "ends-", "--", "-"] {
            let c = doc.create_comment(text);
            doc.append_child(root, c);
        }
        let out = serialize(&doc, &SerializeOptions::compact());
        assert_eq!(out, "<a><!--a- -b--><!--a- - -b--><!--ends- --><!--- - --><!--- --></a>");
        // Well-formed: it must reparse, and reserialize to the same bytes.
        let doc2 = parse(&out).unwrap();
        assert_eq!(serialize(&doc2, &SerializeOptions::compact()), out);
    }

    #[test]
    fn pi_with_terminator_in_data_is_escaped() {
        let mut doc = Document::new();
        let root = doc.create_root(crate::QName::local("a"));
        let pi = doc.create_pi("target", "data ?> more");
        doc.append_child(root, pi);
        let out = serialize(&doc, &SerializeOptions::compact());
        assert_eq!(out, "<a><?target data ? > more?></a>");
        let doc2 = parse(&out).unwrap();
        assert_eq!(serialize(&doc2, &SerializeOptions::compact()), out);
    }

    #[test]
    fn entity_resubstitution_restores_references() {
        let mut cat = EntityCatalog::new();
        cat.declare("cs", "Computer Science");
        let doc = parse("<a>BSc Computer Science</a>").unwrap();
        let opts = SerializeOptions::compact().with_entities(cat);
        assert_eq!(serialize(&doc, &opts), "<a>BSc &cs;</a>");
    }

    #[test]
    fn serialize_node_renders_a_subtree() {
        let doc = parse("<a><b k=\"v\">x</b></a>").unwrap();
        let root = doc.root_element().unwrap();
        let b = doc.first_child_named(root, "b").unwrap();
        assert_eq!(serialize_node(&doc, b), "<b k=\"v\">x</b>");
    }

    #[test]
    fn streaming_serialization_is_byte_identical() {
        let mut cat = EntityCatalog::new();
        cat.declare("cs", "Computer Science");
        let sources = [
            "<?xml version=\"1.0\"?><!DOCTYPE a><?p x?><a k=\"q&quot;v\">1 &lt; 2<b/>\
             <![CDATA[raw]]><!--note--></a><!--tail-->",
            "<a><b><c/></b></a>",
            "<a>BSc Computer Science<x/>more</a>",
        ];
        let option_sets = [
            SerializeOptions::compact(),
            SerializeOptions::document(),
            SerializeOptions::compact().with_entities(cat),
        ];
        for src in sources {
            let doc = parse(src).unwrap();
            for opts in &option_sets {
                let in_memory = serialize(&doc, opts);
                let mut streamed = Vec::new();
                serialize_to(&doc, opts, &mut streamed).unwrap();
                assert_eq!(streamed, in_memory.as_bytes(), "{src}");
            }
        }
    }

    #[test]
    fn streaming_serialization_surfaces_io_errors() {
        struct Refuse;
        impl io::Write for Refuse {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let doc = parse("<a>text</a>").unwrap();
        let err = serialize_to(&doc, &SerializeOptions::compact(), &mut Refuse).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn prolog_and_epilog_misc_emitted() {
        let doc = parse("<?p a?><a/><!--tail-->").unwrap();
        let out = serialize(&doc, &SerializeOptions::compact());
        assert_eq!(out, "<?p a?><a/><!--tail-->");
    }
}
