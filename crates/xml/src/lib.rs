//! # xmlord-xml — XML 1.0 parser, DOM and serializer
//!
//! This crate is substrate **S1** of the reproduction of *Kudrass & Conrad,
//! "Management of XML Documents in Object-Relational Databases" (EDBT 2002)*.
//! It plays the role the Oracle XDK parser plays in the paper's `XML2Oracle`
//! utility (Fig. 1): it checks well-formedness, expands entity references and
//! produces a DOM tree of the document — elements with their values,
//! attributes with their values, plus the comments and processing
//! instructions whose loss the paper discusses in §6.1/§7.
//!
//! The crate is deliberately self-contained (no dependencies) and implements
//! the subset of XML 1.0 the paper's pipeline requires:
//!
//! * prolog (XML declaration, `DOCTYPE` with internal subset capture),
//! * elements, attributes, character data, CDATA sections,
//! * comments and processing instructions (preserved in the DOM so the
//!   round-trip experiments can measure their loss through the database),
//! * character references (`&#10;`, `&#x0A;`) and entity references — the
//!   five predefined entities plus general entities declared in the internal
//!   DTD subset, which are *expanded at their occurrences* exactly as §6.1
//!   describes ("XML2Oracle expands them at their occurrences so that the
//!   expanded entities are stored in the database"),
//! * namespace-aware qualified names (`prefix:local`).
//!
//! ## Layers
//!
//! * [`cursor`] — a byte-offset cursor over the input that derives line and
//!   column only when a position is asked for; shared with the DTD parser.
//! * [`events`] — the **pull reader**: one pass over the text, no recursion,
//!   borrowed [`events::Event`]s out. All well-formedness checking, reference
//!   expansion and the three hostile-input defences live here: nesting past
//!   [`MAX_ELEMENT_DEPTH`], references expanding past
//!   [`MAX_ENTITY_EXPANSION_BYTES`], and literal characters XML forbids each
//!   fail with their own [`XmlErrorKind`].
//! * [`parser`] — [`parse`]/[`parse_with_catalog`]: the reader drained into
//!   a [`Document`]. The DOM is one consumer of the event stream; a
//!   streaming ingest that never builds one is the intended second.
//! * [`dom`], [`name`] — the arena tree and its shared, interned [`QName`]s.
//! * [`entities`] — the §6.1 entity catalog, budgeted expansion, and the
//!   re-substitution used on retrieval.
//! * [`serializer`], [`escape`], [`prolog`] — the way back to text: one
//!   set of escaping and markup rules, and the §6.1 re-substitution
//!   prepared once per document.
//! * [`sink`] — the way back without a tree: a producer's element events
//!   written straight to text ([`sink::TextWriter`]) or built into a
//!   [`Document`] ([`sink::DomBuilder`]), byte-identical by construction.
//!
//! ## Quick example
//!
//! ```
//! use xmlord_xml::{parse, serializer::{serialize, SerializeOptions}};
//!
//! let doc = parse("<a x='1'><b>hi</b><!--c--></a>").unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.name(root).local_part(), "a");
//! assert_eq!(doc.attribute(root, "x"), Some("1"));
//! let text = serialize(&doc, &SerializeOptions::compact());
//! assert_eq!(text, "<a x=\"1\"><b>hi</b><!--c--></a>");
//! ```

pub mod cursor;
pub mod dom;
pub mod entities;
pub mod error;
pub mod escape;
pub mod events;
pub mod name;
pub mod parser;
pub mod prolog;
pub mod serializer;
pub mod sink;

/// The deepest element nesting the reader accepts; a start tag that would
/// open one more is [`XmlErrorKind::DepthLimitExceeded`]. A constant, not a
/// setting: the walkers behind the parser (validator, loader, serializer,
/// reconstructors) recurse on document depth on 2 MiB thread stacks, and a
/// document this deep is measured to pass through all of them there.
pub const MAX_ELEMENT_DEPTH: usize = 1024;

/// The most bytes the entity references of one document may expand to
/// before the parse fails with [`XmlErrorKind::EntityExpansionLimit`].
pub const MAX_ENTITY_EXPANSION_BYTES: usize = 8 << 20;

pub use dom::{Attribute, Document, ElementData, NodeId, NodeKind};
pub use entities::EntityCatalog;
pub use error::{Position, XmlError, XmlErrorKind};
pub use name::QName;
pub use parser::{parse, parse_with_catalog};
pub use prolog::{DoctypeDecl, XmlDeclaration};
pub use sink::{ContentSink, DomBuilder, TextWriter};
