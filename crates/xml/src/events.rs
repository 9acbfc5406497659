//! The pull reader: XML text in, borrowed events out.
//!
//! [`Reader`] is the well-formedness checker of the paper's Fig. 1 with the
//! tree taken out of it. It walks a `&'a str` once and yields one [`Event`]
//! per construct; [`crate::parser`] drains it into a [`crate::Document`],
//! and that DOM builder is only its first consumer — the streaming ingest
//! ROADMAP item 2 describes (events → validator → shredder, memory bounded
//! by depth instead of by document) is the intended second.
//!
//! ## What is borrowed
//!
//! Names, comment and CDATA bodies and processing instructions are slices of
//! the input. Character data and attribute values are `Cow<'a, str>`: a
//! slice of the input when the run holds no reference (and, for an attribute
//! value, no tab, CR or LF to normalize), otherwise an owned `String` with
//! the references expanded — which a consumer can move into its own node
//! instead of copying. The prolog events ([`Event::Declaration`],
//! [`Event::Doctype`]) own their few strings. The attributes of a start tag
//! sit in a buffer the reader reuses from tag to tag, lent to the consumer
//! for the lifetime of the event; an [`Event::Start`] therefore allocates
//! nothing once that buffer has grown to the widest tag seen.
//!
//! Open elements are a stack of *input slices*: an end tag is compared with
//! the bytes of the start tag it closes, and nothing is allocated to match
//! them. Content is scanned a run at a time with a byte-class table that
//! stops at `<`, `&`, `]` and at the bytes that can begin a forbidden
//! character; line and column are not tracked at all until an error is
//! built ([`Cursor::position`]).
//!
//! ## The three limits
//!
//! * Nesting deeper than [`MAX_ELEMENT_DEPTH`] is
//!   [`XmlErrorKind::DepthLimitExceeded`] at the offending start tag. The
//!   reader itself does not recurse; the limit protects the walkers behind
//!   it (validator, loader, serializer), which do.
//! * The declared entities of one document are expanded at most once each,
//!   and every byte a reference expands to is charged against
//!   [`crate::MAX_ENTITY_EXPANSION_BYTES`] *before* it is written:
//!   [`XmlErrorKind::EntityExpansionLimit`].
//! * A literal character XML 1.0 forbids — a C0 control other than tab, LF
//!   and CR, U+FFFE, U+FFFF — is [`XmlErrorKind::InvalidChar`] where it
//!   stands, in character data, attribute values, comments, processing
//!   instructions and CDATA sections alike.
//!
//! Every other well-formedness error is the one the recursive parser this
//! reader replaced raised, at the same [`crate::Position`];
//! `tests/parser_differential.rs` keeps that parser as its oracle.

use std::borrow::Cow;

use crate::cursor::{is_xml_ws, Cursor};
use crate::entities::{EntityCatalog, Expansion};
use crate::error::{XmlError, XmlErrorKind};
use crate::escape::{decode_char_ref, predefined_entity};
use crate::name::{is_name_char, is_name_start_char};
use crate::prolog::{DoctypeDecl, ExternalId, XmlDeclaration};
use crate::MAX_ELEMENT_DEPTH;

/// One attribute of a start tag, references expanded and whitespace
/// normalized.
#[derive(Debug, PartialEq, Eq)]
pub struct Attr<'a> {
    /// Raw `prefix:local` name, a valid QName, unique within its tag.
    pub name: &'a str,
    pub value: Cow<'a, str>,
}

/// One construct of the document, in document order. `'a` is the input;
/// `'r` is the borrow of the reader an [`Event::Start`] holds.
#[derive(Debug, PartialEq, Eq)]
pub enum Event<'r, 'a> {
    /// `<?xml …?>` — first, if at all.
    Declaration(XmlDeclaration),
    /// `<!DOCTYPE …>`; its internal subset has been scanned for entity
    /// declarations by the time the event is returned.
    Doctype(DoctypeDecl),
    /// A start tag, or the start half of an empty-element tag (whose
    /// [`Event::End`] follows immediately). `name` is a valid QName.
    Start { name: &'a str, attributes: &'r mut Vec<Attr<'a>> },
    /// The end tag matching the innermost open [`Event::Start`].
    End { name: &'a str },
    /// A maximal run of character data inside an element, references
    /// expanded; never empty.
    Text(Cow<'a, str>),
    /// The body of a `<![CDATA[…]]>` section.
    CData(&'a str),
    /// The body of a comment — in the prolog, in content or in the epilog.
    Comment(&'a str),
    /// A processing instruction, likewise.
    ProcessingInstruction { target: &'a str, data: &'a str },
}

/// Where in the document the reader stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Nothing read yet: a BOM and the XML declaration may come.
    Start,
    /// Before the root element.
    Prolog,
    /// Inside the root element.
    Content,
    /// After the root element.
    Epilog,
}

/// A pull parser over one document. See the [module documentation](self).
pub struct Reader<'a> {
    cur: Cursor<'a>,
    catalog: EntityCatalog,
    expansion: Expansion,
    stage: Stage,
    seen_doctype: bool,
    /// Names of the open elements, as their start tags spelled them.
    open: Vec<&'a str>,
    /// The attributes of the last start tag, lent out with its event.
    attributes: Vec<Attr<'a>>,
    /// Set after an empty-element tag: its `End` is the next event.
    pending_end: bool,
}

/// What a byte means to the scan of character data and attribute values.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Class {
    Plain,
    /// `<`
    Lt,
    /// `&`
    Amp,
    /// `]` — the start of a forbidden `]]>` in character data.
    Bracket,
    /// `"` or `'` — the end of an attribute value, if it is the opening one.
    Quote,
    /// Tab, LF, CR — a space, in an attribute value.
    Space,
    /// A C0 control XML forbids.
    Control,
    /// 0xEF, which begins U+FFFE and U+FFFF (and much that is legal).
    MaybeNonChar,
}

const CLASSES: [Class; 256] = {
    let mut table = [Class::Plain; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = Class::Control;
        b += 1;
    }
    table[b'\t' as usize] = Class::Space;
    table[b'\n' as usize] = Class::Space;
    table[b'\r' as usize] = Class::Space;
    table[b'<' as usize] = Class::Lt;
    table[b'&' as usize] = Class::Amp;
    table[b']' as usize] = Class::Bracket;
    table[b'"' as usize] = Class::Quote;
    table[b'\'' as usize] = Class::Quote;
    table[0xEF] = Class::MaybeNonChar;
    table
};

/// Bytes character data runs through without a second look.
const TEXT_RUNS_THROUGH: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = matches!(CLASSES[b], Class::Plain | Class::Quote | Class::Space);
        b += 1;
    }
    table
};

/// Bytes an attribute value runs through without a second look.
const VALUE_RUNS_THROUGH: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = matches!(CLASSES[b], Class::Plain | Class::Bracket);
        b += 1;
    }
    table
};

/// ASCII bytes that continue a name (the colon apart).
const NAME_BYTE: [bool; 128] = {
    let mut table = [false; 128];
    let mut b = 0u8;
    while b < 128 {
        table[b as usize] = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.');
        b += 1;
    }
    table
};

/// The forbidden character that starts at `bytes[at]`, if one does.
fn forbidden_char_at(bytes: &[u8], at: usize) -> Option<char> {
    match CLASSES[bytes[at] as usize] {
        Class::Control => Some(bytes[at] as char),
        Class::MaybeNonChar => match bytes.get(at + 1..at + 3) {
            Some([0xBF, 0xBE]) => Some('\u{FFFE}'),
            Some([0xBF, 0xBF]) => Some('\u{FFFF}'),
            _ => None,
        },
        _ => None,
    }
}

impl<'a> Reader<'a> {
    /// A reader over `input` that knows no entities but the predefined five
    /// (and those the document's internal subset declares).
    pub fn new(input: &'a str) -> Self {
        Reader::with_catalog(input, EntityCatalog::new())
    }

    /// A reader with pre-declared general entities (e.g. those of an
    /// *external* DTD the caller has already parsed).
    pub fn with_catalog(input: &'a str, catalog: EntityCatalog) -> Self {
        Reader {
            cur: Cursor::new(input),
            catalog,
            expansion: Expansion::default(),
            stage: Stage::Start,
            seen_doctype: false,
            open: Vec::new(),
            attributes: Vec::new(),
            pending_end: false,
        }
    }

    /// The next event; `Ok(None)` once the whole document has been read.
    /// After an error the reader's state is unspecified.
    pub fn next_event(&mut self) -> Result<Option<Event<'_, 'a>>, XmlError> {
        if self.pending_end {
            self.pending_end = false;
            return Ok(Some(self.close_innermost()));
        }
        if self.stage == Stage::Start {
            self.stage = Stage::Prolog;
            // Optional BOM.
            self.cur.eat("\u{FEFF}");
            // XML declaration must be first if present.
            if self.cur.starts_with("<?xml") && self.cur.peek_nth(5).is_none_or(is_xml_ws) {
                return self.xml_declaration().map(|decl| Some(Event::Declaration(decl)));
            }
        }
        match self.stage {
            Stage::Content => self.content().map(Some),
            Stage::Prolog => {
                self.cur.skip_ws();
                if self.cur.starts_with("<!--") {
                    self.comment().map(Some)
                } else if self.cur.starts_with("<?") {
                    self.processing_instruction().map(Some)
                } else if self.cur.starts_with("<!DOCTYPE") {
                    if self.seen_doctype {
                        return Err(self.cur.error(XmlErrorKind::StructureViolation(
                            "multiple DOCTYPE declarations".into(),
                        )));
                    }
                    self.seen_doctype = true;
                    self.doctype().map(|doctype| Some(Event::Doctype(doctype)))
                } else if self.cur.starts_with("<") {
                    self.stage = Stage::Content;
                    self.start_tag().map(Some)
                } else {
                    Err(self.cur.error(XmlErrorKind::StructureViolation(
                        "document has no root element".into(),
                    )))
                }
            }
            Stage::Epilog => {
                // Only misc allowed.
                self.cur.skip_ws();
                if self.cur.is_eof() {
                    Ok(None)
                } else if self.cur.starts_with("<!--") {
                    self.comment().map(Some)
                } else if self.cur.starts_with("<?") {
                    self.processing_instruction().map(Some)
                } else {
                    Err(self.cur.error(XmlErrorKind::StructureViolation(
                        "content after the root element".into(),
                    )))
                }
            }
            Stage::Start => unreachable!("left above"),
        }
    }

    /// Move the cursor forward to byte `offset` of the input.
    fn seek(&mut self, offset: usize) {
        self.cur.advance(offset - self.cur.offset());
    }

    /// Pop the innermost open element and report its end.
    fn close_innermost<'r>(&mut self) -> Event<'r, 'a> {
        let name = self.open.pop().expect("an end event closes an open element");
        if self.open.is_empty() {
            self.stage = Stage::Epilog;
        }
        Event::End { name }
    }

    /// The next event inside an element: a run of character data if one
    /// stands here, otherwise the markup at the cursor.
    fn content(&mut self) -> Result<Event<'_, 'a>, XmlError> {
        if let Some(text) = self.character_data()? {
            return Ok(Event::Text(text));
        }
        // `character_data` stops at a '<' or fails.
        let rest = self.cur.rest().as_bytes();
        match rest.get(1) {
            Some(b'/') => self.end_tag(),
            Some(b'!') if rest.starts_with(b"<!--") => self.comment(),
            Some(b'!') if rest.starts_with(b"<![CDATA[") => self.cdata(),
            Some(b'?') => self.processing_instruction(),
            _ => self.start_tag(),
        }
    }

    /// Character data up to the next '<', references expanded; `None` when
    /// the cursor already stands at a '<'.
    fn character_data(&mut self) -> Result<Option<Cow<'a, str>>, XmlError> {
        // Text before the first reference is borrowed; the first reference
        // moves the run into `owned`.
        let mut owned: Option<String> = None;
        let base = self.cur.offset();
        let run = self.cur.rest();
        let mut run_start = 0;
        let bytes = run.as_bytes();
        let mut at = 0;
        loop {
            while at < bytes.len() && TEXT_RUNS_THROUGH[bytes[at] as usize] {
                at += 1;
            }
            let Some(&byte) = bytes.get(at) else {
                self.seek(base + at);
                return Err(self.cur.error(XmlErrorKind::UnexpectedEof));
            };
            match CLASSES[byte as usize] {
                Class::Lt => break,
                Class::Amp => {
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(&run[run_start..at]);
                    self.seek(base + at);
                    self.reference(text)?;
                    at = self.cur.offset() - base;
                    run_start = at;
                }
                Class::Bracket if bytes[at..].starts_with(b"]]>") => {
                    self.seek(base + at);
                    return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                        "']]>' not allowed in character data".into(),
                    )));
                }
                _ => match forbidden_char_at(bytes, at) {
                    Some(ch) => {
                        self.seek(base + at);
                        return Err(self.cur.error(XmlErrorKind::InvalidChar(ch)));
                    }
                    None => at += 1,
                },
            }
        }
        self.seek(base + at);
        Ok(match owned {
            Some(mut text) => {
                text.push_str(&run[run_start..at]);
                (!text.is_empty()).then_some(Cow::Owned(text))
            }
            None => (at > 0).then_some(Cow::Borrowed(&run[..at])),
        })
    }

    /// `&…;` at the cursor, its expansion appended to `out`.
    fn reference(&mut self, out: &mut String) -> Result<(), XmlError> {
        let at = self.cur.offset();
        self.cur.expect("&", "reference")?;
        if self.cur.eat("#") {
            let body = self.cur.take_until(";")?;
            self.cur.eat(";");
            let ch = decode_char_ref(body).ok_or_else(|| {
                XmlError::new(
                    XmlErrorKind::InvalidCharRef(format!("&#{body};")),
                    self.cur.position_at(at),
                )
            })?;
            out.push(ch);
            return Ok(());
        }
        let name = self.raw_name()?;
        self.cur.expect(";", "';' terminating entity reference")?;
        if let Some(literal) = predefined_entity(name) {
            out.push_str(literal);
            return Ok(());
        }
        if self.catalog.lookup(name).is_none() {
            return Err(XmlError::new(
                XmlErrorKind::UnknownEntity(name.to_string()),
                self.cur.position_at(at),
            ));
        }
        // Full recursive expansion via the catalog — mirrors the paper's
        // expand-at-occurrence behaviour.
        self.catalog
            .expand_reference(name, &mut self.expansion, out)
            .map_err(|e| XmlError::new(e.kind, self.cur.position_at(at)))
    }

    /// A `Name` (colons allowed anywhere) at the cursor.
    fn raw_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.cur.rest();
        let first = rest.chars().next();
        if !first.is_some_and(|ch| is_name_start_char(ch) || ch == ':') {
            return Err(self
                .cur
                .error(XmlErrorKind::InvalidName(first.map(String::from).unwrap_or_default())));
        }
        let bytes = rest.as_bytes();
        let mut len = 0;
        while len < bytes.len() {
            let byte = bytes[len];
            if byte < 0x80 {
                if !(NAME_BYTE[byte as usize] || byte == b':') {
                    break;
                }
                len += 1;
            } else {
                let ch = rest[len..].chars().next().expect("a byte is left");
                if !is_name_char(ch) {
                    break;
                }
                len += ch.len_utf8();
            }
        }
        self.cur.advance(len);
        Ok(&rest[..len])
    }

    /// A QName at the cursor: a `Name` with at most one colon and a proper
    /// name on each side of it.
    fn qname(&mut self) -> Result<&'a str, XmlError> {
        let raw = self.raw_name()?;
        // Every character of `raw` is a name character or a colon, so a part
        // is an NCName when it begins with a name-start character.
        let proper = |part: &str| part.chars().next().is_some_and(is_name_start_char);
        let valid = match raw.split_once(':') {
            None => proper(raw),
            Some((prefix, local)) => proper(prefix) && proper(local) && !local.contains(':'),
        };
        if !valid {
            return Err(self.cur.error(XmlErrorKind::InvalidName(raw.to_string())));
        }
        Ok(raw)
    }

    fn start_tag(&mut self) -> Result<Event<'_, 'a>, XmlError> {
        if self.open.len() >= MAX_ELEMENT_DEPTH {
            return Err(self.cur.error(XmlErrorKind::DepthLimitExceeded));
        }
        self.cur.expect("<", "start tag")?;
        let name = self.qname()?;
        self.attributes.clear();
        loop {
            let had_ws = self.cur.skip_ws();
            match self.cur.peek_byte() {
                Some(b'>') => {
                    self.cur.advance(1);
                    break;
                }
                Some(b'/') => {
                    self.cur.advance(1);
                    self.cur.expect(">", "'>' after '/'")?;
                    self.pending_end = true;
                    break;
                }
                Some(_) if had_ws => {
                    let attr_name = self.qname()?;
                    if self.attributes.iter().any(|a| a.name == attr_name) {
                        return Err(self
                            .cur
                            .error(XmlErrorKind::DuplicateAttribute(attr_name.to_string())));
                    }
                    self.cur.skip_ws();
                    self.cur.expect("=", "'=' after attribute name")?;
                    self.cur.skip_ws();
                    let value = self.attribute_value()?;
                    self.attributes.push(Attr { name: attr_name, value });
                }
                Some(_) => {
                    return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                        "whitespace required before attribute".into(),
                    )))
                }
                None => return Err(self.cur.error(XmlErrorKind::UnexpectedEof)),
            }
        }
        self.open.push(name);
        Ok(Event::Start { name, attributes: &mut self.attributes })
    }

    fn attribute_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let quote = match self.cur.bump() {
            Some('"') => b'"',
            Some('\'') => b'\'',
            _ => {
                return Err(self
                    .cur
                    .error(XmlErrorKind::IllegalConstruct("attribute value must be quoted".into())))
            }
        };
        // Borrowed until the first reference or normalized whitespace.
        let mut owned: Option<String> = None;
        let base = self.cur.offset();
        let run = self.cur.rest();
        let mut run_start = 0;
        let bytes = run.as_bytes();
        let mut at = 0;
        loop {
            while at < bytes.len() && VALUE_RUNS_THROUGH[bytes[at] as usize] {
                at += 1;
            }
            let Some(&byte) = bytes.get(at) else {
                self.seek(base + at);
                return Err(self.cur.error(XmlErrorKind::UnexpectedEof));
            };
            match CLASSES[byte as usize] {
                Class::Quote if byte == quote => break,
                Class::Quote => at += 1,
                Class::Lt => {
                    self.seek(base + at);
                    return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                        "'<' not allowed in attribute value".into(),
                    )));
                }
                Class::Amp => {
                    let value = owned.get_or_insert_with(String::new);
                    value.push_str(&run[run_start..at]);
                    self.seek(base + at);
                    self.reference(value)?;
                    at = self.cur.offset() - base;
                    run_start = at;
                }
                // Attribute-value normalization: whitespace → space.
                Class::Space => {
                    let value = owned.get_or_insert_with(String::new);
                    value.push_str(&run[run_start..at]);
                    value.push(' ');
                    at += 1;
                    run_start = at;
                }
                _ => match forbidden_char_at(bytes, at) {
                    Some(ch) => {
                        self.seek(base + at);
                        return Err(self.cur.error(XmlErrorKind::InvalidChar(ch)));
                    }
                    None => at += 1,
                },
            }
        }
        // Past the value and its closing quote.
        self.seek(base + at + 1);
        Ok(match owned {
            Some(mut value) => {
                value.push_str(&run[run_start..at]);
                Cow::Owned(value)
            }
            None => Cow::Borrowed(&run[..at]),
        })
    }

    fn end_tag(&mut self) -> Result<Event<'_, 'a>, XmlError> {
        self.cur.eat("</");
        let close = self.qname()?;
        self.cur.skip_ws();
        self.cur.expect(">", "'>' closing end tag")?;
        let open = *self.open.last().expect("content is read inside an open element");
        if close != open {
            return Err(self.cur.error(XmlErrorKind::MismatchedTag {
                open: open.to_string(),
                close: close.to_string(),
            }));
        }
        Ok(self.close_innermost())
    }

    /// Fail at the first character of `body` XML forbids; `body` ends at the
    /// cursor.
    fn check_chars(&self, body: &str) -> Result<(), XmlError> {
        let bytes = body.as_bytes();
        match (0..bytes.len()).find_map(|at| Some((at, forbidden_char_at(bytes, at)?))) {
            Some((at, ch)) => Err(XmlError::new(
                XmlErrorKind::InvalidChar(ch),
                self.cur.position_at(self.cur.offset() - body.len() + at),
            )),
            None => Ok(()),
        }
    }

    fn comment(&mut self) -> Result<Event<'_, 'a>, XmlError> {
        self.cur.expect("<!--", "comment")?;
        let body = self.cur.take_until("--")?;
        self.check_chars(body)?;
        self.cur.eat("--");
        if !self.cur.eat(">") {
            return Err(self
                .cur
                .error(XmlErrorKind::IllegalConstruct("'--' not allowed inside a comment".into())));
        }
        Ok(Event::Comment(body))
    }

    fn cdata(&mut self) -> Result<Event<'_, 'a>, XmlError> {
        self.cur.eat("<![CDATA[");
        let body = self.cur.take_until("]]>")?;
        self.check_chars(body)?;
        self.cur.eat("]]>");
        Ok(Event::CData(body))
    }

    fn processing_instruction(&mut self) -> Result<Event<'_, 'a>, XmlError> {
        self.cur.expect("<?", "processing instruction")?;
        let target = self.raw_name()?;
        if target.eq_ignore_ascii_case("xml") {
            return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                "processing instruction target 'xml' is reserved".into(),
            )));
        }
        let data = if self.cur.eat("?>") {
            ""
        } else {
            if !self.cur.skip_ws() {
                return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                    "whitespace required after PI target".into(),
                )));
            }
            let body = self.cur.take_until("?>")?;
            self.check_chars(body)?;
            self.cur.eat("?>");
            body
        };
        Ok(Event::ProcessingInstruction { target, data })
    }

    fn xml_declaration(&mut self) -> Result<XmlDeclaration, XmlError> {
        self.cur.expect("<?xml", "XML declaration")?;
        let mut decl =
            XmlDeclaration { version: String::new(), encoding: None, standalone: None };
        loop {
            let had_ws = self.cur.skip_ws();
            if self.cur.eat("?>") {
                break;
            }
            if !had_ws {
                return Err(self
                    .cur
                    .error(XmlErrorKind::IllegalConstruct("malformed XML declaration".into())));
            }
            let (name, value) = self.pseudo_attribute()?;
            match name {
                "version" => decl.version = value.to_string(),
                "encoding" => decl.encoding = Some(value.to_string()),
                "standalone" => match value {
                    "yes" => decl.standalone = Some(true),
                    "no" => decl.standalone = Some(false),
                    other => {
                        return Err(self.cur.error(XmlErrorKind::IllegalConstruct(format!(
                            "standalone must be yes or no, got '{other}'"
                        ))))
                    }
                },
                other => {
                    return Err(self.cur.error(XmlErrorKind::IllegalConstruct(format!(
                        "unknown XML declaration attribute '{other}'"
                    ))))
                }
            }
        }
        if decl.version.is_empty() {
            return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                "XML declaration lacks a version".into(),
            )));
        }
        Ok(decl)
    }

    /// `name="value"` inside `<?xml ...?>` — no references processed.
    fn pseudo_attribute(&mut self) -> Result<(&'a str, &'a str), XmlError> {
        let name = self.raw_name()?;
        self.cur.skip_ws();
        self.cur.expect("=", "'=' in XML declaration")?;
        self.cur.skip_ws();
        let value = self.quoted_literal("expected quoted value")?;
        Ok((name, value))
    }

    /// A `"…"` or `'…'` literal at the cursor, quotes stripped.
    fn quoted_literal(&mut self, what: &str) -> Result<&'a str, XmlError> {
        let quote = match self.cur.bump() {
            Some('"') => "\"",
            Some('\'') => "'",
            _ => return Err(self.cur.error(XmlErrorKind::IllegalConstruct(what.into()))),
        };
        let literal = self.cur.take_until(quote)?;
        self.cur.eat(quote);
        Ok(literal)
    }

    fn doctype(&mut self) -> Result<DoctypeDecl, XmlError> {
        self.cur.expect("<!DOCTYPE", "DOCTYPE")?;
        if !self.cur.skip_ws() {
            return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                "whitespace required after <!DOCTYPE".into(),
            )));
        }
        let name = self.raw_name()?.to_string();
        self.cur.skip_ws();
        let external_id = if self.cur.eat("SYSTEM") {
            self.cur.skip_ws();
            let system = self.quoted_literal("expected quoted literal")?.to_string();
            Some(ExternalId::System { system })
        } else if self.cur.eat("PUBLIC") {
            self.cur.skip_ws();
            let public = self.quoted_literal("expected quoted literal")?.to_string();
            self.cur.skip_ws();
            let system = self.quoted_literal("expected quoted literal")?.to_string();
            Some(ExternalId::Public { public, system })
        } else {
            None
        };
        self.cur.skip_ws();
        let internal_subset =
            if self.cur.eat("[") { Some(self.internal_subset()?) } else { None };
        self.cur.skip_ws();
        self.cur.expect(">", "'>' closing DOCTYPE")?;
        if let Some(subset) = internal_subset {
            self.declare_subset_entities(subset)?;
        }
        Ok(DoctypeDecl { name, external_id, internal_subset: internal_subset.map(str::to_string) })
    }

    /// Consume the internal subset up to its closing `]`, respecting quoted
    /// literals and comments so a `]` inside them does not terminate it.
    fn internal_subset(&mut self) -> Result<&'a str, XmlError> {
        let subset = self.cur.rest();
        loop {
            self.cur.take_while(|ch| !matches!(ch, ']' | '"' | '\'' | '<'));
            match self.cur.bump() {
                None => return Err(self.cur.error(XmlErrorKind::UnexpectedEof)),
                Some(']') => {
                    let len = subset.len() - self.cur.rest().len() - 1;
                    return Ok(&subset[..len]);
                }
                Some('<') => {
                    if self.cur.eat("!--") {
                        self.cur.take_until("-->")?;
                        self.cur.eat("-->");
                    }
                }
                Some(quote) => {
                    let quote = if quote == '"' { "\"" } else { "'" };
                    self.cur.take_until(quote)?;
                    self.cur.eat(quote);
                }
            }
        }
    }

    /// Scan the internal subset for `<!ENTITY name "text">` declarations so
    /// general entities can be expanded in document content. Parameter
    /// entities and full markup declarations are handled by `xmlord-dtd`.
    fn declare_subset_entities(&mut self, subset: &str) -> Result<(), XmlError> {
        let mut cur = Cursor::new(subset);
        while !cur.is_eof() {
            if cur.eat("<!--") {
                cur.take_until("-->")?;
                cur.eat("-->");
            } else if cur.eat("<!ENTITY") {
                cur.skip_ws();
                if cur.eat("%") {
                    // Parameter entity — skip its declaration.
                    cur.take_until(">")?;
                    cur.eat(">");
                    continue;
                }
                let name = cur.take_while(is_name_char);
                cur.skip_ws();
                match cur.peek() {
                    Some(q @ ('"' | '\'')) => {
                        cur.bump();
                        let quote = if q == '"' { "\"" } else { "'" };
                        let raw = cur.take_until(quote)?;
                        cur.eat(quote);
                        cur.skip_ws();
                        cur.eat(">");
                        self.catalog.declare(name, raw);
                    }
                    _ => {
                        // External entity (SYSTEM/PUBLIC) — recorded but the
                        // replacement text is unavailable; skip.
                        cur.take_until(">")?;
                        cur.eat(">");
                    }
                }
            } else {
                cur.bump();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The events of `input`, each rendered on one line.
    fn events(input: &str) -> Result<Vec<String>, XmlError> {
        let mut reader = Reader::new(input);
        let mut out = Vec::new();
        while let Some(event) = reader.next_event()? {
            out.push(match event {
                Event::Start { name, attributes } => {
                    let attrs: Vec<String> =
                        attributes.iter().map(|a| format!(" {}={:?}", a.name, a.value)).collect();
                    format!("<{name}{}>", attrs.concat())
                }
                Event::End { name } => format!("</{name}>"),
                Event::Text(text) => format!("text {text:?}"),
                Event::CData(body) => format!("cdata {body:?}"),
                Event::Comment(body) => format!("comment {body:?}"),
                Event::ProcessingInstruction { target, data } => format!("pi {target} {data:?}"),
                Event::Declaration(decl) => decl.to_xml(),
                Event::Doctype(doctype) => doctype.to_xml(),
            });
        }
        Ok(out)
    }

    #[test]
    fn yields_one_event_per_construct_in_document_order() {
        let got = events(
            "<?xml version='1.0'?><!DOCTYPE a><!--c--><a x='1'><b/>t<![CDATA[d]]><?p q?></a><?e?>",
        )
        .unwrap();
        assert_eq!(
            got,
            [
                "<?xml version=\"1.0\"?>",
                "<!DOCTYPE a>",
                "comment \"c\"",
                "<a x=\"1\">",
                "<b>",
                "</b>",
                "text \"t\"",
                "cdata \"d\"",
                "pi p \"q\"",
                "</a>",
                "pi e \"\"",
            ]
        );
    }

    #[test]
    fn text_and_values_are_borrowed_until_a_reference_or_normalization_owns_them() {
        let mut reader = Reader::new("<a p='plain' n='a\tb' r='&lt;'>plain<b/>a &amp; b</a>");
        let Some(Event::Start { attributes, .. }) = reader.next_event().unwrap() else { panic!() };
        let owned: Vec<bool> =
            attributes.iter().map(|a| matches!(a.value, Cow::Owned(_))).collect();
        assert_eq!(owned, [false, true, true]);
        assert_eq!(attributes[1].value, "a b");
        assert_eq!(attributes[2].value, "<");
        assert_eq!(reader.next_event().unwrap(), Some(Event::Text(Cow::Borrowed("plain"))));
        assert!(matches!(reader.next_event().unwrap(), Some(Event::Start { name: "b", .. })));
        assert_eq!(reader.next_event().unwrap(), Some(Event::End { name: "b" }));
        let Some(Event::Text(text)) = reader.next_event().unwrap() else { panic!() };
        assert!(matches!(text, Cow::Owned(_)));
        assert_eq!(text, "a & b");
        assert_eq!(reader.next_event().unwrap(), Some(Event::End { name: "a" }));
        assert_eq!(reader.next_event().unwrap(), None);
    }

    #[test]
    fn a_run_that_expands_to_nothing_is_no_event() {
        let got = events("<!DOCTYPE a [<!ENTITY nil ''>]><a>&nil;</a>").unwrap();
        assert_eq!(got, ["<!DOCTYPE a [<!ENTITY nil ''>]>", "<a>", "</a>"]);
    }

    #[test]
    fn forbidden_characters_are_rejected_in_every_construct() {
        for ch in ['\u{0}', '\u{1}', '\u{B}', '\u{1F}', '\u{FFFE}', '\u{FFFF}'] {
            for (before, after) in [
                ("<a>text ", "</a>"),
                ("<a>&amp; ", "</a>"),
                ("<a x=\"v ", "\"/>"),
                ("<a x='&lt;", "'/>"),
                ("<a><!-- c ", "--></a>"),
                ("<!-- c ", "--><a/>"),
                ("<a><?p d ", "?></a>"),
                ("<a/><?p d ", "?>"),
                ("<a><![CDATA[d ", "]]></a>"),
            ] {
                let input = format!("{before}{ch}{after}");
                let err = events(&input).unwrap_err();
                assert_eq!(err.kind, XmlErrorKind::InvalidChar(ch), "{input:?}");
                assert_eq!(err.position.offset, before.len(), "{input:?}");
                assert_eq!(err.position.column as usize, 1 + before.chars().count(), "{input:?}");
            }
        }
    }

    #[test]
    fn tab_newline_return_and_the_neighbours_of_the_noncharacters_stay_legal() {
        for ch in ['\t', '\n', '\r', '\u{FFFD}', '\u{F000}', '\u{FFF0}', '\u{10000}'] {
            let input = format!("<a x='{ch}'>{ch}<!--{ch}--><?p {ch}?><![CDATA[{ch}]]></a>");
            assert!(events(&input).is_ok(), "{input:?}");
        }
    }

    #[test]
    fn the_position_of_a_forbidden_character_counts_lines() {
        let err = events("<a>\n<b>\n  x\u{1}</b></a>").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::InvalidChar('\u{1}'));
        assert_eq!((err.position.line, err.position.column), (3, 4));
    }

    #[test]
    fn nesting_is_limited_at_the_offending_start_tag() {
        let deep = "<a>".repeat(MAX_ELEMENT_DEPTH);
        let closed = format!("{deep}{}", "</a>".repeat(MAX_ELEMENT_DEPTH));
        assert_eq!(events(&closed).unwrap().len(), 2 * MAX_ELEMENT_DEPTH);
        let err = events(&format!("{deep}<b/>")).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::DepthLimitExceeded);
        assert_eq!(err.position.offset, deep.len());
    }

    #[test]
    fn an_end_tag_is_matched_against_the_start_tags_spelling() {
        let err = events("<p:a><b></p:a>").unwrap_err();
        assert_eq!(
            err.kind,
            XmlErrorKind::MismatchedTag { open: "b".into(), close: "p:a".into() }
        );
        assert!(events("<p:a></p:a >").is_ok());
        assert!(matches!(events("<a:b:c/>").unwrap_err().kind, XmlErrorKind::InvalidName(_)));
        assert!(matches!(events("<a></:a>").unwrap_err().kind, XmlErrorKind::InvalidName(_)));
    }
}
