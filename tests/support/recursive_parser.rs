//! The recursive, character-at-a-time XML parser `xmlord-xml` shipped until
//! the pull reader (`xmlord_xml::events`) replaced it — moved here verbatim
//! as the *oracle* of `tests/parser_differential.rs`. It needs only the
//! crate's public `Cursor` and `Document` builder API. Apart from the
//! imports, the edits are the three places where a `QName`'s raw text is now
//! borrowed rather than owned (`.to_string()` added).
//!
//! It is kept with its faults: it recurses once per nesting level, expands
//! `&name;` from scratch at every occurrence and accepts characters XML
//! forbids. The differential names those three as the only divergences.

use xmlord_xml::cursor::{is_xml_ws, Cursor};
use xmlord_xml::escape::decode_char_ref;
use xmlord_xml::name::{is_name_char, is_name_start_char};
use xmlord_xml::prolog::{DoctypeDecl, ExternalId, XmlDeclaration};
use xmlord_xml::{Document, EntityCatalog, NodeId, NodeKind, QName, XmlError, XmlErrorKind};

/// Parse a document, starting from an empty entity catalog (entities declared
/// in the internal DTD subset are still picked up).
pub fn parse(input: &str) -> Result<Document, XmlError> {
    parse_with_catalog(input, EntityCatalog::new())
}

/// Parse a document with pre-declared general entities (e.g. entities
/// declared in an *external* DTD that the caller has already parsed).
pub fn parse_with_catalog(input: &str, catalog: EntityCatalog) -> Result<Document, XmlError> {
    let mut parser = Parser { cur: Cursor::new(input), doc: Document::new(), catalog };
    parser.parse_document()?;
    Ok(parser.doc)
}

struct Parser<'a> {
    cur: Cursor<'a>,
    doc: Document,
    catalog: EntityCatalog,
}

impl<'a> Parser<'a> {
    fn parse_document(&mut self) -> Result<(), XmlError> {
        // Optional BOM.
        self.cur.eat("\u{FEFF}");
        // XML declaration must be first if present.
        if self.cur.starts_with("<?xml") && self.cur.peek_nth(5).is_none_or(is_xml_ws) {
            self.doc.declaration = Some(self.parse_xml_declaration()?);
        }
        // Misc and doctype before the root.
        loop {
            self.cur.skip_ws();
            if self.cur.starts_with("<!--") {
                let node = self.parse_comment()?;
                self.doc.prolog_misc.push(node);
            } else if self.cur.starts_with("<?") {
                let node = self.parse_pi()?;
                self.doc.prolog_misc.push(node);
            } else if self.cur.starts_with("<!DOCTYPE") {
                if self.doc.doctype.is_some() {
                    return Err(self.cur.error(XmlErrorKind::StructureViolation(
                        "multiple DOCTYPE declarations".into(),
                    )));
                }
                let dt = self.parse_doctype()?;
                self.doc.doctype = Some(dt);
            } else {
                break;
            }
        }
        // Root element.
        if !self.cur.starts_with("<") {
            return Err(self.cur.error(XmlErrorKind::StructureViolation(
                "document has no root element".into(),
            )));
        }
        let root = self.parse_element()?;
        self.doc.set_root(root);
        // Epilog: only misc allowed.
        loop {
            self.cur.skip_ws();
            if self.cur.is_eof() {
                return Ok(());
            }
            if self.cur.starts_with("<!--") {
                let node = self.parse_comment()?;
                self.doc.epilog_misc.push(node);
            } else if self.cur.starts_with("<?") {
                let node = self.parse_pi()?;
                self.doc.epilog_misc.push(node);
            } else {
                return Err(self.cur.error(XmlErrorKind::StructureViolation(
                    "content after the root element".into(),
                )));
            }
        }
    }

    fn parse_xml_declaration(&mut self) -> Result<XmlDeclaration, XmlError> {
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
            let (name, value) = self.parse_pseudo_attr()?;
            match name.as_str() {
                "version" => decl.version = value,
                "encoding" => decl.encoding = Some(value),
                "standalone" => match value.as_str() {
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
    fn parse_pseudo_attr(&mut self) -> Result<(String, String), XmlError> {
        let name = self.parse_raw_name()?;
        self.cur.skip_ws();
        self.cur.expect("=", "'=' in XML declaration")?;
        self.cur.skip_ws();
        let quote = match self.cur.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => {
                return Err(self
                    .cur
                    .error(XmlErrorKind::IllegalConstruct("expected quoted value".into())))
            }
        };
        let value = self.cur.take_until(&quote.to_string())?.to_string();
        self.cur.eat(&quote.to_string());
        Ok((name, value))
    }

    fn parse_doctype(&mut self) -> Result<DoctypeDecl, XmlError> {
        self.cur.expect("<!DOCTYPE", "DOCTYPE")?;
        if !self.cur.skip_ws() {
            return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                "whitespace required after <!DOCTYPE".into(),
            )));
        }
        let name = self.parse_raw_name()?;
        self.cur.skip_ws();
        let external_id = if self.cur.eat("SYSTEM") {
            self.cur.skip_ws();
            let system = self.parse_quoted_literal()?;
            Some(ExternalId::System { system })
        } else if self.cur.eat("PUBLIC") {
            self.cur.skip_ws();
            let public = self.parse_quoted_literal()?;
            self.cur.skip_ws();
            let system = self.parse_quoted_literal()?;
            Some(ExternalId::Public { public, system })
        } else {
            None
        };
        self.cur.skip_ws();
        let internal_subset = if self.cur.eat("[") {
            let subset = self.scan_internal_subset()?;
            Some(subset)
        } else {
            None
        };
        self.cur.skip_ws();
        self.cur.expect(">", "'>' closing DOCTYPE")?;
        if let Some(subset) = &internal_subset {
            self.scan_subset_entities(&subset.clone())?;
        }
        Ok(DoctypeDecl { name, external_id, internal_subset })
    }

    /// Consume the internal subset up to its closing `]`, respecting quoted
    /// literals and comments so a `]` inside them does not terminate it.
    fn scan_internal_subset(&mut self) -> Result<String, XmlError> {
        let mut out = String::new();
        loop {
            match self.cur.peek() {
                None => return Err(self.cur.error(XmlErrorKind::UnexpectedEof)),
                Some(']') => {
                    self.cur.bump();
                    return Ok(out);
                }
                Some('"') | Some('\'') => {
                    let quote = self.cur.bump().unwrap();
                    out.push(quote);
                    let lit = self.cur.take_until(&quote.to_string())?;
                    out.push_str(lit);
                    self.cur.eat(&quote.to_string());
                    out.push(quote);
                }
                Some(_) if self.cur.starts_with("<!--") => {
                    self.cur.eat("<!--");
                    out.push_str("<!--");
                    let body = self.cur.take_until("-->")?;
                    out.push_str(body);
                    self.cur.eat("-->");
                    out.push_str("-->");
                }
                Some(ch) => {
                    out.push(ch);
                    self.cur.bump();
                }
            }
        }
    }

    /// Scan the internal subset for `<!ENTITY name "text">` declarations so
    /// general entities can be expanded in document content. Parameter
    /// entities and full markup declarations are handled by `xmlord-dtd`.
    fn scan_subset_entities(&mut self, subset: &str) -> Result<(), XmlError> {
        let mut cur = Cursor::new(subset);
        while !cur.is_eof() {
            if cur.starts_with("<!--") {
                cur.eat("<!--");
                let _ = cur.take_until("-->")?;
                cur.eat("-->");
                continue;
            }
            if cur.starts_with("<!ENTITY") {
                cur.eat("<!ENTITY");
                cur.skip_ws();
                if cur.eat("%") {
                    // Parameter entity — skip its declaration.
                    let _ = cur.take_until(">")?;
                    cur.eat(">");
                    continue;
                }
                let name = cur.take_while(is_name_char).to_string();
                cur.skip_ws();
                match cur.peek() {
                    Some(q @ ('"' | '\'')) => {
                        cur.bump();
                        let raw = cur.take_until(&q.to_string())?.to_string();
                        cur.eat(&q.to_string());
                        cur.skip_ws();
                        cur.eat(">");
                        self.catalog.declare(&name, &raw);
                    }
                    _ => {
                        // External entity (SYSTEM/PUBLIC) — recorded but the
                        // replacement text is unavailable; skip.
                        let _ = cur.take_until(">")?;
                        cur.eat(">");
                    }
                }
                continue;
            }
            cur.bump();
        }
        Ok(())
    }

    fn parse_quoted_literal(&mut self) -> Result<String, XmlError> {
        let quote = match self.cur.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => {
                return Err(self
                    .cur
                    .error(XmlErrorKind::IllegalConstruct("expected quoted literal".into())))
            }
        };
        let lit = self.cur.take_until(&quote.to_string())?.to_string();
        self.cur.eat(&quote.to_string());
        Ok(lit)
    }

    fn parse_raw_name(&mut self) -> Result<String, XmlError> {
        let start_ok = self.cur.peek().map(|c| is_name_start_char(c) || c == ':').unwrap_or(false);
        if !start_ok {
            return Err(self
                .cur
                .error(XmlErrorKind::InvalidName(self.cur.peek().map(String::from).unwrap_or_default())));
        }
        let name = self.cur.take_while(|c| is_name_char(c) || c == ':');
        Ok(name.to_string())
    }

    fn parse_qname(&mut self) -> Result<QName, XmlError> {
        let raw = self.parse_raw_name()?;
        QName::parse(&raw).ok_or_else(|| self.cur.error(XmlErrorKind::InvalidName(raw)))
    }

    fn parse_element(&mut self) -> Result<NodeId, XmlError> {
        self.cur.expect("<", "start tag")?;
        let name = self.parse_qname()?;
        let element = self.doc.create_element(name.clone());
        // Attributes.
        loop {
            let had_ws = self.cur.skip_ws();
            match self.cur.peek() {
                Some('>') => {
                    self.cur.bump();
                    break;
                }
                Some('/') => {
                    self.cur.bump();
                    self.cur.expect(">", "'>' after '/'")?;
                    return Ok(element); // empty element
                }
                Some(_) if had_ws => {
                    let attr_name = self.parse_qname()?;
                    if self.doc.attribute(element, attr_name.as_raw()).is_some() {
                        return Err(self
                            .cur
                            .error(XmlErrorKind::DuplicateAttribute(attr_name.as_raw().to_string())));
                    }
                    self.cur.skip_ws();
                    self.cur.expect("=", "'=' after attribute name")?;
                    self.cur.skip_ws();
                    let value = self.parse_attr_value()?;
                    self.doc.set_attribute(element, attr_name, &value);
                }
                Some(_) => {
                    return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                        "whitespace required before attribute".into(),
                    )))
                }
                None => return Err(self.cur.error(XmlErrorKind::UnexpectedEof)),
            }
        }
        // Content until the matching close tag.
        self.parse_content(element, &name)?;
        Ok(element)
    }

    fn parse_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.cur.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => {
                return Err(self
                    .cur
                    .error(XmlErrorKind::IllegalConstruct("attribute value must be quoted".into())))
            }
        };
        let mut out = String::new();
        loop {
            match self.cur.peek() {
                None => return Err(self.cur.error(XmlErrorKind::UnexpectedEof)),
                Some(ch) if ch == quote => {
                    self.cur.bump();
                    return Ok(out);
                }
                Some('<') => {
                    return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                        "'<' not allowed in attribute value".into(),
                    )))
                }
                Some('&') => {
                    let expanded = self.parse_reference()?;
                    out.push_str(&expanded);
                }
                // Attribute-value normalization: whitespace → space.
                Some('\t') | Some('\n') | Some('\r') => {
                    self.cur.bump();
                    out.push(' ');
                }
                Some(ch) => {
                    self.cur.bump();
                    out.push(ch);
                }
            }
        }
    }

    /// Parse `&...;` at the cursor and return the fully expanded text.
    fn parse_reference(&mut self) -> Result<String, XmlError> {
        let at = self.cur.position();
        self.cur.expect("&", "reference")?;
        if self.cur.eat("#") {
            let body = self.cur.take_until(";")?.to_string();
            self.cur.eat(";");
            let ch = decode_char_ref(&body).ok_or_else(|| {
                XmlError::new(XmlErrorKind::InvalidCharRef(format!("&#{body};")), at)
            })?;
            Ok(ch.to_string())
        } else {
            let name = self.parse_raw_name()?;
            self.cur.expect(";", "';' terminating entity reference")?;
            match self.catalog.lookup(&name) {
                Some(_) => {
                    // Full recursive expansion via the catalog — mirrors the
                    // paper's expand-at-occurrence behaviour.
                    self.catalog
                        .expand_text(&format!("&{name};"))
                        .map_err(|e| XmlError::new(e.kind, at))
                }
                None => Err(XmlError::new(XmlErrorKind::UnknownEntity(name), at)),
            }
        }
    }

    fn parse_content(&mut self, parent: NodeId, open_name: &QName) -> Result<(), XmlError> {
        let mut text = String::new();
        loop {
            if self.cur.is_eof() {
                return Err(self.cur.error(XmlErrorKind::UnexpectedEof));
            }
            if self.cur.starts_with("</") {
                self.flush_text(parent, &mut text);
                self.cur.eat("</");
                let close = self.parse_qname()?;
                self.cur.skip_ws();
                self.cur.expect(">", "'>' closing end tag")?;
                if &close != open_name {
                    return Err(self.cur.error(XmlErrorKind::MismatchedTag {
                        open: open_name.as_raw().to_string(),
                        close: close.as_raw().to_string(),
                    }));
                }
                return Ok(());
            }
            if self.cur.starts_with("<!--") {
                self.flush_text(parent, &mut text);
                let node = self.parse_comment()?;
                self.doc.append_child(parent, node);
                continue;
            }
            if self.cur.starts_with("<![CDATA[") {
                self.flush_text(parent, &mut text);
                self.cur.eat("<![CDATA[");
                let body = self.cur.take_until("]]>")?.to_string();
                self.cur.eat("]]>");
                let node = self.doc.push_node(NodeKind::CData(body));
                self.doc.append_child(parent, node);
                continue;
            }
            if self.cur.starts_with("<?") {
                self.flush_text(parent, &mut text);
                let node = self.parse_pi()?;
                self.doc.append_child(parent, node);
                continue;
            }
            if self.cur.starts_with("<") {
                self.flush_text(parent, &mut text);
                let child = self.parse_element()?;
                self.doc.append_child(parent, child);
                continue;
            }
            if self.cur.starts_with("&") {
                let expanded = self.parse_reference()?;
                text.push_str(&expanded);
                continue;
            }
            if self.cur.starts_with("]]>") {
                return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                    "']]>' not allowed in character data".into(),
                )));
            }
            let ch = self.cur.bump().unwrap();
            text.push(ch);
        }
    }

    fn flush_text(&mut self, parent: NodeId, text: &mut String) {
        if text.is_empty() {
            return;
        }
        let node = self.doc.create_text(text);
        self.doc.append_child(parent, node);
        text.clear();
    }

    fn parse_comment(&mut self) -> Result<NodeId, XmlError> {
        self.cur.expect("<!--", "comment")?;
        let body = self.cur.take_until("--")?.to_string();
        self.cur.eat("--");
        if !self.cur.eat(">") {
            return Err(self
                .cur
                .error(XmlErrorKind::IllegalConstruct("'--' not allowed inside a comment".into())));
        }
        Ok(self.doc.create_comment(&body))
    }

    fn parse_pi(&mut self) -> Result<NodeId, XmlError> {
        self.cur.expect("<?", "processing instruction")?;
        let target = self.parse_raw_name()?;
        if target.eq_ignore_ascii_case("xml") {
            return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                "processing instruction target 'xml' is reserved".into(),
            )));
        }
        let data = if self.cur.eat("?>") {
            String::new()
        } else {
            if !self.cur.skip_ws() {
                return Err(self.cur.error(XmlErrorKind::IllegalConstruct(
                    "whitespace required after PI target".into(),
                )));
            }
            let body = self.cur.take_until("?>")?.to_string();
            self.cur.eat("?>");
            body
        };
        Ok(self.doc.create_pi(&target, &data))
    }
}
