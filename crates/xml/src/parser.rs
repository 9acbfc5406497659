//! The DOM builder: [`parse`] drains the pull reader into a [`Document`].
//!
//! All of the parsing — well-formedness, reference expansion, the depth and
//! expansion limits — happens in [`crate::events::Reader`]; this module only
//! hangs the events it yields into the arena. Text the reader had to build
//! (a run with references in it) is moved into its node, text it could
//! borrow is copied once, and an element or attribute name is a clone of one
//! [`QName`] per distinct name of the document, interned here for the
//! duration of the parse.

use std::collections::HashMap;

use crate::dom::{Attribute, Document, ElementData, NodeId, NodeKind};
use crate::entities::EntityCatalog;
use crate::error::XmlError;
use crate::events::{Event, Reader};
use crate::name::QName;

/// Parse a document, starting from an empty entity catalog (entities declared
/// in the internal DTD subset are still picked up).
pub fn parse(input: &str) -> Result<Document, XmlError> {
    parse_with_catalog(input, EntityCatalog::new())
}

/// Parse a document with pre-declared general entities (e.g. entities
/// declared in an *external* DTD that the caller has already parsed).
pub fn parse_with_catalog(input: &str, catalog: EntityCatalog) -> Result<Document, XmlError> {
    let mut reader = Reader::with_catalog(input, catalog);
    let mut doc = Document::new();
    let mut names = Names::default();
    let mut open: Vec<NodeId> = Vec::new();
    while let Some(event) = reader.next_event()? {
        let kind = match event {
            Event::Declaration(declaration) => {
                doc.declaration = Some(declaration);
                continue;
            }
            Event::Doctype(doctype) => {
                doc.doctype = Some(doctype);
                continue;
            }
            Event::Start { name, attributes } => {
                let attributes = attributes
                    .drain(..)
                    .map(|a| Attribute { name: names.intern(a.name), value: a.value.into_owned() })
                    .collect();
                let element = doc.push_node(NodeKind::Element(ElementData {
                    name: names.intern(name),
                    attributes,
                    children: Vec::new(),
                }));
                match open.last() {
                    Some(parent) => doc.append_child(*parent, element),
                    None => doc.set_root(element),
                }
                open.push(element);
                continue;
            }
            Event::End { .. } => {
                open.pop();
                continue;
            }
            Event::Text(text) => NodeKind::Text(text.into_owned()),
            Event::CData(body) => NodeKind::CData(body.to_string()),
            Event::Comment(body) => NodeKind::Comment(body.to_string()),
            Event::ProcessingInstruction { target, data } => NodeKind::ProcessingInstruction {
                target: target.to_string(),
                data: data.to_string(),
            },
        };
        let node = doc.push_node(kind);
        match open.last() {
            Some(parent) => doc.append_child(*parent, node),
            None if doc.root_element().is_none() => doc.prolog_misc.push(node),
            None => doc.epilog_misc.push(node),
        }
    }
    Ok(doc)
}

/// The names of the document being built: one shared [`QName`] each.
#[derive(Default)]
struct Names<'a>(HashMap<&'a str, QName>);

impl<'a> Names<'a> {
    fn intern(&mut self, raw: &'a str) -> QName {
        self.0
            .entry(raw)
            .or_insert_with(|| QName::parse(raw).expect("the reader yields valid QNames only"))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::XmlErrorKind;
    use crate::prolog::ExternalId;

    #[test]
    fn parses_minimal_document() {
        let doc = parse("<a/>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root).local_part(), "a");
        assert!(doc.children(root).is_empty());
    }

    #[test]
    fn parses_nested_elements_and_text() {
        let doc = parse("<a><b>hello</b><b>world</b></a>").unwrap();
        let root = doc.root_element().unwrap();
        let bs = doc.child_elements_named(root, "b");
        assert_eq!(bs.len(), 2);
        assert_eq!(doc.text_content(bs[0]), "hello");
        assert_eq!(doc.text_content(bs[1]), "world");
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let doc = parse(r#"<a x="1" y='two'/>"#).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "x"), Some("1"));
        assert_eq!(doc.attribute(root, "y"), Some("two"));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn rejects_content_after_root() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::StructureViolation(_)));
    }

    #[test]
    fn expands_predefined_entities_in_text_and_attrs() {
        let doc = parse(r#"<a t="&lt;x&gt;">&amp;&apos;&quot;</a>"#).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.attribute(root, "t"), Some("<x>"));
        assert_eq!(doc.text_content(root), "&'\"");
    }

    #[test]
    fn expands_char_refs() {
        let doc = parse("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.text_content(doc.root_element().unwrap()), "AB");
    }

    #[test]
    fn expands_internal_subset_entities_like_the_paper() {
        // Appendix A: <!ENTITY cs "Computer Science">
        let input = r#"<!DOCTYPE University [<!ENTITY cs "Computer Science">]>
<University><StudyCourse>&cs;</StudyCourse></University>"#;
        let doc = parse(input).unwrap();
        let root = doc.root_element().unwrap();
        let sc = doc.first_child_named(root, "StudyCourse").unwrap();
        assert_eq!(doc.text_content(sc), "Computer Science");
        assert_eq!(doc.doctype.as_ref().unwrap().name, "University");
    }

    #[test]
    fn unknown_entity_is_an_error() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn keeps_comments_and_pis_in_the_dom() {
        let doc = parse("<?pi data?><a><!--note--><?p q?></a><!--tail-->").unwrap();
        assert_eq!(doc.prolog_misc.len(), 1);
        assert_eq!(doc.epilog_misc.len(), 1);
        let root = doc.root_element().unwrap();
        assert_eq!(doc.children(root).len(), 2);
        assert!(matches!(doc.kind(doc.children(root)[0]), NodeKind::Comment(c) if c == "note"));
    }

    #[test]
    fn parses_cdata_sections() {
        let doc = parse("<a><![CDATA[<raw> & stuff]]></a>").unwrap();
        let root = doc.root_element().unwrap();
        assert!(matches!(doc.kind(doc.children(root)[0]), NodeKind::CData(c) if c == "<raw> & stuff"));
        assert_eq!(doc.text_content(root), "<raw> & stuff");
    }

    #[test]
    fn parses_xml_declaration_fields() {
        let doc =
            parse("<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?><a/>").unwrap();
        let decl = doc.declaration.unwrap();
        assert_eq!(decl.version, "1.0");
        assert_eq!(decl.encoding.as_deref(), Some("UTF-8"));
        assert_eq!(decl.standalone, Some(true));
    }

    #[test]
    fn doctype_with_system_id() {
        let doc = parse("<!DOCTYPE a SYSTEM \"a.dtd\"><a/>").unwrap();
        let dt = doc.doctype.unwrap();
        assert_eq!(dt.name, "a");
        assert!(matches!(dt.external_id, Some(ExternalId::System { ref system }) if system == "a.dtd"));
    }

    #[test]
    fn internal_subset_is_captured_verbatim() {
        let input = "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>";
        let doc = parse(input).unwrap();
        assert_eq!(doc.doctype.unwrap().internal_subset.unwrap(), "<!ELEMENT a (#PCDATA)>");
    }

    #[test]
    fn attr_value_normalizes_whitespace() {
        let doc = parse("<a x=\"l1\nl2\tl3\"/>").unwrap();
        assert_eq!(doc.attribute(doc.root_element().unwrap(), "x"), Some("l1 l2 l3"));
    }

    #[test]
    fn lt_in_attr_value_is_error() {
        assert!(parse("<a x=\"<\"/>").is_err());
    }

    #[test]
    fn double_dash_in_comment_is_error() {
        assert!(parse("<a><!-- no -- no --></a>").is_err());
    }

    #[test]
    fn cdata_end_in_text_is_error() {
        assert!(parse("<a>bad ]]> here</a>").is_err());
    }

    #[test]
    fn reserved_pi_target_is_error() {
        assert!(parse("<a><?xml version=\"1.0\"?></a>").is_err());
    }

    #[test]
    fn parses_prefixed_names() {
        let doc = parse("<u:a xmlns:u=\"urn:x\"><u:b/></u:a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root).prefix(), "u");
        assert_eq!(doc.attribute(root, "xmlns:u"), Some("urn:x"));
    }

    #[test]
    fn empty_document_is_error() {
        assert!(parse("").is_err());
        assert!(parse("   \n ").is_err());
    }

    #[test]
    fn unterminated_tag_is_eof_error() {
        let err = parse("<a><b>text").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnexpectedEof));
    }

    #[test]
    fn external_catalog_entities_expand() {
        let mut cat = EntityCatalog::new();
        cat.declare("brand", "ACME");
        let doc = parse_with_catalog("<a>&brand;</a>", cat).unwrap();
        assert_eq!(doc.text_content(doc.root_element().unwrap()), "ACME");
    }

    #[test]
    fn whitespace_only_text_is_preserved_inside_elements() {
        let doc = parse("<a> <b/> </a>").unwrap();
        let root = doc.root_element().unwrap();
        // text, element, text
        assert_eq!(doc.children(root).len(), 3);
    }

    #[test]
    fn appendix_a_university_document_parses() {
        let input = r#"<?xml version="1.0"?>
<!DOCTYPE University [
  <!ELEMENT University (StudyCourse,Student*)>
  <!ELEMENT Student (LName,FName,Course*)>
  <!ATTLIST Student StudNr CDATA #REQUIRED>
  <!ELEMENT Course (Name,Professor*,CreditPts?)>
  <!ELEMENT Professor (PName,Subject+,Dept)>
  <!ENTITY cs "Computer Science">
  <!ELEMENT LName (#PCDATA)>
  <!ELEMENT FName (#PCDATA)>
  <!ELEMENT Name (#PCDATA)>
  <!ELEMENT PName (#PCDATA)>
  <!ELEMENT Subject (#PCDATA)>
  <!ELEMENT Dept (#PCDATA)>
  <!ELEMENT StudyCourse (#PCDATA)>
]>
<University>
  <StudyCourse>&cs;</StudyCourse>
  <Student StudNr="23374">
    <LName>Conrad</LName>
    <FName>Matthias</FName>
    <Course>
      <Name>Database Systems II</Name>
      <Professor>
        <PName>Kudrass</PName>
        <Subject>Database Systems</Subject>
        <Subject>Operat. Systems</Subject>
        <Dept>&cs;</Dept>
      </Professor>
      <CreditPts>4</CreditPts>
    </Course>
  </Student>
</University>"#;
        let doc = parse(input).unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(doc.name(root).local_part(), "University");
        let student = doc.first_child_named(root, "Student").unwrap();
        assert_eq!(doc.attribute(student, "StudNr"), Some("23374"));
        let course = doc.first_child_named(student, "Course").unwrap();
        let prof = doc.first_child_named(course, "Professor").unwrap();
        assert_eq!(doc.child_elements_named(prof, "Subject").len(), 2);
        assert_eq!(doc.text_content(doc.first_child_named(prof, "Dept").unwrap()), "Computer Science");
    }
}
