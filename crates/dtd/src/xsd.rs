//! XML Schema (XSD) support — the paper's first future-work item.
//!
//! §7: "one of the next tasks is to start with the analysis of documents
//! with XML Schema, which provides more advanced concepts (such as element
//! types)". This module implements a practical XSD subset and converts it
//! into the same structural model the DTD parser produces ([`Dtd`]), plus
//! the piece DTDs cannot express: **scalar type hints** per element and
//! attribute, so the mapping layer can generate `NUMBER`, `DATE` or
//! length-bounded `VARCHAR` columns instead of the §4.1 blanket
//! `VARCHAR(4000)`.
//!
//! Supported subset (enough for data-centric schemas of the paper's kind):
//!
//! * global `xs:element`, with `type="xs:…"`, `type="NamedType"` or inline
//!   `xs:complexType`/`xs:simpleType`;
//! * `xs:complexType` (named or inline) with `xs:sequence`/`xs:choice`
//!   (nestable), `mixed="true"`, and `xs:attribute` children;
//! * local elements with `name`+`type`, inline types, or `ref="…"`;
//! * `minOccurs`/`maxOccurs` → the DTD occurrence operators;
//! * `xs:simpleType` restrictions with a `maxLength` facet;
//! * `xs:attribute` with `use="required|optional"` and `default`/`fixed`;
//! * the common built-ins: string family → `VARCHAR`, numeric family →
//!   `NUMBER`, date family → `DATE`, plus `xs:ID`/`xs:IDREF` (mapped to the
//!   DTD ID/IDREF attribute types so §4.4's REF machinery applies).
//!
//! Like the paper's own prototype (which handled one DTD at a time),
//! elements are identified by name: two local elements with the same name
//! must agree structurally — conflicting redefinitions are reported.

use std::collections::BTreeMap;
use std::fmt;

use xmlord_xml::{Document, NodeId};

use crate::ast::{
    AttDef, AttType, AttlistDecl, ContentParticle, ContentSpec, DefaultDecl, Dtd, ElementDecl,
    Occurrence,
};

/// Scalar column type suggested by the schema (consumed by the mapping
/// layer's `TypeHints`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalarHint {
    Varchar(u32),
    Clob,
    Number,
    Date,
}

/// Result of analyzing an XSD: the structural model plus the type hints a
/// DTD could never provide.
#[derive(Debug, Clone)]
pub struct XsdSchema {
    pub dtd: Dtd,
    /// element name → scalar type of its text content.
    pub element_hints: BTreeMap<String, ScalarHint>,
    /// (element name, attribute name) → scalar type.
    pub attribute_hints: BTreeMap<(String, String), ScalarHint>,
    /// Globally declared elements (document-root candidates), in order.
    pub root_candidates: Vec<String>,
}

/// Analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum XsdError {
    Xml(xmlord_xml::XmlError),
    NotASchema,
    Unsupported(String),
    ConflictingElement(String),
    UnknownType(String),
}

impl fmt::Display for XsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XsdError::Xml(e) => write!(f, "XSD is not well-formed XML: {e}"),
            XsdError::NotASchema => write!(f, "document root is not an xs:schema element"),
            XsdError::Unsupported(what) => write!(f, "unsupported XSD construct: {what}"),
            XsdError::ConflictingElement(name) =>

                write!(f, "element '{name}' is defined twice with different content"),
            XsdError::UnknownType(name) => write!(f, "reference to unknown type '{name}'"),
        }
    }
}

impl std::error::Error for XsdError {}

/// Parse and analyze an XSD document.
pub fn parse_xsd(text: &str) -> Result<XsdSchema, XsdError> {
    let doc = xmlord_xml::parse(text).map_err(XsdError::Xml)?;
    let root = doc.root_element().ok_or(XsdError::NotASchema)?;
    if doc.name(root).local_part() != "schema" {
        return Err(XsdError::NotASchema);
    }
    let mut analyzer = Analyzer {
        doc: &doc,
        named_complex: BTreeMap::new(),
        named_simple: BTreeMap::new(),
        global_elements: BTreeMap::new(),
        out: XsdSchema {
            dtd: Dtd::default(),
            element_hints: BTreeMap::new(),
            attribute_hints: BTreeMap::new(),
            root_candidates: Vec::new(),
        },
    };
    analyzer.collect_globals(root);
    for (name, node) in analyzer.global_elements.clone() {
        analyzer.element_decl(&name, node)?;
        analyzer.out.root_candidates.push(name);
    }
    Ok(analyzer.out)
}

struct Analyzer<'a> {
    doc: &'a Document,
    /// name → xs:complexType node.
    named_complex: BTreeMap<String, NodeId>,
    /// name → resolved scalar hint of a named simple type.
    named_simple: BTreeMap<String, ScalarHint>,
    /// name → global xs:element node.
    global_elements: BTreeMap<String, NodeId>,
    out: XsdSchema,
}

impl<'a> Analyzer<'a> {
    fn local(&self, node: NodeId) -> String {
        self.doc.name(node).local_part().to_string()
    }

    fn collect_globals(&mut self, schema: NodeId) {
        for child in self.doc.child_elements(schema) {
            match self.local(child).as_str() {
                "element" => {
                    if let Some(name) = self.doc.attribute(child, "name") {
                        self.global_elements.insert(name.to_string(), child);
                    }
                }
                "complexType" => {
                    if let Some(name) = self.doc.attribute(child, "name") {
                        self.named_complex.insert(name.to_string(), child);
                    }
                }
                "simpleType" => {
                    if let Some(name) = self.doc.attribute(child, "name") {
                        let hint = self.simple_type_hint(child);
                        self.named_simple.insert(name.to_string(), hint);
                    }
                }
                _ => {} // annotations, imports: ignored
            }
        }
    }

    /// Resolve a `type="…"` attribute value to a scalar hint, if it denotes
    /// a simple type. Strips any namespace prefix.
    fn scalar_hint_for(&self, type_name: &str) -> Option<ScalarHint> {
        let local = type_name.rsplit(':').next().unwrap_or(type_name);
        if let Some(hint) = builtin_hint(local) {
            return Some(hint);
        }
        self.named_simple.get(local).cloned()
    }

    /// Is `type_name` an attribute-level ID/IDREF builtin?
    fn id_att_type(type_name: &str) -> Option<AttType> {
        match type_name.rsplit(':').next().unwrap_or(type_name) {
            "ID" => Some(AttType::Id),
            "IDREF" => Some(AttType::Idref),
            "IDREFS" => Some(AttType::Idrefs),
            _ => None,
        }
    }

    /// Hint from an inline `xs:simpleType` (restriction base + maxLength).
    fn simple_type_hint(&self, simple_type: NodeId) -> ScalarHint {
        let Some(restriction) = self.doc.first_child_named(simple_type, "restriction") else {
            return ScalarHint::Varchar(4000);
        };
        let base = self
            .doc
            .attribute(restriction, "base")
            .map(|b| b.rsplit(':').next().unwrap_or(b).to_string())
            .unwrap_or_else(|| "string".to_string());
        let base_hint = builtin_hint(&base).unwrap_or(ScalarHint::Varchar(4000));
        if let ScalarHint::Varchar(_) = base_hint {
            for facet in self.doc.child_elements_named(restriction, "maxLength") {
                if let Some(value) =
                    self.doc.attribute(facet, "value").and_then(|v| v.parse::<u32>().ok())
                {
                    return ScalarHint::Varchar(value);
                }
            }
        }
        base_hint
    }

    /// Process one element declaration (global or local) into the DTD model.
    fn element_decl(&mut self, name: &str, node: NodeId) -> Result<(), XsdError> {
        // type= attribute?
        if let Some(type_name) = self.doc.attribute(node, "type").map(str::to_string) {
            if let Some(hint) = self.scalar_hint_for(&type_name) {
                self.declare_simple_element(name, hint)?;
                return Ok(());
            }
            let local = type_name.rsplit(':').next().unwrap_or(&type_name).to_string();
            if let Some(ct) = self.named_complex.get(&local).copied() {
                return self.complex_element(name, ct);
            }
            return Err(XsdError::UnknownType(type_name));
        }
        // Inline complexType?
        if let Some(ct) = self.doc.first_child_named(node, "complexType") {
            return self.complex_element(name, ct);
        }
        // Inline simpleType?
        if let Some(st) = self.doc.first_child_named(node, "simpleType") {
            let hint = self.simple_type_hint(st);
            return self.declare_simple_element(name, hint);
        }
        // No type at all: xs:anyType — treat as string.
        self.declare_simple_element(name, ScalarHint::Varchar(4000))
    }

    fn declare_simple_element(&mut self, name: &str, hint: ScalarHint) -> Result<(), XsdError> {
        self.record_element(name, ContentSpec::PcData)?;
        self.out.element_hints.insert(name.to_string(), hint);
        Ok(())
    }

    fn record_element(&mut self, name: &str, content: ContentSpec) -> Result<(), XsdError> {
        if let Some(existing) = self.out.dtd.elements.get(name) {
            if existing.content != content {
                return Err(XsdError::ConflictingElement(name.to_string()));
            }
            return Ok(());
        }
        self.out.dtd.element_order.push(name.to_string());
        self.out
            .dtd
            .elements
            .insert(name.to_string(), ElementDecl { name: name.to_string(), content });
        Ok(())
    }

    fn complex_element(&mut self, name: &str, complex_type: NodeId) -> Result<(), XsdError> {
        let mixed = self.doc.attribute(complex_type, "mixed") == Some("true");
        // Attributes.
        let mut attdefs = Vec::new();
        for attr_node in self.doc.child_elements_named(complex_type, "attribute") {
            let Some(attr_name) = self.doc.attribute(attr_node, "name").map(str::to_string)
            else {
                continue;
            };
            let type_name = self.doc.attribute(attr_node, "type").map(str::to_string);
            let att_type = type_name
                .as_deref()
                .and_then(Self::id_att_type)
                .unwrap_or(AttType::Cdata);
            if let Some(hint) =
                type_name.as_deref().and_then(|t| self.scalar_hint_for(t))
            {
                self.out
                    .attribute_hints
                    .insert((name.to_string(), attr_name.clone()), hint);
            }
            let default = if self.doc.attribute(attr_node, "use") == Some("required") {
                DefaultDecl::Required
            } else if let Some(fixed) = self.doc.attribute(attr_node, "fixed") {
                DefaultDecl::Fixed(fixed.to_string())
            } else if let Some(default) = self.doc.attribute(attr_node, "default") {
                DefaultDecl::Default(default.to_string())
            } else {
                DefaultDecl::Implied
            };
            attdefs.push(AttDef { name: attr_name, att_type, default });
        }
        if !attdefs.is_empty() {
            let entry = self
                .out
                .dtd
                .attlists
                .entry(name.to_string())
                .or_insert_with(|| AttlistDecl { element: name.to_string(), attributes: vec![] });
            for def in attdefs {
                if !entry.attributes.iter().any(|a| a.name == def.name) {
                    entry.attributes.push(def);
                }
            }
        }
        // Content model.
        let group = self
            .doc
            .first_child_named(complex_type, "sequence")
            .map(|n| (n, true))
            .or_else(|| self.doc.first_child_named(complex_type, "choice").map(|n| (n, false)))
            .or_else(|| self.doc.first_child_named(complex_type, "all").map(|n| (n, true)));
        let content = match group {
            None => {
                if mixed {
                    ContentSpec::PcData
                } else {
                    ContentSpec::Empty
                }
            }
            Some((group_node, is_seq)) => {
                let particle = self.group_particle(group_node, is_seq)?;
                if mixed {
                    ContentSpec::Mixed(ContentSpec::Children(particle).child_names())
                } else {
                    ContentSpec::Children(particle)
                }
            }
        };
        self.record_element(name, content)
    }

    /// Build a content particle from an xs:sequence / xs:choice node.
    fn group_particle(&mut self, group: NodeId, is_seq: bool) -> Result<ContentParticle, XsdError> {
        let occurrence = occurrence_of(self.doc, group);
        let mut members = Vec::new();
        for child in self.doc.child_elements(group) {
            match self.local(child).as_str() {
                "element" => {
                    let (child_name, occ) = self.local_element(child)?;
                    members.push(ContentParticle::Name(child_name, occ));
                }
                "sequence" => members.push(self.group_particle(child, true)?),
                "choice" => members.push(self.group_particle(child, false)?),
                "annotation" => {}
                other => {
                    return Err(XsdError::Unsupported(format!(
                        "xs:{other} inside a content group"
                    )))
                }
            }
        }
        if members.is_empty() {
            return Err(XsdError::Unsupported("empty content group".into()));
        }
        Ok(if is_seq {
            ContentParticle::Seq(members, occurrence)
        } else {
            ContentParticle::Choice(members, occurrence)
        })
    }

    /// Process a local element (inside a group); returns (name, occurrence).
    fn local_element(&mut self, node: NodeId) -> Result<(String, Occurrence), XsdError> {
        let occurrence = occurrence_of(self.doc, node);
        if let Some(reference) = self.doc.attribute(node, "ref").map(str::to_string) {
            let local = reference.rsplit(':').next().unwrap_or(&reference).to_string();
            let Some(global) = self.global_elements.get(&local).copied() else {
                return Err(XsdError::UnknownType(reference));
            };
            self.element_decl(&local, global)?;
            return Ok((local, occurrence));
        }
        let Some(name) = self.doc.attribute(node, "name").map(str::to_string) else {
            return Err(XsdError::Unsupported("element without name or ref".into()));
        };
        self.element_decl(&name, node)?;
        Ok((name, occurrence))
    }
}

/// Map minOccurs/maxOccurs to a DTD occurrence operator.
fn occurrence_of(doc: &Document, node: NodeId) -> Occurrence {
    let min: u32 = doc
        .attribute(node, "minOccurs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let unbounded = doc.attribute(node, "maxOccurs") == Some("unbounded");
    let max: u32 = if unbounded {
        u32::MAX
    } else {
        doc.attribute(node, "maxOccurs").and_then(|v| v.parse().ok()).unwrap_or(1)
    };
    match (min, max) {
        (0, 0..=1) => Occurrence::Optional,
        (0, _) => Occurrence::ZeroOrMore,
        (_, 0..=1) => Occurrence::One,
        (_, _) => Occurrence::OneOrMore,
    }
}

/// Built-in XSD simple types → scalar hints.
fn builtin_hint(local: &str) -> Option<ScalarHint> {
    match local {
        "string" | "normalizedString" | "token" | "anyURI" | "language" | "NMTOKEN" | "Name"
        | "NCName" => Some(ScalarHint::Varchar(4000)),
        "boolean" => Some(ScalarHint::Varchar(5)),
        "integer" | "int" | "long" | "short" | "byte" | "decimal" | "double" | "float"
        | "positiveInteger" | "negativeInteger" | "nonNegativeInteger" | "nonPositiveInteger"
        | "unsignedInt" | "unsignedLong" | "unsignedShort" | "unsignedByte" => {
            Some(ScalarHint::Number)
        }
        "date" | "dateTime" | "time" | "gYear" | "gYearMonth" | "gMonthDay" => {
            Some(ScalarHint::Date)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INVOICE_XSD: &str = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Invoice">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="Customer" type="xs:string"/>
        <xs:element name="Issued" type="xs:date"/>
        <xs:element name="Line" minOccurs="1" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="Item" type="SkuType"/>
              <xs:element name="Quantity" type="xs:positiveInteger"/>
              <xs:element name="Price" type="xs:decimal"/>
              <xs:element name="Note" type="xs:string" minOccurs="0"/>
            </xs:sequence>
            <xs:attribute name="Pos" type="xs:integer" use="required"/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
      <xs:attribute name="Number" type="xs:string" use="required"/>
      <xs:attribute name="Currency" type="xs:string" default="EUR"/>
    </xs:complexType>
  </xs:element>
  <xs:simpleType name="SkuType">
    <xs:restriction base="xs:string">
      <xs:maxLength value="12"/>
    </xs:restriction>
  </xs:simpleType>
</xs:schema>"#;

    #[test]
    fn invoice_schema_analyzes() {
        let xsd = parse_xsd(INVOICE_XSD).unwrap();
        assert_eq!(xsd.root_candidates, vec!["Invoice"]);
        // Structure mapped to the DTD model.
        let invoice = xsd.dtd.element("Invoice").unwrap();
        assert_eq!(invoice.content.to_string(), "(Customer,Issued,Line+)");
        let line = xsd.dtd.element("Line").unwrap();
        assert_eq!(line.content.to_string(), "(Item,Quantity,Price,Note?)");
        // Attributes with required/default declarations.
        let attrs = xsd.dtd.attributes_of("Invoice");
        assert_eq!(attrs.len(), 2);
        assert!(attrs[0].default.is_required());
        assert_eq!(attrs[1].default, DefaultDecl::Default("EUR".into()));
        // Type hints a DTD could never express.
        assert_eq!(xsd.element_hints.get("Quantity"), Some(&ScalarHint::Number));
        assert_eq!(xsd.element_hints.get("Price"), Some(&ScalarHint::Number));
        assert_eq!(xsd.element_hints.get("Issued"), Some(&ScalarHint::Date));
        assert_eq!(xsd.element_hints.get("Item"), Some(&ScalarHint::Varchar(12)));
        assert_eq!(
            xsd.attribute_hints.get(&("Line".to_string(), "Pos".to_string())),
            Some(&ScalarHint::Number)
        );
    }

    #[test]
    fn named_complex_types_resolve() {
        let xsd = parse_xsd(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="Org" type="OrgType"/>
              <xs:complexType name="OrgType">
                <xs:sequence>
                  <xs:element name="Unit" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
                </xs:sequence>
              </xs:complexType>
            </xs:schema>"#,
        )
        .unwrap();
        assert_eq!(xsd.dtd.element("Org").unwrap().content.to_string(), "(Unit*)");
    }

    #[test]
    fn element_refs_resolve() {
        let xsd = parse_xsd(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="List">
                <xs:complexType><xs:sequence>
                  <xs:element ref="Entry" maxOccurs="unbounded"/>
                </xs:sequence></xs:complexType>
              </xs:element>
              <xs:element name="Entry" type="xs:string"/>
            </xs:schema>"#,
        )
        .unwrap();
        assert_eq!(xsd.dtd.element("List").unwrap().content.to_string(), "(Entry+)");
        assert!(xsd.root_candidates.contains(&"List".to_string()));
    }

    #[test]
    fn choice_and_nested_groups() {
        let xsd = parse_xsd(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="Doc">
                <xs:complexType><xs:sequence>
                  <xs:choice minOccurs="0" maxOccurs="unbounded">
                    <xs:element name="Para" type="xs:string"/>
                    <xs:element name="Table" type="xs:string"/>
                  </xs:choice>
                  <xs:element name="Footer" type="xs:string"/>
                </xs:sequence></xs:complexType>
              </xs:element>
            </xs:schema>"#,
        )
        .unwrap();
        assert_eq!(
            xsd.dtd.element("Doc").unwrap().content.to_string(),
            "((Para|Table)*,Footer)"
        );
    }

    #[test]
    fn mixed_content_maps_to_mixed() {
        let xsd = parse_xsd(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="p">
                <xs:complexType mixed="true"><xs:sequence>
                  <xs:element name="em" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
                </xs:sequence></xs:complexType>
              </xs:element>
            </xs:schema>"#,
        )
        .unwrap();
        assert_eq!(
            xsd.dtd.element("p").unwrap().content,
            ContentSpec::Mixed(vec!["em".to_string()])
        );
    }

    #[test]
    fn id_and_idref_attributes_map_to_dtd_att_types() {
        let xsd = parse_xsd(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="person">
                <xs:complexType>
                  <xs:sequence><xs:element name="name" type="xs:string"/></xs:sequence>
                  <xs:attribute name="id" type="xs:ID" use="required"/>
                  <xs:attribute name="boss" type="xs:IDREF"/>
                </xs:complexType>
              </xs:element>
            </xs:schema>"#,
        )
        .unwrap();
        let attrs = xsd.dtd.attributes_of("person");
        assert_eq!(attrs[0].att_type, AttType::Id);
        assert_eq!(attrs[1].att_type, AttType::Idref);
    }

    #[test]
    fn conflicting_redefinitions_are_reported() {
        let err = parse_xsd(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="a">
                <xs:complexType><xs:sequence>
                  <xs:element name="x" type="xs:string"/>
                  <xs:element name="x2">
                    <xs:complexType><xs:sequence>
                      <xs:element name="x" type="xs:integer" minOccurs="0"/>
                    </xs:sequence></xs:complexType>
                  </xs:element>
                </xs:sequence></xs:complexType>
              </xs:element>
            </xs:schema>"#,
        );
        // "x" is once (#PCDATA) string and once (#PCDATA) integer — the
        // *content* agrees (both PcData) so this is accepted; real conflicts
        // need different structure:
        assert!(err.is_ok());
        let err2 = parse_xsd(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="a">
                <xs:complexType><xs:sequence>
                  <xs:element name="x" type="xs:string"/>
                  <xs:element name="wrap">
                    <xs:complexType><xs:sequence>
                      <xs:element name="x">
                        <xs:complexType><xs:sequence>
                          <xs:element name="deep" type="xs:string"/>
                        </xs:sequence></xs:complexType>
                      </xs:element>
                    </xs:sequence></xs:complexType>
                  </xs:element>
                </xs:sequence></xs:complexType>
              </xs:element>
            </xs:schema>"#,
        );
        assert!(matches!(err2, Err(XsdError::ConflictingElement(ref n)) if n == "x"));
    }

    #[test]
    fn non_schema_root_rejected() {
        assert!(matches!(parse_xsd("<not-a-schema/>"), Err(XsdError::NotASchema)));
        assert!(matches!(parse_xsd("<<<"), Err(XsdError::Xml(_))));
    }

    #[test]
    fn empty_complex_type_is_empty_element() {
        let xsd = parse_xsd(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="marker">
                <xs:complexType>
                  <xs:attribute name="at" type="xs:string"/>
                </xs:complexType>
              </xs:element>
            </xs:schema>"#,
        )
        .unwrap();
        assert_eq!(xsd.dtd.element("marker").unwrap().content, ContentSpec::Empty);
    }
}
