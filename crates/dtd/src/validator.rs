//! Document validation against a DTD — the "Well-Formedness / Validity
//! Check" box of the paper's Fig. 1.
//!
//! Checks, per XML 1.0:
//! * the root element matches the DOCTYPE name (when one is given),
//! * every element is declared,
//! * element content matches its content model (via [`crate::matcher`]),
//! * character data only appears where the model allows it,
//! * attributes are declared, required attributes are present, enumerated
//!   and NMTOKEN values are lexically valid, `#FIXED` values match,
//! * ID attributes are unique document-wide and IDREF/IDREFS targets exist.
//!
//! The mapping layer requires a *valid* document before loading (§3), and
//! the IDREF resolution performed here is also what lets §4.4 determine
//! "which ID attribute is referenced by an IDREF value — this kind of
//! information cannot be captured from the DTD, rather from the XML
//! document".
//!
//! A valid document is the common case and the one that is timed, so the
//! success path allocates only for what it reports — the `ids` and `idrefs`
//! of the [`ValidationReport`] — plus one compiled content model per
//! distinct element name per call. Names are borrowed from the document,
//! content models are matched over an iterator of them, and the walk is a
//! loop over a stack of open elements. Errors are rendered *lazily*: a
//! [`ValidationError`]'s `path` is joined from that stack, and its owned
//! strings are made, only when an error is pushed.

use std::collections::BTreeMap;
use std::fmt;

use xmlord_xml::{Document, NodeId, NodeKind};

use crate::ast::{AttType, ContentSpec, DefaultDecl, Dtd};
use crate::matcher::{ContentMatcher, ContentModel};

/// What went wrong, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Path of element names from the root, e.g. `University/Student`.
    pub path: String,
    pub kind: ValidationErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationErrorKind {
    RootMismatch { declared: String, actual: String },
    UndeclaredElement(String),
    ContentModelViolation { element: String, model: String, found: Vec<String> },
    TextNotAllowed { element: String },
    UndeclaredAttribute { element: String, attribute: String },
    RequiredAttributeMissing { element: String, attribute: String },
    FixedAttributeMismatch { element: String, attribute: String, expected: String, found: String },
    InvalidAttributeValue { element: String, attribute: String, value: String, expected: String },
    DuplicateId(String),
    UnresolvedIdref(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: ", self.path)?;
        match &self.kind {
            ValidationErrorKind::RootMismatch { declared, actual } => {
                write!(f, "root element is <{actual}> but DOCTYPE declares {declared}")
            }
            ValidationErrorKind::UndeclaredElement(name) => {
                write!(f, "element <{name}> is not declared")
            }
            ValidationErrorKind::ContentModelViolation { element, model, found } => write!(
                f,
                "children of <{element}> do not match {model}: found ({})",
                found.join(",")
            ),
            ValidationErrorKind::TextNotAllowed { element } => {
                write!(f, "character data not allowed in <{element}>")
            }
            ValidationErrorKind::UndeclaredAttribute { element, attribute } => {
                write!(f, "attribute '{attribute}' is not declared on <{element}>")
            }
            ValidationErrorKind::RequiredAttributeMissing { element, attribute } => {
                write!(f, "required attribute '{attribute}' missing on <{element}>")
            }
            ValidationErrorKind::FixedAttributeMismatch { element, attribute, expected, found } => {
                write!(
                    f,
                    "#FIXED attribute '{attribute}' on <{element}> must be '{expected}', found '{found}'"
                )
            }
            ValidationErrorKind::InvalidAttributeValue { element, attribute, value, expected } => {
                write!(
                    f,
                    "attribute '{attribute}' on <{element}> has value '{value}', expected {expected}"
                )
            }
            ValidationErrorKind::DuplicateId(id) => write!(f, "duplicate ID value '{id}'"),
            ValidationErrorKind::UnresolvedIdref(id) => {
                write!(f, "IDREF '{id}' does not match any ID in the document")
            }
        }
    }
}

/// Result of a validation run: all errors, plus the ID → element index that
/// §4.4's IDREF→REF mapping consumes.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    pub errors: Vec<ValidationError>,
    /// ID attribute value → element node carrying it.
    pub ids: BTreeMap<String, NodeId>,
    /// (referencing element, attribute name, target id) for each IDREF use.
    pub idrefs: Vec<(NodeId, String, String)>,
}

impl ValidationReport {
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Validate `doc` against `dtd`. Returns the full report; use
/// [`ValidationReport::is_valid`] for a pass/fail answer.
pub fn validate(doc: &Document, dtd: &Dtd) -> ValidationReport {
    let mut ctx = Validator {
        doc,
        dtd,
        report: ValidationReport::default(),
        models: BTreeMap::new(),
        open: Vec::new(),
    };
    if let Some(root) = doc.root_element() {
        if let Some(doctype) = &doc.doctype {
            let actual = ctx.name(root);
            if doctype.name != actual {
                ctx.report.errors.push(ValidationError {
                    path: actual.to_string(),
                    kind: ValidationErrorKind::RootMismatch {
                        declared: doctype.name.clone(),
                        actual: actual.to_string(),
                    },
                });
            }
        }
        ctx.validate_tree(root);
    }
    // Resolve IDREFs after the whole document is indexed.
    let ValidationReport { errors, ids, idrefs } = &mut ctx.report;
    for (_, _, target) in idrefs.iter() {
        if !ids.contains_key(target) {
            errors.push(ValidationError {
                path: String::new(),
                kind: ValidationErrorKind::UnresolvedIdref(target.clone()),
            });
        }
    }
    ctx.report
}

struct Validator<'a> {
    doc: &'a Document,
    dtd: &'a Dtd,
    report: ValidationReport,
    /// Content models compiled so far, by element name (the DTD's own).
    models: BTreeMap<&'a str, ContentModel>,
    /// The elements open around the one being checked, root first, each
    /// with the index of its next unvisited child: the walk's stack, and
    /// what an error's `path` is rendered from.
    open: Vec<(NodeId, usize)>,
}

impl<'a> Validator<'a> {
    fn name(&self, id: NodeId) -> &'a str {
        self.doc.name(id).as_raw()
    }

    /// Check every element of the tree under `root`, parents before
    /// children, siblings in document order.
    fn validate_tree(&mut self, root: NodeId) {
        self.enter(root);
        while let Some((parent, next)) = self.open.last_mut() {
            let children = self.doc.children(*parent);
            let Some(&child) = children.get(*next) else {
                self.open.pop();
                continue;
            };
            *next += 1;
            if self.doc.element(child).is_some() {
                self.enter(child);
            }
        }
    }

    /// Open element `id` and check what it declares about itself.
    fn enter(&mut self, id: NodeId) {
        self.open.push((id, 0));
        let name = self.name(id);
        match self.dtd.elements.get_key_value(name) {
            Some((declared_name, decl)) => self.check_content(id, declared_name, &decl.content),
            None => self.error(ValidationErrorKind::UndeclaredElement(name.to_string())),
        }
        self.check_attributes(id, name);
    }

    /// Record `kind` against the innermost open element.
    fn error(&mut self, kind: ValidationErrorKind) {
        let names: Vec<&str> = self.open.iter().map(|(id, _)| self.name(*id)).collect();
        self.report.errors.push(ValidationError { path: names.join("/"), kind });
    }

    fn check_content(&mut self, id: NodeId, name: &'a str, spec: &ContentSpec) {
        let doc = self.doc;
        let model = self.models.entry(name).or_insert_with(|| ContentMatcher::compile(spec));
        let child_names = || {
            doc.children(id).iter().filter_map(|c| doc.element(*c)).map(|el| el.name.as_raw())
        };
        let matches = model.matches_names(child_names());
        let allows_text = model.allows_text();
        if !matches {
            self.error(ValidationErrorKind::ContentModelViolation {
                element: name.to_string(),
                model: spec.to_string(),
                found: child_names().map(str::to_string).collect(),
            });
        }
        if !allows_text {
            let has_text = doc.children(id).iter().any(|c| match doc.kind(*c) {
                NodeKind::Text(t) => !t.trim().is_empty(),
                NodeKind::CData(_) => true,
                _ => false,
            });
            if has_text {
                self.error(ValidationErrorKind::TextNotAllowed { element: name.to_string() });
            }
        }
    }

    fn check_attributes(&mut self, id: NodeId, name: &str) {
        let defs = self.dtd.attributes_of(name);
        // Declared attributes: presence, defaults, value constraints.
        for def in defs {
            let value = self.doc.attribute(id, &def.name);
            match (&def.default, value) {
                (DefaultDecl::Required, None) => {
                    self.error(ValidationErrorKind::RequiredAttributeMissing {
                        element: name.to_string(),
                        attribute: def.name.clone(),
                    });
                }
                (DefaultDecl::Fixed(expected), Some(found)) if found != expected => {
                    self.error(ValidationErrorKind::FixedAttributeMismatch {
                        element: name.to_string(),
                        attribute: def.name.clone(),
                        expected: expected.clone(),
                        found: found.to_string(),
                    });
                }
                _ => {}
            }
            let Some(effective) = value.or(def.default.default_value()) else { continue };
            self.check_attribute_value(id, name, &def.name, &def.att_type, effective);
        }
        // Undeclared attributes (namespace declarations are exempt — they
        // are infrastructure, stored by the §5 meta-table instead).
        for attr in self.doc.attributes(id) {
            let raw = attr.name.as_raw();
            if raw == "xmlns" || raw.starts_with("xmlns:") {
                continue;
            }
            if !defs.iter().any(|d| d.name == raw) {
                self.error(ValidationErrorKind::UndeclaredAttribute {
                    element: name.to_string(),
                    attribute: raw.to_string(),
                });
            }
        }
    }

    fn check_attribute_value(
        &mut self,
        id: NodeId,
        element: &str,
        attribute: &str,
        att_type: &AttType,
        value: &str,
    ) {
        use xmlord_xml::name::{is_valid_ncname, is_valid_nmtoken};
        let invalid = |expected: &str, this: &mut Self| {
            this.error(ValidationErrorKind::InvalidAttributeValue {
                element: element.to_string(),
                attribute: attribute.to_string(),
                value: value.to_string(),
                expected: expected.to_string(),
            });
        };
        match att_type {
            AttType::Cdata => {}
            AttType::Id => {
                if !is_valid_ncname(value) {
                    invalid("an XML name", self);
                } else if self.report.ids.contains_key(value) {
                    self.error(ValidationErrorKind::DuplicateId(value.to_string()));
                } else {
                    self.report.ids.insert(value.to_string(), id);
                }
            }
            AttType::Idref => {
                if !is_valid_ncname(value) {
                    invalid("an XML name", self);
                } else {
                    self.report.idrefs.push((id, attribute.to_string(), value.to_string()));
                }
            }
            AttType::Idrefs => {
                for token in value.split_whitespace() {
                    if !is_valid_ncname(token) {
                        invalid("XML names", self);
                    } else {
                        self.report.idrefs.push((id, attribute.to_string(), token.to_string()));
                    }
                }
            }
            AttType::Nmtoken => {
                if !is_valid_nmtoken(value) {
                    invalid("an NMTOKEN", self);
                }
            }
            AttType::Nmtokens => {
                if value.split_whitespace().next().is_none()
                    || !value.split_whitespace().all(is_valid_nmtoken)
                {
                    invalid("NMTOKENs", self);
                }
            }
            AttType::Entity | AttType::Entities => {
                // Entity attributes reference unparsed entities; accepted
                // lexically (non-validating stance, like the paper's parser).
                if !is_valid_nmtoken(value) {
                    invalid("an entity name", self);
                }
            }
            AttType::Notation(allowed) | AttType::Enumerated(allowed) => {
                if !allowed.iter().any(|a| a == value) {
                    invalid(&format!("one of ({})", allowed.join("|")), self);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;
    use xmlord_xml::parse;

    const UNIVERSITY: &str = r#"
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ELEMENT LName (#PCDATA)> <!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)> <!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)> <!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
<!ELEMENT CreditPts (#PCDATA)>
"#;

    fn check(dtd_text: &str, xml: &str) -> ValidationReport {
        let dtd = parse_dtd(dtd_text).unwrap();
        let doc = parse(xml).unwrap();
        validate(&doc, &dtd)
    }

    #[test]
    fn valid_university_document_passes() {
        let report = check(
            UNIVERSITY,
            r#"<University><StudyCourse>CS</StudyCourse>
               <Student StudNr="1"><LName>Conrad</LName><FName>M</FName>
                 <Course><Name>DB</Name>
                   <Professor><PName>Kudrass</PName><Subject>DBS</Subject><Dept>CS</Dept></Professor>
                   <CreditPts>4</CreditPts>
                 </Course>
               </Student></University>"#,
        );
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn missing_required_attribute_fails() {
        let report = check(
            UNIVERSITY,
            "<University><StudyCourse>CS</StudyCourse><Student><LName>a</LName><FName>b</FName></Student></University>",
        );
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::RequiredAttributeMissing { .. })));
    }

    #[test]
    fn wrong_child_order_fails_content_model() {
        let report = check(
            UNIVERSITY,
            r#"<University><StudyCourse>CS</StudyCourse>
               <Student StudNr="1"><FName>M</FName><LName>Conrad</LName></Student></University>"#,
        );
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::ContentModelViolation { .. })));
    }

    #[test]
    fn missing_plus_element_fails() {
        // Professor requires Subject+.
        let report = check(
            UNIVERSITY,
            r#"<University><StudyCourse>CS</StudyCourse>
               <Student StudNr="1"><LName>a</LName><FName>b</FName>
                 <Course><Name>DB</Name>
                   <Professor><PName>K</PName><Dept>CS</Dept></Professor>
                 </Course></Student></University>"#,
        );
        assert!(!report.is_valid());
    }

    #[test]
    fn undeclared_element_fails() {
        let report = check(UNIVERSITY, "<University><Bogus/></University>");
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::UndeclaredElement(ref n) if n == "Bogus")));
    }

    #[test]
    fn text_in_element_content_fails() {
        let report = check(
            UNIVERSITY,
            r#"<University>stray text<StudyCourse>CS</StudyCourse></University>"#,
        );
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::TextNotAllowed { .. })));
    }

    #[test]
    fn whitespace_between_elements_is_fine() {
        let report = check(
            UNIVERSITY,
            "<University>\n  <StudyCourse>CS</StudyCourse>\n</University>",
        );
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn root_mismatch_reported() {
        let dtd = parse_dtd("<!ELEMENT a EMPTY><!ELEMENT b EMPTY>").unwrap();
        let doc = parse("<!DOCTYPE a><b/>").unwrap();
        let report = validate(&doc, &dtd);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::RootMismatch { .. })));
    }

    #[test]
    fn undeclared_attribute_reported_but_xmlns_exempt() {
        let dtd = parse_dtd("<!ELEMENT a EMPTY>").unwrap();
        let doc = parse(r#"<a xmlns:x="urn:y" rogue="1"/>"#).unwrap();
        let report = validate(&doc, &dtd);
        assert_eq!(report.errors.len(), 1);
        assert!(matches!(
            report.errors[0].kind,
            ValidationErrorKind::UndeclaredAttribute { ref attribute, .. } if attribute == "rogue"
        ));
    }

    #[test]
    fn id_uniqueness_and_idref_resolution() {
        let dtd_text = r#"
            <!ELEMENT db (person*)>
            <!ELEMENT person (#PCDATA)>
            <!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>"#;
        let ok = check(
            dtd_text,
            r#"<db><person id="p1">A</person><person id="p2" boss="p1">B</person></db>"#,
        );
        assert!(ok.is_valid(), "{:?}", ok.errors);
        assert_eq!(ok.ids.len(), 2);
        assert_eq!(ok.idrefs.len(), 1);

        let dup = check(dtd_text, r#"<db><person id="p1">A</person><person id="p1">B</person></db>"#);
        assert!(dup.errors.iter().any(|e| matches!(e.kind, ValidationErrorKind::DuplicateId(_))));

        let dangling = check(dtd_text, r#"<db><person id="p1" boss="ghost">A</person></db>"#);
        assert!(dangling
            .errors
            .iter()
            .any(|e| matches!(e.kind, ValidationErrorKind::UnresolvedIdref(ref t) if t == "ghost")));
    }

    #[test]
    fn idrefs_resolve_each_token() {
        let dtd_text = r#"
            <!ELEMENT db (p*)>
            <!ELEMENT p EMPTY>
            <!ATTLIST p id ID #IMPLIED friends IDREFS #IMPLIED>"#;
        let report = check(
            dtd_text,
            r#"<db><p id="a"/><p id="b"/><p friends="a b"/></db>"#,
        );
        assert!(report.is_valid(), "{:?}", report.errors);
        assert_eq!(report.idrefs.len(), 2);
    }

    #[test]
    fn enumerated_attribute_values_checked() {
        let dtd_text = r#"<!ELEMENT e EMPTY><!ATTLIST e kind (x|y) "x">"#;
        assert!(check(dtd_text, r#"<e kind="y"/>"#).is_valid());
        assert!(!check(dtd_text, r#"<e kind="z"/>"#).is_valid());
    }

    #[test]
    fn fixed_attribute_mismatch_detected() {
        let dtd_text = r#"<!ELEMENT e EMPTY><!ATTLIST e v CDATA #FIXED "1">"#;
        assert!(check(dtd_text, r#"<e v="1"/>"#).is_valid());
        assert!(!check(dtd_text, r#"<e v="2"/>"#).is_valid());
        // Absent fixed attribute is fine — the default applies.
        assert!(check(dtd_text, "<e/>").is_valid());
    }

    #[test]
    fn nmtoken_lexical_check() {
        let dtd_text = r#"<!ELEMENT e EMPTY><!ATTLIST e n NMTOKEN #IMPLIED>"#;
        assert!(check(dtd_text, r#"<e n="a-1"/>"#).is_valid());
        assert!(!check(dtd_text, r#"<e n="has space"/>"#).is_valid());
    }

    #[test]
    fn error_messages_are_informative() {
        let report = check(UNIVERSITY, "<University><Bogus/></University>");
        let all: String = report.errors.iter().map(|e| e.to_string()).collect();
        assert!(all.contains("Bogus"), "{all}");
        assert!(all.contains("University"), "{all}");
    }

    /// Every kind of error at once, at several depths: the kinds, their
    /// order and their lazily rendered `path`s, recorded from the validator
    /// that rendered a path per element.
    #[test]
    fn errors_keep_their_kinds_paths_and_order() {
        let dtd_text = UNIVERSITY.to_string()
            + r#"<!ATTLIST Student kind (full|part) "full" ref IDREF #IMPLIED
                   id ID #IMPLIED v CDATA #FIXED "1">"#;
        let report = check(
            &dtd_text,
            r#"<!DOCTYPE Uni><University>stray<StudyCourse>CS<b/></StudyCourse>
<Student kind="odd" id="s1" v="2" rogue="x"><FName>M</FName><LName>C</LName>
  <Course><Name>DB</Name><Professor><PName>K</PName><Dept>CS</Dept><Bogus><Deeper a="1"/></Bogus></Professor></Course>
</Student>
<Student StudNr="2" id="s1" ref="nowhere" xmlns:x="urn:x"><LName>a</LName><FName>b</FName></Student>
</University>"#,
        );
        let got: Vec<String> =
            report.errors.iter().map(|e| format!("{:?}", (e.path.as_str(), &e.kind))).collect();
        let expected = [
            r#"("University", RootMismatch { declared: "Uni", actual: "University" })"#,
            r#"("University", TextNotAllowed { element: "University" })"#,
            r#"("University/StudyCourse", ContentModelViolation { element: "StudyCourse", model: "(#PCDATA)", found: ["b"] })"#,
            r#"("University/StudyCourse/b", UndeclaredElement("b"))"#,
            r#"("University/Student", ContentModelViolation { element: "Student", model: "(LName,FName,Course*)", found: ["FName", "LName", "Course"] })"#,
            r#"("University/Student", RequiredAttributeMissing { element: "Student", attribute: "StudNr" })"#,
            r#"("University/Student", InvalidAttributeValue { element: "Student", attribute: "kind", value: "odd", expected: "one of (full|part)" })"#,
            r#"("University/Student", FixedAttributeMismatch { element: "Student", attribute: "v", expected: "1", found: "2" })"#,
            r#"("University/Student", UndeclaredAttribute { element: "Student", attribute: "rogue" })"#,
            r#"("University/Student/Course/Professor", ContentModelViolation { element: "Professor", model: "(PName,Subject+,Dept)", found: ["PName", "Dept", "Bogus"] })"#,
            r#"("University/Student/Course/Professor/Bogus", UndeclaredElement("Bogus"))"#,
            r#"("University/Student/Course/Professor/Bogus/Deeper", UndeclaredElement("Deeper"))"#,
            r#"("University/Student/Course/Professor/Bogus/Deeper", UndeclaredAttribute { element: "Deeper", attribute: "a" })"#,
            r#"("University/Student", DuplicateId("s1"))"#,
            r#"("", UnresolvedIdref("nowhere"))"#,
        ];
        assert_eq!(got, expected, "{got:#?}");
        assert_eq!(report.ids.len(), 1);
        assert_eq!(report.idrefs.len(), 1);
    }
}
