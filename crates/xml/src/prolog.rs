//! Document prolog information: the XML declaration and the DOCTYPE
//! declaration.
//!
//! The paper's meta-table (§5) stores exactly this prolog information —
//! `XMLVersion`, `CharacterSet`, `Standalone`, plus the document's schema
//! (DTD) identifier — so these types carry everything the metadata module
//! needs to persist and restore it.

use crate::escape::infallible;
use crate::serializer::write_declaration;

/// The `<?xml version=... encoding=... standalone=...?>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlDeclaration {
    pub version: String,
    pub encoding: Option<String>,
    pub standalone: Option<bool>,
}

impl Default for XmlDeclaration {
    fn default() -> Self {
        XmlDeclaration { version: "1.0".to_string(), encoding: None, standalone: None }
    }
}

impl XmlDeclaration {
    /// Render back to `<?xml ...?>` form.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        infallible(write_declaration(self, &mut out));
        out
    }
}

/// External identifier of a DOCTYPE: SYSTEM or PUBLIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExternalId {
    System { system: String },
    Public { public: String, system: String },
}

/// The `<!DOCTYPE name ...>` declaration.
///
/// The internal subset is captured *verbatim* (`internal_subset`); the
/// `xmlord-dtd` crate parses it into the DTD DOM tree of Fig. 1. The XML
/// parser itself only scans it for `<!ENTITY ...>` declarations so general
/// entities can be expanded during document parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoctypeDecl {
    /// Document type name — must match the root element for validity.
    pub name: String,
    pub external_id: Option<ExternalId>,
    /// Raw text between `[` and `]`, if an internal subset was present.
    pub internal_subset: Option<String>,
}

impl DoctypeDecl {
    /// Render back to `<!DOCTYPE ...>` form.
    pub fn to_xml(&self) -> String {
        let mut out = format!("<!DOCTYPE {}", self.name);
        match &self.external_id {
            Some(ExternalId::System { system }) => out.push_str(&format!(" SYSTEM \"{system}\"")),
            Some(ExternalId::Public { public, system }) => {
                out.push_str(&format!(" PUBLIC \"{public}\" \"{system}\""))
            }
            None => {}
        }
        if let Some(subset) = &self.internal_subset {
            out.push_str(" [");
            out.push_str(subset);
            out.push(']');
        }
        out.push('>');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_declaration_is_version_one() {
        let d = XmlDeclaration::default();
        assert_eq!(d.to_xml(), "<?xml version=\"1.0\"?>");
    }

    #[test]
    fn declaration_renders_all_fields() {
        let d = XmlDeclaration {
            version: "1.0".into(),
            encoding: Some("UTF-8".into()),
            standalone: Some(true),
        };
        assert_eq!(d.to_xml(), "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>");
    }

    #[test]
    fn doctype_renders_system_id_and_subset() {
        let d = DoctypeDecl {
            name: "University".into(),
            external_id: Some(ExternalId::System { system: "uni.dtd".into() }),
            internal_subset: Some("<!ENTITY cs \"Computer Science\">".into()),
        };
        assert_eq!(
            d.to_xml(),
            "<!DOCTYPE University SYSTEM \"uni.dtd\" [<!ENTITY cs \"Computer Science\">]>"
        );
    }

    #[test]
    fn doctype_renders_public_id() {
        let d = DoctypeDecl {
            name: "x".into(),
            external_id: Some(ExternalId::Public {
                public: "-//X//EN".into(),
                system: "x.dtd".into(),
            }),
            internal_subset: None,
        };
        assert_eq!(d.to_xml(), "<!DOCTYPE x PUBLIC \"-//X//EN\" \"x.dtd\">");
    }
}
