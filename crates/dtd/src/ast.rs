//! Declaration-level DTD model.
//!
//! This is the vocabulary of the paper's mapping algorithm: content
//! particles carry the `?`/`*`/`+` operators that §4.2 ("Iteration
//! Operators") and §4.3 ("Not-Null Constraints") branch on, and attribute
//! definitions carry the types and default declarations §4.4 maps.

use std::collections::BTreeMap;
use std::fmt;

use xmlord_xml::EntityCatalog;

/// Occurrence indicator on a content particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Occurrence {
    /// Exactly one (no operator).
    One,
    /// `?` — zero or one. Optional (paper §4.3: nullable column).
    Optional,
    /// `*` — zero or many. Set-valued and optional.
    ZeroOrMore,
    /// `+` — one or many. Set-valued and mandatory.
    OneOrMore,
}

impl Occurrence {
    /// "Set-valued" in the paper's terminology (§4.2): may occur repeatedly.
    pub fn is_set_valued(self) -> bool {
        matches!(self, Occurrence::ZeroOrMore | Occurrence::OneOrMore)
    }

    /// May be absent from a valid document (§4.3: maps to a nullable column).
    pub fn is_optional(self) -> bool {
        matches!(self, Occurrence::Optional | Occurrence::ZeroOrMore)
    }

    /// The DTD operator character, if any.
    pub fn symbol(self) -> &'static str {
        match self {
            Occurrence::One => "",
            Occurrence::Optional => "?",
            Occurrence::ZeroOrMore => "*",
            Occurrence::OneOrMore => "+",
        }
    }
}

/// A particle of an element content model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentParticle {
    /// A child element name with its occurrence operator.
    Name(String, Occurrence),
    /// `(a, b, c)` sequence group.
    Seq(Vec<ContentParticle>, Occurrence),
    /// `(a | b | c)` choice group.
    Choice(Vec<ContentParticle>, Occurrence),
}

impl ContentParticle {
    pub fn occurrence(&self) -> Occurrence {
        match self {
            ContentParticle::Name(_, occ)
            | ContentParticle::Seq(_, occ)
            | ContentParticle::Choice(_, occ) => *occ,
        }
    }
}

impl fmt::Display for ContentParticle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentParticle::Name(name, occ) => write!(f, "{name}{}", occ.symbol()),
            ContentParticle::Seq(children, occ) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "){}", occ.symbol())
            }
            ContentParticle::Choice(children, occ) => {
                write!(f, "(")?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "){}", occ.symbol())
            }
        }
    }
}

/// How often a child name may occur: per mention of it in a content model
/// ([`ContentSpec::mentions`]), or over all its mentions
/// ([`ContentSpec::child_cardinalities`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildCardinality {
    /// May occur more than once (§4.2).
    pub set_valued: bool,
    /// May be absent (§4.3).
    pub optional: bool,
}

impl ChildCardinality {
    /// The root's: exactly once.
    pub const ROOT: ChildCardinality = ChildCardinality { set_valued: false, optional: false };

    /// §4.3: mandatory elements map to NOT NULL columns.
    pub fn is_mandatory(self) -> bool {
        !self.optional
    }
}

impl fmt::Display for ChildCardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.set_valued, self.optional) {
            (false, false) => write!(f, "1"),
            (false, true) => write!(f, "?"),
            (true, false) => write!(f, "+"),
            (true, true) => write!(f, "*"),
        }
    }
}

/// Walk a particle, reporting each name with the cardinality its own
/// operator and its enclosing groups give it; members of a choice are
/// individually optional.
fn collect_mentions<'a>(
    cp: &'a ContentParticle,
    outer: ChildCardinality,
    out: &mut Vec<(&'a str, ChildCardinality)>,
) {
    let occ = cp.occurrence();
    let here = ChildCardinality {
        set_valued: outer.set_valued || occ.is_set_valued(),
        optional: outer.optional || occ.is_optional(),
    };
    match cp {
        ContentParticle::Name(name, _) => out.push((name, here)),
        ContentParticle::Seq(children, _) => {
            for child in children {
                collect_mentions(child, here, out);
            }
        }
        ContentParticle::Choice(children, _) => {
            let member = ChildCardinality { optional: true, ..here };
            for child in children {
                collect_mentions(child, member, out);
            }
        }
    }
}

/// Content specification of an `<!ELEMENT>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentSpec {
    /// `EMPTY`.
    Empty,
    /// `ANY`.
    Any,
    /// `(#PCDATA)` — a *simple element* in the paper's §4.1 terminology.
    PcData,
    /// `(#PCDATA | a | b)*` — mixed content; names may be empty.
    Mixed(Vec<String>),
    /// Element content — a *complex element* (§4.1).
    Children(ContentParticle),
}

impl ContentSpec {
    /// Paper §4.1: a *simple element* contains character data only.
    pub fn is_simple(&self) -> bool {
        matches!(self, ContentSpec::PcData)
    }

    /// Paper §4.1: a *complex element* decomposes into subelements.
    pub fn is_complex(&self) -> bool {
        matches!(self, ContentSpec::Children(_)) || self.is_mixed_with_elements()
    }

    pub fn is_mixed_with_elements(&self) -> bool {
        matches!(self, ContentSpec::Mixed(names) if !names.is_empty())
    }

    /// Every mention of a child name, left to right, with the cardinality
    /// the model gives that mention: set-valued under `*`/`+` on the name
    /// or an enclosing group, optional under `?`/`*` or inside a choice.
    /// The names of mixed content are set-valued and optional.
    pub fn mentions(&self) -> Vec<(&str, ChildCardinality)> {
        let mut out = Vec::new();
        match self {
            ContentSpec::Children(cp) => collect_mentions(cp, ChildCardinality::ROOT, &mut out),
            ContentSpec::Mixed(names) => out.extend(names.iter().map(|name| {
                (name.as_str(), ChildCardinality { set_valued: true, optional: true })
            })),
            _ => {}
        }
        out
    }

    /// [`Self::mentions`] merged per name, in first-mention order: a name
    /// mentioned twice can occur more than once, and is optional only if
    /// every mention is.
    pub fn child_cardinalities(&self) -> Vec<(String, ChildCardinality)> {
        let mut merged: Vec<(String, ChildCardinality)> = Vec::new();
        for (name, card) in self.mentions() {
            match merged.iter_mut().find(|(n, _)| n == name) {
                Some((_, existing)) => {
                    existing.set_valued = true;
                    existing.optional = existing.optional && card.optional;
                }
                None => merged.push((name.to_string(), card)),
            }
        }
        merged
    }

    /// Distinct child element names, in first-appearance order.
    pub fn child_names(&self) -> Vec<String> {
        self.child_cardinalities().into_iter().map(|(name, _)| name).collect()
    }
}

impl fmt::Display for ContentSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentSpec::Empty => write!(f, "EMPTY"),
            ContentSpec::Any => write!(f, "ANY"),
            ContentSpec::PcData => write!(f, "(#PCDATA)"),
            ContentSpec::Mixed(names) if names.is_empty() => write!(f, "(#PCDATA)*"),
            ContentSpec::Mixed(names) => {
                write!(f, "(#PCDATA|{})*", names.join("|"))
            }
            ContentSpec::Children(cp) => write!(f, "{cp}"),
        }
    }
}

/// `<!ELEMENT name contentspec>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    pub name: String,
    pub content: ContentSpec,
}

/// Declared type of an attribute (§4.4: "Possible types of attributes are:
/// ID, IDREF, CDATA, and NMTOKEN" — we implement the full XML 1.0 set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttType {
    Cdata,
    Id,
    Idref,
    Idrefs,
    Entity,
    Entities,
    Nmtoken,
    Nmtokens,
    Notation(Vec<String>),
    /// `(a | b | c)` enumeration.
    Enumerated(Vec<String>),
}

impl AttType {
    pub fn keyword(&self) -> String {
        match self {
            AttType::Cdata => "CDATA".into(),
            AttType::Id => "ID".into(),
            AttType::Idref => "IDREF".into(),
            AttType::Idrefs => "IDREFS".into(),
            AttType::Entity => "ENTITY".into(),
            AttType::Entities => "ENTITIES".into(),
            AttType::Nmtoken => "NMTOKEN".into(),
            AttType::Nmtokens => "NMTOKENS".into(),
            AttType::Notation(names) => format!("NOTATION ({})", names.join("|")),
            AttType::Enumerated(names) => format!("({})", names.join("|")),
        }
    }
}

/// Default declaration of an attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefaultDecl {
    /// `#REQUIRED` — §4.4: maps to a NOT NULL column.
    Required,
    /// `#IMPLIED` — §4.3: maps to a nullable column.
    Implied,
    /// `#FIXED "value"`.
    Fixed(String),
    /// `"value"` default.
    Default(String),
}

impl DefaultDecl {
    pub fn is_required(&self) -> bool {
        matches!(self, DefaultDecl::Required)
    }

    /// The value the validator injects when the attribute is absent.
    pub fn default_value(&self) -> Option<&str> {
        match self {
            DefaultDecl::Fixed(v) | DefaultDecl::Default(v) => Some(v),
            _ => None,
        }
    }
}

/// One attribute definition inside an `<!ATTLIST>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttDef {
    pub name: String,
    pub att_type: AttType,
    pub default: DefaultDecl,
}

/// `<!ATTLIST element att-def...>` — possibly merged from several
/// declarations for the same element (first definition of a name wins,
/// per XML 1.0 §3.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttlistDecl {
    pub element: String,
    pub attributes: Vec<AttDef>,
}

/// `<!ENTITY ...>` declaration kinds retained in the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntityDecl {
    /// `<!ENTITY name "replacement">` — the kind §6.1 stores in the meta-DB.
    InternalGeneral { name: String, replacement: String },
    /// `<!ENTITY % name "replacement">` — expanded during DTD parsing.
    InternalParameter { name: String, replacement: String },
    /// `<!ENTITY name SYSTEM "uri">` — recorded; content unavailable.
    ExternalGeneral { name: String, system: String, public: Option<String> },
}

impl EntityDecl {
    pub fn name(&self) -> &str {
        match self {
            EntityDecl::InternalGeneral { name, .. }
            | EntityDecl::InternalParameter { name, .. }
            | EntityDecl::ExternalGeneral { name, .. } => name,
        }
    }
}

/// A parsed DTD: the input to the paper's schema-generation algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dtd {
    /// Element declarations keyed by name (BTreeMap ⇒ deterministic output).
    pub elements: BTreeMap<String, ElementDecl>,
    /// Merged attribute lists keyed by element name.
    pub attlists: BTreeMap<String, AttlistDecl>,
    /// Entity declarations in document order.
    pub entities: Vec<EntityDecl>,
    /// Declaration order of the elements (first declaration).
    pub element_order: Vec<String>,
}

impl Dtd {
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.get(name)
    }

    pub fn attlist(&self, element: &str) -> Option<&AttlistDecl> {
        self.attlists.get(element)
    }

    /// Attribute definitions for an element, or an empty slice.
    pub fn attributes_of(&self, element: &str) -> &[AttDef] {
        self.attlists.get(element).map(|a| a.attributes.as_slice()).unwrap_or(&[])
    }

    /// Build an [`EntityCatalog`] of the internal general entities, for the
    /// XML parser and for the §6.1 meta-table.
    pub fn entity_catalog(&self) -> EntityCatalog {
        let mut cat = EntityCatalog::new();
        for ent in &self.entities {
            if let EntityDecl::InternalGeneral { name, replacement } = ent {
                cat.declare(name, replacement);
            }
        }
        cat
    }

    /// Names of elements that are declared as children somewhere but never
    /// declared themselves — schema-generation treats these as errors.
    pub fn undeclared_children(&self) -> Vec<String> {
        let mut out = Vec::new();
        for decl in self.elements.values() {
            for child in decl.content.child_names() {
                if !self.elements.contains_key(&child) && !out.contains(&child) {
                    out.push(child);
                }
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrence_classification_matches_paper_terms() {
        assert!(!Occurrence::One.is_set_valued() && !Occurrence::One.is_optional());
        assert!(!Occurrence::Optional.is_set_valued() && Occurrence::Optional.is_optional());
        assert!(Occurrence::ZeroOrMore.is_set_valued() && Occurrence::ZeroOrMore.is_optional());
        assert!(Occurrence::OneOrMore.is_set_valued() && !Occurrence::OneOrMore.is_optional());
    }

    #[test]
    fn particle_display_round_trips_syntax() {
        let cp = ContentParticle::Seq(
            vec![
                ContentParticle::Name("a".into(), Occurrence::One),
                ContentParticle::Choice(
                    vec![
                        ContentParticle::Name("b".into(), Occurrence::Optional),
                        ContentParticle::Name("c".into(), Occurrence::ZeroOrMore),
                    ],
                    Occurrence::OneOrMore,
                ),
            ],
            Occurrence::One,
        );
        assert_eq!(cp.to_string(), "(a,(b?|c*)+)");
    }

    #[test]
    fn child_names_deduplicate_in_order() {
        let cp = ContentParticle::Seq(
            vec![
                ContentParticle::Name("x".into(), Occurrence::One),
                ContentParticle::Name("y".into(), Occurrence::One),
                ContentParticle::Name("x".into(), Occurrence::ZeroOrMore),
            ],
            Occurrence::One,
        );
        let spec = ContentSpec::Children(cp);
        assert_eq!(spec.child_names(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn mentions_keep_each_occurrence_and_merging_folds_them() {
        let card = |set_valued, optional| ChildCardinality { set_valued, optional };
        let n = |name: &str, occ| ContentParticle::Name(name.into(), occ);
        // (a, (b | c*)+, a?)
        let spec = ContentSpec::Children(ContentParticle::Seq(
            vec![
                n("a", Occurrence::One),
                ContentParticle::Choice(
                    vec![n("b", Occurrence::One), n("c", Occurrence::ZeroOrMore)],
                    Occurrence::OneOrMore,
                ),
                n("a", Occurrence::Optional),
            ],
            Occurrence::One,
        ));
        let each = [
            ("a", card(false, false)),
            ("b", card(true, true)),
            ("c", card(true, true)),
            ("a", card(false, true)),
        ];
        assert_eq!(spec.mentions(), each);
        let merged = spec.child_cardinalities();
        let expected = [("a", card(true, false)), ("b", card(true, true)), ("c", card(true, true))];
        assert_eq!(merged, expected.map(|(name, c)| (name.to_string(), c)));
        let mixed = ContentSpec::Mixed(vec!["m".into()]);
        assert_eq!(mixed.mentions(), [("m", card(true, true))]);
        assert!(ContentSpec::PcData.mentions().is_empty());
    }

    #[test]
    fn simple_vs_complex_classification() {
        assert!(ContentSpec::PcData.is_simple());
        assert!(!ContentSpec::PcData.is_complex());
        let complex = ContentSpec::Children(ContentParticle::Name("a".into(), Occurrence::One));
        assert!(complex.is_complex() && !complex.is_simple());
        assert!(ContentSpec::Mixed(vec!["a".into()]).is_complex());
        assert!(!ContentSpec::Mixed(vec![]).is_complex());
        assert!(!ContentSpec::Empty.is_complex());
    }

    #[test]
    fn entity_catalog_only_contains_internal_general() {
        let mut dtd = Dtd::default();
        dtd.entities.push(EntityDecl::InternalGeneral {
            name: "cs".into(),
            replacement: "Computer Science".into(),
        });
        dtd.entities.push(EntityDecl::InternalParameter {
            name: "p".into(),
            replacement: "x".into(),
        });
        dtd.entities.push(EntityDecl::ExternalGeneral {
            name: "logo".into(),
            system: "logo.gif".into(),
            public: None,
        });
        let cat = dtd.entity_catalog();
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.lookup("cs"), Some("Computer Science"));
    }

    #[test]
    fn undeclared_children_found() {
        let mut dtd = Dtd::default();
        dtd.elements.insert(
            "a".into(),
            ElementDecl {
                name: "a".into(),
                content: ContentSpec::Children(ContentParticle::Name(
                    "missing".into(),
                    Occurrence::One,
                )),
            },
        );
        assert_eq!(dtd.undeclared_children(), vec!["missing".to_string()]);
    }

    #[test]
    fn default_decl_values() {
        assert!(DefaultDecl::Required.is_required());
        assert_eq!(DefaultDecl::Fixed("x".into()).default_value(), Some("x"));
        assert_eq!(DefaultDecl::Implied.default_value(), None);
    }

    #[test]
    fn atttype_keywords() {
        assert_eq!(AttType::Cdata.keyword(), "CDATA");
        assert_eq!(AttType::Enumerated(vec!["a".into(), "b".into()]).keyword(), "(a|b)");
        assert_eq!(AttType::Notation(vec!["n".into()]).keyword(), "NOTATION (n)");
    }
}
