//! maplint level 1: DTD lints, reported per storage strategy.
//!
//! The six strategies the workspace benchmarks (§4/§6 object-relational
//! mapping for Oracle 9 and Oracle 8, the §6.3 relational schema, and the
//! edge / attribute-table / hybrid-inlining baselines of §1's related work)
//! do not handle every DTD construct equally well: some constructs make a
//! strategy *fail outright* (undeclared elements abort schema generation),
//! others it handles *lossily* (mixed content interleaving, attribute
//! defaults) or with *data-dependent capacity limits* (VARRAY bounds).
//!
//! [`lint_dtd`] turns each such construct into a span-carrying
//! [`Diagnostic`] against the DTD source text and buckets it per strategy,
//! so `or9/or8/rel/edge/attr/inline` each get their own verdict. The
//! severity model follows the workspace-wide differential guarantee:
//! **Error** only where the strategy's pipeline is guaranteed to fail
//! (schema generation rejects the DTD), **Warning** for lossy or
//! data-dependent constructs.

use std::collections::BTreeMap;

use xmlord_diag::{Diagnostic, Severity, Span};
use xmlord_xml::error::XmlError;

use crate::ast::{AttType, ContentSpec, DefaultDecl, Dtd, EntityDecl};
use crate::graph::ElementGraph;
use crate::validator::{ValidationErrorKind, ValidationReport};

/// The six storage strategies maplint issues verdicts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MappingStrategy {
    /// §4 object-relational mapping, Oracle 9 rules (nested collections).
    Or9,
    /// §6.2 variant for Oracle 8 (nested collections broken into tables).
    Or8,
    /// §6.3 flat relational schema (+ object views).
    Relational,
    /// Edge-table shredding (Florescu & Kossmann).
    Edge,
    /// Attribute-table shredding (one table per element name).
    AttributeTables,
    /// Hybrid inlining (Shanmugasundaram et al.).
    Inline,
}

impl MappingStrategy {
    pub const ALL: [MappingStrategy; 6] = [
        MappingStrategy::Or9,
        MappingStrategy::Or8,
        MappingStrategy::Relational,
        MappingStrategy::Edge,
        MappingStrategy::AttributeTables,
        MappingStrategy::Inline,
    ];

    /// Short label used in reports: `or9`, `or8`, `rel`, `edge`, `attr`,
    /// `inline`.
    pub fn label(self) -> &'static str {
        match self {
            MappingStrategy::Or9 => "or9",
            MappingStrategy::Or8 => "or8",
            MappingStrategy::Relational => "rel",
            MappingStrategy::Edge => "edge",
            MappingStrategy::AttributeTables => "attr",
            MappingStrategy::Inline => "inline",
        }
    }

    /// Strategies whose schema comes out of `xml2ordb::generate_schema` —
    /// a hard failure there (undeclared root or child) is an **Error** for
    /// exactly these.
    pub fn uses_generated_schema(self) -> bool {
        matches!(
            self,
            MappingStrategy::Or9 | MappingStrategy::Or8 | MappingStrategy::Relational
        )
    }

    /// One line on what the strategy is and where it comes from.
    pub fn describe(self) -> &'static str {
        match self {
            MappingStrategy::Or9 => "object-relational (Oracle 9, nested collections)",
            MappingStrategy::Or8 => "object-relational (Oracle 8, REF workaround)",
            MappingStrategy::Relational => "key-based relational shredding [2]",
            MappingStrategy::Edge => "edge table [5]",
            MappingStrategy::AttributeTables => "attribute tables [5]",
            MappingStrategy::Inline => "hybrid inlining [9]",
        }
    }

    /// Strategies that store set-valued children in bounded VARRAYs.
    pub fn uses_varrays(self) -> bool {
        matches!(self, MappingStrategy::Or9 | MappingStrategy::Or8)
    }
}

/// Span side-table over the parameter-entity-expanded DTD text.
///
/// The DTD parser consumes the *expanded* text, so spans refer to it too;
/// [`DtdSource::text`] is exactly what the diagnostics render against.
/// When the DTD uses no parameter entities the expanded text equals the
/// input. Offsets are **character** indices (the shared diagnostic
/// vocabulary of `xmlord-diag`), converted from the byte-tracking XML
/// cursor at scan time.
#[derive(Debug, Clone, Default)]
pub struct DtdSource {
    text: String,
    elements: BTreeMap<String, Span>,
    attlists: BTreeMap<String, Span>,
    notations: Vec<(String, Span)>,
    entities: Vec<(String, Span)>,
}

impl DtdSource {
    /// Expand parameter entities and scan declaration-name spans.
    pub fn from_input(input: &str) -> Result<DtdSource, XmlError> {
        let text = crate::parser::expand_parameter_entities(input)?;
        Ok(scan(text))
    }

    /// The expanded DTD text the spans index into.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Span of the name token in `<!ELEMENT name …>`; `Span::at(0)` when
    /// the element was never declared (the usual anchor for "missing
    /// declaration" findings).
    pub fn element_span(&self, name: &str) -> Span {
        self.elements.get(name).copied().unwrap_or_else(|| Span::at(0))
    }

    /// Span of the name token in `<!ATTLIST name …>`, falling back to the
    /// element declaration.
    pub fn attlist_span(&self, element: &str) -> Span {
        self.attlists.get(element).copied().unwrap_or_else(|| self.element_span(element))
    }

    /// `<!NOTATION name …>` declarations (the parser drops them from the
    /// model entirely — this side table is the only record).
    pub fn notations(&self) -> &[(String, Span)] {
        &self.notations
    }

    /// `<!ENTITY name …>` declarations (general and parameter) with spans.
    pub fn entities(&self) -> &[(String, Span)] {
        &self.entities
    }
}

/// Parse a DTD and record declaration spans for diagnostics.
pub fn parse_dtd_spanned(input: &str) -> Result<(Dtd, DtdSource), XmlError> {
    let src = DtdSource::from_input(input)?;
    let dtd = crate::parser::parse_dtd(input)?;
    Ok((dtd, src))
}

/// Scan the expanded text for declaration-name spans. Mirrors the parser's
/// treatment of comments; quoted strings inside declarations are skipped
/// so a `>` in an attribute default cannot truncate the scan.
fn scan(text: String) -> DtdSource {
    let chars: Vec<char> = text.chars().collect();
    let mut src = DtdSource { text, ..DtdSource::default() };
    let at = |i: usize, pat: &str| -> bool {
        pat.chars().enumerate().all(|(k, c)| chars.get(i + k) == Some(&c))
    };
    let mut i = 0usize;
    while i < chars.len() {
        if at(i, "<!--") {
            i += 4;
            while i < chars.len() && !at(i, "-->") {
                i += 1;
            }
            i = (i + 3).min(chars.len());
            continue;
        }
        let keyword = ["<!ELEMENT", "<!ATTLIST", "<!NOTATION", "<!ENTITY"]
            .iter()
            .find(|k| at(i, k))
            .copied();
        let Some(keyword) = keyword else {
            i += 1;
            continue;
        };
        i += keyword.chars().count();
        while chars.get(i).is_some_and(|c| c.is_whitespace()) {
            i += 1;
        }
        // `<!ENTITY % name …>` — parameter entity: skip the marker.
        if keyword == "<!ENTITY" && chars.get(i) == Some(&'%') {
            i += 1;
            while chars.get(i).is_some_and(|c| c.is_whitespace()) {
                i += 1;
            }
        }
        let start = i;
        while chars.get(i).is_some_and(|c| !c.is_whitespace() && *c != '>' && *c != '(') {
            i += 1;
        }
        let name: String = chars[start..i].iter().collect();
        let span = Span::new(start, i);
        if !name.is_empty() {
            match keyword {
                "<!ELEMENT" => {
                    src.elements.entry(name).or_insert(span);
                }
                "<!ATTLIST" => {
                    src.attlists.entry(name).or_insert(span);
                }
                "<!NOTATION" => src.notations.push((name, span)),
                _ => src.entities.push((name, span)),
            }
        }
        // Skip the declaration body, honouring quotes.
        let mut quote: Option<char> = None;
        while let Some(&c) = chars.get(i) {
            i += 1;
            match quote {
                Some(q) if c == q => quote = None,
                Some(_) => {}
                None if c == '"' || c == '\'' => quote = Some(c),
                None if c == '>' => break,
                None => {}
            }
        }
    }
    src
}

/// One strategy's verdict: its diagnostics over the DTD.
#[derive(Debug, Clone)]
pub struct StrategyVerdict {
    pub strategy: MappingStrategy,
    pub diagnostics: Vec<Diagnostic>,
}

impl StrategyVerdict {
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }
}

/// Lint `dtd` (rooted at `root`) against all six strategies.
///
/// Lint catalog (IDs are stable; see DESIGN.md §5i):
///
/// | code | construct | severity |
/// |------|-----------|----------|
/// | `DTD001 root-not-declared` | root has no `<!ELEMENT>` | Error for or9/or8/rel, Warning for inline, none for edge/attr |
/// | `DTD002 undeclared-child` | reachable child never declared | Error for or9/or8/rel, Warning for inline/attr, none for edge |
/// | `DTD003 recursive-cycle` | back edge forces REF-breaking (§6.2) | Warning for or9/or8/rel/inline |
/// | `DTD004 mixed-content` | `(#PCDATA\|…)*` interleaving lost | Warning for all but edge |
/// | `DTD005 any-content` | `ANY` defeats static schemas | Warning for all but edge |
/// | `DTD006 unbounded-repetition` | `*`/`+` vs. `VARRAY(max)` capacity | Warning for or9/or8 |
/// | `DTD007 attribute-default` | defaults/#FIXED materialized only via validation | Warning for all |
/// | `DTD008 notation` | `<!NOTATION>`/NOTATION-typed attrs dropped | Warning for all |
/// | `DTD009 external-entity` | external entity content unavailable | Warning for all |
/// | `DTD010 attr-name-case-fold` | two element (or two attribute) names equal after case-folding | Error for attr |
pub fn lint_dtd(dtd: &Dtd, src: &DtdSource, root: &str) -> Vec<StrategyVerdict> {
    let graph = ElementGraph::build(dtd);
    let reachable = graph.reachable_from(root);
    let mut verdicts: Vec<StrategyVerdict> = MappingStrategy::ALL
        .iter()
        .map(|&strategy| StrategyVerdict { strategy, diagnostics: Vec::new() })
        .collect();

    let mut push = |strategy: MappingStrategy, severity: Severity, code: &'static str, message: String, span: Span| {
        let v = verdicts.iter_mut().find(|v| v.strategy == strategy).unwrap();
        v.diagnostics.push(Diagnostic { severity, code, message, span });
    };

    // DTD001: undeclared root aborts generate_schema (RootNotDeclared).
    if dtd.element(root).is_none() {
        for s in MappingStrategy::ALL {
            if s.uses_generated_schema() {
                push(s, Severity::Error, "DTD001", format!("root element <{root}> has no <!ELEMENT> declaration: schema generation fails with RootNotDeclared"), Span::at(0));
            } else if s == MappingStrategy::Inline {
                push(s, Severity::Warning, "DTD001", format!("root element <{root}> has no <!ELEMENT> declaration: the inlined schema has no columns for it"), Span::at(0));
            }
        }
    }

    // DTD002: a reachable child without a declaration aborts generate_schema
    // (UndeclaredElement); the inline baseline silently skips its subtree.
    for element in &reachable {
        if dtd.element(element).is_some() || element == root {
            continue;
        }
        // Anchor at the declaration of a parent that references it.
        let parent = graph.parents_of(element).first().cloned().unwrap_or_default();
        let span = src.element_span(&parent);
        for s in MappingStrategy::ALL {
            if s.uses_generated_schema() {
                push(s, Severity::Error, "DTD002", format!("element <{element}> is used as a child but never declared: schema generation fails with UndeclaredElement"), span);
            } else if s == MappingStrategy::Inline {
                push(s, Severity::Warning, "DTD002", format!("element <{element}> is used as a child but never declared: hybrid inlining silently drops its subtree"), span);
            } else if s == MappingStrategy::AttributeTables {
                // The element itself gets a table (it is referenced), but
                // its content model is unknown, so no tables are derived
                // below it — loading fails only if a document actually
                // nests children there, hence data-dependent: Warning.
                push(s, Severity::Warning, "DTD002", format!("element <{element}> is used as a child but never declared: no attribute tables exist below it, so documents nesting children under <{element}> fail to load"), span);
            }
        }
    }

    // DTD003: recursion cycles — §6.2 breaks each back edge with a REF.
    for (parent, child) in graph.back_edges_from(dtd.element(root).map(|_| root)) {
        if !reachable.contains(&parent) {
            continue;
        }
        let span = src.element_span(&parent);
        for s in MappingStrategy::ALL {
            let msg = match s {
                MappingStrategy::Or9 | MappingStrategy::Or8 => format!("recursive aggregation {parent} → {child} is broken with a REF collection (§6.2): the child rows live in the parent table and document order across the cycle relies on scoped REFs"),
                MappingStrategy::Relational => format!("recursive aggregation {parent} → {child} flattens into self-referencing rows in the relational schema"),
                MappingStrategy::Inline => format!("recursive element <{child}> gets its own relation with a ParentID foreign key; queries across the cycle need recursive joins"),
                _ => continue,
            };
            push(s, Severity::Warning, "DTD003", msg, span);
        }
    }

    for element in &reachable {
        let Some(decl) = dtd.element(element) else { continue };
        let span = src.element_span(element);

        // DTD004: mixed content — text/child interleaving is not preserved
        // by schema-directed storage (only the edge table keeps it).
        if decl.content.is_mixed_with_elements() {
            for s in MappingStrategy::ALL {
                if s == MappingStrategy::Edge {
                    continue;
                }
                push(s, Severity::Warning, "DTD004", format!("<{element}> has mixed content {}: text/child interleaving is not preserved by schema-directed storage", decl.content), span);
            }
        }

        // DTD005: ANY content defeats every static schema derivation.
        if decl.content == ContentSpec::Any {
            for s in MappingStrategy::ALL {
                if s == MappingStrategy::Edge {
                    continue;
                }
                push(s, Severity::Warning, "DTD005", format!("<{element}> declares ANY content: children are unknown statically, so the derived schema cannot reserve structure for them"), span);
            }
        }

        // DTD006: unbounded repetition vs. bounded VARRAY capacity.
        if matches!(decl.content, ContentSpec::Children(_)) {
            let mut unbounded: Vec<&str> = Vec::new();
            for (child, card) in decl.content.mentions() {
                if card.set_valued && !unbounded.contains(&child) {
                    unbounded.push(child);
                }
            }
            for child in unbounded {
                for s in MappingStrategy::ALL {
                    if !s.uses_varrays() {
                        continue;
                    }
                    push(s, Severity::Warning, "DTD006", format!("<{element}> repeats <{child}> without bound: the mapped VARRAY has a fixed capacity (varray_max) and overflows on large documents"), span);
                }
            }
        }

        // DTD007 / DTD008 (attribute side): defaults and NOTATION/ENTITY
        // attribute types.
        for att in dtd.attributes_of(element) {
            let aspan = src.attlist_span(element);
            match &att.default {
                DefaultDecl::Fixed(v) | DefaultDecl::Default(v) => {
                    for s in MappingStrategy::ALL {
                        push(s, Severity::Warning, "DTD007", format!("attribute '{}' on <{element}> has a default '{v}': the stored value depends on whether the loader validates; shredded baselines drop unspecified defaults", att.name), aspan);
                    }
                }
                _ => {}
            }
            if matches!(att.att_type, AttType::Notation(_) | AttType::Entity | AttType::Entities) {
                for s in MappingStrategy::ALL {
                    push(s, Severity::Warning, "DTD008", format!("attribute '{}' on <{element}> has type {}: notation/entity semantics are not representable in the mapped schema", att.name, att.att_type.keyword()), aspan);
                }
            }
        }
    }

    // DTD010: the attribute-table mapping names a table per element and per
    // attribute name by a per-name rule, which cannot separate names equal
    // after case-folding; its DDL then fails with DuplicateName.
    let mut attributes: BTreeMap<&str, &str> = BTreeMap::new();
    for element in &reachable {
        for def in dtd.attributes_of(element) {
            attributes.entry(&def.name).or_insert(element);
        }
    }
    let elements = reachable.iter().map(|e| (e.as_str(), src.element_span(e), "element"));
    let attribute_names =
        attributes.iter().map(|(&a, &owner)| (a, src.attlist_span(owner), "attribute"));
    let mut folded: BTreeMap<(&str, String), &str> = BTreeMap::new();
    for (name, span, what) in elements.chain(attribute_names) {
        if !attr_table_keeps(what, name) {
            continue;
        }
        if let Some(other) = folded.insert((what, name.to_uppercase()), name) {
            push(MappingStrategy::AttributeTables, Severity::Error, "DTD010", format!("{what} names '{other}' and '{name}' are equal after case-folding: the attribute-table mapping derives one table name for both, and its DDL fails with DuplicateName"), span);
        }
    }

    // DTD008 (declaration side): the parser drops <!NOTATION> entirely.
    for (name, span) in src.notations() {
        for s in MappingStrategy::ALL {
            push(s, Severity::Warning, "DTD008", format!("<!NOTATION {name}> is not retained in the DTD model: round-tripped documents lose the notation"), *span);
        }
    }

    // DTD009: external entities — content unavailable to any strategy.
    for entity in &dtd.entities {
        if let EntityDecl::ExternalGeneral { name, system, .. } = entity {
            let span = src
                .entities()
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| *s)
                .unwrap_or_else(|| Span::at(0));
            for s in MappingStrategy::ALL {
                push(s, Severity::Warning, "DTD009", format!("external entity '{name}' (SYSTEM \"{system}\") cannot be resolved: references to it survive only as entity markers"), span);
            }
        }
    }

    verdicts
}

/// Whether the attribute-table mapping keeps an element or attribute name
/// as it is behind its table prefix (`Att`, `AttA_`) — alphanumerics and
/// `_` only, 30 bytes with the prefix, and an element not starting `A_` —
/// rather than appending a hash of it. This restates the guarantee of
/// `xmlord_shred::naming::stateless` (whose tests hold the two equal):
/// two names share a table exactly when both are kept and equal after
/// case-folding.
fn attr_table_keeps(what: &str, name: &str) -> bool {
    let prefix = if what == "element" { "Att" } else { "AttA_" };
    name.chars().all(|c| c.is_alphanumeric() || c == '_')
        && prefix.len() + name.len() <= 30
        && !(what == "element" && name.to_uppercase().starts_with("A_"))
}

impl ValidationReport {
    /// Convert validation errors into the shared diagnostic vocabulary,
    /// anchored at the DTD declaration the document violates (the report
    /// itself tracks document paths, not source offsets). All findings are
    /// Errors: an invalid document is rejected by the loading pipeline.
    pub fn to_diagnostics(&self, src: &DtdSource) -> Vec<Diagnostic> {
        self.errors
            .iter()
            .map(|e| {
                let (code, span): (&'static str, Span) = match &e.kind {
                    ValidationErrorKind::RootMismatch { declared, .. } => {
                        ("VAL001", src.element_span(declared))
                    }
                    ValidationErrorKind::UndeclaredElement(_) => ("VAL002", Span::at(0)),
                    ValidationErrorKind::ContentModelViolation { element, .. } => {
                        ("VAL003", src.element_span(element))
                    }
                    ValidationErrorKind::TextNotAllowed { element } => {
                        ("VAL004", src.element_span(element))
                    }
                    ValidationErrorKind::UndeclaredAttribute { element, .. } => {
                        ("VAL005", src.attlist_span(element))
                    }
                    ValidationErrorKind::RequiredAttributeMissing { element, .. } => {
                        ("VAL006", src.attlist_span(element))
                    }
                    ValidationErrorKind::FixedAttributeMismatch { element, .. } => {
                        ("VAL007", src.attlist_span(element))
                    }
                    ValidationErrorKind::InvalidAttributeValue { element, .. } => {
                        ("VAL008", src.attlist_span(element))
                    }
                    ValidationErrorKind::DuplicateId(_) => ("VAL009", Span::at(0)),
                    ValidationErrorKind::UnresolvedIdref(_) => ("VAL010", Span::at(0)),
                };
                Diagnostic { severity: Severity::Error, code, message: e.to_string(), span }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::validate;

    const UNIVERSITY: &str = r#"<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT LName (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
"#;

    fn verdict_for(verdicts: &[StrategyVerdict], s: MappingStrategy) -> &StrategyVerdict {
        verdicts.iter().find(|v| v.strategy == s).unwrap()
    }

    #[test]
    fn clean_dtd_has_no_errors_anywhere() {
        let (dtd, src) = parse_dtd_spanned(UNIVERSITY).unwrap();
        for v in lint_dtd(&dtd, &src, "University") {
            assert_eq!(v.error_count(), 0, "{}: {:?}", v.strategy.label(), v.diagnostics);
        }
    }

    #[test]
    fn unbounded_star_warns_only_varray_strategies() {
        let (dtd, src) = parse_dtd_spanned(UNIVERSITY).unwrap();
        let verdicts = lint_dtd(&dtd, &src, "University");
        for s in MappingStrategy::ALL {
            let has = verdict_for(&verdicts, s)
                .diagnostics
                .iter()
                .any(|d| d.code == "DTD006");
            assert_eq!(has, matches!(s, MappingStrategy::Or9 | MappingStrategy::Or8), "{}", s.label());
        }
    }

    #[test]
    fn undeclared_child_is_error_exactly_for_generated_schemas() {
        let text = "<!ELEMENT A (B,C)>\n<!ELEMENT B (#PCDATA)>\n";
        let (dtd, src) = parse_dtd_spanned(text).unwrap();
        let verdicts = lint_dtd(&dtd, &src, "A");
        for s in MappingStrategy::ALL {
            let v = verdict_for(&verdicts, s);
            let errors: Vec<_> =
                v.diagnostics.iter().filter(|d| d.code == "DTD002" && d.severity == Severity::Error).collect();
            assert_eq!(!errors.is_empty(), s.uses_generated_schema(), "{}", s.label());
        }
        // The Error anchors at the parent declaration that references <C>.
        let or9 = verdict_for(&verdicts, MappingStrategy::Or9);
        let err = or9.diagnostics.iter().find(|d| d.code == "DTD002").unwrap();
        let (line, col) = err.span.line_col(src.text());
        assert_eq!((line, col), (1, 11)); // the name token of <!ELEMENT A …>
    }

    #[test]
    fn case_fold_twins_are_an_error_for_attr_only() {
        let text = "<!ELEMENT r (A, a, a-b, a_b)>\n<!ELEMENT A (#PCDATA)>\n<!ELEMENT a (#PCDATA)>\n\
                    <!ELEMENT a-b (#PCDATA)>\n<!ELEMENT a_b (#PCDATA)>\n\
                    <!ATTLIST r k CDATA #IMPLIED K CDATA #IMPLIED>\n";
        let (dtd, src) = parse_dtd_spanned(text).unwrap();
        let verdicts = lint_dtd(&dtd, &src, "r");
        for verdict in &verdicts {
            let codes: Vec<&str> = verdict.diagnostics.iter().map(|d| d.code).collect();
            if verdict.strategy == MappingStrategy::AttributeTables {
                // <A>/<a> and @K/@k; `a-b` is hashed apart from `a_b`.
                assert_eq!(codes, ["DTD010", "DTD010"], "{:?}", verdict.diagnostics);
                assert_eq!(verdict.error_count(), 2);
            } else {
                assert!(!codes.contains(&"DTD010"), "{}", verdict.strategy.label());
            }
        }
    }

    #[test]
    fn recursion_mixed_any_notation_default_all_warn() {
        let text = r#"<!ELEMENT Professor (PName,Dept)>
<!ELEMENT Dept (DName,Professor*)>
<!ELEMENT PName (#PCDATA|Em)*>
<!ELEMENT Em ANY>
<!ELEMENT DName (#PCDATA)>
<!ATTLIST Dept Kind CDATA "research">
<!NOTATION gif SYSTEM "image/gif">
<!ENTITY logo SYSTEM "logo.gif">
"#;
        let (dtd, src) = parse_dtd_spanned(text).unwrap();
        let verdicts = lint_dtd(&dtd, &src, "Professor");
        let or9 = verdict_for(&verdicts, MappingStrategy::Or9);
        assert_eq!(or9.error_count(), 0, "{:?}", or9.diagnostics);
        for code in ["DTD003", "DTD004", "DTD005", "DTD007", "DTD008", "DTD009"] {
            assert!(or9.diagnostics.iter().any(|d| d.code == code), "missing {code}");
        }
        // The edge table preserves everything structural: only the
        // attribute-default, notation and entity caveats remain.
        let edge = verdict_for(&verdicts, MappingStrategy::Edge);
        assert!(edge.diagnostics.iter().all(|d| {
            matches!(d.code, "DTD007" | "DTD008" | "DTD009")
        }), "{:?}", edge.diagnostics);
    }

    #[test]
    fn spans_index_the_expanded_text() {
        let text = "<!ENTITY % names \"LName\">\n<!ELEMENT Student (%names;)>\n<!ELEMENT LName (#PCDATA)>\n";
        let (_, src) = parse_dtd_spanned(text).unwrap();
        let span = src.element_span("Student");
        let named: String = src.text().chars().skip(span.start).take(span.len()).collect();
        assert_eq!(named, "Student");
    }

    #[test]
    fn validation_report_converts_to_uniform_diagnostics() {
        let (dtd, src) = parse_dtd_spanned(UNIVERSITY).unwrap();
        let doc = xmlord_xml::parse("<University><Student><LName>X</LName></Student></University>")
            .unwrap();
        let report = validate(&doc, &dtd);
        assert!(!report.is_valid());
        let diags = report.to_diagnostics(&src);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        // Rendering works against the DTD source.
        let rendered = diags[0].render(src.text(), "university.dtd");
        assert!(rendered.contains("-->"), "{rendered}");
    }

    #[test]
    fn scanner_ignores_commented_out_declarations() {
        let text = "<!-- <!ELEMENT Ghost (#PCDATA)> -->\n<!ELEMENT Real (#PCDATA)>\n";
        let (_, src) = parse_dtd_spanned(text).unwrap();
        assert_eq!(src.element_span("Ghost"), Span::at(0));
        assert!(src.element_span("Real").start > 0);
    }
}
