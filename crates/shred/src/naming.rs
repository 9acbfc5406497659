//! Naming conventions for generated database objects — the paper's Table 1,
//! and the one place any mapping turns an XML name into an identifier.
//!
//! | Convention             | Object semantics                                      |
//! |------------------------|-------------------------------------------------------|
//! | `TabElementname`       | Name of a table                                       |
//! | `attrElementname`      | DB attribute derived from a simple XML element        |
//! | `attrAttributename`    | DB attribute derived from an XML attribute            |
//! | `attrListElementname`  | DB attribute that represents an XML attribute list    |
//! | `IDElementname`        | Primary/foreign key attribute                         |
//! | `Type_Elementname`     | Object type derived from an element name              |
//! | `TypeAttrL_Elementname`| Object type generated for an attribute list           |
//! | `TypeVA_Elementname`   | Name of an array                                      |
//! | `OView_Elementname`    | Name of an object view                                |
//! | `IdxElementname`       | Secondary index on a table (ours; Table 1 names none) |
//!
//! The relational baselines the paper compares against get prefixes of
//! their own, so their tables never meet the object-relational names:
//!
//! | Convention             | Object semantics                                      |
//! |------------------------|-------------------------------------------------------|
//! | `RelElementname`       | §6.3 relational table (`views`)                       |
//! | `InlElementname`       | Hybrid-inlining relation (`inline`)                   |
//! | `c_path`               | Inlined text column, `path` the elements below the relation |
//! | `a_path_attribute`     | Inlined attribute column                              |
//! | `AttElementname`       | Attribute-table mapping: one table per element name   |
//! | `AttA_Attributename`   | Attribute-table mapping: one table per attribute name |
//!
//! §5 adds three constraints this module enforces: generated names must not
//! collide with SQL keywords, must be unique (across documents, via the
//! SchemaID), and must respect Oracle's 30-character identifier limit.
//! [`NameGenerator`] meets all three by remembering what it handed out;
//! [`stateless`] serves the attribute-table mapping, whose loader and path
//! queries see element names one at a time and never the DTD.

use std::collections::BTreeSet;

use xmlord_ordb::ident::{is_reserved_word, MAX_IDENTIFIER_LEN};

/// The Table 1 prefix applied to a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameKind {
    Table,
    AttrFromElement,
    AttrFromAttribute,
    AttrList,
    IdAttr,
    ObjectType,
    AttrListType,
    VarrayType,
    ObjectView,
    Index,
    RelTable,
    InlineRelation,
    InlineText,
    InlineAttribute,
    ElementTable,
    AttributeTable,
}

impl NameKind {
    pub fn prefix(self) -> &'static str {
        match self {
            NameKind::Table => "Tab",
            NameKind::AttrFromElement | NameKind::AttrFromAttribute => "attr",
            NameKind::AttrList => "attrList",
            NameKind::IdAttr => "ID",
            NameKind::ObjectType => "Type_",
            NameKind::AttrListType => "TypeAttrL_",
            NameKind::VarrayType => "TypeVA_",
            NameKind::ObjectView => "OView_",
            NameKind::Index => "Idx",
            NameKind::RelTable => "Rel",
            NameKind::InlineRelation => "Inl",
            NameKind::InlineText => "c_",
            NameKind::InlineAttribute => "a_",
            NameKind::ElementTable => "Att",
            NameKind::AttributeTable => "AttA_",
        }
    }
}

/// Allocates unique, keyword-safe, length-bounded identifiers following the
/// Table 1 conventions. One generator is used per generated schema; the
/// optional `schema_id` ("SchemaIDs are necessary to deal with identical
/// element names from different DTDs", §5) is appended to every *global*
/// name (types, tables, views).
#[derive(Debug, Clone, Default)]
pub struct NameGenerator {
    schema_id: Option<String>,
    used: BTreeSet<String>,
}

impl NameGenerator {
    pub fn new() -> NameGenerator {
        NameGenerator::default()
    }

    /// Generator with a schema identifier suffix, e.g. `S1`.
    pub fn with_schema_id(schema_id: &str) -> NameGenerator {
        NameGenerator { schema_id: Some(schema_id.to_string()), used: BTreeSet::new() }
    }

    pub fn schema_id(&self) -> Option<&str> {
        self.schema_id.as_deref()
    }

    /// Generate the conventional name for `xml_name`, guaranteed unique
    /// among all names this generator has produced.
    ///
    /// Attribute-level names (`attr…`, `attrList…`, `ID…`) are unique only
    /// *within* their owning type, so callers pass a fresh `scope` for each
    /// type; global names (tables, types, views) use [`Self::global`].
    pub fn global(&mut self, kind: NameKind, xml_name: &str) -> String {
        let raw = self.conventional(kind, xml_name, true);
        let name = self.uniquify(&raw);
        self.used.insert(name.to_uppercase());
        name
    }

    /// Generate a column/attribute-level name unique within `scope`.
    pub fn scoped(
        &self,
        kind: NameKind,
        xml_name: &str,
        scope: &mut BTreeSet<String>,
    ) -> String {
        let raw = self.conventional(kind, xml_name, false);
        let mut candidate = raw.clone();
        let mut counter = 2;
        while scope.contains(&candidate.to_uppercase()) || is_reserved_word(&candidate) {
            candidate = truncate_with_suffix(&raw, &counter.to_string());
            counter += 1;
        }
        scope.insert(candidate.to_uppercase());
        candidate
    }

    /// The raw Table 1 name (prefix + sanitized element name + optional
    /// schema id), truncated to the identifier limit — before uniqueness.
    pub fn conventional(&self, kind: NameKind, xml_name: &str, with_schema_id: bool) -> String {
        let sanitized = sanitize(xml_name);
        let mut name = format!("{}{}", kind.prefix(), sanitized);
        if with_schema_id {
            if let Some(id) = &self.schema_id {
                name = truncate_with_suffix(&name, &format!("_{id}"));
            }
        }
        if name.len() > MAX_IDENTIFIER_LEN {
            name = truncate_bytes(&name, MAX_IDENTIFIER_LEN).to_string();
        }
        // Prefixes make keyword collisions impossible in practice, but stay
        // safe for exotic cases.
        if is_reserved_word(&name) {
            name = truncate_with_suffix(&name, "_X");
        }
        name
    }

    fn uniquify(&self, raw: &str) -> String {
        if !self.used.contains(&raw.to_uppercase()) && !is_reserved_word(raw) {
            return raw.to_string();
        }
        let mut counter = 2;
        loop {
            let candidate = truncate_with_suffix(raw, &counter.to_string());
            if !self.used.contains(&candidate.to_uppercase()) {
                return candidate;
            }
            counter += 1;
        }
    }
}

/// Replace characters illegal in SQL identifiers (`-`, `.`, `:` appear in
/// XML names) with underscores.
pub fn sanitize(xml_name: &str) -> String {
    xml_name
        .chars()
        .map(|c| if c.is_alphanumeric() || c == '_' || c == '$' || c == '#' { c } else { '_' })
        .collect()
}

/// A scope for [`NameGenerator::scoped`] that already holds `fixed`, the
/// names a table or type declares besides the generated ones (`IDParent`,
/// `ParentID`, …).
pub fn scope_with(fixed: &[&str]) -> BTreeSet<String> {
    fixed.iter().map(|name| name.to_uppercase()).collect()
}

/// The name of `xml_name` under `kind` as a pure function of the two — the
/// attribute-table mapping's rule ([`NameKind::ElementTable`],
/// [`NameKind::AttributeTable`]), since its loader and path queries see one
/// name at a time. It is the prefix plus the sanitized name. When
/// sanitizing changed the name, the result is over-long or a reserved
/// word, or an element table would read as an attribute table (`A_x`
/// gives `AttA_x`, the table of attribute `x`), the name is cut to fit and
/// ends in `_` plus a hash of the raw XML name, so `a-b` and `a_b` stay
/// apart. Names equal after case-folding (`A`, `a`) still coincide — no
/// per-name rule can tell them apart in a case-insensitive catalog;
/// `xmlord_dtd::lint_dtd` reports them (DTD010).
pub fn stateless(kind: NameKind, xml_name: &str) -> String {
    let sanitized = sanitize(xml_name);
    let name = format!("{}{sanitized}", kind.prefix());
    let other_kind = kind == NameKind::ElementTable
        && name.to_uppercase().starts_with(&NameKind::AttributeTable.prefix().to_uppercase());
    if sanitized == xml_name
        && name.len() <= MAX_IDENTIFIER_LEN
        && !is_reserved_word(&name)
        && !other_kind
    {
        return name;
    }
    truncate_with_suffix(&name, &format!("_{:08x}", fnv1a(xml_name)))
}

/// 32-bit FNV-1a: fixed across platforms and releases, unlike std's hasher.
fn fnv1a(s: &str) -> u32 {
    s.bytes().fold(0x811c_9dc5, |hash, byte| (hash ^ u32::from(byte)).wrapping_mul(0x0100_0193))
}

/// Append `suffix`, truncating the base so the result fits the limit.
/// The limit is in *bytes* (what the catalog enforces), so multi-byte
/// sanitized names must be cut on a char boundary, not by char count.
fn truncate_with_suffix(base: &str, suffix: &str) -> String {
    let max_base = MAX_IDENTIFIER_LEN.saturating_sub(suffix.len());
    let mut out = truncate_bytes(base, max_base).to_string();
    out.push_str(suffix);
    out
}

/// Longest prefix of `s` that fits in `max` bytes, on a char boundary.
fn truncate_bytes(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_conventions_exactly() {
        let mut names = NameGenerator::new();
        assert_eq!(names.global(NameKind::Table, "University"), "TabUniversity");
        assert_eq!(names.global(NameKind::ObjectType, "Professor"), "Type_Professor");
        assert_eq!(names.global(NameKind::VarrayType, "Subject"), "TypeVA_Subject");
        assert_eq!(names.global(NameKind::AttrListType, "B"), "TypeAttrL_B");
        assert_eq!(names.global(NameKind::ObjectView, "University"), "OView_University");
        let mut scope = BTreeSet::new();
        assert_eq!(names.scoped(NameKind::AttrFromElement, "LName", &mut scope), "attrLName");
        assert_eq!(names.scoped(NameKind::AttrFromAttribute, "StudNr", &mut scope), "attrStudNr");
        assert_eq!(names.scoped(NameKind::AttrList, "B", &mut scope), "attrListB");
        assert_eq!(names.scoped(NameKind::IdAttr, "Professor", &mut scope), "IDProfessor");
    }

    #[test]
    fn schema_id_suffixes_global_names() {
        let mut names = NameGenerator::with_schema_id("S1");
        assert_eq!(names.global(NameKind::Table, "University"), "TabUniversity_S1");
        assert_eq!(names.global(NameKind::ObjectType, "Course"), "Type_Course_S1");
    }

    #[test]
    fn identical_element_names_get_distinct_db_names() {
        let mut names = NameGenerator::new();
        let a = names.global(NameKind::ObjectType, "Address");
        let b = names.global(NameKind::ObjectType, "Address");
        assert_eq!(a, "Type_Address");
        assert_eq!(b, "Type_Address2");
        assert_ne!(a.to_uppercase(), b.to_uppercase());
    }

    #[test]
    fn uniqueness_is_case_insensitive_like_oracle() {
        let mut names = NameGenerator::new();
        let a = names.global(NameKind::ObjectType, "course");
        let b = names.global(NameKind::ObjectType, "COURSE");
        assert_ne!(a.to_uppercase(), b.to_uppercase());
    }

    #[test]
    fn thirty_char_limit_respected_with_long_element_names() {
        let mut names = NameGenerator::with_schema_id("S99");
        let long = "AnExtremelyLongElementNameFromSomeVerboseSchema";
        let name = names.global(NameKind::AttrListType, long);
        assert!(name.len() <= MAX_IDENTIFIER_LEN, "{name} too long");
        // And a second one must still be unique despite truncation.
        let name2 = names.global(NameKind::AttrListType, long);
        assert!(name2.len() <= MAX_IDENTIFIER_LEN);
        assert_ne!(name.to_uppercase(), name2.to_uppercase());
    }

    #[test]
    fn scoped_names_dodge_keywords_and_collisions() {
        let names = NameGenerator::new();
        let mut scope = BTreeSet::new();
        // Two XML names that sanitize to the same SQL identifier.
        let a = names.scoped(NameKind::AttrFromElement, "my-name", &mut scope);
        let b = names.scoped(NameKind::AttrFromElement, "my.name", &mut scope);
        assert_eq!(a, "attrmy_name");
        assert_ne!(a.to_uppercase(), b.to_uppercase());
    }

    #[test]
    fn sanitize_replaces_xml_punctuation() {
        assert_eq!(sanitize("ns:element"), "ns_element");
        assert_eq!(sanitize("a-b.c"), "a_b_c");
        assert_eq!(sanitize("Straße"), "Straße"); // alphanumerics kept
    }

    #[test]
    fn order_element_does_not_collide_with_keyword() {
        // §5: "element names may conflict with SQL keywords (e.g., ORDER)" —
        // prefixes save the day; the generated name is not a keyword.
        let mut names = NameGenerator::new();
        let t = names.global(NameKind::Table, "Order");
        assert_eq!(t, "TabOrder");
        assert!(!xmlord_ordb::ident::is_reserved_word(&t));
    }

    #[test]
    fn separate_scopes_allow_same_attr_names() {
        let names = NameGenerator::new();
        let mut scope_a = BTreeSet::new();
        let mut scope_b = BTreeSet::new();
        let a = names.scoped(NameKind::AttrFromElement, "Name", &mut scope_a);
        let b = names.scoped(NameKind::AttrFromElement, "Name", &mut scope_b);
        assert_eq!(a, b); // same convention, different types — no clash
    }

    #[test]
    fn stateless_names_keep_plain_names_and_hash_changed_ones() {
        assert_eq!(stateless(NameKind::ElementTable, "Student"), "AttStudent");
        assert_eq!(stateless(NameKind::AttributeTable, "StudNr"), "AttA_StudNr");
        // Sanitizing changed `a-b`: it keeps its own hash, apart from `a_b`.
        let dashed = stateless(NameKind::ElementTable, "a-b");
        assert!(dashed.starts_with("Atta_b_") && dashed.len() == "Atta_b_".len() + 8);
        assert_eq!(dashed, stateless(NameKind::ElementTable, "a-b"));
        assert_ne!(dashed.to_uppercase(), stateless(NameKind::ElementTable, "a_b").to_uppercase());
        // Truncation: a shared 30-byte prefix no longer decides the name.
        let long = "x".repeat(40);
        let a = stateless(NameKind::ElementTable, &(long.clone() + "A"));
        let b = stateless(NameKind::ElementTable, &(long + "B"));
        assert!(a.len() <= MAX_IDENTIFIER_LEN && b.len() <= MAX_IDENTIFIER_LEN);
        assert_ne!(a, b);
        // An element table never reads as an attribute table.
        assert_ne!(
            stateless(NameKind::ElementTable, "A_x").to_uppercase(),
            stateless(NameKind::AttributeTable, "x").to_uppercase()
        );
        // Case-folding is the one collision the rule cannot separate.
        assert_eq!(
            stateless(NameKind::ElementTable, "A").to_uppercase(),
            stateless(NameKind::ElementTable, "a").to_uppercase()
        );
    }

    #[test]
    fn a_fixed_name_pushes_the_generated_one_aside() {
        let names = NameGenerator::new();
        let mut scope = scope_with(&["IDParent"]);
        assert_eq!(names.scoped(NameKind::IdAttr, "Parent", &mut scope), "IDParent2");
        assert_eq!(names.scoped(NameKind::IdAttr, "Child", &mut scope), "IDChild");
    }
}
