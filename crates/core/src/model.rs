//! The mapped-schema model: the output of the Fig. 2 mapping algorithm and
//! the single source of truth shared by the DDL generator, the document
//! loader and the retriever.
//!
//! One [`ElementMapping`] exists per DTD element *type* (multi-parent
//! elements share it, as the paper shares object types). Each mapping lists
//! its generated database names and, field by field, where each database
//! attribute comes from in the XML document — the provenance that §5's
//! meta-table persists.

use std::collections::BTreeMap;

use xmlord_ordb::DbMode;

/// Why an element is stored in its own object table rather than embedded in
/// its parent's object value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableRootReason {
    /// The document's root element — always a table (§4.1).
    Root,
    /// Oracle 8 workaround: set-valued complex subelements cannot be
    /// collections of objects, so the subelement becomes an object table
    /// whose rows point back to the parent with a REF attribute (§4.2).
    Oracle8SetValuedComplex,
    /// Oracle 8 workaround cascade: a REF can only point to a row object,
    /// so the *parent* of a workaround child needs an object table too.
    Oracle8RefTarget,
    /// The element lies on a recursion cycle; the cycle is broken with
    /// REF-valued attributes pointing to the element's object table (§6.2).
    Recursion,
    /// The element carries an ID attribute that an IDREF in the document
    /// references; REF columns must be able to point at it (§4.4).
    IdTarget,
}

/// Where a database field's value comes from in the source document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldSource {
    /// The element's own `#PCDATA` text (simple elements with attributes,
    /// and the text of mixed-content elements).
    Text,
    /// A subelement with this XML name.
    ChildElement(String),
    /// An XML attribute with this name.
    XmlAttribute(String),
    /// The object type holding the full attribute list (§4.4's
    /// `TypeAttrL_…` field).
    AttrList,
    /// Synthetic unique identifier "introduced … for the sole purpose of
    /// simplifying the generation of INSERT operations" (§4.2).
    SyntheticId,
    /// Oracle 8 workaround: REF pointing at the parent element's row (§4.2).
    ParentRef(String),
}

/// Scalar database type of a text-bearing field.
///
/// The paper's DTD-based mapping only ever produces `VARCHAR(4000)` (§4.1 —
/// "there is no way to restrict the type of the table attributes"); the §7
/// future-work items add `CLOB` ("Large text elements should be assigned
/// the CLOB type") and real types from XML Schema ("which provides more
/// advanced concepts (such as element types)") — both are supported here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalarType {
    Varchar(u32),
    Clob,
    Number,
    Date,
}

impl ScalarType {
    pub fn sql_text(&self) -> String {
        match self {
            ScalarType::Varchar(n) => format!("VARCHAR({n})"),
            ScalarType::Clob => "CLOB".to_string(),
            ScalarType::Number => "NUMBER".to_string(),
            ScalarType::Date => "DATE".to_string(),
        }
    }
}

/// The database type of a generated field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// A scalar column (`VARCHAR(4000)` by default, §4.1).
    Scalar(ScalarType),
    /// Embedded object value of the named `Type_…`.
    Object(String),
    /// Collection (named collection type) of scalars.
    ScalarCollection(String),
    /// Collection (named collection type) of the named object type.
    ObjectCollection { collection: String, element_type: String },
    /// `REF Type_…`.
    Ref(String),
    /// Nested table of `REF Type_…` (collection type name + target type),
    /// the §6.2 device for set-valued recursive children.
    RefCollection { collection: String, target_type: String },
}

impl FieldKind {
    /// Render as SQL type text for DDL generation.
    pub fn sql_type_text(&self, _varchar_len: u32) -> String {
        match self {
            FieldKind::Scalar(t) => t.sql_text(),
            FieldKind::Object(t) => t.clone(),
            FieldKind::ScalarCollection(t) => t.clone(),
            FieldKind::ObjectCollection { collection, .. } => collection.clone(),
            FieldKind::Ref(t) => format!("REF {t}"),
            FieldKind::RefCollection { collection, .. } => collection.clone(),
        }
    }
}

/// One attribute of a generated object type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldMapping {
    /// Database attribute name (`attr…`, `attrList…`, `ID…`).
    pub db_name: String,
    pub source: FieldSource,
    pub kind: FieldKind,
    /// Paper terminology: may occur more than once (§4.2).
    pub set_valued: bool,
    /// May be absent — maps to a nullable column (§4.3).
    pub optional: bool,
}

impl FieldMapping {
    /// Is this an IDREF attribute stored as a REF? In a table row the
    /// loader inserts it NULL and sets it by an `UPDATE` once every row
    /// exists (so forward references resolve), which is why its column is
    /// never NOT NULL.
    pub fn wired_after_insert(&self) -> bool {
        matches!(self.source, FieldSource::XmlAttribute(_)) && matches!(self.kind, FieldKind::Ref(_))
    }
}

/// Mapping of one XML attribute inside an attribute-list object (§4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrFieldMapping {
    pub db_name: String,
    pub xml_attribute: String,
    pub required: bool,
    /// Scalar column type (VARCHAR(4000) unless an XML Schema hint says
    /// otherwise).
    pub scalar_type: ScalarType,
    /// Set when this is an IDREF attribute mapped to a REF column; names
    /// the target element.
    pub idref_target: Option<String>,
}

/// The `TypeAttrL_…` object generated for an element with more than one
/// XML attribute (§4.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrListMapping {
    pub type_name: String,
    pub fields: Vec<AttrFieldMapping>,
}

/// Complete mapping of one element type.
#[derive(Debug, Clone)]
pub struct ElementMapping {
    /// XML element type name.
    pub element: String,
    /// `(#PCDATA)`-only content (§4.1 "simple element").
    pub simple: bool,
    /// Mixed content — text plus elements. The paper lists mixed content
    /// among the known transformation problems; we store the concatenated
    /// text in a dedicated field and document the interleaving loss.
    pub mixed: bool,
    /// Generated `Type_…` object type; `None` for simple elements without
    /// attributes, which map to plain VARCHAR fields of their parents.
    pub object_type: Option<String>,
    /// Generated collection type wrapping this element when it occurs
    /// set-valued under a parent (`TypeVA_…` or `Type_Tab…`).
    pub collection_type: Option<String>,
    /// Generated nested-table-of-REF type (`TabRef…`, §6.2).
    pub ref_collection_type: Option<String>,
    /// Own object table (`Tab…`) when table-rooted.
    pub table: Option<String>,
    pub table_rooted: Option<TableRootReason>,
    /// Synthetic unique id field name (`ID…`) when table-rooted.
    pub synthetic_id: Option<String>,
    /// When table-rooted: the position of this element's table in the
    /// schema's load order, a topological order of its key-REF graph
    /// (tables that other rows' key REFs name come first; the tables of
    /// one cycle share a position). See [`crate::loader::load_ops`].
    pub load_group: Option<usize>,
    /// Scalar type of this element's own text (simple elements; defaults to
    /// `VARCHAR(varchar_len)`).
    pub scalar_type: ScalarType,
    /// Attribute-list object (§4.4), when the element has >1 XML attribute.
    pub attr_list: Option<AttrListMapping>,
    /// Fields of the object type, in declaration order. For simple
    /// elements without attributes this is empty.
    pub fields: Vec<FieldMapping>,
    /// Child element names in content-model order — used by the retriever
    /// to place Oracle 8 inverted children back at their original position.
    pub child_order: Vec<String>,
}

impl ElementMapping {
    /// The field fed by a given child element, if any.
    pub fn field_for_child(&self, child: &str) -> Option<&FieldMapping> {
        self.fields
            .iter()
            .find(|f| matches!(&f.source, FieldSource::ChildElement(c) if c == child))
    }

    /// The field fed by a given XML attribute (inlined attributes only).
    pub fn field_for_attribute(&self, attr: &str) -> Option<&FieldMapping> {
        self.fields
            .iter()
            .find(|f| matches!(&f.source, FieldSource::XmlAttribute(a) if a == attr))
    }

    pub fn text_field(&self) -> Option<&FieldMapping> {
        self.fields.iter().find(|f| f.source == FieldSource::Text)
    }

    /// The key column named by the `UPDATE`s that wire this element's own
    /// IDREF attributes after its INSERT, when it has one: a table row with
    /// a synthetic id inserts its IDREFs NULL (see
    /// [`FieldMapping::wired_after_insert`]). Anywhere else an IDREF is a
    /// key REF inside the INSERT.
    pub fn idref_update_key(&self) -> Option<&str> {
        self.table.as_ref().and(self.synthetic_id.as_deref())
    }
}

/// A NOT NULL constraint the mapping *wanted* but could not express because
/// the mandatory element sits inside an embedded object type or collection
/// (§4.3: "The provided modeling features of Oracle do not allow to define
/// NOT NULL constraints for subelements of complex element types…").
/// Collected so the drawback is observable (experiment E12).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnenforcedNotNull {
    /// Object type whose attribute should have been NOT NULL.
    pub type_name: String,
    pub field: String,
    pub reason: String,
}

/// Collection flavour for set-valued elements (§2.2 offers both; "In our
/// prototype, we chose the VARRAY collection type; nested tables work in
/// nearly the same manner").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectionStyle {
    Varray,
    NestedTable,
}

/// How element text is stored when no explicit type hint applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextStorage {
    /// `VARCHAR(varchar_len)` — the paper's §4.1 default, with its §7
    /// "restricted maximum length" drawback.
    Varchar,
    /// `CLOB` — the §7 recommendation for large text elements.
    Clob,
}

/// Per-name scalar type hints, typically derived from an XML Schema
/// (the paper's §7: "XML Schema … provides more advanced concepts (such as
/// element types)").
#[derive(Debug, Clone, Default)]
pub struct TypeHints {
    /// Element name → scalar type of its text.
    pub elements: BTreeMap<String, ScalarType>,
    /// (element name, attribute name) → scalar type.
    pub attributes: BTreeMap<(String, String), ScalarType>,
}

/// Knobs of the schema generator.
#[derive(Debug, Clone)]
pub struct MappingOptions {
    pub collection_style: CollectionStyle,
    /// VARRAY capacity (the paper's §4.2 example uses 100).
    pub varray_max: u32,
    /// Default scalar column width (§4.1 generates `VARCHAR(4000)`).
    pub varchar_len: u32,
    /// Add a `ID<Root>` document-id column to the root table so several
    /// documents of the same DTD can coexist and be retrieved separately —
    /// the same synthetic-identifier device §4.2 introduces, applied to the
    /// root.
    pub with_doc_id: bool,
    /// Map IDREF attributes to REF columns (§4.4); requires document
    /// knowledge to resolve targets.
    pub map_idrefs: bool,
    /// SchemaID suffix for all global names (§5).
    pub schema_id: Option<String>,
    /// Default storage for un-hinted element text (§7 CLOB extension).
    pub text_storage: TextStorage,
    /// Scalar type hints (XML Schema extension).
    pub type_hints: TypeHints,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            collection_style: CollectionStyle::Varray,
            varray_max: 100,
            varchar_len: 4000,
            with_doc_id: true,
            map_idrefs: false,
            schema_id: None,
            text_storage: TextStorage::Varchar,
            type_hints: TypeHints::default(),
        }
    }
}

/// The generated object-relational schema for one DTD.
#[derive(Debug, Clone)]
pub struct MappedSchema {
    pub mode: DbMode,
    pub options: MappingOptions,
    pub root_element: String,
    /// Element name → mapping.
    pub elements: BTreeMap<String, ElementMapping>,
    /// Element names in type-creation order (dependencies first).
    pub creation_order: Vec<String>,
    /// Elements needing forward declarations (recursion, §6.2).
    pub forward_declared: Vec<String>,
    /// Name of the root table.
    pub root_table: String,
    /// Document-id column on the root table (when `with_doc_id`).
    pub doc_id_column: Option<String>,
    /// §4.3 drawbacks made visible.
    pub unenforced_not_null: Vec<UnenforcedNotNull>,
}

impl MappedSchema {
    pub fn mapping(&self, element: &str) -> Option<&ElementMapping> {
        self.elements.get(element)
    }

    /// All table-rooted element mappings.
    pub fn table_rooted(&self) -> impl Iterator<Item = &ElementMapping> {
        self.elements.values().filter(|m| m.table_rooted.is_some())
    }

    /// Count of generated object types (incl. attribute-list and collection
    /// types) — the fragmentation metric of experiment E8.
    pub fn generated_type_count(&self) -> usize {
        self.elements
            .values()
            .map(|m| {
                m.object_type.is_some() as usize
                    + m.collection_type.is_some() as usize
                    + m.ref_collection_type.is_some() as usize
                    + m.attr_list.is_some() as usize
            })
            .sum()
    }

    pub fn generated_table_count(&self) -> usize {
        self.elements.values().filter(|m| m.table.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_kind_sql_text() {
        assert_eq!(
            FieldKind::Scalar(ScalarType::Varchar(4000)).sql_type_text(4000),
            "VARCHAR(4000)"
        );
        assert_eq!(FieldKind::Scalar(ScalarType::Clob).sql_type_text(4000), "CLOB");
        assert_eq!(FieldKind::Scalar(ScalarType::Number).sql_type_text(4000), "NUMBER");
        assert_eq!(FieldKind::Object("Type_X".into()).sql_type_text(4000), "Type_X");
        assert_eq!(FieldKind::Ref("Type_X".into()).sql_type_text(4000), "REF Type_X");
        assert_eq!(
            FieldKind::ObjectCollection {
                collection: "TypeVA_X".into(),
                element_type: "Type_X".into()
            }
            .sql_type_text(4000),
            "TypeVA_X"
        );
    }

    #[test]
    fn default_options_match_the_paper() {
        let opts = MappingOptions::default();
        assert_eq!(opts.varchar_len, 4000); // §4.1
        assert_eq!(opts.varray_max, 100); // §4.2 example
        assert_eq!(opts.collection_style, CollectionStyle::Varray); // §4.2
    }

    #[test]
    fn element_mapping_field_lookup() {
        let m = ElementMapping {
            element: "Student".into(),
            simple: false,
            mixed: false,
            object_type: Some("Type_Student".into()),
            collection_type: None,
            ref_collection_type: None,
            table: None,
            table_rooted: None,
            synthetic_id: None,
            load_group: None,
            scalar_type: ScalarType::Varchar(4000),
            attr_list: None,
            child_order: vec!["LName".into()],
            fields: vec![
                FieldMapping {
                    db_name: "attrStudNr".into(),
                    source: FieldSource::XmlAttribute("StudNr".into()),
                    kind: FieldKind::Scalar(ScalarType::Varchar(4000)),
                    set_valued: false,
                    optional: false,
                },
                FieldMapping {
                    db_name: "attrLName".into(),
                    source: FieldSource::ChildElement("LName".into()),
                    kind: FieldKind::Scalar(ScalarType::Varchar(4000)),
                    set_valued: false,
                    optional: false,
                },
            ],
        };
        assert_eq!(m.field_for_child("LName").unwrap().db_name, "attrLName");
        assert_eq!(m.field_for_attribute("StudNr").unwrap().db_name, "attrStudNr");
        assert!(m.field_for_child("StudNr").is_none());
        assert!(m.text_field().is_none());
    }
}
