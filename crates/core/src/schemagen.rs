//! The schema-generation algorithm of the paper's Fig. 2.
//!
//! Input: the parsed DTD (the "DTD DOM tree" precondition of §3) plus the
//! target mode. Output: a [`MappedSchema`] covering every case of the
//! decision tree:
//!
//! * **simple elements** (§4.1) → `VARCHAR(4000)` attributes of the parent's
//!   object type;
//! * **complex elements** (§4.1) → one object type per element type,
//!   aggregated into the parent ("the aggregation of SQL object types
//!   enables an XML document of any nesting depth to be mapped");
//! * **iteration** `*`/`+` (§4.2) → named collection types; under
//!   [`DbMode::Oracle8`] set-valued *complex* subelements instead become
//!   object tables with a REF attribute pointing at the parent plus a
//!   synthetic unique ID;
//! * **optionality** `?`/`*`/`#IMPLIED` (§4.3) → nullable columns; mandatory
//!   content → NOT NULL where Oracle allows it (object tables only — the
//!   rest lands in [`MappedSchema::unenforced_not_null`]);
//! * **attributes** (§4.4) → inlined `attr…` columns (single attribute) or
//!   a `TypeAttrL_…` object (attribute lists), `#REQUIRED` → NOT NULL,
//!   ID/IDREF → object tables + REF columns when document knowledge is
//!   available;
//! * **recursion** (§6.2) → cycle-breaking REF / nested-table-of-REF fields
//!   with forward type declarations.

use std::collections::{BTreeMap, BTreeSet};

use xmlord_dtd::ast::{ChildCardinality, ContentSpec, Dtd};
use xmlord_dtd::graph::ElementGraph;
use xmlord_ordb::DbMode;

use crate::error::MappingError;
use crate::model::{
    AttrFieldMapping, AttrListMapping, CollectionStyle, ElementMapping, FieldKind, FieldMapping,
    FieldSource, MappedSchema, MappingOptions, ScalarType, TableRootReason, TextStorage,
    UnenforcedNotNull,
};
use crate::loader::assign_load_groups;
use crate::naming::{NameGenerator, NameKind};

/// Map of `(referencing element, attribute name)` → target element name,
/// used to type IDREF attributes (§4.4: "This kind of information cannot be
/// captured from the DTD, rather from the XML document").
pub type IdrefTargets = BTreeMap<(String, String), String>;

/// Generate the object-relational schema for `dtd` rooted at `root`.
pub fn generate_schema(
    dtd: &Dtd,
    root: &str,
    mode: DbMode,
    options: MappingOptions,
    idref_targets: &IdrefTargets,
) -> Result<MappedSchema, MappingError> {
    if dtd.element(root).is_none() {
        return Err(MappingError::RootNotDeclared(root.to_string()));
    }
    let graph = ElementGraph::build(dtd);

    // Reachable elements (we only map what the document type can contain).
    let reachable = graph.reachable_from(root);
    for element in &reachable {
        if dtd.element(element).is_none() {
            return Err(MappingError::UndeclaredElement(element.clone()));
        }
    }

    // Per-(parent,child) cardinalities.
    let mut cardinalities: BTreeMap<(String, String), ChildCardinality> = BTreeMap::new();
    for parent in &reachable {
        let decl = dtd.element(parent).unwrap();
        for (child, card) in decl.content.child_cardinalities() {
            cardinalities.insert((parent.clone(), child), card);
        }
    }

    // Decide which elements are table-rooted and why.
    let back_edges: BTreeSet<(String, String)> = graph
        .back_edges_from(Some(root))
        .into_iter()
        .filter(|(p, c)| reachable.contains(p) && reachable.contains(c))
        .collect();
    let mut table_rooted: BTreeMap<String, TableRootReason> = BTreeMap::new();
    table_rooted.insert(root.to_string(), TableRootReason::Root);
    for (_, target) in &back_edges {
        table_rooted.entry(target.clone()).or_insert(TableRootReason::Recursion);
    }
    // Oracle 8: set-valued complex children become tables; their parents
    // must be tables too (REF targets). Children are classified first so a
    // table that is both gets the more specific reason.
    let mut oracle8_inverted: BTreeSet<(String, String)> = BTreeSet::new();
    if mode == DbMode::Oracle8 {
        for ((parent, child), card) in &cardinalities {
            if card.set_valued && element_has_object_type(dtd, child, &table_rooted) {
                oracle8_inverted.insert((parent.clone(), child.clone()));
                table_rooted
                    .entry(child.clone())
                    .or_insert(TableRootReason::Oracle8SetValuedComplex);
            }
        }
        for (parent, _) in &oracle8_inverted {
            table_rooted
                .entry(parent.clone())
                .or_insert(TableRootReason::Oracle8RefTarget);
        }
    }
    // ID targets (when enabled and known).
    if options.map_idrefs {
        for target in idref_targets.values() {
            if reachable.contains(target) {
                table_rooted.entry(target.clone()).or_insert(TableRootReason::IdTarget);
            }
        }
    }

    // Creation order: children before parents, restricted to reachable.
    let creation_order: Vec<String> = graph
        .bottom_up_order_from(Some(root))
        .into_iter()
        .filter(|e| reachable.contains(e))
        .collect();
    let forward_declared: Vec<String> = {
        let targets: BTreeSet<&String> = back_edges.iter().map(|(_, c)| c).collect();
        creation_order.iter().filter(|e| targets.contains(e)).cloned().collect()
    };

    // Pass 1: allocate all global names (types, collections, tables) so
    // parents can reference children even when uniquification renamed them.
    let mut names = match &options.schema_id {
        Some(id) => NameGenerator::with_schema_id(id),
        None => NameGenerator::new(),
    };
    let mut assigned: BTreeMap<String, AssignedNames> = BTreeMap::new();
    for element in &creation_order {
        let needs_type = element_has_object_type(dtd, element, &table_rooted);
        let attrs = dtd.attributes_of(element);
        let attr_list_type = if attrs.len() > 1 {
            Some(names.global(NameKind::AttrListType, element))
        } else {
            None
        };
        let object_type =
            if needs_type { Some(names.global(NameKind::ObjectType, element)) } else { None };
        let used_set_valued = cardinalities.iter().any(|((p, c), card)| {
            c == element
                && card.set_valued
                && !oracle8_inverted.contains(&(p.clone(), c.clone()))
        });
        let rooted_here = table_rooted.contains_key(element);
        let collection_type = if used_set_valued && !rooted_here {
            Some(match options.collection_style {
                CollectionStyle::Varray => names.global(NameKind::VarrayType, element),
                CollectionStyle::NestedTable => {
                    names.global(NameKind::ObjectType, &format!("Tab{element}"))
                }
            })
        } else {
            None
        };
        let ref_collection_type = if used_set_valued && rooted_here {
            Some(names.global(NameKind::Table, &format!("Ref{element}")))
        } else {
            None
        };
        let table = if rooted_here {
            Some(names.global(NameKind::Table, element))
        } else {
            None
        };
        assigned.insert(
            element.clone(),
            AssignedNames { object_type, attr_list_type, collection_type, ref_collection_type, table },
        );
    }

    // Pass 2: build the field lists.
    let mut elements: BTreeMap<String, ElementMapping> = BTreeMap::new();
    let mut unenforced: Vec<UnenforcedNotNull> = Vec::new();
    for element in &creation_order {
        let mapping = build_element_mapping(
            dtd,
            element,
            root,
            mode,
            &options,
            idref_targets,
            &cardinalities,
            &table_rooted,
            &oracle8_inverted,
            &assigned,
            &names,
        )?;
        elements.insert(element.clone(), mapping);
    }
    assign_load_groups(&mut elements);

    // §4.3 drawback bookkeeping: mandatory fields of *embedded* object types
    // cannot carry NOT NULL.
    for mapping in elements.values() {
        if mapping.table_rooted.is_none() {
            if let Some(type_name) = &mapping.object_type {
                for field in &mapping.fields {
                    if !field.optional && !field.set_valued {
                        unenforced.push(UnenforcedNotNull {
                            type_name: type_name.clone(),
                            field: field.db_name.clone(),
                            reason: "mandatory content inside an embedded object type \
                                     (constraints can only be defined on tables, §4.3)"
                                .to_string(),
                        });
                    }
                }
            }
        }
        if let (Some(_), Some(type_name)) = (&mapping.table, &mapping.object_type) {
            for field in &mapping.fields {
                if !field.optional && field.wired_after_insert() {
                    unenforced.push(UnenforcedNotNull {
                        type_name: type_name.clone(),
                        field: field.db_name.clone(),
                        reason: "a #REQUIRED IDREF is stored NULL and set to its target's \
                                 REF by an UPDATE once every row exists (forward \
                                 references); DTD validation still enforces it"
                            .to_string(),
                    });
                }
            }
        }
        for field in &mapping.fields {
            if field.set_valued && !field.optional {
                unenforced.push(UnenforcedNotNull {
                    type_name: mapping
                        .object_type
                        .clone()
                        .unwrap_or_else(|| mapping.element.clone()),
                    field: field.db_name.clone(),
                    reason: "'+' content maps to a collection; \"set-valued attributes \
                             cannot be defined as NOT NULL altogether\" (§4.3)"
                        .to_string(),
                });
            }
        }
    }

    let root_mapping = elements.get(root).expect("root was mapped");
    let root_table = root_mapping.table.clone().expect("root is table-rooted");
    let doc_id_column = root_mapping.synthetic_id.clone();

    Ok(MappedSchema {
        mode,
        options,
        root_element: root.to_string(),
        elements,
        creation_order,
        forward_declared,
        root_table,
        doc_id_column,
        unenforced_not_null: unenforced,
    })
}

/// Does this element get its own object type? (Complex content, mixed
/// content, any XML attributes, or forced by table-rooting.)
fn element_has_object_type(
    dtd: &Dtd,
    element: &str,
    table_rooted: &BTreeMap<String, TableRootReason>,
) -> bool {
    if table_rooted.contains_key(element) {
        return true;
    }
    let Some(decl) = dtd.element(element) else { return false };
    decl.content.is_complex() || !dtd.attributes_of(element).is_empty()
}

/// Scalar type of an element's text: XML Schema hint, else the configured
/// default. In Oracle 8 mode CLOB never lands inside a collection ("the
/// element type must not be … a large object type", §2.2), so collection
/// elements fall back to VARCHAR there.
fn scalar_for_element(options: &MappingOptions, element: &str) -> ScalarType {
    if let Some(hint) = options.type_hints.elements.get(element) {
        return hint.clone();
    }
    match options.text_storage {
        TextStorage::Varchar => ScalarType::Varchar(options.varchar_len),
        TextStorage::Clob => ScalarType::Clob,
    }
}

fn collection_scalar_for_element(
    options: &MappingOptions,
    mode: xmlord_ordb::DbMode,
    element: &str,
) -> ScalarType {
    let scalar = scalar_for_element(options, element);
    if scalar == ScalarType::Clob && !mode.allows_nested_collections() {
        ScalarType::Varchar(options.varchar_len)
    } else {
        scalar
    }
}

fn scalar_for_attribute(options: &MappingOptions, element: &str, attribute: &str) -> ScalarType {
    options
        .type_hints
        .attributes
        .get(&(element.to_string(), attribute.to_string()))
        .cloned()
        .unwrap_or(ScalarType::Varchar(options.varchar_len))
}

#[derive(Debug, Clone, Default)]
struct AssignedNames {
    object_type: Option<String>,
    attr_list_type: Option<String>,
    collection_type: Option<String>,
    ref_collection_type: Option<String>,
    table: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn build_element_mapping(
    dtd: &Dtd,
    element: &str,
    root: &str,
    mode: xmlord_ordb::DbMode,
    options: &MappingOptions,
    idref_targets: &IdrefTargets,
    cardinalities: &BTreeMap<(String, String), ChildCardinality>,
    table_rooted: &BTreeMap<String, TableRootReason>,
    oracle8_inverted: &BTreeSet<(String, String)>,
    assigned: &BTreeMap<String, AssignedNames>,
    names: &NameGenerator,
) -> Result<ElementMapping, MappingError> {
    let decl = dtd.element(element).expect("caller checked declaration");
    let attrs = dtd.attributes_of(element);
    let simple = decl.content.is_simple();
    let mixed = decl.content.is_mixed_with_elements();
    let rooted = table_rooted.get(element).copied();
    let own = &assigned[element];

    let mut scope: BTreeSet<String> = BTreeSet::new();
    let mut fields: Vec<FieldMapping> = Vec::new();

    // -- XML attributes (§4.4): inline a single attribute, build a
    //    TypeAttrL_ object for lists.
    let mut attr_list = None;
    if attrs.len() == 1 {
        let def = &attrs[0];
        let db_name = names.scoped(NameKind::AttrFromAttribute, &def.name, &mut scope);
        let idref_target = resolve_idref_target(options, idref_targets, element, &def.name);
        let kind = match &idref_target {
            Some(target) => FieldKind::Ref(type_name_of(assigned, names, target)),
            None => FieldKind::Scalar(scalar_for_attribute(options, element, &def.name)),
        };
        fields.push(FieldMapping {
            db_name,
            source: FieldSource::XmlAttribute(def.name.clone()),
            kind,
            set_valued: false,
            optional: !def.default.is_required(),
        });
    } else if attrs.len() > 1 {
        let type_name = own.attr_list_type.clone().expect("allocated in pass 1");
        let mut list_scope: BTreeSet<String> = BTreeSet::new();
        let mut list_fields = Vec::new();
        for def in attrs {
            let db_name = names.scoped(NameKind::AttrFromAttribute, &def.name, &mut list_scope);
            list_fields.push(AttrFieldMapping {
                db_name,
                xml_attribute: def.name.clone(),
                required: def.default.is_required(),
                scalar_type: scalar_for_attribute(options, element, &def.name),
                idref_target: resolve_idref_target(options, idref_targets, element, &def.name),
            });
        }
        let field_name = names.scoped(NameKind::AttrList, element, &mut scope);
        fields.push(FieldMapping {
            db_name: field_name,
            source: FieldSource::AttrList,
            kind: FieldKind::Object(type_name.clone()),
            set_valued: false,
            optional: attrs.iter().all(|a| !a.default.is_required()),
        });
        attr_list = Some(AttrListMapping { type_name, fields: list_fields });
    }

    // -- Own text (simple-with-attributes, mixed content, ANY).
    let stores_own_text = (simple && own.object_type.is_some())
        || mixed
        || matches!(decl.content, ContentSpec::Any);
    if stores_own_text {
        let db_name = names.scoped(NameKind::AttrFromElement, element, &mut scope);
        fields.push(FieldMapping {
            db_name,
            source: FieldSource::Text,
            kind: FieldKind::Scalar(scalar_for_element(options, element)),
            set_valued: false,
            optional: true, // text content may be empty
        });
    }

    // -- Children (complex elements, §4.1/§4.2).
    for child in decl.content.child_names() {
        // Oracle 8 inversion: the child's table points back at us; we hold
        // no field (§4.2: the REF attribute "appears … in the object type
        // definition that represents the subelement").
        if oracle8_inverted.contains(&(element.to_string(), child.clone())) {
            continue;
        }
        let card = cardinalities
            .get(&(element.to_string(), child.clone()))
            .copied()
            .unwrap_or(ChildCardinality { set_valued: false, optional: false });
        let db_name = names.scoped(NameKind::AttrFromElement, &child, &mut scope);
        let child_assigned = &assigned[&child];
        let child_rooted = table_rooted.contains_key(&child);
        let kind = if child_rooted {
            let target = child_assigned.object_type.clone().expect("rooted ⇒ typed");
            if card.set_valued {
                FieldKind::RefCollection {
                    collection: child_assigned
                        .ref_collection_type
                        .clone()
                        .expect("allocated in pass 1"),
                    target_type: target,
                }
            } else {
                FieldKind::Ref(target)
            }
        } else if let Some(child_type) = child_assigned.object_type.clone() {
            if card.set_valued {
                FieldKind::ObjectCollection {
                    collection: child_assigned
                        .collection_type
                        .clone()
                        .expect("allocated in pass 1"),
                    element_type: child_type,
                }
            } else {
                FieldKind::Object(child_type)
            }
        } else if card.set_valued {
            FieldKind::ScalarCollection(
                child_assigned.collection_type.clone().expect("allocated in pass 1"),
            )
        } else {
            FieldKind::Scalar(scalar_for_element(options, &child))
        };
        fields.push(FieldMapping {
            db_name,
            source: FieldSource::ChildElement(child.clone()),
            kind,
            set_valued: card.set_valued,
            optional: card.optional,
        });
    }

    // -- Oracle 8 inverted relationships where *this* element is the child:
    //    one nullable REF per parent.
    let mut parent_refs: Vec<&String> = oracle8_inverted
        .iter()
        .filter(|(_, c)| c == element)
        .map(|(p, _)| p)
        .collect();
    parent_refs.sort();
    parent_refs.dedup();
    for parent in parent_refs {
        let db_name =
            names.scoped(NameKind::AttrFromElement, &format!("Ref{parent}"), &mut scope);
        fields.push(FieldMapping {
            db_name,
            source: FieldSource::ParentRef(parent.clone()),
            kind: FieldKind::Ref(type_name_of(assigned, names, parent)),
            set_valued: false,
            optional: true,
        });
    }

    // -- Synthetic unique id (§4.2) for table-rooted elements (the root only
    //    when multi-document storage is on).
    let mut synthetic_id = None;
    if rooted.is_some() && (element != root || options.with_doc_id) {
        let db_name = names.scoped(NameKind::IdAttr, element, &mut scope);
        fields.push(FieldMapping {
            db_name: db_name.clone(),
            source: FieldSource::SyntheticId,
            kind: FieldKind::Scalar(ScalarType::Varchar(options.varchar_len)),
            set_valued: false,
            optional: true,
        });
        synthetic_id = Some(db_name);
    }

    // An object type must have at least one attribute (e.g. an EMPTY
    // element with no XML attributes that was forced table-rooted): fall
    // back to a text field.
    if own.object_type.is_some() && fields.is_empty() {
        let db_name = names.scoped(NameKind::AttrFromElement, element, &mut scope);
        fields.push(FieldMapping {
            db_name,
            source: FieldSource::Text,
            kind: FieldKind::Scalar(scalar_for_element(options, element)),
            set_valued: false,
            optional: true,
        });
    }

    Ok(ElementMapping {
        element: element.to_string(),
        simple,
        mixed,
        object_type: own.object_type.clone(),
        collection_type: own.collection_type.clone(),
        ref_collection_type: own.ref_collection_type.clone(),
        table: own.table.clone(),
        table_rooted: rooted,
        synthetic_id,
        load_group: None,
        scalar_type: collection_scalar_for_element(options, mode, element),
        attr_list,
        child_order: decl.content.child_names(),
        fields,
    })
}

/// The object type of `element`; for an element that has none (an IDREF
/// target outside the mapping) its conventional name, which the catalog
/// then reports as an unknown type.
fn type_name_of(
    assigned: &BTreeMap<String, AssignedNames>,
    names: &NameGenerator,
    element: &str,
) -> String {
    assigned
        .get(element)
        .and_then(|a| a.object_type.clone())
        .unwrap_or_else(|| names.conventional(NameKind::ObjectType, element, true))
}

fn resolve_idref_target(
    options: &MappingOptions,
    idref_targets: &IdrefTargets,
    element: &str,
    attribute: &str,
) -> Option<String> {
    if !options.map_idrefs {
        return None;
    }
    idref_targets.get(&(element.to_string(), attribute.to_string())).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlord_dtd::parse_dtd;

    pub const UNIVERSITY_DTD: &str = r#"
<!ELEMENT University (StudyCourse,Student*)>
<!ELEMENT Student (LName,FName,Course*)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT Course (Name,Professor*,CreditPts?)>
<!ELEMENT Professor (PName,Subject+,Dept)>
<!ELEMENT LName (#PCDATA)> <!ELEMENT FName (#PCDATA)>
<!ELEMENT Name (#PCDATA)> <!ELEMENT PName (#PCDATA)>
<!ELEMENT Subject (#PCDATA)> <!ELEMENT Dept (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)> <!ELEMENT CreditPts (#PCDATA)>
"#;

    fn uni_schema(mode: DbMode) -> MappedSchema {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let options = MappingOptions { with_doc_id: false, ..Default::default() };
        generate_schema(&dtd, "University", mode, options, &IdrefTargets::new()).unwrap()
    }

    #[test]
    fn oracle9_university_matches_the_paper_section_4_2() {
        let schema = uni_schema(DbMode::Oracle9);
        // Only the root is a table.
        assert_eq!(schema.generated_table_count(), 1);
        assert_eq!(schema.root_table, "TabUniversity");

        let student = schema.mapping("Student").unwrap();
        assert_eq!(student.object_type.as_deref(), Some("Type_Student"));
        assert_eq!(student.collection_type.as_deref(), Some("TypeVA_Student"));
        // Fields: attrStudNr (inlined single attribute), attrLName,
        // attrFName, attrCourse — exactly the paper's Type_Student.
        let names: Vec<&str> = student.fields.iter().map(|f| f.db_name.as_str()).collect();
        assert_eq!(names, vec!["attrStudNr", "attrLName", "attrFName", "attrCourse"]);
        assert!(!student.fields[0].optional); // #REQUIRED
        assert!(matches!(
            student.field_for_child("Course").unwrap().kind,
            FieldKind::ObjectCollection { ref collection, ref element_type }
                if collection == "TypeVA_Course" && element_type == "Type_Course"
        ));

        let professor = schema.mapping("Professor").unwrap();
        // Subject+ → scalar collection TypeVA_Subject.
        assert!(matches!(
            professor.field_for_child("Subject").unwrap().kind,
            FieldKind::ScalarCollection(ref c) if c == "TypeVA_Subject"
        ));
        let subject_field = professor.field_for_child("Subject").unwrap();
        assert!(subject_field.set_valued && !subject_field.optional); // '+'
        // Dept is simple without attributes → plain VARCHAR field.
        assert!(matches!(
            professor.field_for_child("Dept").unwrap().kind,
            FieldKind::Scalar(_)
        ));

        let course = schema.mapping("Course").unwrap();
        let credit = course.field_for_child("CreditPts").unwrap();
        assert!(credit.optional && !credit.set_valued); // '?'

        // Simple elements without attributes get no object type at all.
        assert!(schema.mapping("LName").unwrap().object_type.is_none());
        assert!(schema.mapping("Subject").unwrap().object_type.is_none());
        // But Subject has a collection wrapper (used set-valued).
        assert_eq!(
            schema.mapping("Subject").unwrap().collection_type.as_deref(),
            Some("TypeVA_Subject")
        );
    }

    #[test]
    fn oracle8_inverts_set_valued_complex_children() {
        let schema = uni_schema(DbMode::Oracle8);
        // Student, Course, Professor are set-valued & complex → tables; their
        // parents too (University is the root anyway).
        let student = schema.mapping("Student").unwrap();
        assert_eq!(
            student.table_rooted,
            Some(TableRootReason::Oracle8SetValuedComplex)
        );
        assert!(student.table.is_some());
        assert!(student.synthetic_id.is_some());
        // Student rows point back at the university.
        assert!(student
            .fields
            .iter()
            .any(|f| matches!(&f.source, FieldSource::ParentRef(p) if p == "University")));
        // The university holds no attrStudent field.
        let uni = schema.mapping("University").unwrap();
        assert!(uni.field_for_child("Student").is_none());
        // Set-valued *simple* children still use collections in Oracle 8.
        let professor = schema.mapping("Professor").unwrap();
        assert!(matches!(
            professor.field_for_child("Subject").unwrap().kind,
            FieldKind::ScalarCollection(_)
        ));
        // Many tables instead of one.
        assert!(schema.generated_table_count() >= 4);
    }

    #[test]
    fn recursion_gets_refs_and_forward_declarations() {
        let dtd = parse_dtd(
            r#"<!ELEMENT Professor (PName,Dept)>
               <!ELEMENT Dept (DName,Professor*)>
               <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>"#,
        )
        .unwrap();
        let schema = generate_schema(
            &dtd,
            "Professor",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        assert_eq!(schema.forward_declared, vec!["Professor".to_string()]);
        let professor = schema.mapping("Professor").unwrap();
        assert!(professor.table.is_some()); // root AND recursion target
        let dept = schema.mapping("Dept").unwrap();
        // Dept holds a nested table of REFs to professors (§6.2).
        assert!(matches!(
            dept.field_for_child("Professor").unwrap().kind,
            FieldKind::RefCollection { ref collection, ref target_type }
                if collection == "TabRefProfessor" && target_type == "Type_Professor"
        ));
        // Dept itself stays embedded in Type_Professor.
        assert!(matches!(
            professor.field_for_child("Dept").unwrap().kind,
            FieldKind::Object(ref t) if t == "Type_Dept"
        ));
    }

    #[test]
    fn attribute_lists_become_typeattrl_objects() {
        // §4.4's example: element B with attributes C and D.
        let dtd = parse_dtd(
            r#"<!ELEMENT A (B)>
               <!ELEMENT B (#PCDATA)>
               <!ATTLIST B C CDATA #IMPLIED D CDATA #IMPLIED>"#,
        )
        .unwrap();
        let schema = generate_schema(
            &dtd,
            "A",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        let b = schema.mapping("B").unwrap();
        assert_eq!(b.object_type.as_deref(), Some("Type_B"));
        let attr_list = b.attr_list.as_ref().unwrap();
        assert_eq!(attr_list.type_name, "TypeAttrL_B");
        assert_eq!(attr_list.fields.len(), 2);
        assert_eq!(attr_list.fields[0].db_name, "attrC");
        // Type_B: attrB (the text) preceded by attrListB.
        let names: Vec<&str> = b.fields.iter().map(|f| f.db_name.as_str()).collect();
        assert_eq!(names, vec!["attrListB", "attrB"]);
        assert!(b.text_field().is_some());
    }

    #[test]
    fn mixed_content_keeps_a_text_field() {
        let dtd = parse_dtd(
            "<!ELEMENT p (#PCDATA|em)*><!ELEMENT em (#PCDATA)><!ELEMENT d (p)>",
        )
        .unwrap();
        let schema = generate_schema(
            &dtd,
            "d",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        let p = schema.mapping("p").unwrap();
        assert!(p.mixed);
        assert!(p.text_field().is_some());
        let em = p.field_for_child("em").unwrap();
        assert!(em.set_valued && em.optional);
    }

    #[test]
    fn cardinality_merging_rules() {
        let dtd =
            parse_dtd("<!ELEMENT r (a,b?,a)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>").unwrap();
        let cards = dtd.element("r").unwrap().content.child_cardinalities();
        let a = cards.iter().find(|(n, _)| n == "a").unwrap().1;
        assert!(a.set_valued, "mentioned twice ⇒ can repeat");
        assert!(!a.optional, "both mentions mandatory");
        let b = cards.iter().find(|(n, _)| n == "b").unwrap().1;
        assert!(!b.set_valued && b.optional);
    }

    #[test]
    fn choice_members_are_optional() {
        let dtd =
            parse_dtd("<!ELEMENT r (a|b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>").unwrap();
        let cards = dtd.element("r").unwrap().content.child_cardinalities();
        assert!(cards.iter().all(|(_, c)| c.optional && !c.set_valued));
    }

    #[test]
    fn unreachable_elements_are_not_mapped() {
        let dtd = parse_dtd(
            "<!ELEMENT r (a)><!ELEMENT a (#PCDATA)><!ELEMENT orphan (#PCDATA)>",
        )
        .unwrap();
        let schema = generate_schema(
            &dtd,
            "r",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        assert!(schema.mapping("orphan").is_none());
        assert!(schema.mapping("a").is_some());
    }

    #[test]
    fn undeclared_child_is_an_error() {
        let dtd = parse_dtd("<!ELEMENT r (ghost)>").unwrap();
        let err = generate_schema(
            &dtd,
            "r",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap_err();
        assert!(matches!(err, MappingError::UndeclaredElement(ref n) if n == "ghost"));
    }

    #[test]
    fn unknown_root_is_an_error() {
        let dtd = parse_dtd("<!ELEMENT r (#PCDATA)>").unwrap();
        let err = generate_schema(
            &dtd,
            "nope",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap_err();
        assert!(matches!(err, MappingError::RootNotDeclared(_)));
    }

    #[test]
    fn doc_id_column_appears_only_when_requested() {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let with = generate_schema(
            &dtd,
            "University",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        assert_eq!(with.doc_id_column.as_deref(), Some("IDUniversity"));
        let without = generate_schema(
            &dtd,
            "University",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        assert_eq!(without.doc_id_column, None);
    }

    #[test]
    fn idref_attributes_become_ref_fields_when_enabled() {
        let dtd = parse_dtd(
            r#"<!ELEMENT db (person*)>
               <!ELEMENT person (#PCDATA)>
               <!ATTLIST person id ID #REQUIRED boss IDREF #IMPLIED>"#,
        )
        .unwrap();
        let mut targets = IdrefTargets::new();
        targets.insert(("person".into(), "boss".into()), "person".into());
        let schema = generate_schema(
            &dtd,
            "db",
            DbMode::Oracle9,
            MappingOptions { map_idrefs: true, with_doc_id: false, ..Default::default() },
            &targets,
        )
        .unwrap();
        let person = schema.mapping("person").unwrap();
        // ID target → its own object table.
        assert_eq!(person.table_rooted, Some(TableRootReason::IdTarget));
        let attr_list = person.attr_list.as_ref().unwrap();
        let boss = attr_list.fields.iter().find(|f| f.xml_attribute == "boss").unwrap();
        assert_eq!(boss.idref_target.as_deref(), Some("person"));
        // The id attribute itself stays VARCHAR (§4.4).
        let id = attr_list.fields.iter().find(|f| f.xml_attribute == "id").unwrap();
        assert!(id.idref_target.is_none());
    }

    #[test]
    fn unenforced_not_null_records_the_4_3_drawback() {
        let schema = uni_schema(DbMode::Oracle9);
        // Professor.attrPName is mandatory but Type_Professor is embedded.
        assert!(schema.unenforced_not_null.iter().any(|u| {
            u.type_name == "Type_Professor" && u.field == "attrPName"
        }));
        // Subject+ is mandatory but collections can't be NOT NULL.
        assert!(schema
            .unenforced_not_null
            .iter()
            .any(|u| u.field == "attrSubject" && u.reason.contains("set-valued")));
    }

    #[test]
    fn nested_table_style_names_follow_section_2_2() {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let schema = generate_schema(
            &dtd,
            "University",
            DbMode::Oracle9,
            MappingOptions {
                collection_style: CollectionStyle::NestedTable,
                with_doc_id: false,
                ..Default::default()
            },
            &IdrefTargets::new(),
        )
        .unwrap();
        assert_eq!(
            schema.mapping("Subject").unwrap().collection_type.as_deref(),
            Some("Type_TabSubject")
        );
    }

    #[test]
    fn multi_parent_elements_share_one_type() {
        // Fig. 3's Address below Professor and Student.
        let dtd = parse_dtd(
            r#"<!ELEMENT Faculty (Professor,Student)>
               <!ELEMENT Professor (PName,Address)>
               <!ELEMENT Address (Street,City)>
               <!ELEMENT Student (Address,SName)>
               <!ELEMENT PName (#PCDATA)> <!ELEMENT SName (#PCDATA)>
               <!ELEMENT Street (#PCDATA)> <!ELEMENT City (#PCDATA)>"#,
        )
        .unwrap();
        let schema = generate_schema(
            &dtd,
            "Faculty",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        let prof = schema.mapping("Professor").unwrap();
        let student = schema.mapping("Student").unwrap();
        let t1 = match &prof.field_for_child("Address").unwrap().kind {
            FieldKind::Object(t) => t.clone(),
            other => panic!("unexpected {other:?}"),
        };
        let t2 = match &student.field_for_child("Address").unwrap().kind {
            FieldKind::Object(t) => t.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(t1, t2);
        assert_eq!(t1, "Type_Address");
    }
}
