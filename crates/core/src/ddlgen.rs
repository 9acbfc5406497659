//! SQL script generation from a [`MappedSchema`].
//!
//! §4: "The DTD tree representation is the input for the generation
//! algorithm producing an SQL script. This script can be executed afterwards
//! without any modification to create and populate the database tables."
//! The output of [`create_script`] is exactly that script — plain SQL text
//! the `xmlord-ordb` engine (or, syntactically, Oracle) executes verbatim.

use crate::error::MappingError;
use crate::model::{CollectionStyle, ElementMapping, MappedSchema};
use crate::naming::{NameGenerator, NameKind};

/// Render the complete CREATE script: forward declarations first (§6.2),
/// then attribute-list types, object types and collection types bottom-up,
/// then the object tables with their constraints.
///
/// Fails with [`MappingError::MalformedMapping`] when the schema violates a
/// generator invariant (a hand-built or post-generation-mutated mapping);
/// schemas straight out of [`generate_schema`](crate::schemagen::generate_schema)
/// never do.
pub fn create_script(schema: &MappedSchema) -> Result<String, MappingError> {
    let mut out = types_script(schema)?;
    for element in &schema.creation_order {
        let mapping = &schema.elements[element];
        push_table(&mut out, mapping)?;
    }
    Ok(out)
}

/// Only the type definitions (no tables) — used by the §6.3 object-view
/// generator, which superimposes the types on a *relational* schema.
pub fn types_script(schema: &MappedSchema) -> Result<String, MappingError> {
    let mut out = String::new();
    let varchar = schema.options.varchar_len;

    // Forward declarations: recursion targets (§6.2) plus every type that a
    // REF column points at — REF columns may appear in types created before
    // their target.
    let mut ref_targets: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for mapping in schema.elements.values() {
        for field in &mapping.fields {
            match &field.kind {
                crate::model::FieldKind::Ref(t)
                | crate::model::FieldKind::RefCollection { target_type: t, .. } => {
                    ref_targets.insert(t);
                }
                _ => {}
            }
        }
        if let Some(attr_list) = &mapping.attr_list {
            for f in &attr_list.fields {
                if let Some(target) = &f.idref_target {
                    if let Some(t) = schema.elements.get(target).and_then(|m| m.object_type.as_deref()) {
                        ref_targets.insert(t);
                    }
                }
            }
        }
    }
    for element in &schema.creation_order {
        let mapping = &schema.elements[element];
        let Some(type_name) = &mapping.object_type else { continue };
        if schema.forward_declared.contains(element) || ref_targets.contains(type_name.as_str()) {
            out.push_str(&format!("CREATE TYPE {type_name};\n"));
        }
    }
    // Nested-table-of-REF types only need the forward declarations above.
    for element in &schema.creation_order {
        push_ref_collection_type(&mut out, &schema.elements[element])?;
    }

    // Types, children before parents.
    for element in &schema.creation_order {
        let mapping = &schema.elements[element];
        push_attr_list_type(&mut out, schema, mapping, varchar);
        push_object_type(&mut out, mapping, varchar);
        push_collection_type(&mut out, schema, mapping, varchar);
    }
    Ok(out)
}

/// Render the teardown script. Tables first, then types in reverse creation
/// order; `DROP TYPE … FORCE` throughout because related types must be
/// force-dropped (§6.2).
pub fn drop_script(schema: &MappedSchema) -> String {
    let mut out = String::new();
    for element in schema.creation_order.iter().rev() {
        let mapping = &schema.elements[element];
        if let Some(table) = &mapping.table {
            out.push_str(&format!("DROP TABLE {table};\n"));
        }
    }
    for element in schema.creation_order.iter().rev() {
        let mapping = &schema.elements[element];
        if let Some(t) = &mapping.ref_collection_type {
            out.push_str(&format!("DROP TYPE {t} FORCE;\n"));
        }
        if let Some(t) = &mapping.collection_type {
            out.push_str(&format!("DROP TYPE {t} FORCE;\n"));
        }
        if let Some(t) = &mapping.object_type {
            out.push_str(&format!("DROP TYPE {t} FORCE;\n"));
        }
        if let Some(attr_list) = &mapping.attr_list {
            out.push_str(&format!("DROP TYPE {} FORCE;\n", attr_list.type_name));
        }
    }
    out
}

fn push_attr_list_type(
    out: &mut String,
    schema: &MappedSchema,
    mapping: &ElementMapping,
    varchar: u32,
) {
    let Some(attr_list) = &mapping.attr_list else { return };
    let _ = varchar;
    let mut cols = Vec::new();
    for field in &attr_list.fields {
        let sql_type = match &field.idref_target {
            Some(target) => {
                let target_type = schema
                    .elements
                    .get(target)
                    .and_then(|m| m.object_type.clone())
                    .unwrap_or_else(|| {
                        NameGenerator::new().conventional(NameKind::ObjectType, target, false)
                    });
                format!("REF {target_type}")
            }
            None => field.scalar_type.sql_text(),
        };
        cols.push(format!("    {} {}", field.db_name, sql_type));
    }
    out.push_str(&format!(
        "CREATE TYPE {} AS OBJECT (\n{});\n",
        attr_list.type_name,
        cols.join(",\n") + "\n"
    ));
}

fn push_object_type(out: &mut String, mapping: &ElementMapping, varchar: u32) {
    let Some(type_name) = &mapping.object_type else { return };
    let cols: Vec<String> = mapping
        .fields
        .iter()
        .map(|f| format!("    {} {}", f.db_name, f.kind.sql_type_text(varchar)))
        .collect();
    out.push_str(&format!(
        "CREATE TYPE {} AS OBJECT (\n{});\n",
        type_name,
        cols.join(",\n") + "\n"
    ));
}

fn push_collection_type(
    out: &mut String,
    schema: &MappedSchema,
    mapping: &ElementMapping,
    varchar: u32,
) {
    let _ = varchar;
    let Some(collection) = &mapping.collection_type else { return };
    let element_type = match &mapping.object_type {
        Some(t) => t.clone(),
        None => mapping.scalar_type.sql_text(),
    };
    match schema.options.collection_style {
        CollectionStyle::Varray => out.push_str(&format!(
            "CREATE TYPE {collection} AS VARRAY({}) OF {element_type};\n",
            schema.options.varray_max
        )),
        CollectionStyle::NestedTable => {
            out.push_str(&format!("CREATE TYPE {collection} AS TABLE OF {element_type};\n"))
        }
    }
}

fn push_ref_collection_type(
    out: &mut String,
    mapping: &ElementMapping,
) -> Result<(), MappingError> {
    let Some(collection) = &mapping.ref_collection_type else { return Ok(()) };
    let target = mapping.object_type.as_ref().ok_or_else(|| {
        MappingError::MalformedMapping(format!(
            "element <{}> has REF collection type {collection} but no object type to point at",
            mapping.element
        ))
    })?;
    out.push_str(&format!("CREATE TYPE {collection} AS TABLE OF REF {target};\n"));
    Ok(())
}

fn push_table(out: &mut String, mapping: &ElementMapping) -> Result<(), MappingError> {
    let Some(table) = &mapping.table else { return Ok(()) };
    let type_name = mapping.object_type.as_ref().ok_or_else(|| {
        MappingError::MalformedMapping(format!(
            "element <{}> is table-rooted ({table}) but has no object type",
            mapping.element
        ))
    })?;
    let mut constraints: Vec<String> = Vec::new();
    // §4.3: mandatory, non-set-valued content → NOT NULL — expressible here
    // because this is a table, except for an IDREF the loader sets after
    // the INSERT.
    for field in &mapping.fields {
        if !field.optional && !field.set_valued && !field.wired_after_insert() {
            constraints.push(format!("    {} NOT NULL", field.db_name));
        }
    }
    // The synthetic ID is the lookup key for INSERT wiring and retrieval.
    if let Some(id) = &mapping.synthetic_id {
        constraints.push(format!("    {id} PRIMARY KEY"));
    }
    if constraints.is_empty() {
        out.push_str(&format!("CREATE TABLE {table} OF {type_name};\n"));
    } else {
        out.push_str(&format!(
            "CREATE TABLE {table} OF {type_name} (\n{}\n);\n",
            constraints.join(",\n")
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MappingOptions;
    use crate::schemagen::{generate_schema, IdrefTargets};
    use xmlord_dtd::parse_dtd;
    use xmlord_ordb::{Database, DbMode};

    const UNIVERSITY_DTD: &str = r#"
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

    fn schema_for(dtd_text: &str, root: &str, mode: DbMode) -> MappedSchema {
        let dtd = parse_dtd(dtd_text).unwrap();
        generate_schema(
            &dtd,
            root,
            mode,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap()
    }

    #[test]
    fn university_script_contains_the_section_4_2_shapes() {
        let schema = schema_for(UNIVERSITY_DTD, "University", DbMode::Oracle9);
        let script = create_script(&schema).unwrap();
        assert!(script.contains("CREATE TYPE TypeVA_Subject AS VARRAY(100) OF VARCHAR(4000);"));
        assert!(script.contains("CREATE TYPE TypeVA_Professor AS VARRAY(100) OF Type_Professor;"));
        assert!(script.contains("CREATE TYPE Type_Student AS OBJECT ("), "{script}");
        assert!(script.contains("attrStudNr VARCHAR(4000)"));
        assert!(script.contains("attrCourse TypeVA_Course"));
        assert!(script.contains("CREATE TABLE TabUniversity OF Type_University"));
        // Root table NOT NULL on the mandatory StudyCourse.
        assert!(script.contains("attrStudyCourse NOT NULL"), "{script}");
    }

    #[test]
    fn generated_script_executes_on_oracle9_engine_verbatim() {
        let schema = schema_for(UNIVERSITY_DTD, "University", DbMode::Oracle9);
        let script = create_script(&schema).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&script).unwrap();
        assert_eq!(db.catalog().table_count(), 1);
        assert!(db.catalog().type_count() >= 7);
        // Teardown script also runs verbatim.
        let teardown = drop_script(&schema);
        db.execute_script(&teardown).unwrap();
        assert_eq!(db.catalog().table_count(), 0);
        assert_eq!(db.catalog().type_count(), 0);
    }

    #[test]
    fn generated_oracle8_script_executes_on_oracle8_engine() {
        let schema = schema_for(UNIVERSITY_DTD, "University", DbMode::Oracle8);
        let script = create_script(&schema).unwrap();
        let mut db = Database::new(DbMode::Oracle8);
        db.execute_script(&script).unwrap();
        // Student/Course/Professor each got their own object table.
        assert!(db.catalog().table_count() >= 4, "{script}");
        // And the script must NOT contain nested collections of objects.
        assert!(!script.contains("VARRAY(100) OF Type_"), "{script}");
    }

    #[test]
    fn oracle9_script_fails_on_oracle8_engine() {
        // The §2.2 restriction, demonstrated end-to-end: the nested-
        // collection DDL generated for Oracle 9 is rejected by Oracle 8.
        let schema = schema_for(UNIVERSITY_DTD, "University", DbMode::Oracle9);
        let script = create_script(&schema).unwrap();
        let mut db = Database::new(DbMode::Oracle8);
        assert!(db.execute_script(&script).is_err());
    }

    #[test]
    fn recursive_schema_script_round_trips() {
        let schema = schema_for(
            r#"<!ELEMENT Professor (PName,Dept)>
               <!ELEMENT Dept (DName,Professor*)>
               <!ELEMENT PName (#PCDATA)> <!ELEMENT DName (#PCDATA)>"#,
            "Professor",
            DbMode::Oracle9,
        );
        let script = create_script(&schema).unwrap();
        // §6.2's shape: forward declaration, TABLE OF REF, aggregation.
        assert!(script.starts_with("CREATE TYPE Type_Professor;\n"), "{script}");
        assert!(script.contains("CREATE TYPE TabRefProfessor AS TABLE OF REF Type_Professor;"));
        assert!(script.contains("attrProfessor TabRefProfessor"));
        assert!(script.contains("attrDept Type_Dept"));
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&script).unwrap();
        db.execute_script(&drop_script(&schema)).unwrap();
    }

    #[test]
    fn attr_list_types_render_and_execute() {
        let schema = schema_for(
            r#"<!ELEMENT A (B)>
               <!ELEMENT B (#PCDATA)>
               <!ATTLIST B C CDATA #IMPLIED D CDATA #IMPLIED>"#,
            "A",
            DbMode::Oracle9,
        );
        let script = create_script(&schema).unwrap();
        assert!(script.contains("CREATE TYPE TypeAttrL_B AS OBJECT ("));
        assert!(script.contains("attrListB TypeAttrL_B"));
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&script).unwrap();
    }

    #[test]
    fn nested_table_style_renders_table_of() {
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
        let script = create_script(&schema).unwrap();
        assert!(script.contains("CREATE TYPE Type_TabSubject AS TABLE OF VARCHAR(4000);"));
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&script).unwrap();
    }

    #[test]
    fn doc_id_column_becomes_primary_key() {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        let schema = generate_schema(
            &dtd,
            "University",
            DbMode::Oracle9,
            MappingOptions::default(),
            &IdrefTargets::new(),
        )
        .unwrap();
        let script = create_script(&schema).unwrap();
        assert!(script.contains("IDUniversity PRIMARY KEY"), "{script}");
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&script).unwrap();
    }
}
