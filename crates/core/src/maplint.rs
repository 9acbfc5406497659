//! maplint level 2: lints over a [`MappedSchema`] and the catalog-drift
//! checker.
//!
//! The DTD level (`xmlord_dtd::lint`) judges the *input*; this module
//! judges the *derivation*: the generated names, types and constraints of
//! one mapped schema, plus whether the live engine catalog still matches
//! it. Diagnostics anchor into the schema's own CREATE script (regenerated
//! via [`create_script`]) so the rustc-style renderer points at the exact
//! `CREATE TYPE`/`CREATE TABLE` line a finding concerns.
//!
//! Severity follows the workspace-wide differential guarantee: **Error**
//! only where executing the pipeline is guaranteed to fail (the engine's
//! eager, data-independent checks — duplicate global names, unknown REF
//! targets, missing catalog objects), **Warning** for lossy or
//! data-dependent findings (unenforced NOT NULL, VARCHAR capacity,
//! collection order).

use std::collections::BTreeMap;

use xmlord_diag::{Diagnostic, Severity, Span};
use xmlord_ordb::catalog::{Catalog, TableDef};
use xmlord_ordb::ident::Ident;

use crate::ddlgen::create_script;
use crate::error::MappingError;
use crate::model::{CollectionStyle, FieldKind, FieldSource, MappedSchema, ScalarType};
use crate::naming;

/// A maplint report: diagnostics plus the source text their spans index.
#[derive(Debug, Clone)]
pub struct MapLintReport {
    /// The regenerated CREATE script the spans anchor into.
    pub source: String,
    pub diagnostics: Vec<Diagnostic>,
}

impl MapLintReport {
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Render every diagnostic rustc-style against the report's source.
    pub fn render(&self, source_name: &str) -> String {
        self.diagnostics.iter().map(|d| d.render(&self.source, source_name)).collect::<Vec<_>>().join("\n")
    }
}

/// First occurrence of identifier `name` in `script`, as a character span.
/// Zero-length span at the start when the name never appears (e.g. a
/// mapping invariant broken before DDL rendering).
fn anchor(script: &str, name: &str) -> Span {
    if name.is_empty() {
        return Span::at(0);
    }
    let mut from = 0usize;
    while let Some(rel) = script[from..].find(name) {
        let byte = from + rel;
        let end = byte + name.len();
        let before_ok =
            byte == 0 || !script[..byte].chars().next_back().is_some_and(is_ident_char);
        let after_ok = !script[end..].chars().next().is_some_and(is_ident_char);
        if before_ok && after_ok {
            let start = script[..byte].chars().count();
            return Span::new(start, start + name.chars().count());
        }
        from = end;
    }
    Span::at(0)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '$' || c == '#'
}

/// Lint catalog, level 2 (IDs are stable; see DESIGN.md §5i):
///
/// | code | finding | severity |
/// |------|---------|----------|
/// | `MAP010 duplicate-global-name` | two generated global names collide (case-insensitive) | Error |
/// | `MAP011 illegal-identifier` | a generated name is reserved/over-long/illegal | Error |
/// | `MAP012 duplicate-field-name` | duplicate attribute inside one object type | Error |
/// | `MAP020 attrlist-mismatch` | attrList field without mapping (Error: unknown type in DDL) or mapping without field (Warning: attributes silently dropped) | Error/Warning |
/// | `MAP021 ref-unknown-target` | REF column targets a type no element provides | Error |
/// | `MAP030 unenforced-not-null` | §4.3: NOT NULL inexpressible for inner attributes | Warning |
/// | `MAP031 varchar-capacity` | hinted VARCHAR narrower than the default — loads can overflow | Warning |
/// | `MAP032 order-loss` | nested-table collections do not preserve document order | Warning |
/// | `MAP033 name-mangled` | XML name sanitized: generated names differ from it | Warning |
pub fn lint_schema(schema: &MappedSchema) -> Result<MapLintReport, MappingError> {
    let script = create_script(schema)?;
    let mut diags: Vec<Diagnostic> = Vec::new();

    // ---- MAP010/MAP011: the global namespace (types + tables share it).
    let mut globals: BTreeMap<String, (String, &str)> = BTreeMap::new();
    let mut check_global = |name: &str, what: &'static str, diags: &mut Vec<Diagnostic>| {
        if Ident::new(name).is_err() {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: "MAP011",
                message: format!("generated {what} name '{name}' is not a legal identifier (reserved word, too long, or illegal characters): the engine rejects the DDL"),
                span: anchor(&script, name),
            });
        }
        if let Some((other, other_what)) = globals.get(&name.to_uppercase()) {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: "MAP010",
                message: format!("generated {what} name '{name}' collides with {other_what} '{other}' (identifiers are case-insensitive): the engine rejects the second CREATE with DuplicateName"),
                span: anchor(&script, name),
            });
        } else {
            globals.insert(name.to_uppercase(), (name.to_string(), what));
        }
    };
    for element in &schema.creation_order {
        let m = &schema.elements[element];
        if let Some(al) = &m.attr_list {
            check_global(&al.type_name, "attribute-list type", &mut diags);
        }
        if let Some(t) = &m.object_type {
            check_global(t, "object type", &mut diags);
        }
        if let Some(t) = &m.collection_type {
            check_global(t, "collection type", &mut diags);
        }
        if let Some(t) = &m.ref_collection_type {
            check_global(t, "REF collection type", &mut diags);
        }
        if let Some(t) = &m.table {
            check_global(t, "table", &mut diags);
        }
    }

    // The set of object types some element actually generates (REF targets
    // must come from here — only row objects of these types exist).
    let provided_types: BTreeMap<String, &str> = schema
        .elements
        .values()
        .filter_map(|m| m.object_type.as_deref().map(|t| (t.to_uppercase(), m.element.as_str())))
        .collect();

    for element in &schema.creation_order {
        let m = &schema.elements[element];

        // ---- MAP012: duplicate attribute names within one object type.
        let mut seen: BTreeMap<String, String> = BTreeMap::new();
        for f in &m.fields {
            if let Some(other) = seen.insert(f.db_name.to_uppercase(), f.db_name.clone()) {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "MAP012",
                    message: format!("object type of <{element}> declares attribute '{}' twice (also as '{other}'): the engine rejects the DDL with DuplicateColumn", f.db_name),
                    span: anchor(&script, &f.db_name),
                });
            }
        }

        // ---- MAP020: attrList field/mapping invariant.
        let has_attr_list_field = m.fields.iter().any(|f| f.source == FieldSource::AttrList);
        match (&m.attr_list, has_attr_list_field) {
            (None, true) => diags.push(Diagnostic {
                severity: Severity::Error,
                code: "MAP020",
                message: format!("<{element}> has an attrList field but no attribute-list mapping: the field's type is never created and the load aborts with MalformedMapping"),
                span: anchor(&script, m.object_type.as_deref().unwrap_or("")),
            }),
            (Some(al), false) if m.object_type.is_some() => diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "MAP020",
                message: format!("<{element}> has attribute-list mapping {} but no attrList field: its XML attributes are silently dropped on load", al.type_name),
                span: anchor(&script, &al.type_name),
            }),
            _ => {}
        }

        // ---- MAP021: REF columns must target a provided object type.
        for f in &m.fields {
            let target = match &f.kind {
                FieldKind::Ref(t) => Some(t),
                FieldKind::RefCollection { target_type, .. } => Some(target_type),
                _ => None,
            };
            if let Some(t) = target {
                if !provided_types.contains_key(&t.to_uppercase()) {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        code: "MAP021",
                        message: format!("field '{}' of <{element}> is REF {t}, but no element maps to object type {t}: the engine rejects the DDL with UnknownType", f.db_name),
                        span: anchor(&script, &f.db_name),
                    });
                }
            }
        }
        if let Some(al) = &m.attr_list {
            for f in &al.fields {
                if let Some(target_element) = &f.idref_target {
                    let ok = schema
                        .elements
                        .get(target_element)
                        .is_some_and(|t| t.object_type.is_some() && t.table.is_some());
                    if !ok {
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            code: "MAP021",
                            message: format!("IDREF attribute '{}' of <{element}> targets <{target_element}>, which has no object table to REF into", f.xml_attribute),
                            span: anchor(&script, &f.db_name),
                        });
                    }
                }
            }
        }

        // ---- MAP031: hinted VARCHAR narrower than the default.
        for f in &m.fields {
            if let FieldKind::Scalar(ScalarType::Varchar(n)) = &f.kind {
                if *n < schema.options.varchar_len {
                    diags.push(Diagnostic {
                        severity: Severity::Warning,
                        code: "MAP031",
                        message: format!("field '{}' of <{element}> is VARCHAR({n}) (narrower than the default {}): longer text fails at load time", f.db_name, schema.options.varchar_len),
                        span: anchor(&script, &f.db_name),
                    });
                }
            }
        }

        // ---- MAP032: nested tables lose document order.
        if schema.options.collection_style == CollectionStyle::NestedTable {
            if let Some(t) = &m.collection_type {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "MAP032",
                    message: format!("collection {t} is a nested table: unlike a VARRAY it does not preserve document order of <{element}> occurrences (§4.2)"),
                    span: anchor(&script, t),
                });
            }
        }

        // ---- MAP033: generated names of a sanitized XML name differ from it.
        if naming::sanitize(element) != *element {
            let display = m
                .object_type
                .as_deref()
                .or(m.table.as_deref())
                .unwrap_or(element);
            diags.push(Diagnostic {
                severity: Severity::Warning,
                code: "MAP033",
                message: format!("XML name '{element}' contains characters illegal in SQL identifiers; it is sanitized to '{}' in generated names, which stay unique — a numeric suffix under or9/or8/rel/inline, a hash of the XML name under attr — so a name need not read as its XML name", naming::sanitize(element)),
                span: anchor(&script, display),
            });
        }
    }

    // ---- MAP030: §4.3 unenforced NOT NULLs recorded by schemagen.
    for u in &schema.unenforced_not_null {
        diags.push(Diagnostic {
            severity: Severity::Warning,
            code: "MAP030",
            message: format!("NOT NULL on {}.{} cannot be enforced: {}", u.type_name, u.field, u.reason),
            span: anchor(&script, &u.field),
        });
    }

    Ok(MapLintReport { source: script, diagnostics: diags })
}

/// Catalog-drift checker: diff `schema` against the live `catalog`.
///
/// Every finding is an **Error** — each one reproduces as a runtime
/// failure (`InconsistentMapping`, unknown table/type, or constructor
/// arity mismatch) the moment a document is stored or retrieved through
/// the drifted mapping:
///
/// | code | drift |
/// |------|-------|
/// | `DRIFT001 missing-table` | mapped table absent from the catalog |
/// | `DRIFT002 table-kind` | table exists but is not an object table of the mapped type |
/// | `DRIFT003 missing-type` | mapped type absent from the catalog |
/// | `DRIFT004 column-drift` | object type attributes disagree with the mapped fields |
pub fn check_catalog_drift(
    schema: &MappedSchema,
    catalog: &Catalog,
) -> Result<MapLintReport, MappingError> {
    let script = create_script(schema)?;
    let mut diags: Vec<Diagnostic> = Vec::new();

    for element in &schema.creation_order {
        let m = &schema.elements[element];

        for type_name in [
            m.object_type.as_deref(),
            m.collection_type.as_deref(),
            m.ref_collection_type.as_deref(),
            m.attr_list.as_ref().map(|al| al.type_name.as_str()),
        ]
        .into_iter()
        .flatten()
        {
            let Some(def) = catalog.get_type(&Ident::internal(type_name)) else {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "DRIFT003",
                    message: format!("mapped type {type_name} (element <{element}>) does not exist in the catalog: loads and retrievals through this mapping fail"),
                    span: anchor(&script, type_name),
                });
                continue;
            };
            // Column drift only checks the element's own object type — the
            // constructor the loader emits must match it positionally.
            if Some(type_name) == m.object_type.as_deref() && !def.is_incomplete() {
                let attrs = def.object_attrs();
                let mapped: Vec<&str> = m.fields.iter().map(|f| f.db_name.as_str()).collect();
                let actual: Vec<&str> = attrs.iter().map(|(n, _)| n.as_str()).collect();
                let same = mapped.len() == actual.len()
                    && mapped
                        .iter()
                        .zip(&actual)
                        .all(|(a, b)| a.to_uppercase() == b.to_uppercase());
                if !same {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        code: "DRIFT004",
                        message: format!(
                            "object type {type_name} has attributes ({}) in the catalog but the mapping of <{element}> expects ({}): the loader's constructor calls fail",
                            actual.join(", "),
                            mapped.join(", ")
                        ),
                        span: anchor(&script, type_name),
                    });
                }
            }
        }

        if let Some(table) = &m.table {
            match catalog.get_table(&Ident::internal(table)) {
                None => diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "DRIFT001",
                    message: format!("mapped table {table} (element <{element}>) does not exist in the catalog: every INSERT and SELECT against it fails"),
                    span: anchor(&script, table),
                }),
                Some(TableDef::Object { of_type, .. }) => {
                    if let Some(expected) = &m.object_type {
                        if !of_type.eq_str(expected) {
                            diags.push(Diagnostic {
                                severity: Severity::Error,
                                code: "DRIFT002",
                                message: format!("table {table} is an object table of {}, but the mapping of <{element}> expects {expected}: stored rows are inconsistent with the mapping", of_type.as_str()),
                                span: anchor(&script, table),
                            });
                        }
                    }
                }
                Some(TableDef::Relational { .. }) => diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: "DRIFT002",
                    message: format!("table {table} exists but is a relational table, not an object table of {}: the loader's object constructors fail against it", m.object_type.as_deref().unwrap_or("the mapped type")),
                    span: anchor(&script, table),
                }),
            }
        }
    }

    Ok(MapLintReport { source: script, diagnostics: diags })
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
<!ELEMENT Student (LName)>
<!ATTLIST Student StudNr CDATA #REQUIRED>
<!ELEMENT LName (#PCDATA)>
<!ELEMENT StudyCourse (#PCDATA)>
"#;

    fn schema() -> MappedSchema {
        let dtd = parse_dtd(UNIVERSITY_DTD).unwrap();
        generate_schema(
            &dtd,
            "University",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap()
    }

    #[test]
    fn generated_schema_is_clean() {
        let report = lint_schema(&schema()).unwrap();
        assert_eq!(report.error_count(), 0, "{}", report.render("university.sql"));
    }

    #[test]
    fn hand_broken_ref_target_is_an_error_and_the_ddl_fails() {
        let mut s = schema();
        let m = s.elements.get_mut("Student").unwrap();
        m.fields.push(crate::model::FieldMapping {
            db_name: "attrGhost".into(),
            source: FieldSource::ChildElement("Ghost".into()),
            kind: FieldKind::Ref("Type_Ghost".into()),
            set_valued: false,
            optional: true,
        });
        let report = lint_schema(&s).unwrap();
        assert!(report.diagnostics.iter().any(|d| d.code == "MAP021" && d.severity == Severity::Error), "{}", report.render("s.sql"));
        // Differential: the engine indeed rejects the generated DDL.
        let script = create_script(&s).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        assert!(db.execute_script(&script).is_err());
    }

    #[test]
    fn forced_name_collision_is_an_error_and_the_ddl_fails() {
        let mut s = schema();
        // Collide the Student table with the University table.
        let m = s.elements.get_mut("Student").unwrap();
        m.table = Some("TabUniversity".into());
        let report = lint_schema(&s).unwrap();
        assert!(report.diagnostics.iter().any(|d| d.code == "MAP010"), "{}", report.render("s.sql"));
        let script = create_script(&s).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        assert!(db.execute_script(&script).is_err());
    }

    #[test]
    fn duplicate_field_name_is_an_error_and_the_ddl_fails() {
        let mut s = schema();
        let m = s.elements.get_mut("Student").unwrap();
        let mut twin = m.fields[0].clone();
        twin.db_name = twin.db_name.to_uppercase();
        m.fields.push(twin);
        let report = lint_schema(&s).unwrap();
        let map012 = report.diagnostics.iter().find(|d| d.code == "MAP012");
        assert_eq!(map012.map(|d| d.severity), Some(Severity::Error), "{}", report.render("s.sql"));
        let script = create_script(&s).unwrap();
        let mut db = Database::new(DbMode::Oracle9);
        assert!(matches!(
            db.execute_script(&script),
            Err(xmlord_ordb::DbError::DuplicateColumn { .. })
        ));
    }

    /// A `#REQUIRED` IDREF with a resolved target is a REF column the
    /// loader sets by a deferred UPDATE: the DDL leaves it nullable, and
    /// maplint reports the NOT NULL as unenforced instead.
    #[test]
    fn a_required_idref_column_is_nullable_and_reported_unenforced() {
        let dtd = parse_dtd(
            r#"<!ELEMENT db (team*, person*)> <!ELEMENT team (#PCDATA)>
               <!ATTLIST team lead IDREF #REQUIRED>
               <!ELEMENT person (#PCDATA)> <!ATTLIST person id ID #REQUIRED>"#,
        )
        .unwrap();
        let mut targets = IdrefTargets::new();
        targets.insert(("team".into(), "lead".into()), "person".into());
        for mode in [DbMode::Oracle9, DbMode::Oracle8] {
            let options = MappingOptions { map_idrefs: true, ..Default::default() };
            let s = generate_schema(&dtd, "db", mode, options, &targets).unwrap();
            let script = create_script(&s).unwrap();
            assert!(script.contains("REF Type_person"), "{mode:?}: {script}");
            assert!(!script.contains("attrlead NOT NULL"), "{mode:?}: {script}");
            let report = lint_schema(&s).unwrap();
            assert!(
                report.diagnostics.iter().any(|d| d.code == "MAP030" && d.message.contains("attrlead")),
                "{mode:?}: {}",
                report.render("s.sql")
            );
            assert_eq!(report.error_count(), 0, "{}", report.render("s.sql"));
        }
    }

    #[test]
    fn unenforced_not_null_surfaces_as_warning() {
        let dtd = parse_dtd(
            r#"<!ELEMENT A (B*)> <!ELEMENT B (C)> <!ELEMENT C (#PCDATA)>"#,
        )
        .unwrap();
        let s = generate_schema(
            &dtd,
            "A",
            DbMode::Oracle9,
            MappingOptions { with_doc_id: false, ..Default::default() },
            &IdrefTargets::new(),
        )
        .unwrap();
        if s.unenforced_not_null.is_empty() {
            return; // schema variant without the drawback — nothing to check
        }
        let report = lint_schema(&s).unwrap();
        assert!(report.diagnostics.iter().any(|d| d.code == "MAP030"));
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn drift_checker_is_quiet_on_a_fresh_catalog_and_loud_after_drop() {
        let s = schema();
        let mut db = Database::new(DbMode::Oracle9);
        db.execute_script(&create_script(&s).unwrap()).unwrap();
        let clean = check_catalog_drift(&s, &db.catalog()).unwrap();
        assert_eq!(clean.error_count(), 0, "{}", clean.render("drift.sql"));

        db.execute("DROP TABLE TabUniversity").unwrap();
        let drifted = check_catalog_drift(&s, &db.catalog()).unwrap();
        assert!(drifted.diagnostics.iter().any(|d| d.code == "DRIFT001"));
        // Differential: the load path indeed fails against the drifted DB.
        assert!(db.execute("INSERT INTO TabUniversity VALUES (Type_University('x', NULL))").is_err());
    }

    #[test]
    fn drift_checker_reports_column_drift() {
        let s = schema();
        let mut db = Database::new(DbMode::Oracle9);
        // Recreate the Student type with a different attribute list.
        let mut script = create_script(&s).unwrap();
        script = script.replace(
            "CREATE TYPE Type_Student AS OBJECT (\n    attrStudNr VARCHAR(4000),\n    attrLName VARCHAR(4000)\n);",
            "CREATE TYPE Type_Student AS OBJECT (\n    attrStudNr VARCHAR(4000)\n);",
        );
        db.execute_script(&script).unwrap();
        let drifted = check_catalog_drift(&s, &db.catalog()).unwrap();
        assert!(
            drifted.diagnostics.iter().any(|d| d.code == "DRIFT004"),
            "{}",
            drifted.render("drift.sql")
        );
    }

    #[test]
    fn anchors_point_into_the_create_script() {
        let s = schema();
        let report = lint_schema(&s).unwrap();
        for d in &report.diagnostics {
            assert!(d.span.end <= report.source.chars().count());
        }
        let span = anchor("CREATE TABLE TabX OF Type_X;", "Type_X");
        assert_eq!((span.start, span.end), (21, 27));
        // Whole-word matching: `Type_X` must not anchor inside `Type_XY`.
        let span2 = anchor("CREATE TYPE Type_XY;\nCREATE TABLE T OF Type_X;", "Type_X");
        assert_eq!(span2.start, 39);
    }
}
