//! The §4.3 CHECK quirk, end to end: a CHECK constraint over an attribute
//! of a *nullable* object column executes fine in both modes and rejects
//! rows whose attribute is definitely wrong — but a row whose whole object
//! column is NULL makes the condition UNKNOWN, and UNKNOWN passes, so the
//! row slips in silently. The static analyzer flags exactly this gap as the
//! `check-null-object` warning, with a line/column anchored at the CHECK.
//!
//! And an unqualified column that a view and a table share, which the
//! analyzer must resolve as the executor does.

use xmlord_ordb::{Database, DbError, DbMode, Severity, Value};

const SCRIPT: &str = "\
CREATE TYPE Type_Address AS OBJECT (attrStreet VARCHAR(40), attrCity VARCHAR(40));
CREATE TYPE Type_Course AS OBJECT (attrName VARCHAR(40), attrAddress Type_Address);
CREATE TABLE TabCourse OF Type_Course (CHECK (attrAddress.attrCity = 'Leipzig'));";

#[test]
fn null_object_row_slips_past_the_check_in_both_modes() {
    for mode in [DbMode::Oracle8, DbMode::Oracle9] {
        let mut db = Database::new(mode);
        // Every statement is analyzed against the live catalog before it runs.
        let mut diags = db.check(SCRIPT).unwrap();
        db.execute_script(SCRIPT).unwrap();

        // A definitely-wrong city is rejected — the CHECK works as written …
        let wrong_city = "INSERT INTO TabCourse VALUES \
                          (Type_Course('CAD', Type_Address('Main St', 'Dresden')))";
        diags.extend(db.check(wrong_city).unwrap());
        let err = db.execute(wrong_city).unwrap_err();
        assert!(matches!(err, DbError::CheckViolation { .. }), "{mode:?}: {err}");

        // … but a NULL address makes the condition UNKNOWN, which passes:
        // the fixture row the constraint author thought impossible.
        let null_address = "INSERT INTO TabCourse VALUES (Type_Course('DBS', NULL))";
        diags.extend(db.check(null_address).unwrap());
        db.execute(null_address).unwrap();
        assert_eq!(db.row_count("TabCourse"), 1, "{mode:?}: NULL row should have slipped past");

        // The analyzer saw the quirk (warning, never an error).
        let count = |severity| diags.iter().filter(|d| d.severity == severity).count();
        assert!(count(Severity::Warning) >= 1, "{mode:?}");
        assert_eq!(count(Severity::Error), 0, "{mode:?}");
    }
}

#[test]
fn analyzer_pins_the_quirk_to_the_check_keyword() {
    let db = Database::new(DbMode::Oracle9);
    let diags = db.check(SCRIPT).unwrap();
    let quirk: Vec<_> = diags.iter().filter(|d| d.code == "check-null-object").collect();
    assert_eq!(quirk.len(), 1, "{diags:?}");
    assert_eq!(quirk[0].severity, Severity::Warning);
    // Line 3, column of the CHECK keyword inside the table definition.
    assert_eq!(quirk[0].line_col(SCRIPT), (3, 40));
    let rendered = quirk[0].render(SCRIPT, "mapping.sql");
    assert!(rendered.contains("--> mapping.sql:3:40"), "{rendered}");
    assert!(rendered.contains("CREATE TABLE TabCourse"), "{rendered}");
    assert!(rendered.contains("^^^^^"), "{rendered}");
}

#[test]
fn not_null_on_the_object_column_silences_the_quirk() {
    let script = format!(
        "{}\n{}",
        &SCRIPT[..SCRIPT.rfind("CREATE TABLE").unwrap()],
        "CREATE TABLE TabCourse OF Type_Course \
         (attrAddress NOT NULL, CHECK (attrAddress.attrCity = 'Leipzig'));"
    );
    let db = Database::new(DbMode::Oracle9);
    let diags = db.check(&script).unwrap();
    assert!(
        !diags.iter().any(|d| d.code == "check-null-object"),
        "NOT NULL closes the gap, no warning expected: {diags:?}"
    );
}

/// `X` is a column of the view `v` (an object) and of the table `t` (a
/// VARCHAR). The first FROM item that has it names it, for the analyzer as
/// for the executor: `X.a` navigates `v.X` and yields 'deep', and there is
/// nothing to report — no `navigate-scalar` on `t.X`.
#[test]
fn an_unqualified_column_of_a_view_resolves_as_the_executor_resolves_it() {
    let script = "CREATE TYPE Type_P AS OBJECT (a VARCHAR(10));
                  CREATE TABLE S (X Type_P);
                  CREATE TABLE T (X VARCHAR(10));
                  CREATE VIEW V AS SELECT s.X AS X FROM S s;
                  INSERT INTO S VALUES (Type_P('deep'));
                  INSERT INTO T VALUES ('flat');";
    let query = "SELECT X.a FROM V v, T t";
    let mut db = Database::new(DbMode::Oracle9);
    db.execute_script(script).unwrap();
    assert_eq!(db.query(query).unwrap().rows, vec![vec![Value::str("deep")]]);
    let diags = db.check(query).unwrap();
    assert!(diags.is_empty(), "{diags:#?}");
}
