//! The paper's generated script is an artefact readers compare against §4.2:
//! the Oracle 8 INSERT script of the Appendix A document is pinned byte for
//! byte, the REF-wiring subqueries included, however the loader represents
//! them internally. Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p xml2ordb --test load_script_golden`.

use xml2ordb::{load_script, Xml2OrDb};
use xmlord_ordb::DbMode;

const UNIVERSITY_DTD: &str = include_str!("../../../assets/university.dtd");
const UNIVERSITY_XML: &str = include_str!("../../../assets/university.xml");

#[test]
fn oracle8_script_of_the_appendix_a_document_is_unchanged() {
    let mut sys = Xml2OrDb::new(DbMode::Oracle8);
    let reg = sys.register_dtd("university", UNIVERSITY_DTD, "University").unwrap();
    let doc = xmlord_xml::parse_with_catalog(UNIVERSITY_XML, reg.dtd.entity_catalog()).unwrap();
    let mut actual = load_script(&reg.schema, &reg.dtd, &doc, "university-1").unwrap().join("\n");
    actual.push('\n');

    let path = format!("{}/tests/golden/load_script_or8.sql", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden file {path}; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(actual, expected, "the Oracle 8 load script drifted from {path}");
}
