//! Compare the object-relational mapping against the generic relational
//! shredding baselines the paper's §1 criticizes — on your machine, with
//! real numbers: INSERT statements, rows, tables, and the join work of the
//! §4.1 path query.
//!
//! ```sh
//! cargo run --release --example shredding_comparison [students]
//! ```

use xml_ordb::dtd::{parse_dtd, MappingStrategy};
use xml_ordb::mapping::model::MappingOptions;
use xml_ordb::mapping::strategy;
use xml_ordb::workload::university::{university_dtd, university_xml, UniversityConfig};

fn main() {
    let students: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let config = UniversityConfig { students, ..Default::default() };
    let xml = university_xml(&config);
    let dtd = parse_dtd(university_dtd()).expect("DTD parses");
    let doc = xml_ordb::xml::parse(&xml).expect("document parses");
    println!(
        "university document: {students} students, {} elements, {} bytes\n",
        config.element_count(),
        xml.len()
    );
    println!(
        "{:<50} {:>9} {:>8} {:>8} {:>12}",
        "strategy", "INSERTs", "tables", "rows", "join-pairs*"
    );

    // Room in the VARRAYs for any document size given on the command line.
    let options = MappingOptions { varray_max: 10_000, ..Default::default() };
    for strategy in MappingStrategy::ALL {
        let mut handle =
            strategy::setup(strategy, &dtd, "University", &options).expect("schema sets up");
        let counts = handle.load(&doc).expect("document loads");
        let sql = handle
            .path_query(
                &["Student", "LName"],
                Some((&["Student", "Course", "Professor", "PName"], "Jaeger")),
            )
            .expect("query translates");
        let db = handle.database();
        let before = db.stats();
        db.query(&sql).expect("query");
        let join_pairs = db.stats().since(&before).join_pairs;
        println!(
            "{:<50} {:>9} {:>8} {:>8} {:>12}",
            strategy.describe(),
            counts.statements,
            counts.tables,
            counts.rows,
            join_pairs
        );
    }
    println!("\n* join-pairs: row combinations formed while answering the §4.1 query");
    println!("  ('family names of students attending a course of Professor Jaeger').");
}
