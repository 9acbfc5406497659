//! # xml2ordb — management of XML documents in an object-relational database
//!
//! The **core contribution** of the reproduction of *Kudrass & Conrad,
//! "Management of XML Documents in Object-Relational Databases" (EDBT 2002
//! Workshops, LNCS 2490, pp. 210–227)*: the paper's `XML2Oracle` utility as
//! a Rust library.
//!
//! The pipeline mirrors the paper's architecture (Fig. 1):
//!
//! 1. an XML parser checks well-formedness and builds the document DOM
//!    (`xmlord-xml`),
//! 2. a DTD parser builds the DTD tree and the document is validated
//!    (`xmlord-dtd`),
//! 3. [`schemagen`] runs the Fig. 2 mapping algorithm over the DTD and
//!    produces a [`model::MappedSchema`],
//! 4. [`ddlgen`] renders it as a SQL script ("executed afterwards without
//!    any modification", §4) for the object-relational engine
//!    (`xmlord-ordb`),
//! 5. [`loader`] turns a document into INSERT statements — a *single*
//!    nested INSERT per document in Oracle 9 mode (§4.1/§4.2),
//! 6. [`metadata`] maintains the §5 meta-tables (document catalog, name
//!    provenance, namespaces, entities),
//! 7. [`retriever`] reconstructs the XML document from the database,
//!    restoring entity references from the meta-data (§6.1),
//! 8. [`pathquery`] translates path queries to the dot-notation SELECTs of
//!    §4.1, and [`views`] builds the §6.3 object views over a shredded
//!    relational schema.
//!
//! [`strategy`] drives any of the six storage strategies the paper
//! compares — the two object-relational modes and the relational
//! baselines of `xmlord-shred` — through one handle.
//!
//! [`pipeline::Xml2OrDb`] ties all of it together:
//!
//! ```
//! use xml2ordb::pipeline::Xml2OrDb;
//! use xmlord_ordb::DbMode;
//!
//! let dtd = "<!ELEMENT note (to,body)> <!ELEMENT to (#PCDATA)> <!ELEMENT body (#PCDATA)>";
//! let xml = "<note><to>Ada</to><body>hi</body></note>";
//!
//! let mut system = Xml2OrDb::new(DbMode::Oracle9);
//! system.register_dtd("note-dtd", dtd, "note").unwrap();
//! let doc_id = system.store_document("note-dtd", xml).unwrap();
//! let restored = system.retrieve_document(&doc_id).unwrap();
//! assert!(restored.contains("<to>Ada</to>"));
//! ```

pub mod ddlgen;
pub mod error;
pub mod loader;
pub mod maplint;
pub mod metadata;
pub mod model;
pub mod pathquery;
pub mod pipeline;
pub mod retriever;
pub mod roundtrip;
pub mod schemagen;
pub mod strategy;
pub mod views;

/// The Table 1 naming rules, shared with the relational baselines.
pub use xmlord_shred::naming;

pub use error::MappingError;
pub use loader::{load_ops, load_script, plan_batches, LoadOp, LoadUnit};
pub use maplint::{check_catalog_drift, lint_schema, MapLintReport};
pub use pipeline::Xml2OrDb;
pub use model::{MappedSchema, MappingOptions};
pub use schemagen::generate_schema;
