//! # xmlord-shred — relational shredding baselines
//!
//! Substrate **S5** of the reproduction: the *generic relational* storage
//! approaches the paper positions itself against in §1 — "a number of
//! relational transformation algorithms, proposed by \[5,9\], that analyze
//! the document structure only and map the data of a document to generic
//! tables, e.g., edge tables or attribute tables". The paper criticizes
//! their "high degree of decomposition" and the resulting "large number of
//! relational insert operations" \[6\]; this crate implements them so those
//! claims can be *measured* (experiments E6–E8):
//!
//! * [`edge`] — the Florescu/Kossmann **edge table** \[5\]: one generic table
//!   of parent→child edges plus a value table,
//! * [`attrtab`] — the **attribute table** variant \[5\]: one edge table per
//!   element/attribute name,
//! * [`inline`] — Shanmugasundaram et al.'s DTD-aware **hybrid inlining**
//!   \[9\]: single-valued content inlined into its ancestor's relation,
//!   set-valued and recursive elements in their own relations.
//!
//! All three generate plain SQL executed by `xmlord-ordb` and translate the
//! same path queries as the object-relational mapping, and [`retrieve`]
//! rebuilds their documents, so the comparison is apples-to-apples. The
//! core crate's `xml2ordb::strategy` handle drives them beside the
//! object-relational strategies.
//!
//! [`naming`] is where every mapping — these three, the §6.3 relational
//! schema and the object-relational one (`xml2ordb::naming` re-exports it)
//! — turns XML names into identifiers.

pub mod attrtab;
pub mod edge;
pub mod inline;
pub mod intern;
pub mod naming;
pub mod retrieve;
