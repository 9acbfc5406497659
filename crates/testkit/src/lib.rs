//! # xmlord-testkit — what the workspace's test suites share
//!
//! The paper's contract is that store → retrieve is the identity for every
//! mapping strategy. The differential suites hold it by diffing the engine
//! against reference oracles, and the allocation suites keep it cheap. This
//! crate is their one copy of each tool:
//!
//! - [`CountingAlloc`]: the global allocator of every test binary that
//!   bounds what code allocates ([`counted`], [`peak_above`],
//!   [`live_bytes`]);
//! - [`Mutator`]: seeded edits of a text, replayable from the seed of the
//!   `Prng` it is handed, with [`boundary`], [`pick`] and [`cases`];
//! - [`TempDir`]: a scratch directory removed when it is dropped, also while
//!   a failing test unwinds;
//! - the reference oracles, each the code a production function is diffed
//!   against:
//!   - [`nested_loop`] for `xmlord_ordb::Database::query`'s `SELECT`:
//!     whatever plan the engine picks — hash join, index probe, OID probe,
//!     lateral un-nest, reordering — returns its rows in its order
//!     (`hashjoin_prop`, `index_prop`, `unnest_prop`);
//!   - [`char_lexer`] for `xmlord_ordb::sql::lexer::tokenize` and
//!     `xmlord_ordb::sql::param::parameterize` (`lexer_prop`);
//!   - [`recursive_parser`] for `xmlord_xml::parse`
//!     (`parser_differential`).
//!
//! It is a dev-dependency only: no production crate depends on it. A unit
//! test inside `xmlord-ordb` (under `crates/ordb/src`) must not use an item
//! of this crate that carries `xmlord_ordb` types — a unit-test build links
//! the crate under test and the copy this kit depends on, and their types
//! differ. Integration tests see one copy and are free to.

pub mod alloc;
pub mod mutate;
pub mod tempdir;

// The oracles are kept verbatim, so `rustfmt` is kept out of them. The
// crate doc says what each is the reference for: outer docs here would
// resolve the links inside their files in this scope.
#[rustfmt::skip]
pub mod nested_loop;
#[rustfmt::skip]
pub mod char_lexer;
#[rustfmt::skip]
pub mod recursive_parser;

pub use alloc::{counted, live_bytes, peak_above, CountingAlloc};
pub use mutate::{boundary, cases, pick, Mutator};
pub use tempdir::TempDir;
