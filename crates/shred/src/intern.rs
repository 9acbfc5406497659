//! Shared-string cache for the shredding hot path.
//!
//! A shredded document repeats the same element and attribute names once
//! per node, and each repetition used to re-derive a fresh `String` from
//! the name — the quoted SQL literal in the edge baseline, the per-name
//! table names in the attribute-table baseline. This module interns the
//! derived strings as thread-local `Arc<str>` handles: the first
//! occurrence of a name pays the transformation, every further occurrence
//! is a hash lookup and an `Arc` bump. The `(hits, misses)` counters feed
//! the bulk-ingest experiment — a hit is an allocation (plus a rescan of
//! the name) saved.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use xmlord_ordb::sql::printer::quote_literal;

/// Entries kept per derivation kind; a DTD has few distinct names, so a
/// full cache only happens on adversarial input — new names then skip the
/// cache (they still work, they just allocate).
const CAPACITY: usize = 4096;

#[derive(Default)]
struct Cache {
    literals: HashMap<Box<str>, Arc<str>>,
    element_tables: HashMap<Box<str>, Arc<str>>,
    attribute_tables: HashMap<Box<str>, Arc<str>>,
    hits: u64,
    misses: u64,
}

thread_local! {
    static CACHE: RefCell<Cache> = RefCell::new(Cache::default());
}

fn cached(
    select: impl Fn(&mut Cache) -> &mut HashMap<Box<str>, Arc<str>>,
    raw: &str,
    build: impl FnOnce(&str) -> String,
) -> Arc<str> {
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(found) = select(&mut cache).get(raw).cloned() {
            cache.hits += 1;
            return found;
        }
        cache.misses += 1;
        let derived: Arc<str> = Arc::from(build(raw).as_str());
        let map = select(&mut cache);
        if map.len() < CAPACITY {
            map.insert(raw.into(), derived.clone());
        }
        derived
    })
}

/// The quoted SQL string literal for a node name (`'name'`, quote-doubled).
pub fn name_literal(name: &str) -> Arc<str> {
    cached(|c| &mut c.literals, name, quote_literal)
}

/// The attribute-table baseline's per-element table name.
pub fn element_table(name: &str) -> Arc<str> {
    cached(|c| &mut c.element_tables, name, crate::attrtab::element_table)
}

/// The attribute-table baseline's per-attribute table name.
pub fn attribute_table(name: &str) -> Arc<str> {
    cached(|c| &mut c.attribute_tables, name, crate::attrtab::attribute_table)
}

/// This thread's cache counters as `(hits, misses)`.
pub fn counters() -> (u64, u64) {
    CACHE.with(|cache| {
        let cache = cache.borrow();
        (cache.hits, cache.misses)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_names_share_their_derived_strings() {
        let (h0, _) = counters();
        let a = name_literal("InternProbe'Name");
        let b = name_literal("InternProbe'Name");
        assert_eq!(&*a, "'InternProbe''Name'");
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the handle");
        let (h1, _) = counters();
        assert!(h1 > h0, "second lookup must count as a hit");
    }

    #[test]
    fn derived_table_names_match_the_uncached_helpers() {
        assert_eq!(&*element_table("a-b"), crate::attrtab::element_table("a-b"));
        assert_eq!(&*attribute_table("x y"), crate::attrtab::attribute_table("x y"));
    }
}
