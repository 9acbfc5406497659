//! General-entity catalog and expansion bookkeeping.
//!
//! The paper's §6.1 ("Representation of Entities") prescribes the behaviour
//! implemented here: internal entities declared in the DTD are *expanded at
//! their occurrences* before storage, and the original definitions are kept
//! so the meta-database can restore the references when the document is
//! retrieved. [`EntityCatalog`] is that definition store; the parser consults
//! it during expansion and the `xml2ordb` metadata module persists it.

use std::collections::BTreeMap;
use std::io;

use crate::error::{XmlError, XmlErrorKind};
use crate::escape::{self, predefined_entity, Sink};
use crate::{cursor::Cursor, escape::decode_char_ref};

/// Declared general entities: name → replacement text.
///
/// Uses a `BTreeMap` so iteration (and therefore generated metadata and SQL)
/// is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntityCatalog {
    entities: BTreeMap<String, String>,
}

/// What the references of one document (or one [`EntityCatalog::expand_text`]
/// call) have expanded to so far: every declared entity's replacement text is
/// expanded at most once, and every byte an expansion writes is charged
/// against [`crate::MAX_ENTITY_EXPANSION_BYTES`] before it is written.
#[derive(Debug, Default)]
pub(crate) struct Expansion {
    /// Entity name → its fully expanded replacement text.
    memo: BTreeMap<String, String>,
    spent: usize,
}

/// Put `bytes` more on the account `spent`, or refuse them.
fn charge(spent: &mut usize, bytes: usize, cur: &Cursor<'_>) -> Result<(), XmlError> {
    *spent = spent.saturating_add(bytes);
    if *spent > crate::MAX_ENTITY_EXPANSION_BYTES {
        return Err(cur.error(XmlErrorKind::EntityExpansionLimit));
    }
    Ok(())
}

impl EntityCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an internal entity. First declaration wins, per XML 1.0 §4.2
    /// ("at user option, an XML processor may issue a warning if entities are
    /// declared multiple times").
    pub fn declare(&mut self, name: &str, replacement: &str) {
        self.entities.entry(name.to_string()).or_insert_with(|| replacement.to_string());
    }

    /// Replacement text for `name`: predefined entities first, then declared.
    pub fn lookup(&self, name: &str) -> Option<&str> {
        predefined_entity(name).or_else(|| self.entities.get(name).map(String::as_str))
    }

    /// Declared (non-predefined) entities in name order.
    pub fn declared(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entities.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    pub fn len(&self) -> usize {
        self.entities.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Fully expand entity and character references inside `text`.
    ///
    /// This is used for entity *replacement text*, which may itself contain
    /// references (XML 1.0 §4.4: "included" entities are recursively
    /// processed). Recursion through the same entity is a well-formedness
    /// error (`RecursiveEntity`); an expansion past
    /// [`crate::MAX_ENTITY_EXPANSION_BYTES`] is an `EntityExpansionLimit`.
    pub fn expand_text(&self, text: &str) -> Result<String, XmlError> {
        let mut out = String::with_capacity(text.len());
        self.expand_into(text, &mut Expansion::default(), &mut Vec::new(), &mut out)?;
        Ok(out)
    }

    /// Append the expansion of the reference `&name;` to `out`, on the
    /// account of `expansion`. Errors carry positions inside the replacement
    /// texts; the caller knows where the reference stands.
    pub(crate) fn expand_reference(
        &self,
        name: &str,
        expansion: &mut Expansion,
        out: &mut String,
    ) -> Result<(), XmlError> {
        // A reference is a one-reference text: the catalog's own cursor gives
        // the nested errors the positions `expand_text` always gave them.
        let cur = Cursor::new("");
        self.expand_named(name, &cur, expansion, &mut Vec::new(), out)
    }

    fn expand_into<'c>(
        &'c self,
        text: &'c str,
        expansion: &mut Expansion,
        active: &mut Vec<&'c str>,
        out: &mut String,
    ) -> Result<(), XmlError> {
        let mut cur = Cursor::new(text);
        while !cur.is_eof() {
            let literal = cur.take_while(|ch| ch != '&');
            charge(&mut expansion.spent, literal.len(), &cur)?;
            out.push_str(literal);
            if !cur.eat("&") {
                break;
            }
            if cur.eat("#") {
                let body = cur.take_until(";").map_err(|e| {
                    XmlError::new(XmlErrorKind::InvalidCharRef("&#".into()), e.position)
                })?;
                cur.eat(";");
                let decoded = decode_char_ref(body).ok_or_else(|| {
                    cur.error(XmlErrorKind::InvalidCharRef(format!("&#{body};")))
                })?;
                charge(&mut expansion.spent, decoded.len_utf8(), &cur)?;
                out.push(decoded);
            } else {
                let name = cur.take_until(";").map_err(|e| {
                    XmlError::new(XmlErrorKind::UnknownEntity("&".into()), e.position)
                })?;
                cur.eat(";");
                self.expand_named(name, &cur, expansion, active, out)?;
            }
        }
        Ok(())
    }

    /// The reference `&name;`, just read by `cur`, appended to `out`.
    fn expand_named<'c>(
        &'c self,
        name: &'c str,
        cur: &Cursor<'_>,
        expansion: &mut Expansion,
        active: &mut Vec<&'c str>,
        out: &mut String,
    ) -> Result<(), XmlError> {
        if active.contains(&name) {
            return Err(cur.error(XmlErrorKind::RecursiveEntity(name.to_string())));
        }
        if let Some(literal) = predefined_entity(name) {
            // Predefined entities expand to literal markup characters
            // and are NOT reprocessed.
            out.push_str(literal);
            return Ok(());
        }
        if !expansion.memo.contains_key(name) {
            let replacement = self
                .entities
                .get(name)
                .ok_or_else(|| cur.error(XmlErrorKind::UnknownEntity(name.to_string())))?;
            let mut expanded = String::new();
            active.push(name);
            self.expand_into(replacement, expansion, active, &mut expanded)?;
            active.pop();
            expansion.memo.insert(name.to_string(), expanded);
        }
        let expanded = &expansion.memo[name];
        charge(&mut expansion.spent, expanded.len(), cur)?;
        out.push_str(expanded);
        Ok(())
    }

    /// Re-substitute declared entity references into serialized text — the
    /// §6.1 retrieval direction: "the characters can be replaced by the
    /// original entity references that can be found in the meta-table".
    ///
    /// Longer replacement texts are substituted first so overlapping
    /// definitions behave deterministically. Only non-empty replacement
    /// texts are considered. The serializer and the retrieval writer
    /// prepare this rule once per document (`Resubstitution`), not per
    /// text node.
    pub fn resubstitute(&self, text: &str) -> String {
        let mut prepared = Resubstitution::new(self);
        prepared.text.push_str(text);
        prepared.apply();
        prepared.text
    }
}

/// The §6.1 re-substitution of one catalog, prepared once per document and
/// applied to every text node of it.
///
/// Longer replacement texts are substituted first so overlapping
/// definitions behave deterministically (ties by entity name); only
/// non-empty replacement texts are considered. The pairs are applied one
/// after another over the *escaped* text, each replacing every
/// non-overlapping occurrence left to right. An empty catalog writes
/// escaped text straight through.
#[derive(Debug, Clone, Default)]
pub(crate) struct Resubstitution {
    /// (replacement text, `&name;`), in application order.
    pairs: Vec<(String, String)>,
    /// The text node being re-substituted, and the buffer each pair
    /// rewrites it into — both reused across the document's text nodes.
    text: String,
    spare: String,
}

impl Resubstitution {
    pub(crate) fn new(catalog: &EntityCatalog) -> Resubstitution {
        let mut pairs: Vec<(&str, &str)> = catalog
            .entities
            .iter()
            .filter(|(_, repl)| !repl.is_empty())
            .map(|(name, repl)| (name.as_str(), repl.as_str()))
            .collect();
        pairs.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
        let pairs = pairs
            .into_iter()
            .map(|(name, repl)| (repl.to_string(), format!("&{name};")))
            .collect();
        Resubstitution { pairs, ..Resubstitution::default() }
    }

    /// Write character data: escaped ([`crate::escape::escape_text`]'s
    /// rule), then re-substituted.
    pub(crate) fn write_text<S: Sink>(&mut self, text: &str, out: &mut S) -> io::Result<()> {
        if self.pairs.is_empty() {
            return escape::write_text(text, out);
        }
        self.text.clear();
        escape::infallible(escape::write_text(text, &mut self.text));
        self.apply();
        out.put_str(&self.text)
    }

    /// Apply every pair, in order, to `self.text`.
    fn apply(&mut self) {
        for (replacement, reference) in &self.pairs {
            if !self.text.contains(replacement.as_str()) {
                continue;
            }
            self.spare.clear();
            let mut run = 0;
            for (at, _) in self.text.match_indices(replacement.as_str()) {
                self.spare.push_str(&self.text[run..at]);
                self.spare.push_str(reference);
                run = at + replacement.len();
            }
            self.spare.push_str(&self.text[run..]);
            std::mem::swap(&mut self.text, &mut self.spare);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_prefers_predefined() {
        let mut cat = EntityCatalog::new();
        cat.declare("amp", "NOT AMP");
        assert_eq!(cat.lookup("amp"), Some("&"));
    }

    #[test]
    fn first_declaration_wins() {
        let mut cat = EntityCatalog::new();
        cat.declare("cs", "Computer Science");
        cat.declare("cs", "Something Else");
        assert_eq!(cat.lookup("cs"), Some("Computer Science"));
    }

    #[test]
    fn expands_nested_entities() {
        let mut cat = EntityCatalog::new();
        cat.declare("uni", "HTWK &city;");
        cat.declare("city", "Leipzig");
        assert_eq!(cat.expand_text("at &uni;!").unwrap(), "at HTWK Leipzig!");
    }

    #[test]
    fn detects_recursive_entities() {
        let mut cat = EntityCatalog::new();
        cat.declare("a", "&b;");
        cat.declare("b", "&a;");
        let err = cat.expand_text("&a;").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::RecursiveEntity(_)));
    }

    #[test]
    fn detects_self_recursion() {
        let mut cat = EntityCatalog::new();
        cat.declare("x", "pre &x; post");
        assert!(cat.expand_text("&x;").is_err());
    }

    #[test]
    fn predefined_expansion_is_not_reprocessed() {
        let cat = EntityCatalog::new();
        // &amp;lt; must become the literal text "&lt;", not "<".
        assert_eq!(cat.expand_text("&amp;lt;").unwrap(), "&lt;");
    }

    #[test]
    fn expands_char_refs_in_replacement_flow() {
        let cat = EntityCatalog::new();
        assert_eq!(cat.expand_text("A&#66;&#x43;").unwrap(), "ABC");
    }

    #[test]
    fn unknown_entity_is_error() {
        let cat = EntityCatalog::new();
        let err = cat.expand_text("&nosuch;").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnknownEntity(ref n) if n == "nosuch"));
    }

    #[test]
    fn an_entity_is_expanded_once_and_charged_per_use() {
        let mut cat = EntityCatalog::new();
        cat.declare("city", "Leipzig");
        cat.declare("uni", "HTWK &city;");
        let mut expansion = Expansion::default();
        let mut out = String::new();
        cat.expand_reference("uni", &mut expansion, &mut out).unwrap();
        cat.expand_reference("uni", &mut expansion, &mut out).unwrap();
        assert_eq!(out, "HTWK LeipzigHTWK Leipzig");
        assert_eq!(expansion.memo.len(), 2);
        // "Leipzig" built and copied, "HTWK " and the whole built, the whole
        // copied twice.
        assert_eq!(expansion.spent, 7 + 7 + 5 + 12 + 12);
    }

    #[test]
    fn expansion_past_the_budget_is_refused_before_it_is_built() {
        let mut cat = EntityCatalog::new();
        cat.declare("k", &"x".repeat(1 << 10));
        cat.declare("m", &"&k;".repeat(1 << 10));
        cat.declare("g", &"&m;".repeat(1 << 10));
        assert_eq!(cat.expand_text("&m;").unwrap().len(), 1 << 20);
        let err = cat.expand_text("&g;").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::EntityExpansionLimit);
    }

    #[test]
    fn resubstitute_restores_references_longest_first() {
        let mut cat = EntityCatalog::new();
        cat.declare("cs", "Computer Science");
        cat.declare("sci", "Science");
        let text = "Dept of Computer Science";
        assert_eq!(cat.resubstitute(text), "Dept of &cs;");
    }

    #[test]
    fn resubstitute_skips_empty_replacements() {
        let mut cat = EntityCatalog::new();
        cat.declare("nothing", "");
        assert_eq!(cat.resubstitute("abc"), "abc");
    }

    #[test]
    fn declared_iteration_is_sorted() {
        let mut cat = EntityCatalog::new();
        cat.declare("z", "1");
        cat.declare("a", "2");
        let names: Vec<&str> = cat.declared().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
