//! Content-model matching.
//!
//! Decides whether a sequence of child-element names conforms to a content
//! particle — the core of the Fig. 1 validity check. The implementation is a
//! Glushkov-style position automaton built directly from the
//! [`ContentParticle`] tree: every `Name` leaf becomes a position, and the
//! standard nullable/first/last/follow sets give an ε-free NFA that is
//! simulated with a set of active positions. This is linear in
//! `input × positions` and — unlike naive backtracking — has no exponential
//! blow-up on nested `*` groups.
//!
//! A model of at most 64 positions — every model a DTD is likely to hold —
//! also carries its sets as `u64` masks, and [`ContentMatcher::matches_names`]
//! simulates on those over an iterator of borrowed names without allocating.
//! The `BTreeSet` simulation ([`ContentMatcher::matches`]) is what runs for a
//! larger model, and what `tests/proptests.rs` checks the masks against.

use std::collections::BTreeSet;

use crate::ast::{ContentParticle, ContentSpec, Occurrence};

/// Compiled matcher for one element's content model.
#[derive(Debug, Clone)]
pub struct ContentMatcher {
    /// Position index → element name expected at that position.
    symbols: Vec<String>,
    nullable: bool,
    first: BTreeSet<usize>,
    last: BTreeSet<usize>,
    /// `follow[p]` = positions that may come directly after p.
    follow: Vec<BTreeSet<usize>>,
    /// The same sets as bit masks, when the positions fit in one word.
    masks: Option<Masks>,
}

/// `first`, `last` and `follow` of a [`ContentMatcher`] with bit `p` standing
/// for position `p`.
#[derive(Debug, Clone)]
struct Masks {
    first: u64,
    last: u64,
    follow: Vec<u64>,
}

fn mask_of(set: &BTreeSet<usize>) -> u64 {
    set.iter().fold(0, |mask, p| mask | 1u64 << p)
}

impl ContentMatcher {
    /// Compile a matcher from a content specification. `Empty` accepts only
    /// the empty sequence; `Any`/`PcData`/`Mixed` accept accordingly.
    pub fn compile(spec: &ContentSpec) -> ContentModel {
        match spec {
            ContentSpec::Empty => ContentModel::Empty,
            ContentSpec::Any => ContentModel::Any,
            ContentSpec::PcData => ContentModel::PcDataOnly,
            ContentSpec::Mixed(names) => ContentModel::Mixed(names.iter().cloned().collect()),
            ContentSpec::Children(cp) => ContentModel::Children(Self::from_particle(cp)),
        }
    }

    /// Build the Glushkov automaton for a particle.
    pub fn from_particle(cp: &ContentParticle) -> ContentMatcher {
        let mut symbols = Vec::new();
        collect_symbols(cp, &mut symbols);
        let mut follow = vec![BTreeSet::new(); symbols.len()];
        let info = build_glushkov(cp, &mut PositionCounter::default(), &mut follow);
        let masks = (symbols.len() <= u64::BITS as usize).then(|| Masks {
            first: mask_of(&info.first),
            last: mask_of(&info.last),
            follow: follow.iter().map(mask_of).collect(),
        });
        ContentMatcher {
            symbols,
            nullable: info.nullable,
            first: info.first,
            last: info.last,
            follow,
            masks,
        }
    }

    /// Does the sequence `children` match? Decides what [`Self::matches`]
    /// decides; allocates only for a model of more than 64 positions.
    pub fn matches_names<'n>(&self, children: impl Iterator<Item = &'n str>) -> bool {
        let Some(masks) = &self.masks else {
            return self.matches(&children.collect::<Vec<_>>());
        };
        // `None` until the first child: the start state is no position.
        let mut active: Option<u64> = None;
        for name in children {
            let mut candidates = match active {
                None => masks.first,
                Some(active) => {
                    let mut reachable = 0;
                    let mut rest = active;
                    while rest != 0 {
                        reachable |= masks.follow[rest.trailing_zeros() as usize];
                        rest &= rest - 1;
                    }
                    reachable
                }
            };
            let mut next = 0;
            while candidates != 0 {
                let q = candidates.trailing_zeros() as usize;
                if self.symbols[q] == name {
                    next |= 1u64 << q;
                }
                candidates &= candidates - 1;
            }
            if next == 0 {
                return false;
            }
            active = Some(next);
        }
        match active {
            None => self.nullable,
            Some(active) => active & masks.last != 0,
        }
    }

    /// Whether [`Self::matches_names`] runs on bit masks (at most 64
    /// positions) rather than on the position sets.
    pub fn uses_masks(&self) -> bool {
        self.masks.is_some()
    }

    /// Does `children` (names of child elements, in order) match?
    pub fn matches(&self, children: &[&str]) -> bool {
        if children.is_empty() {
            return self.nullable;
        }
        let mut active: BTreeSet<usize> = self
            .first
            .iter()
            .copied()
            .filter(|&p| self.symbols[p] == children[0])
            .collect();
        if active.is_empty() {
            return false;
        }
        for name in &children[1..] {
            let mut next = BTreeSet::new();
            for &p in &active {
                for &q in &self.follow[p] {
                    if self.symbols[q] == *name {
                        next.insert(q);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            active = next;
        }
        active.iter().any(|p| self.last.contains(p))
    }

    /// Names that may legally appear first.
    pub fn first_names(&self) -> BTreeSet<&str> {
        self.first.iter().map(|&p| self.symbols[p].as_str()).collect()
    }
}

/// A compiled content model covering every [`ContentSpec`] variant.
#[derive(Debug, Clone)]
pub enum ContentModel {
    Empty,
    Any,
    PcDataOnly,
    /// Allowed child element names in mixed content.
    Mixed(BTreeSet<String>),
    Children(ContentMatcher),
}

impl ContentModel {
    /// Check a child-element name sequence (text handled separately).
    pub fn matches_children(&self, children: &[&str]) -> bool {
        self.matches_names(children.iter().copied())
    }

    /// [`Self::matches_children`] over an iterator of borrowed names.
    pub fn matches_names<'n>(&self, mut children: impl Iterator<Item = &'n str>) -> bool {
        match self {
            ContentModel::Empty | ContentModel::PcDataOnly => children.next().is_none(),
            ContentModel::Any => true,
            ContentModel::Mixed(allowed) => children.all(|c| allowed.contains(c)),
            ContentModel::Children(m) => m.matches_names(children),
        }
    }

    /// May the element contain character data (other than whitespace)?
    pub fn allows_text(&self) -> bool {
        matches!(self, ContentModel::Any | ContentModel::PcDataOnly | ContentModel::Mixed(_))
    }
}

// ---------------------------------------------------------------------------
// Glushkov construction
// ---------------------------------------------------------------------------

struct GlushkovInfo {
    nullable: bool,
    first: BTreeSet<usize>,
    last: BTreeSet<usize>,
}

fn apply_occurrence(mut info: GlushkovInfo, occ: Occurrence) -> GlushkovInfo {
    match occ {
        Occurrence::One | Occurrence::OneOrMore => {}
        Occurrence::Optional | Occurrence::ZeroOrMore => info.nullable = true,
    }
    info
}

/// Number the leaves depth-first: position = index into `symbols`.
fn collect_symbols(cp: &ContentParticle, symbols: &mut Vec<String>) {
    match cp {
        ContentParticle::Name(name, _) => symbols.push(name.clone()),
        ContentParticle::Seq(children, _) | ContentParticle::Choice(children, _) => {
            for child in children {
                collect_symbols(child, symbols);
            }
        }
    }
}

#[derive(Default)]
struct PositionCounter {
    next: usize,
}

/// Single recursive pass computing nullable/first/last and filling the
/// `follow` sets. Leaves are numbered in the same depth-first order as in
/// [`collect_symbols`].
fn build_glushkov(
    cp: &ContentParticle,
    counter: &mut PositionCounter,
    follow: &mut [BTreeSet<usize>],
) -> GlushkovInfo {
    let base = match cp {
        ContentParticle::Name(_, _) => {
            let pos = counter.next;
            counter.next += 1;
            GlushkovInfo {
                nullable: false,
                first: BTreeSet::from([pos]),
                last: BTreeSet::from([pos]),
            }
        }
        ContentParticle::Seq(children, _) => {
            let infos: Vec<GlushkovInfo> =
                children.iter().map(|c| build_glushkov(c, counter, follow)).collect();
            // For each adjacent pair (considering nullable skipping):
            // last(i) connects to first(j) for the next non-skippable j chain.
            for i in 0..infos.len() {
                let mut j = i + 1;
                while j < infos.len() {
                    for &p in &infos[i].last {
                        for &q in &infos[j].first {
                            follow[p].insert(q);
                        }
                    }
                    if infos[j].nullable {
                        j += 1;
                    } else {
                        break;
                    }
                }
            }
            let nullable = infos.iter().all(|i| i.nullable);
            let mut first = BTreeSet::new();
            for info in &infos {
                first.extend(&info.first);
                if !info.nullable {
                    break;
                }
            }
            let mut last = BTreeSet::new();
            for info in infos.iter().rev() {
                last.extend(&info.last);
                if !info.nullable {
                    break;
                }
            }
            GlushkovInfo { nullable, first, last }
        }
        ContentParticle::Choice(children, _) => {
            let infos: Vec<GlushkovInfo> =
                children.iter().map(|c| build_glushkov(c, counter, follow)).collect();
            GlushkovInfo {
                nullable: infos.iter().any(|i| i.nullable),
                first: infos.iter().flat_map(|i| i.first.iter().copied()).collect(),
                last: infos.iter().flat_map(|i| i.last.iter().copied()).collect(),
            }
        }
    };
    // Repetition: last positions loop back to first positions.
    let occ = cp.occurrence();
    if matches!(occ, Occurrence::ZeroOrMore | Occurrence::OneOrMore) {
        for &p in &base.last {
            for &q in &base.first {
                follow[p].insert(q);
            }
        }
    }
    apply_occurrence(base, occ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_dtd;

    fn matcher_for(model: &str) -> ContentModel {
        let dtd = parse_dtd(&format!("<!ELEMENT root {model}>")).unwrap();
        ContentMatcher::compile(&dtd.element("root").unwrap().content)
    }

    fn check(model: &str, children: &[&str]) -> bool {
        matcher_for(model).matches_children(children)
    }

    #[test]
    fn sequence_matching() {
        assert!(check("(a,b,c)", &["a", "b", "c"]));
        assert!(!check("(a,b,c)", &["a", "c", "b"]));
        assert!(!check("(a,b,c)", &["a", "b"]));
        assert!(!check("(a,b,c)", &["a", "b", "c", "c"]));
        assert!(!check("(a,b,c)", &[]));
    }

    #[test]
    fn optional_elements() {
        assert!(check("(a,b?,c)", &["a", "b", "c"]));
        assert!(check("(a,b?,c)", &["a", "c"]));
        assert!(!check("(a,b?,c)", &["a", "b", "b", "c"]));
    }

    #[test]
    fn star_and_plus() {
        assert!(check("(a*)", &[]));
        assert!(check("(a*)", &["a", "a", "a"]));
        assert!(check("(a+)", &["a"]));
        assert!(!check("(a+)", &[]));
        assert!(check("(a,b*)", &["a"]));
        assert!(check("(a,b*)", &["a", "b", "b"]));
    }

    #[test]
    fn choices() {
        assert!(check("(a|b)", &["a"]));
        assert!(check("(a|b)", &["b"]));
        assert!(!check("(a|b)", &["a", "b"]));
        assert!(!check("(a|b)", &["c"]));
    }

    #[test]
    fn nested_groups() {
        // ((a,b)|c)+ : one or more of either "a b" or "c".
        assert!(check("((a,b)|c)+", &["a", "b"]));
        assert!(check("((a,b)|c)+", &["c", "a", "b", "c"]));
        assert!(!check("((a,b)|c)+", &["a", "c"]));
        assert!(!check("((a,b)|c)+", &[]));
    }

    #[test]
    fn repeated_groups_loop_correctly() {
        // (a,b)* : pairs only.
        assert!(check("((a,b))*", &[]));
        assert!(check("((a,b))*", &["a", "b", "a", "b"]));
        assert!(!check("((a,b))*", &["a", "b", "a"]));
    }

    #[test]
    fn university_content_model() {
        // From Appendix A: (Name,Professor*,CreditPts?)
        let m = matcher_for("(Name,Professor*,CreditPts?)");
        assert!(m.matches_children(&["Name"]));
        assert!(m.matches_children(&["Name", "Professor", "Professor"]));
        assert!(m.matches_children(&["Name", "Professor", "CreditPts"]));
        assert!(m.matches_children(&["Name", "CreditPts"]));
        assert!(!m.matches_children(&["Professor", "Name"]));
        assert!(!m.matches_children(&["Name", "CreditPts", "Professor"]));
    }

    #[test]
    fn nullable_prefixes_in_sequences() {
        // (a?,b?,c) — c may come first.
        assert!(check("(a?,b?,c)", &["c"]));
        assert!(check("(a?,b?,c)", &["b", "c"]));
        assert!(check("(a?,b?,c)", &["a", "c"]));
        assert!(!check("(a?,b?,c)", &["b", "a", "c"]));
    }

    #[test]
    fn empty_and_any_and_pcdata_models() {
        let dtd = parse_dtd("<!ELEMENT e EMPTY><!ELEMENT a ANY><!ELEMENT p (#PCDATA)>").unwrap();
        let e = ContentMatcher::compile(&dtd.element("e").unwrap().content);
        assert!(e.matches_children(&[]) && !e.matches_children(&["x"]) && !e.allows_text());
        let a = ContentMatcher::compile(&dtd.element("a").unwrap().content);
        assert!(a.matches_children(&["x", "y"]) && a.allows_text());
        let p = ContentMatcher::compile(&dtd.element("p").unwrap().content);
        assert!(p.matches_children(&[]) && !p.matches_children(&["x"]) && p.allows_text());
    }

    #[test]
    fn mixed_model_accepts_declared_names_any_order() {
        let dtd = parse_dtd("<!ELEMENT m (#PCDATA|i|b)*>").unwrap();
        let m = ContentMatcher::compile(&dtd.element("m").unwrap().content);
        assert!(m.matches_children(&[]));
        assert!(m.matches_children(&["b", "i", "b"]));
        assert!(!m.matches_children(&["u"]));
        assert!(m.allows_text());
    }

    #[test]
    fn first_names_reported() {
        let dtd = parse_dtd("<!ELEMENT r (a?,b)>").unwrap();
        if let ContentSpec::Children(cp) = &dtd.element("r").unwrap().content {
            let m = ContentMatcher::from_particle(cp);
            let names: Vec<&str> = m.first_names().into_iter().collect();
            assert_eq!(names, vec!["a", "b"]);
        } else {
            panic!("expected children model");
        }
    }

    /// Same-name positions: (a,a) must require exactly two.
    #[test]
    fn duplicate_names_in_model() {
        assert!(check("(a,a)", &["a", "a"]));
        assert!(!check("(a,a)", &["a"]));
        assert!(!check("(a,a)", &["a", "a", "a"]));
    }
}
