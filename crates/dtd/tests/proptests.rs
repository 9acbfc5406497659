//! Property tests for the DTD substrate.
//!
//! The central one checks the Glushkov content-model matcher against a naive
//! backtracking regex interpreter on random content models and random child
//! sequences — the two must always agree.

use xmlord_dtd::ast::{ContentParticle, Occurrence};
use xmlord_dtd::matcher::ContentMatcher;
use xmlord_dtd::parse_dtd;
use xmlord_prng::Prng;

/// A naive, obviously-correct backtracking matcher: returns the set of
/// input positions reachable after matching `cp` starting at `from`.
fn oracle_match(cp: &ContentParticle, input: &[&str], from: usize) -> Vec<usize> {
    let base = |cp: &ContentParticle, from: usize| -> Vec<usize> {
        match cp {
            ContentParticle::Name(name, _) => {
                if from < input.len() && input[from] == name {
                    vec![from + 1]
                } else {
                    vec![]
                }
            }
            ContentParticle::Seq(children, _) => {
                let mut positions = vec![from];
                for child in children {
                    let mut next = Vec::new();
                    for &p in &positions {
                        for q in oracle_match(child, input, p) {
                            if !next.contains(&q) {
                                next.push(q);
                            }
                        }
                    }
                    positions = next;
                    if positions.is_empty() {
                        break;
                    }
                }
                positions
            }
            ContentParticle::Choice(children, _) => {
                let mut out = Vec::new();
                for child in children {
                    for q in oracle_match(child, input, from) {
                        if !out.contains(&q) {
                            out.push(q);
                        }
                    }
                }
                out
            }
        }
    };
    // Apply the occurrence operator around the base match.
    let one = |from: usize| base(cp, from);
    match cp.occurrence() {
        Occurrence::One => one(from),
        Occurrence::Optional => {
            let mut out = one(from);
            if !out.contains(&from) {
                out.push(from);
            }
            out
        }
        Occurrence::ZeroOrMore | Occurrence::OneOrMore => {
            // Fixpoint iteration of `one`.
            let mut reached = vec![from];
            let mut frontier = vec![from];
            let mut results: Vec<usize> = if cp.occurrence() == Occurrence::ZeroOrMore {
                vec![from]
            } else {
                vec![]
            };
            while let Some(p) = frontier.pop() {
                for q in one(p) {
                    if !results.contains(&q) {
                        results.push(q);
                    }
                    if q > p && !reached.contains(&q) {
                        reached.push(q);
                        frontier.push(q);
                    }
                }
            }
            results
        }
    }
}

fn oracle_accepts(cp: &ContentParticle, input: &[&str]) -> bool {
    oracle_match(cp, input, 0).contains(&input.len())
}

fn arb_occurrence(rng: &mut Prng) -> Occurrence {
    match rng.gen_range(0u32..4) {
        0 => Occurrence::One,
        1 => Occurrence::Optional,
        2 => Occurrence::ZeroOrMore,
        _ => Occurrence::OneOrMore,
    }
}

const NAMES: [&str; 3] = ["a", "b", "c"];

/// Random content particle, depth-bounded like the old proptest
/// `prop_recursive(3, ..)` strategy.
fn arb_particle(rng: &mut Prng, depth: u32) -> ContentParticle {
    if depth == 0 || rng.gen_bool(0.4) {
        return ContentParticle::Name(rng.choose(&NAMES).to_string(), arb_occurrence(rng));
    }
    let children: Vec<ContentParticle> =
        (0..rng.gen_range(1usize..3)).map(|_| arb_particle(rng, depth - 1)).collect();
    if rng.gen_bool(0.5) {
        ContentParticle::Seq(children, arb_occurrence(rng))
    } else {
        ContentParticle::Choice(children, arb_occurrence(rng))
    }
}

fn arb_input(rng: &mut Prng) -> Vec<&'static str> {
    (0..rng.gen_range(0usize..7)).map(|_| *rng.choose(&NAMES)).collect()
}

#[test]
fn glushkov_matches_oracle() {
    for case in 0..512u64 {
        let mut rng = Prng::seed_from_u64(0x61A + case);
        let cp = arb_particle(&mut rng, 3);
        let input = arb_input(&mut rng);
        let matcher = ContentMatcher::from_particle(&cp);
        assert_eq!(
            matcher.matches(&input),
            oracle_accepts(&cp, &input),
            "case {case} model: {cp} input: {input:?}"
        );
    }
}

/// The bit-mask simulation `validate` runs decides what the position-set
/// simulation decides — on random models, on longer inputs than the oracle
/// above can afford, and on models of 64 positions (the widest mask) and 65
/// (the first that must fall back to the sets).
#[test]
fn mask_matcher_matches_the_set_matcher() {
    for case in 0..2048u64 {
        let mut rng = Prng::seed_from_u64(0x3A5C + case);
        let cp = arb_particle(&mut rng, 4);
        let matcher = ContentMatcher::from_particle(&cp);
        assert!(matcher.uses_masks(), "case {case}: {cp}");
        let input: Vec<&str> =
            (0..rng.gen_range(0usize..12)).map(|_| *rng.choose(&NAMES)).collect();
        assert_eq!(
            matcher.matches_names(input.iter().copied()),
            matcher.matches(&input),
            "case {case} model: {cp} input: {input:?}"
        );
    }
    for positions in [64usize, 65] {
        // (a, b?, c*, a, b?, c*, …)+ — `positions` leaves.
        let leaves: Vec<ContentParticle> = (0..positions)
            .map(|p| {
                let occurrence =
                    [Occurrence::One, Occurrence::Optional, Occurrence::ZeroOrMore][p % 3];
                ContentParticle::Name(NAMES[p % 3].to_string(), occurrence)
            })
            .collect();
        let cp = ContentParticle::Seq(leaves, Occurrence::OneOrMore);
        let matcher = ContentMatcher::from_particle(&cp);
        assert_eq!(matcher.uses_masks(), positions <= 64, "{positions} positions");
        for case in 0..256u64 {
            let mut rng = Prng::seed_from_u64(0x6465 + case);
            // Mostly inputs that walk the sequence, so that many are accepted.
            let mut input = Vec::new();
            for p in 0..rng.gen_range(0usize..3 * positions) {
                if rng.gen_bool(0.8) {
                    input.push(if rng.gen_bool(0.95) { NAMES[p % 3] } else { *rng.choose(&NAMES) });
                }
            }
            assert_eq!(
                matcher.matches_names(input.iter().copied()),
                matcher.matches(&input),
                "{positions} positions, case {case}, input: {input:?}"
            );
        }
        let whole: Vec<&str> = (0..positions).map(|p| NAMES[p % 3]).collect();
        assert!(matcher.matches_names(whole.iter().copied()), "{positions} positions");
        assert!(!matcher.matches_names(whole[1..].iter().copied()), "{positions} positions");
    }
}

#[test]
fn parsed_model_display_reparses_identically() {
    for case in 0..256u64 {
        let mut rng = Prng::seed_from_u64(0xD7D + case);
        let cp = arb_particle(&mut rng, 3);
        // Display of a particle is valid DTD syntax that parses back to an
        // equivalent matcher.
        let text = format!("<!ELEMENT root {}>", wrap_group(&cp));
        let dtd = parse_dtd(&text).unwrap();
        let reparsed = &dtd.element("root").unwrap().content;
        let m1 = ContentMatcher::from_particle(&cp);
        let m2 = match reparsed {
            xmlord_dtd::ContentSpec::Children(cp2) => ContentMatcher::from_particle(cp2),
            other => panic!("unexpected spec {other:?}"),
        };
        // Compare on a fixed battery of inputs.
        for input in battery() {
            assert_eq!(
                m1.matches(&input),
                m2.matches(&input),
                "case {case} model: {text} input: {input:?}"
            );
        }
    }
}

/// Content specs must be parenthesized groups at the top level.
fn wrap_group(cp: &ContentParticle) -> String {
    match cp {
        ContentParticle::Name(..) => format!("({cp})"),
        _ => cp.to_string(),
    }
}

fn battery() -> Vec<Vec<&'static str>> {
    vec![
        vec![],
        vec!["a"],
        vec!["b"],
        vec!["c"],
        vec!["a", "a"],
        vec!["a", "b"],
        vec!["b", "a"],
        vec!["a", "b", "c"],
        vec!["c", "b", "a"],
        vec!["a", "a", "b", "b"],
        vec!["a", "b", "a", "b"],
        vec!["a", "b", "c", "a", "b", "c"],
    ]
}
