//! Seeded mutation of texts, for the differential suites: every case seeds
//! its own `Prng` with the case number, which a failure names, so a case
//! replays alone.

use xmlord_prng::Prng;

/// Cases per seeded loop: `base` under tier-1's debug build, eight times
/// that under the CI steps' release builds.
pub fn cases(base: u64) -> u64 {
    if cfg!(debug_assertions) {
        base
    } else {
        base * 8
    }
}

/// One of `items`, uniformly.
pub fn pick(rng: &mut Prng, items: &[&'static str]) -> &'static str {
    items[rng.gen_range(0..items.len())]
}

/// A random char boundary of `s`.
pub fn boundary(rng: &mut Prng, s: &str) -> usize {
    let mut at = rng.gen_range(0usize..s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One to three seeded edits of a text at byte positions (moved back to a
/// char boundary, so the result stays a `str`): delete a range, insert a
/// piece, overwrite a char with one, duplicate a range, truncate.
pub struct Mutator {
    /// What an insertion or an overwrite writes.
    pub pieces: &'static [&'static str],
    /// The most bytes one deletion removes; `None` removes the whole range.
    pub max_delete: Option<usize>,
    /// The most bytes one duplication copies; `None` copies the whole range.
    pub max_duplicate: Option<usize>,
}

impl Mutator {
    /// `text` after one to three edits drawn from `rng`.
    pub fn mutate(&self, rng: &mut Prng, text: &str) -> String {
        let mut s = text.to_string();
        for _ in 0..rng.gen_range(1usize..4) {
            let a = boundary(rng, &s);
            let b = boundary(rng, &s);
            let (lo, hi) = (a.min(b), a.max(b));
            match rng.gen_range(0u32..6) {
                0 => s.replace_range(lo..clip(&s, lo, hi, self.max_delete), ""),
                1 | 2 => s.insert_str(a, pick(rng, self.pieces)),
                3 => {
                    let end = s[lo..].chars().next().map_or(lo, |c| lo + c.len_utf8());
                    s.replace_range(lo..end, pick(rng, self.pieces));
                }
                4 => {
                    let piece = s[lo..clip(&s, lo, hi, self.max_duplicate)].to_string();
                    s.insert_str(a, &piece);
                }
                _ => s.truncate(a),
            }
        }
        s
    }
}

/// The end of the range of `s` that starts at `lo`, stops at `hi` and is at
/// most `max` bytes long.
fn clip(s: &str, lo: usize, hi: usize, max: Option<usize>) -> usize {
    let Some(max) = max else { return hi };
    let mut end = hi.min(lo + max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIECES: &[&str] = &["é", "😀", "'"];

    #[test]
    fn mutants_replay_from_their_seed_and_stay_within_their_clips() {
        let mutator = Mutator { pieces: PIECES, max_delete: Some(2), max_duplicate: Some(3) };
        let text = "Étudiant 😀 '𝔘ni' ".repeat(4);
        for seed in 0..500 {
            let mutant = mutator.mutate(&mut Prng::seed_from_u64(seed), &text);
            assert_eq!(mutant, mutator.mutate(&mut Prng::seed_from_u64(seed), &text));
            // Three edits, none adding more than a piece or a clipped copy.
            assert!(mutant.len() <= text.len() + 3 * 4, "seed {seed}: {mutant:?}");
        }
    }
}
