//! Lexer differential: the byte-scanning `sql::lexer::tokenize` against the
//! char-vector lexer it replaced, kept as the reference in
//! `tests/support/char_lexer.rs`. Over hand-picked edge texts, seeded
//! INSERT, SELECT and DDL texts and seeded byte-level mutations of them,
//! both must return the same tokens with the same `offset` and `end` (char
//! indices), or the same error message at the same `position`; and
//! `sql::param::parameterize` must return the key and literals the
//! reference's `parameterize` built from the reference's tokens. Every case
//! seeds its own `Prng` with the case number, which a failure names, so it
//! replays alone.

#[path = "support/char_lexer.rs"]
mod char_lexer;

use xmlord_ordb::sql::lexer::tokenize;
use xmlord_ordb::sql::param::parameterize;
use xmlord_ordb::DbError;
use xmlord_prng::Prng;

/// Cases per seeded loop: `base` under tier-1's debug build, eight times
/// that under the CI step's release build.
fn cases(base: u64) -> u64 {
    if cfg!(debug_assertions) {
        base
    } else {
        base * 8
    }
}

/// The two lexers, and the two `parameterize`s, agree on `input`. Returns
/// the error message, if `tokenize` failed, for the coverage counts.
fn assert_agrees(input: &str, case: &str) -> Option<String> {
    let got = tokenize(input);
    let expected = char_lexer::tokenize(input);
    assert_eq!(got, expected, "{case}: tokenize disagrees on {input:?}");
    assert_eq!(
        parameterize(input),
        char_lexer::parameterize(input),
        "{case}: parameterize disagrees on {input:?}"
    );
    match got {
        Err(DbError::Syntax { message, .. }) => Some(message),
        Err(other) => panic!("{case}: a lexer error that is not a syntax error: {other:?}"),
        Ok(_) => None,
    }
}

/// Texts that name each corner of the grammar once: non-ASCII identifiers
/// and literals (`é`, the 4-byte `𝔘` and `😀`), Unicode whitespace, `''`
/// escapes, both comment forms terminated and not, the number forms that
/// stop at a dot, and the lone `!` and `|`.
const EDGES: &[&str] = &[
    "",
    "INSERT INTO Tabé VALUES ('é', '😀', 𝔘ni, \"é😀\")",
    "INSERT\u{A0}INTO\u{2003}T\u{85}VALUES\u{0B}(1)",
    "SELECT x FROM T WHERE x = 'O''Hara'",
    "'''",
    "''''",
    "'a''",
    "'é''😀'",
    "-- only a comment",
    "x -- a comment é\ny",
    "/* unterminated",
    "/*",
    "/*/",
    "/**/",
    "a /* é 😀 */ b",
    "a /* é 😀 *",
    ".5",
    "3.x",
    "1.",
    "1. 2",
    "1.2.3",
    "..5",
    "!",
    "a ! b",
    "!=",
    "|",
    "a | b",
    "a || b",
    "'unterminated é",
    "\"unterminated",
    "\"\"",
    "€",
    "😀",
    "$a",
    "#",
    "_a$b#c",
    "a\u{0}b",
    "é-é--é",
    "INSERT INTO T VALUES (-5, - 5, 1e5)",
    "insert into t values ('x')",
    "  INSERT",
    "INSERTé",
];

#[test]
fn edge_texts_lex_as_the_char_lexer_lexed_them() {
    let mut errors = Vec::new();
    for (n, input) in EDGES.iter().enumerate() {
        if let Some(message) = assert_agrees(input, &format!("edge {n}")) {
            errors.push(message);
        }
    }
    for message in [
        "unterminated block comment",
        "unterminated string literal",
        "unterminated quoted identifier",
        "unexpected '!'",
        "unexpected '|'",
        "unexpected character '€'",
    ] {
        assert!(
            errors.iter().any(|e| e == message),
            "no edge text drew {message:?}: {errors:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded texts
// ---------------------------------------------------------------------------

const IDENTS: &[&str] = &[
    "TabEdge",
    "Student",
    "x",
    "é",
    "Étudiant",
    "ДИПЛОМ",
    "𝔘ni",
    "x_1",
    "a$b",
    "n#2",
    "_u",
    "\"a b\"",
    "\"é😀\"",
    "\"Order\"",
    "select",
];

const STRINGS: &[&str] = &[
    "''",
    "'Student'",
    "'ref'",
    "'O''Hara'",
    "''''",
    "'é'",
    "'😀'",
    "'a\u{A0}b'",
    "'--not a comment'",
    "'/* nor this */'",
    "'x\ny'",
    "'Jaeger'",
];

const NUMBERS: &[&str] = &[
    "0", "42", "3.5", ".5", "1.", "3.x", "12.250", "007", "1.2.3", "-5",
];

const SPACES: &[&str] = &[
    " ",
    " ",
    " ",
    "  ",
    "\n",
    "\t",
    "\r\n",
    "\u{A0}",
    "\u{2003}",
    "\u{0B}",
    "\u{85}",
    " -- note é\n",
    " /* block 😀 */ ",
    "/**/",
];

const OPERATORS: &[&str] = &["=", "<>", "!=", "<", "<=", ">", ">=", "||", "%"];

fn pick(rng: &mut Prng, items: &[&'static str]) -> &'static str {
    items[rng.gen_range(0..items.len())]
}

/// A literal, a path, NULL, a constructor call or a subquery.
fn value(rng: &mut Prng, depth: u32) -> String {
    match rng.gen_range(0u32..if depth > 1 { 3 } else { 6 }) {
        0 => pick(rng, STRINGS).to_string(),
        1 => pick(rng, NUMBERS).to_string(),
        2 => "NULL".to_string(),
        3 => {
            let args: Vec<String> = (0..rng.gen_range(0usize..4))
                .map(|_| value(rng, depth + 1))
                .collect();
            format!("{}({})", pick(rng, IDENTS), args.join(", "))
        }
        4 => format!("{}.{}", pick(rng, IDENTS), pick(rng, IDENTS)),
        _ => format!(
            "(SELECT REF(p) FROM {} p WHERE p.{} {} {})",
            pick(rng, IDENTS),
            pick(rng, IDENTS),
            pick(rng, OPERATORS),
            value(rng, depth + 1)
        ),
    }
}

/// One seeded INSERT, SELECT or DDL text, its words separated by seeded
/// whitespace and comments.
fn text(rng: &mut Prng) -> String {
    let words: Vec<String> = match rng.gen_range(0u32..4) {
        0 | 1 => {
            let values: Vec<String> = (0..rng.gen_range(1usize..6))
                .map(|_| value(rng, 0))
                .collect();
            vec![
                "INSERT".into(),
                "INTO".into(),
                pick(rng, IDENTS).into(),
                "VALUES".into(),
                format!("({})", values.join(", ")),
            ]
        }
        2 => vec![
            "SELECT".into(),
            format!("{}.{},", pick(rng, IDENTS), pick(rng, IDENTS)),
            "COUNT(*)".into(),
            "FROM".into(),
            pick(rng, IDENTS).into(),
            pick(rng, IDENTS).into(),
            "WHERE".into(),
            value(rng, 0),
            pick(rng, OPERATORS).into(),
            value(rng, 0),
            "ORDER BY 1".into(),
        ],
        _ => vec![
            "CREATE TYPE".into(),
            pick(rng, IDENTS).into(),
            "AS OBJECT(".into(),
            pick(rng, IDENTS).into(),
            format!("VARCHAR({}),", pick(rng, NUMBERS)),
            pick(rng, IDENTS).into(),
            "NUMBER);".into(),
            "CREATE TABLE".into(),
            pick(rng, IDENTS).into(),
            "OF".into(),
            pick(rng, IDENTS).into(),
        ],
    };
    let mut out = String::new();
    for word in words {
        out.push_str(&word);
        out.push_str(pick(rng, SPACES));
    }
    if rng.gen_bool(0.5) {
        out.push(';');
    }
    out
}

/// What a mutation inserts or writes over.
const PIECES: &[&str] = &[
    "!", "|", "'", "''", "\"", "/*", "*/", "*", "/", "--", "-", "\n", "\u{A0}", "é", "😀", "𝔘",
    "€", ".", "5", ".5", "$", "#", "@", "\u{85}", "<", ">", "=",
];

/// A random char boundary of `s`.
fn boundary(rng: &mut Prng, s: &str) -> usize {
    let mut at = rng.gen_range(0usize..s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One to three seeded edits of `text` at byte positions (moved back to a
/// char boundary, so the result stays a `str`): delete a range, insert a
/// piece, overwrite a char with one, duplicate a range, truncate.
fn mutate(rng: &mut Prng, text: &str) -> String {
    let mut s = text.to_string();
    for _ in 0..rng.gen_range(1usize..4) {
        let a = boundary(rng, &s);
        let b = boundary(rng, &s);
        let (lo, hi) = (a.min(b), a.max(b));
        match rng.gen_range(0u32..6) {
            0 => s.replace_range(lo..hi, ""),
            1 | 2 => s.insert_str(a, pick(rng, PIECES)),
            3 => {
                let end = s[lo..].chars().next().map_or(lo, |c| lo + c.len_utf8());
                s.replace_range(lo..end, pick(rng, PIECES));
            }
            4 => {
                let piece = s[lo..hi].to_string();
                s.insert_str(a, &piece);
            }
            _ => s.truncate(a),
        }
    }
    s
}

#[test]
fn seeded_texts_lex_as_the_char_lexer_lexed_them() {
    let mut lexed = 0;
    for case in 0..cases(500) {
        let mut rng = Prng::seed_from_u64(0x1E8 + case);
        let input = text(&mut rng);
        if assert_agrees(&input, &format!("case {case}")).is_none() {
            lexed += 1;
        }
    }
    // The generated texts lex (their comments and literals are closed).
    assert_eq!(lexed, cases(500));
}

#[test]
fn mutated_texts_lex_as_the_char_lexer_lexed_them() {
    let mut errors = std::collections::BTreeSet::new();
    let mut lexed = 0;
    for case in 0..cases(3000) {
        let mut rng = Prng::seed_from_u64(0xB17E + case);
        let original = text(&mut rng);
        let input = mutate(&mut rng, &original);
        match assert_agrees(&input, &format!("case {case}")) {
            Some(message) => {
                errors.insert(message);
            }
            None => lexed += 1,
        }
    }
    // Both outcomes, and every kind of lexical error, were compared.
    assert!(lexed > 0, "no mutant lexed");
    for message in [
        "unterminated block comment",
        "unterminated string literal",
        "unterminated quoted identifier",
        "unexpected '!'",
        "unexpected '|'",
        "unexpected character '@'",
    ] {
        assert!(
            errors.contains(message),
            "no mutant drew {message:?}: {errors:?}"
        );
    }
}
