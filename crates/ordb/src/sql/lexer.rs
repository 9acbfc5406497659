//! SQL lexer.
//!
//! [`scan`] walks the text's bytes once and reports each token with its
//! char offsets (`xmlord_diag::Span` and the analyzer count chars, not
//! bytes). Identifiers come out borrowed from the text, string literals
//! too unless a `''` escape had to be undone, and numbers are parsed from
//! their slice, so a caller that only looks at the tokens — the plan
//! cache's [`parameterize`](super::param::parameterize) — allocates
//! nothing per token. [`tokenize`] collects the same tokens as owned
//! [`SpannedToken`]s for the parser. Keywords are recognized
//! case-insensitively; identifiers keep their spelling.

use std::borrow::Cow;

use crate::error::DbError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Unquoted identifier or keyword (`TabProfessor`, `SELECT`).
    Ident(String),
    /// `'...'` string literal, quotes removed, `''` unescaped.
    StringLit(String),
    /// Numeric literal.
    NumberLit(f64),
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Concat,
    Percent,
    Minus,
}

impl Token {
    /// Is this an identifier equal (case-insensitively) to `kw`?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// A token plus its character offsets in the source (`offset..end`, half
/// open). Offsets are char indices — the lexer counts chars as it walks
/// the bytes, and [`xmlord_diag::Span`] converts them to line/column the
/// same way.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken {
    pub token: Token,
    pub offset: usize,
    /// One past the last character of the token.
    pub end: usize,
}

impl SpannedToken {
    pub fn span(&self) -> xmlord_diag::Span {
        xmlord_diag::Span::new(self.offset, self.end)
    }
}

#[cfg(test)]
thread_local! {
    static TOKENIZES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// How many times this thread has called [`tokenize`].
#[cfg(test)]
pub(crate) fn tokenizes() -> usize {
    TOKENIZES.with(std::cell::Cell::get)
}

/// Tokenize a complete SQL text (possibly multiple statements).
pub fn tokenize(input: &str) -> Result<Vec<SpannedToken>, DbError> {
    #[cfg(test)]
    TOKENIZES.with(|n| n.set(n.get() + 1));
    let mut out = Vec::new();
    scan(input, |lexeme, offset, end| {
        out.push(SpannedToken { token: lexeme.into_token(), offset, end });
    })?;
    Ok(out)
}

/// A token as [`scan`] reports it, borrowed from the scanned text where it
/// can be.
#[derive(Debug, Clone, PartialEq)]
pub enum Lexeme<'a> {
    /// Unquoted or quoted identifier (quotes removed).
    Ident(&'a str),
    /// String literal, quotes removed; owned only when a `''` was undone.
    StringLit(Cow<'a, str>),
    NumberLit(f64),
    /// Punctuation or an operator: a [`Token`] without a payload.
    Symbol(Token),
}

impl Lexeme<'_> {
    /// The owned token this lexeme stands for.
    pub fn into_token(self) -> Token {
        match self {
            Lexeme::Ident(name) => Token::Ident(name.to_string()),
            Lexeme::StringLit(lit) => Token::StringLit(lit.into_owned()),
            Lexeme::NumberLit(value) => Token::NumberLit(value),
            Lexeme::Symbol(token) => token,
        }
    }
}

/// Scan `input` in one pass over its bytes, calling `emit(lexeme, offset,
/// end)` for each token in order; `offset..end` are char indices, as in
/// [`SpannedToken`]. The first lexical error ends the scan, after every
/// token before it was emitted.
pub fn scan<'a>(
    input: &'a str,
    mut emit: impl FnMut(Lexeme<'a>, usize, usize),
) -> Result<(), DbError> {
    let bytes = input.as_bytes();
    // `i` is a byte index into `input`; `at` is the char index of the same
    // place. Every delimiter the lexer looks for is ASCII, and no byte of a
    // multi-byte char is, so byte searches never stop inside a char.
    let mut i = 0usize;
    let mut at = 0usize;
    while let Some(&b) = bytes.get(i) {
        let start = at;
        if !b.is_ascii() {
            let ch = char_at(input, i);
            if ch.is_whitespace() {
                i += ch.len_utf8();
                at += 1;
            } else if ch.is_alphabetic() {
                let (end, end_at) = ident_end(input, i, at);
                emit(Lexeme::Ident(&input[i..end]), start, end_at);
                (i, at) = (end, end_at);
            } else {
                return Err(syntax(format!("unexpected character '{ch}'"), at));
            }
            continue;
        }
        let next = bytes.get(i + 1).copied();
        match b {
            _ if char::from(b).is_whitespace() => {
                i += 1;
                at += 1;
            }
            // Comments: -- to end of line, /* ... */.
            b'-' if next == Some(b'-') => {
                let stop = find(&bytes[i..], b"\n").map_or(bytes.len(), |n| i + n);
                at += chars_in(&bytes[i..stop]);
                i = stop;
            }
            b'/' if next == Some(b'*') => {
                let body = i + 2;
                let Some(n) = find(&bytes[body..], b"*/") else {
                    // Reported at the last char of the text, or just past
                    // the `/*` when nothing follows it.
                    let rest = chars_in(&bytes[body..]);
                    return Err(syntax("unterminated block comment", at + 2 + rest.saturating_sub(1)));
                };
                at += 2 + chars_in(&bytes[body..body + n]) + 2;
                i = body + n + 2;
            }
            // String literal.
            b'\'' => {
                let mut close = i + 1;
                let mut escaped = false;
                loop {
                    let Some(n) = find(&bytes[close..], b"'") else {
                        return Err(syntax("unterminated string literal", start));
                    };
                    close += n;
                    if bytes.get(close + 1) != Some(&b'\'') {
                        break;
                    }
                    escaped = true;
                    close += 2;
                }
                let body = &input[i + 1..close];
                let lit = if escaped { Cow::Owned(body.replace("''", "'")) } else { Cow::Borrowed(body) };
                at += chars_in(&bytes[i..=close]);
                i = close + 1;
                emit(Lexeme::StringLit(lit), start, at);
            }
            // Number literal.
            _ if b.is_ascii_digit() || (b == b'.' && next.is_some_and(|c| c.is_ascii_digit())) => {
                let mut end = i;
                let mut saw_dot = false;
                while let Some(&c) = bytes.get(end) {
                    if c.is_ascii_digit() {
                        end += 1;
                    } else if c == b'.'
                        && !saw_dot
                        && bytes.get(end + 1).is_some_and(|d| d.is_ascii_digit())
                    {
                        saw_dot = true;
                        end += 1;
                    } else {
                        break;
                    }
                }
                let text = &input[i..end];
                let value: f64 = text
                    .parse()
                    .map_err(|_| syntax(format!("invalid number '{text}'"), start))?;
                at += end - i;
                i = end;
                emit(Lexeme::NumberLit(value), start, at);
            }
            // Quoted identifier.
            b'"' => {
                let Some(n) = find(&bytes[i + 1..], b"\"") else {
                    return Err(syntax("unterminated quoted identifier", start));
                };
                let close = i + 1 + n;
                at += chars_in(&bytes[i..=close]);
                emit(Lexeme::Ident(&input[i + 1..close]), start, at);
                i = close + 1;
            }
            // Identifier / keyword. `#` appears in no identifier's first
            // char; `_` does, and `_`, `$`, `#` all continue one.
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let (end, end_at) = ident_end(input, i, at);
                emit(Lexeme::Ident(&input[i..end]), start, end_at);
                (i, at) = (end, end_at);
            }
            // Operators and punctuation.
            _ => {
                let (token, len) = match b {
                    b'(' => (Token::LParen, 1),
                    b')' => (Token::RParen, 1),
                    b',' => (Token::Comma, 1),
                    b'.' => (Token::Dot, 1),
                    b';' => (Token::Semicolon, 1),
                    b'*' => (Token::Star, 1),
                    b'%' => (Token::Percent, 1),
                    b'-' => (Token::Minus, 1),
                    b'=' => (Token::Eq, 1),
                    b'<' => match next {
                        Some(b'=') => (Token::Le, 2),
                        Some(b'>') => (Token::Ne, 2),
                        _ => (Token::Lt, 1),
                    },
                    b'>' => match next {
                        Some(b'=') => (Token::Ge, 2),
                        _ => (Token::Gt, 1),
                    },
                    b'!' => match next {
                        Some(b'=') => (Token::Ne, 2),
                        _ => return Err(syntax("unexpected '!'", at)),
                    },
                    b'|' => match next {
                        Some(b'|') => (Token::Concat, 2),
                        _ => return Err(syntax("unexpected '|'", at)),
                    },
                    other => {
                        return Err(syntax(
                            format!("unexpected character '{}'", char::from(other)),
                            at,
                        ))
                    }
                };
                emit(Lexeme::Symbol(token), start, start + len);
                i += len;
                at += len;
            }
        }
    }
    Ok(())
}

/// Byte and char index just past the identifier starting at byte `i`, char
/// `at`: alphanumerics, `_`, `$` and `#`.
fn ident_end(input: &str, mut i: usize, mut at: usize) -> (usize, usize) {
    let bytes = input.as_bytes();
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii() {
            if !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'$' | b'#')) {
                break;
            }
            i += 1;
        } else {
            let ch = char_at(input, i);
            if !ch.is_alphanumeric() {
                break;
            }
            i += ch.len_utf8();
        }
        at += 1;
    }
    (i, at)
}

/// The char starting at byte `i`, a char boundary before the end of `input`.
fn char_at(input: &str, i: usize) -> char {
    input[i..].chars().next().expect("the scan stops only on char boundaries inside the text")
}

/// The chars in a run of UTF-8 that starts on a char boundary: every byte
/// but a continuation byte (`0b10xx_xxxx`) starts one.
fn chars_in(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| (b as i8) >= -0x40).count()
}

/// Byte offset of the first `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn syntax(message: impl Into<String>, position: usize) -> DbError {
    DbError::Syntax { message: message.into(), position }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn lexes_a_create_type_statement() {
        let t = toks("CREATE TYPE Type_Professor AS OBJECT(PName VARCHAR(80));");
        assert_eq!(t[0], Token::Ident("CREATE".into()));
        assert_eq!(t[2], Token::Ident("Type_Professor".into()));
        assert!(t.contains(&Token::Semicolon));
        assert!(t.contains(&Token::NumberLit(80.0)));
    }

    #[test]
    fn string_literals_unescape_doubled_quotes() {
        assert_eq!(toks("'O''Hara'"), vec![Token::StringLit("O'Hara".into())]);
        assert_eq!(toks("''"), vec![Token::StringLit(String::new())]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn numbers_with_decimals() {
        assert_eq!(toks("3.5"), vec![Token::NumberLit(3.5)]);
        // A trailing dot is a Dot token (path syntax), not part of the number.
        assert_eq!(toks("3.x"), vec![
            Token::NumberLit(3.0),
            Token::Dot,
            Token::Ident("x".into())
        ]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(toks("= <> != < <= > >="), vec![
            Token::Eq,
            Token::Ne,
            Token::Ne,
            Token::Lt,
            Token::Le,
            Token::Gt,
            Token::Ge
        ]);
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("SELECT -- line comment\n 1 /* block\ncomment */ FROM dual");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(tokenize("/* never ends").is_err());
    }

    #[test]
    fn dot_paths_lex_as_ident_dot_ident() {
        let t = toks("S.attrStudent.attrCourse");
        assert_eq!(t.len(), 5);
        assert_eq!(t[1], Token::Dot);
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(toks("\"Order\""), vec![Token::Ident("Order".into())]);
    }

    #[test]
    fn keyword_check_is_case_insensitive() {
        let t = toks("select");
        assert!(t[0].is_kw("SELECT"));
        assert!(!t[0].is_kw("INSERT"));
    }

    #[test]
    fn offsets_point_into_source() {
        let spanned = tokenize("AB 'x'").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[0].end, 2);
        assert_eq!(spanned[1].offset, 3);
        assert_eq!(spanned[1].end, 6); // includes both quotes
    }

    #[test]
    fn end_offsets_cover_the_token_text() {
        let spanned = tokenize("CREATE <= 3.25 \"Q\"").unwrap();
        let slices: Vec<(usize, usize)> =
            spanned.iter().map(|t| (t.offset, t.end)).collect();
        assert_eq!(slices, vec![(0, 6), (7, 9), (10, 14), (15, 18)]);
        assert_eq!(spanned[2].span().len(), 4);
    }

    #[test]
    fn concat_operator() {
        assert_eq!(toks("a || b"), vec![
            Token::Ident("a".into()),
            Token::Concat,
            Token::Ident("b".into())
        ]);
    }
}
