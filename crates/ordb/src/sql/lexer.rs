//! SQL lexer.
//!
//! Produces a token stream with byte offsets for error reporting. Keywords
//! are recognized case-insensitively; identifiers keep their spelling.

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
/// open). Offsets are char indices — the lexer walks `char`s, and
/// [`xmlord_diag::Span`] converts them to line/column the same way.
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
    let bytes: Vec<char> = input.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let ch = bytes[i];
        // Whitespace.
        if ch.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments: -- to end of line, /* ... */.
        if ch == '-' && bytes.get(i + 1) == Some(&'-') {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if ch == '-' {
            out.push(SpannedToken { token: Token::Minus, offset: i, end: i + 1 });
            i += 1;
            continue;
        }
        if ch == '/' && bytes.get(i + 1) == Some(&'*') {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                i += 1;
            }
            if i + 1 >= bytes.len() {
                return Err(DbError::Syntax {
                    message: "unterminated block comment".into(),
                    position: i,
                });
            }
            i += 2;
            continue;
        }
        let start = i;
        // String literal.
        if ch == '\'' {
            i += 1;
            let mut lit = String::new();
            loop {
                match bytes.get(i) {
                    None => {
                        return Err(DbError::Syntax {
                            message: "unterminated string literal".into(),
                            position: start,
                        })
                    }
                    Some('\'') if bytes.get(i + 1) == Some(&'\'') => {
                        lit.push('\'');
                        i += 2;
                    }
                    Some('\'') => {
                        i += 1;
                        break;
                    }
                    Some(c) => {
                        lit.push(*c);
                        i += 1;
                    }
                }
            }
            out.push(SpannedToken { token: Token::StringLit(lit), offset: start, end: i });
            continue;
        }
        // Number literal.
        if ch.is_ascii_digit()
            || (ch == '.' && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit()))
        {
            let mut text = String::new();
            let mut saw_dot = false;
            while let Some(&c) = bytes.get(i) {
                if c.is_ascii_digit() {
                    text.push(c);
                    i += 1;
                } else if c == '.' && !saw_dot && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                    saw_dot = true;
                    text.push(c);
                    i += 1;
                } else {
                    break;
                }
            }
            let value: f64 = text.parse().map_err(|_| DbError::Syntax {
                message: format!("invalid number '{text}'"),
                position: start,
            })?;
            out.push(SpannedToken { token: Token::NumberLit(value), offset: start, end: i });
            continue;
        }
        // Identifier / keyword. `#` appears in no identifier; `_`, `$` do.
        if ch.is_alphabetic() || ch == '_' || ch == '"' {
            if ch == '"' {
                // Quoted identifier.
                i += 1;
                let mut name = String::new();
                while let Some(&c) = bytes.get(i) {
                    if c == '"' {
                        break;
                    }
                    name.push(c);
                    i += 1;
                }
                if bytes.get(i) != Some(&'"') {
                    return Err(DbError::Syntax {
                        message: "unterminated quoted identifier".into(),
                        position: start,
                    });
                }
                i += 1;
                out.push(SpannedToken { token: Token::Ident(name), offset: start, end: i });
                continue;
            }
            let mut name = String::new();
            while let Some(&c) = bytes.get(i) {
                if c.is_alphanumeric() || c == '_' || c == '$' || c == '#' {
                    name.push(c);
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(SpannedToken { token: Token::Ident(name), offset: start, end: i });
            continue;
        }
        // Operators and punctuation.
        let (token, len) = match ch {
            '(' => (Token::LParen, 1),
            ')' => (Token::RParen, 1),
            ',' => (Token::Comma, 1),
            '.' => (Token::Dot, 1),
            ';' => (Token::Semicolon, 1),
            '*' => (Token::Star, 1),
            '%' => (Token::Percent, 1),
            '=' => (Token::Eq, 1),
            '<' => match bytes.get(i + 1) {
                Some('=') => (Token::Le, 2),
                Some('>') => (Token::Ne, 2),
                _ => (Token::Lt, 1),
            },
            '>' => match bytes.get(i + 1) {
                Some('=') => (Token::Ge, 2),
                _ => (Token::Gt, 1),
            },
            '!' => match bytes.get(i + 1) {
                Some('=') => (Token::Ne, 2),
                _ => {
                    return Err(DbError::Syntax {
                        message: "unexpected '!'".into(),
                        position: i,
                    })
                }
            },
            '|' => match bytes.get(i + 1) {
                Some('|') => (Token::Concat, 2),
                _ => {
                    return Err(DbError::Syntax {
                        message: "unexpected '|'".into(),
                        position: i,
                    })
                }
            },
            other => {
                return Err(DbError::Syntax {
                    message: format!("unexpected character '{other}'"),
                    position: i,
                })
            }
        };
        out.push(SpannedToken { token, offset: start, end: start + len });
        i += len;
    }
    Ok(out)
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
