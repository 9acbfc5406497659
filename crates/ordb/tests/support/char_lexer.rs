//! The reference the lexer differential (`lexer_prop`) diffs the engine's
//! lexer against: the char-vector lexer `sql::lexer::tokenize` was before it
//! scanned bytes, kept verbatim, and the `parameterize` that was built on
//! it. It copies the text into a `Vec<char>` and builds every identifier,
//! number and string literal one `char` at a time, so its offsets are char
//! indices by construction — what the byte scan must count.

use xmlord_ordb::sql::lexer::{SpannedToken, Token};
use xmlord_ordb::sql::param::Lit;
use xmlord_ordb::DbError;

/// Tokenize a complete SQL text (possibly multiple statements).
pub fn tokenize(input: &str) -> Result<Vec<SpannedToken>, DbError> {
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

/// (shape key, literals) of an INSERT text, over [`tokenize`].
pub fn parameterize(sql: &str) -> Option<(String, Vec<Lit>)> {
    let trimmed = sql.trim_start();
    if !trimmed.get(..6)?.eq_ignore_ascii_case("INSERT") {
        return None;
    }
    let tokens = tokenize(sql).ok()?;
    let mut key = String::with_capacity(sql.len());
    let mut lits = Vec::new();
    for spanned in &tokens {
        match &spanned.token {
            Token::StringLit(s) => {
                lits.push(Lit::Str(s.clone()));
                key.push_str("?s");
            }
            Token::NumberLit(n) => {
                lits.push(Lit::Num(*n));
                key.push_str("?n");
            }
            Token::Ident(name) => {
                key.push('"');
                key.push_str(name);
                key.push('"');
            }
            other => key.push_str(symbol(other)),
        }
        key.push(' ');
    }
    Some((key, lits))
}

fn symbol(token: &Token) -> &'static str {
    match token {
        Token::LParen => "(",
        Token::RParen => ")",
        Token::Comma => ",",
        Token::Dot => ".",
        Token::Semicolon => ";",
        Token::Star => "*",
        Token::Eq => "=",
        Token::Ne => "<>",
        Token::Lt => "<",
        Token::Le => "<=",
        Token::Gt => ">",
        Token::Ge => ">=",
        Token::Concat => "||",
        Token::Percent => "%",
        Token::Minus => "-",
        Token::Ident(_) | Token::StringLit(_) | Token::NumberLit(_) => {
            unreachable!("handled by the caller")
        }
    }
}
