//! Literal parameterization of INSERT texts for the plan cache.
//!
//! Loaders emit thousands of INSERTs that differ only in literal values
//! (the §6.3 "large number of relational insert operations"). Caching by
//! verbatim text would miss every one of them, so the plan cache instead
//! normalizes INSERT texts into a *shape key* — the token stream with every
//! string/number literal replaced by a placeholder — and caches one parsed
//! template per shape. A hit rebinds the template's literal slots with the
//! new text's literals (Oracle's `CURSOR_SHARING=FORCE` auto-binding, in
//! miniature): in place, moving the literals in, when the cache holds the
//! template's only handle; on a copy, which then becomes the cached
//! template, when a caller still holds the statements of an earlier hit.
//! Finding the shape costs one [`scan`] of the text's bytes into a key
//! buffer the cache reuses, so a lookup allocates only the text's string
//! literals.
//!
//! Soundness: the shape key preserves every non-literal token, and the
//! parser's behaviour depends only on token kinds, so two texts with the
//! same key parse to ASTs of identical shape whose literal slots appear in
//! the same lexical order. [`slots_match`] verifies once, at template
//! creation, that the AST walk visits exactly the lexed literals in order
//! (this catches the one folding the parser does: `-5` becomes the literal
//! `-5.0`, which no longer equals the `5.0` token). Shapes that fail the
//! check are never templated — the cache falls back to verbatim-text
//! entries for them.

use super::ast::{Expr, FromItem, SelectStmt, Stmt};
use super::lexer::{scan, Lexeme, Token};
use crate::value::Value;

/// A literal extracted from a SQL text, in lexical order.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    Str(String),
    Num(f64),
}

/// A mutable literal slot found while walking an AST in source order.
enum Slot<'a> {
    Str(&'a mut String),
    Num(&'a mut f64),
}

/// Normalize an INSERT text into (shape key, literals). Returns `None` for
/// non-INSERT texts and texts that do not lex — those take the verbatim
/// cache path (and the parser reports lex errors with full context).
pub fn parameterize(sql: &str) -> Option<(String, Vec<Lit>)> {
    let mut key = String::new();
    let mut lits = Vec::new();
    parameterize_into(sql, &mut key, &mut lits).then_some((key, lits))
}

/// [`parameterize`] into buffers the caller keeps, cleared first, so that
/// a lookup reuses the key's allocation. Returns `false` where
/// `parameterize` returns `None`; the buffers then mean nothing.
pub fn parameterize_into(sql: &str, key: &mut String, lits: &mut Vec<Lit>) -> bool {
    let trimmed = sql.trim_start();
    if !trimmed.get(..6).is_some_and(|head| head.eq_ignore_ascii_case("INSERT")) {
        return false;
    }
    key.clear();
    lits.clear();
    scan(sql, |lexeme, _, _| {
        match lexeme {
            Lexeme::StringLit(s) => {
                lits.push(Lit::Str(s.into_owned()));
                key.push_str("?s");
            }
            Lexeme::NumberLit(n) => {
                lits.push(Lit::Num(n));
                key.push_str("?n");
            }
            // Quoting identifiers keeps the key unambiguous: `"a b"` (one
            // identifier) and `a b` (two) must not normalize alike.
            Lexeme::Ident(name) => {
                key.push('"');
                key.push_str(name);
                key.push('"');
            }
            Lexeme::Symbol(token) => key.push_str(symbol(&token)),
        }
        key.push(' ');
    })
    .is_ok()
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

/// Verify the template invariant: walking `stmts` visits literal slots
/// whose kinds *and values* are exactly `lits`, in order. Value equality is
/// bitwise for numbers so `-0` (parsed as `-0.0` from the `0.0` token) does
/// not slip through. When this holds for one parse of a shape it holds for
/// every text of that shape, making [`rebind`] sound.
pub fn slots_match(stmts: &mut [Stmt], lits: &[Lit]) -> bool {
    let mut next = 0usize;
    let ok = stmts.iter_mut().all(|stmt| {
        walk_stmt(stmt, &mut |slot| {
            let lit = lits.get(next);
            next += 1;
            match (slot, lit) {
                (Slot::Str(s), Some(Lit::Str(v))) => *s == *v,
                (Slot::Num(n), Some(Lit::Num(v))) => n.to_bits() == v.to_bits(),
                _ => false,
            }
        })
    });
    ok && next == lits.len()
}

/// Move a new text's literals into a template's literal slots, in order.
/// Returns `false` on any arity or kind mismatch; the slots are then
/// partly rebound, so the caller must drop the template and parse the text
/// (with a verified template this does not happen).
pub fn rebind(stmts: &mut [Stmt], lits: impl IntoIterator<Item = Lit>) -> bool {
    let mut lits = lits.into_iter();
    let ok = stmts.iter_mut().all(|stmt| {
        walk_stmt(stmt, &mut |slot| match (slot, lits.next()) {
            (Slot::Str(s), Some(Lit::Str(v))) => {
                *s = v;
                true
            }
            (Slot::Num(n), Some(Lit::Num(v))) => {
                *n = v;
                true
            }
            _ => false,
        })
    });
    ok && lits.next().is_none()
}

/// Walk one statement's literal slots in source order. Only INSERT is
/// templated; any other statement kind aborts the walk, which marks the
/// whole shape untemplatable.
fn walk_stmt(stmt: &mut Stmt, f: &mut impl FnMut(Slot) -> bool) -> bool {
    match stmt {
        Stmt::Insert { values, .. } => values.iter_mut().all(|v| walk_expr(v, f)),
        _ => false,
    }
}

fn walk_expr(expr: &mut Expr, f: &mut impl FnMut(Slot) -> bool) -> bool {
    match expr {
        Expr::Literal(Value::Str(s)) => f(Slot::Str(s)),
        Expr::Literal(Value::Num(n)) => f(Slot::Num(n)),
        // NULL comes from the keyword, not a literal token.
        Expr::Literal(_) => true,
        Expr::Path(_) | Expr::CountStar | Expr::RefOf(_) => true,
        Expr::Call { args, .. } => args.iter_mut().all(|a| walk_expr(a, f)),
        Expr::Binary { lhs, rhs, .. } => walk_expr(lhs, f) && walk_expr(rhs, f),
        Expr::Not(inner) | Expr::Deref(inner) => walk_expr(inner, f),
        Expr::IsNull { expr, .. } => walk_expr(expr, f),
        // The pattern follows LIKE in the source, after the tested expr.
        Expr::Like { expr, pattern, .. } => walk_expr(expr, f) && f(Slot::Str(pattern)),
        Expr::Subquery(q) | Expr::Exists(q) => walk_select(q, f),
        // No text spells one: a statement holding one has no template.
        Expr::KeyRef(_) => false,
        Expr::CastMultiset { query, .. } => walk_select(query, f),
    }
}

/// Clause order mirrors the grammar: select list, FROM, WHERE, ORDER BY.
fn walk_select(select: &mut SelectStmt, f: &mut impl FnMut(Slot) -> bool) -> bool {
    select.items.iter_mut().all(|item| walk_expr(&mut item.expr, f))
        && select.from.iter_mut().all(|item| match item {
            FromItem::Table { .. } => true,
            FromItem::CollectionTable { expr, .. } => walk_expr(expr, f),
        })
        && select.where_clause.as_mut().is_none_or(|w| walk_expr(w, f))
        && select.order_by.iter_mut().all(|(e, _)| walk_expr(e, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_script;

    #[test]
    fn same_shape_different_literals_share_a_key() {
        let (k1, l1) = parameterize("INSERT INTO T VALUES (1, 'a')").unwrap();
        let (k2, l2) = parameterize("INSERT INTO T VALUES (42, 'zz')").unwrap();
        assert_eq!(k1, k2);
        assert_eq!(l1, vec![Lit::Num(1.0), Lit::Str("a".into())]);
        assert_eq!(l2, vec![Lit::Num(42.0), Lit::Str("zz".into())]);
    }

    #[test]
    fn non_insert_texts_are_not_parameterized() {
        assert!(parameterize("SELECT x FROM T").is_none());
        assert!(parameterize("CREATE TABLE T (a NUMBER)").is_none());
        assert!(parameterize("INS").is_none());
    }

    #[test]
    fn null_keyword_stays_in_the_key() {
        let (k_null, l_null) = parameterize("INSERT INTO T VALUES (NULL)").unwrap();
        let (k_lit, l_lit) = parameterize("INSERT INTO T VALUES ('x')").unwrap();
        assert_ne!(k_null, k_lit);
        assert!(l_null.is_empty());
        assert_eq!(l_lit.len(), 1);
    }

    #[test]
    fn rebind_replays_a_template_with_new_literals() {
        let first = "INSERT INTO T VALUES (Ty('a', 1), 'b')";
        let (_, lits) = parameterize(first).unwrap();
        let mut template = parse_script(first).unwrap();
        assert!(slots_match(&mut template, &lits));

        let second = "INSERT INTO T VALUES (Ty('x', 9), 'y')";
        let (_, new_lits) = parameterize(second).unwrap();
        assert!(rebind(&mut template, new_lits));
        assert_eq!(template, parse_script(second).unwrap());
    }

    #[test]
    fn folded_negative_numbers_fail_verification() {
        let sql = "INSERT INTO T VALUES (-5)";
        let (_, lits) = parameterize(sql).unwrap();
        let mut parsed = parse_script(sql).unwrap();
        // The parser folds `-` into the literal (`-5.0`), so the slot no
        // longer equals the lexed `5.0` — the shape must not be templated.
        assert!(!slots_match(&mut parsed, &lits));
    }

    #[test]
    fn subquery_literals_are_slots_too() {
        let first = "INSERT INTO C VALUES (Ty('db', (SELECT REF(p) FROM P p WHERE p.name = 'Kudrass')))";
        let (_, lits) = parameterize(first).unwrap();
        let mut template = parse_script(first).unwrap();
        assert!(slots_match(&mut template, &lits));

        let second = "INSERT INTO C VALUES (Ty('cad', (SELECT REF(p) FROM P p WHERE p.name = 'Jaeger')))";
        let (_, new_lits) = parameterize(second).unwrap();
        assert!(rebind(&mut template, new_lits));
        assert_eq!(template, parse_script(second).unwrap());
    }

    #[test]
    fn quoted_identifiers_do_not_collide_with_split_idents() {
        let (k1, _) = parameterize("INSERT INTO \"a b\" VALUES (1)").unwrap();
        let (k2, _) = parameterize("INSERT INTO a b VALUES (1)").unwrap();
        assert_ne!(k1, k2);
    }

    #[test]
    fn scripts_with_non_insert_statements_fail_verification() {
        let sql = "INSERT INTO T VALUES (1); SELECT COUNT(*) FROM T;";
        let (_, lits) = parameterize(sql).unwrap();
        let mut parsed = parse_script(sql).unwrap();
        assert!(!slots_match(&mut parsed, &lits));
    }
}
