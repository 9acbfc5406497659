//! Recursive-descent SQL parser.
//!
//! Accepts the statement inventory listed in the crate docs. The grammar is
//! driven by the scripts `xml2ordb` generates (paper §4–§6) plus what the
//! examples and baselines need; it is deliberately permissive where Oracle
//! is (keywords are not reserved unless positionally required).

use crate::catalog::Constraint;
use crate::error::DbError;
use crate::ident::Ident;
use crate::sql::ast::{
    BinOp, ColumnSpec, Expr, FromItem, SelectItem, SelectStmt, Stmt,
};
use crate::sql::lexer::{tokenize, SpannedToken, Token};
use crate::sql::span::SpannedStmt;
use crate::types::SqlType;
use crate::value::Value;
use xmlord_diag::Span;

/// Parse a script of one or more `;`-separated statements.
pub fn parse_script(input: &str) -> Result<Vec<Stmt>, DbError> {
    Ok(parse_script_spanned(input)?.into_iter().map(|s| s.stmt).collect())
}

/// Parse a script, keeping the character span of every statement.
pub fn parse_script_spanned(input: &str) -> Result<Vec<SpannedStmt>, DbError> {
    Ok(parse_script_tokens(input)?.0)
}

/// Parse a script, keeping the character span of every statement and the
/// tokens they were parsed from, in offset order — the entry point for
/// [`crate::analyze`], which anchors its diagnostics in those tokens.
pub(crate) fn parse_script_tokens(
    input: &str,
) -> Result<(Vec<SpannedStmt>, Vec<SpannedToken>), DbError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    loop {
        while parser.eat_token(&Token::Semicolon) {}
        if parser.at_end() {
            break;
        }
        let start = parser.offset();
        let stmt = parser.statement()?;
        stmts.push(SpannedStmt { stmt, span: Span::new(start, parser.prev_end()) });
    }
    Ok((stmts, parser.tokens))
}

/// Parse exactly one statement (trailing `;` allowed).
pub fn parse_statement(input: &str) -> Result<Stmt, DbError> {
    let mut stmts = parse_script(input)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        n => Err(DbError::Syntax {
            message: format!("expected exactly one statement, found {n}"),
            position: 0,
        }),
    }
}

/// Keywords that terminate an expression/alias position.
const CLAUSE_KEYWORDS: &[&str] = &[
    "FROM", "WHERE", "ORDER", "GROUP", "HAVING", "UNION", "MINUS", "INTERSECT", "NESTED", "STORE",
    "ON", "AND", "OR", "NOT", "IS", "LIKE", "AS", "ASC", "DESC", "VALUES",
];

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    // -- token plumbing -----------------------------------------------------

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_nth(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n).map(|t| &t.token)
    }

    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map(|t| t.offset).unwrap_or(usize::MAX)
    }

    /// End offset of the most recently consumed token (0 before any).
    fn prev_end(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.tokens[self.pos - 1].end
        }
    }

    /// Span of the token at the cursor (zero-length at end of input).
    fn current_span(&self) -> Span {
        self.tokens
            .get(self.pos)
            .map(|t| t.span())
            .unwrap_or_else(|| Span::at(self.prev_end()))
    }

    fn bump(&mut self) -> Option<&Token> {
        let tok = self.tokens.get(self.pos).map(|t| &t.token);
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn error(&self, message: impl Into<String>) -> DbError {
        DbError::Syntax { message: message.into(), position: self.offset().min(1_000_000_000) }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn peek_nth_kw(&self, n: usize, kw: &str) -> bool {
        self.peek_nth(n).is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DbError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}")))
        }
    }

    fn eat_token(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, tok: &Token, what: &str) -> Result<(), DbError> {
        if self.eat_token(tok) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn ident(&mut self) -> Result<Ident, DbError> {
        match self.bump() {
            Some(Token::Ident(name)) => {
                let name = name.clone();
                Ident::new(&name)
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error("expected identifier"))
            }
        }
    }

    /// Parse a column/attribute type.
    fn sql_type(&mut self) -> Result<SqlType, DbError> {
        if self.peek_kw("REF") {
            self.bump();
            let name = self.ident()?;
            return Ok(SqlType::Ref(name));
        }
        let name = self.ident()?;
        match name.key() {
            "VARCHAR" | "VARCHAR2" => {
                self.expect_token(&Token::LParen, "'(' after VARCHAR")?;
                let n = self.number_literal()? as u32;
                self.expect_token(&Token::RParen, "')' after VARCHAR size")?;
                Ok(SqlType::Varchar(n))
            }
            "CHAR" => {
                self.expect_token(&Token::LParen, "'(' after CHAR")?;
                let n = self.number_literal()? as u32;
                self.expect_token(&Token::RParen, "')' after CHAR size")?;
                Ok(SqlType::Char(n))
            }
            "NUMBER" => {
                // Optional precision/scale, accepted and ignored.
                if self.eat_token(&Token::LParen) {
                    let _ = self.number_literal()?;
                    if self.eat_token(&Token::Comma) {
                        let _ = self.number_literal()?;
                    }
                    self.expect_token(&Token::RParen, "')' after NUMBER precision")?;
                }
                Ok(SqlType::Number)
            }
            "INTEGER" | "INT" => Ok(SqlType::Integer),
            "DATE" => Ok(SqlType::Date),
            "CLOB" => Ok(SqlType::Clob),
            // A user-defined type name; whether it denotes an object or a
            // collection type is resolved against the catalog at DDL time.
            _ => Ok(SqlType::Object(name)),
        }
    }

    fn number_literal(&mut self) -> Result<f64, DbError> {
        match self.bump() {
            Some(Token::NumberLit(n)) => Ok(*n),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error("expected number literal"))
            }
        }
    }

    // -- statements -----------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, DbError> {
        if self.eat_kw("EXPLAIN") {
            // Accept the Oracle spelling `EXPLAIN PLAN FOR stmt` too.
            if self.eat_kw("PLAN") {
                self.expect_kw("FOR")?;
            }
            return Ok(Stmt::Explain(Box::new(self.statement()?)));
        }
        if self.peek_kw("CREATE") {
            return self.create_statement();
        }
        if self.peek_kw("DROP") {
            return self.drop_statement();
        }
        if self.peek_kw("INSERT") {
            return self.insert_statement();
        }
        if self.peek_kw("SELECT") {
            return Ok(Stmt::Select(self.select_statement()?));
        }
        if self.peek_kw("DELETE") {
            return self.delete_statement();
        }
        if self.peek_kw("UPDATE") {
            return self.update_statement();
        }
        if self.eat_kw("COMMIT") {
            self.eat_kw("WORK");
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            self.eat_kw("WORK");
            let to = if self.eat_kw("TO") {
                self.eat_kw("SAVEPOINT");
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Stmt::Rollback { to });
        }
        if self.eat_kw("SAVEPOINT") {
            let name = self.ident()?;
            return Ok(Stmt::Savepoint { name });
        }
        if self.eat_kw("ANALYZE") {
            self.expect_kw("TABLE")?;
            let table = self.ident()?;
            // Oracle spelling: `ANALYZE TABLE t COMPUTE STATISTICS`.
            if self.eat_kw("COMPUTE") {
                self.expect_kw("STATISTICS")?;
            }
            return Ok(Stmt::AnalyzeTable { table });
        }
        Err(self.error(
            "expected EXPLAIN, CREATE, DROP, INSERT, SELECT, DELETE, UPDATE, ANALYZE, COMMIT, ROLLBACK or SAVEPOINT",
        ))
    }

    fn create_statement(&mut self) -> Result<Stmt, DbError> {
        self.expect_kw("CREATE")?;
        let or_replace = if self.eat_kw("OR") {
            self.expect_kw("REPLACE")?;
            true
        } else {
            false
        };
        if self.eat_kw("TYPE") {
            return self.create_type(or_replace);
        }
        if self.eat_kw("TABLE") {
            return self.create_table();
        }
        if self.eat_kw("VIEW") {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            let query = self.select_statement()?;
            return Ok(Stmt::CreateView { name, query, or_replace });
        }
        let unique = self.eat_kw("UNIQUE");
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_token(&Token::LParen, "'(' before index column list")?;
            let columns = self.ident_list()?;
            self.expect_token(&Token::RParen, "')' closing index column list")?;
            return Ok(Stmt::CreateIndex { name, table, columns, unique });
        }
        Err(self.error("expected TYPE, TABLE, VIEW or INDEX after CREATE"))
    }

    fn create_type(&mut self, _or_replace: bool) -> Result<Stmt, DbError> {
        let name = self.ident()?;
        // Forward declaration: `CREATE TYPE name;`
        if self.peek() == Some(&Token::Semicolon) || self.at_end() {
            return Ok(Stmt::CreateTypeForward { name });
        }
        self.expect_kw("AS")?;
        if self.eat_kw("OBJECT") {
            self.expect_token(&Token::LParen, "'(' after AS OBJECT")?;
            let mut attrs = Vec::new();
            loop {
                let attr_name = self.ident()?;
                let attr_type = self.sql_type()?;
                attrs.push((attr_name, attr_type));
                if self.eat_token(&Token::Comma) {
                    continue;
                }
                self.expect_token(&Token::RParen, "')' closing attribute list")?;
                break;
            }
            return Ok(Stmt::CreateObjectType { name, attrs });
        }
        if self.eat_kw("VARRAY") {
            self.expect_token(&Token::LParen, "'(' after VARRAY")?;
            let max = match self.bump() {
                Some(Token::NumberLit(n)) => *n as u32,
                _ => return Err(self.error("expected VARRAY size")),
            };
            self.expect_token(&Token::RParen, "')' after VARRAY size")?;
            self.expect_kw("OF")?;
            let elem = self.sql_type()?;
            return Ok(Stmt::CreateVarrayType { name, max, elem });
        }
        if self.eat_kw("TABLE") {
            self.expect_kw("OF")?;
            let elem = self.sql_type()?;
            return Ok(Stmt::CreateNestedTableType { name, elem });
        }
        Err(self.error("expected OBJECT, VARRAY or TABLE after AS"))
    }

    fn create_table(&mut self) -> Result<Stmt, DbError> {
        let name = self.ident()?;
        if self.eat_kw("OF") {
            // Object table.
            let of_type = self.ident()?;
            let mut constraints = Vec::new();
            if self.eat_token(&Token::LParen) {
                constraints = self.constraint_list()?;
                self.expect_token(&Token::RParen, "')' closing constraint list")?;
            }
            return Ok(Stmt::CreateObjectTable { name, of_type, constraints });
        }
        // Relational table.
        self.expect_token(&Token::LParen, "'(' opening column list")?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.peek_kw("CHECK") || self.peek_kw("PRIMARY") || self.peek_kw("UNIQUE") {
                constraints.extend(self.table_constraint()?);
            } else {
                let col_name = self.ident()?;
                let sql_type = self.sql_type()?;
                let mut not_null = false;
                let mut primary_key = false;
                loop {
                    if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        not_null = true;
                    } else if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        primary_key = true;
                    } else {
                        break;
                    }
                }
                columns.push(ColumnSpec { name: col_name, sql_type, not_null, primary_key });
            }
            if self.eat_token(&Token::Comma) {
                continue;
            }
            self.expect_token(&Token::RParen, "')' closing column list")?;
            break;
        }
        // NESTED TABLE col STORE AS name (repeatable).
        let mut nested_table_stores = Vec::new();
        while self.eat_kw("NESTED") {
            self.expect_kw("TABLE")?;
            let col = self.ident()?;
            self.expect_kw("STORE")?;
            self.expect_kw("AS")?;
            let store = self.ident()?;
            nested_table_stores.push((col, store));
        }
        Ok(Stmt::CreateRelationalTable { name, columns, constraints, nested_table_stores })
    }

    /// Constraints inside `CREATE TABLE t OF type (...)`: the paper uses
    /// `PName PRIMARY KEY`, `attrName NOT NULL`, `CHECK (...)`.
    fn constraint_list(&mut self) -> Result<Vec<Constraint>, DbError> {
        let mut out = Vec::new();
        loop {
            out.extend(self.table_constraint()?);
            if self.eat_token(&Token::Comma) {
                continue;
            }
            break;
        }
        Ok(out)
    }

    fn table_constraint(&mut self) -> Result<Vec<Constraint>, DbError> {
        if self.eat_kw("CHECK") {
            self.expect_token(&Token::LParen, "'(' after CHECK")?;
            let expr = self.expr()?;
            self.expect_token(&Token::RParen, "')' closing CHECK")?;
            return Ok(vec![Constraint::Check(expr)]);
        }
        if self.eat_kw("PRIMARY") {
            self.expect_kw("KEY")?;
            self.expect_token(&Token::LParen, "'(' after PRIMARY KEY")?;
            let cols = self.ident_list()?;
            self.expect_token(&Token::RParen, "')' closing PRIMARY KEY")?;
            return Ok(vec![Constraint::PrimaryKey(cols)]);
        }
        if self.eat_kw("UNIQUE") {
            self.expect_token(&Token::LParen, "'(' after UNIQUE")?;
            let cols = self.ident_list()?;
            self.expect_token(&Token::RParen, "')' closing UNIQUE")?;
            return Ok(vec![Constraint::Unique(cols)]);
        }
        // `col PRIMARY KEY` / `col NOT NULL` / `col PRIMARY KEY NOT NULL`.
        let col = self.ident()?;
        let mut out = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                out.push(Constraint::PrimaryKey(vec![col.clone()]));
            } else if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                out.push(Constraint::NotNull(col.clone()));
            } else {
                break;
            }
        }
        if out.is_empty() {
            return Err(self.error("expected PRIMARY KEY or NOT NULL after column name"));
        }
        Ok(out)
    }

    fn ident_list(&mut self) -> Result<Vec<Ident>, DbError> {
        let mut out = vec![self.ident()?];
        while self.eat_token(&Token::Comma) {
            out.push(self.ident()?);
        }
        Ok(out)
    }

    fn drop_statement(&mut self) -> Result<Stmt, DbError> {
        self.expect_kw("DROP")?;
        if self.eat_kw("TYPE") {
            let name = self.ident()?;
            let force = self.eat_kw("FORCE");
            return Ok(Stmt::DropType { name, force });
        }
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            return Ok(Stmt::DropTable { name });
        }
        if self.eat_kw("VIEW") {
            let name = self.ident()?;
            return Ok(Stmt::DropView { name });
        }
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            return Ok(Stmt::DropIndex { name });
        }
        Err(self.error("expected TYPE, TABLE, VIEW or INDEX after DROP"))
    }

    fn insert_statement(&mut self) -> Result<Stmt, DbError> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.peek() == Some(&Token::LParen) && !self.peek_nth_kw(1, "SELECT") {
            // Could be a column list or — for INSERT INTO t VALUES — nothing.
            self.expect_token(&Token::LParen, "'('")?;
            let cols = self.ident_list()?;
            self.expect_token(&Token::RParen, "')'")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        self.expect_token(&Token::LParen, "'(' opening VALUES")?;
        let mut values = vec![self.expr()?];
        while self.eat_token(&Token::Comma) {
            values.push(self.expr()?);
        }
        self.expect_token(&Token::RParen, "')' closing VALUES")?;
        Ok(Stmt::Insert { table, columns, values })
    }

    fn update_statement(&mut self) -> Result<Stmt, DbError> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let mut path = vec![self.ident()?];
            while self.eat_token(&Token::Dot) {
                path.push(self.ident()?);
            }
            self.expect_token(&Token::Eq, "'=' in SET clause")?;
            let value = self.expr()?;
            sets.push((path, value));
            if self.eat_token(&Token::Comma) {
                continue;
            }
            break;
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Update { table, sets, where_clause })
    }

    fn delete_statement(&mut self) -> Result<Stmt, DbError> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Delete { table, where_clause })
    }

    // -- SELECT ---------------------------------------------------------------

    fn select_statement(&mut self) -> Result<SelectStmt, DbError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        let mut star = false;
        if self.eat_token(&Token::Star) {
            star = true;
        } else {
            loop {
                let expr = self.expr()?;
                let alias = self.optional_alias()?;
                items.push(SelectItem { expr, alias });
                if self.eat_token(&Token::Comma) {
                    continue;
                }
                break;
            }
        }
        self.expect_kw("FROM")?;
        let mut from = vec![self.parse_from_item()?];
        while self.eat_token(&Token::Comma) {
            from.push(self.parse_from_item()?);
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push((expr, asc));
                if self.eat_token(&Token::Comma) {
                    continue;
                }
                break;
            }
        }
        Ok(SelectStmt { distinct, items, star, from, where_clause, order_by })
    }

    fn optional_alias(&mut self) -> Result<Option<Ident>, DbError> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        match self.peek() {
            Some(Token::Ident(name))
                if !CLAUSE_KEYWORDS.iter().any(|kw| name.eq_ignore_ascii_case(kw)) =>
            {
                Ok(Some(self.ident()?))
            }
            _ => Ok(None),
        }
    }

    fn parse_from_item(&mut self) -> Result<FromItem, DbError> {
        if self.peek_kw("TABLE") && self.peek_nth(1) == Some(&Token::LParen) {
            self.expect_kw("TABLE")?;
            self.expect_token(&Token::LParen, "'(' after TABLE")?;
            let expr = self.expr()?;
            self.expect_token(&Token::RParen, "')' closing TABLE()")?;
            let alias = self.optional_alias()?;
            return Ok(FromItem::CollectionTable { expr, alias });
        }
        let name = self.ident()?;
        let alias = self.optional_alias()?;
        Ok(FromItem::Table { name, alias })
    }

    // -- expressions ------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, DbError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, DbError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, DbError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, DbError> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, DbError> {
        let lhs = self.concat_expr()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }
        // [NOT] LIKE 'pattern'
        let negated_like = if self.peek_kw("NOT") && self.peek_nth_kw(1, "LIKE") {
            self.expect_kw("NOT")?;
            true
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            let pattern = match self.bump() {
                Some(Token::StringLit(s)) => s.clone(),
                _ => return Err(self.error("expected string literal after LIKE")),
            };
            return Ok(Expr::Like { expr: Box::new(lhs), pattern, negated: negated_like });
        }
        if negated_like {
            return Err(self.error("expected LIKE after NOT"));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.concat_expr()?;
            return Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) });
        }
        Ok(lhs)
    }

    fn concat_expr(&mut self) -> Result<Expr, DbError> {
        let mut lhs = self.primary()?;
        while self.eat_token(&Token::Concat) {
            let rhs = self.primary()?;
            lhs = Expr::Binary { op: BinOp::Concat, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Expr, DbError> {
        match self.peek() {
            // Negative number literal.
            Some(Token::Minus) => {
                self.bump();
                match self.bump() {
                    Some(Token::NumberLit(n)) => Ok(Expr::Literal(Value::Num(-*n))),
                    _ => {
                        self.pos = self.pos.saturating_sub(1);
                        Err(self.error("expected number after '-'"))
                    }
                }
            }
            // The peek just matched, so bump returns the same token — but
            // rather than assert that with `unreachable!()`, surface any
            // disagreement as a typed, span-carrying parse error.
            Some(Token::StringLit(_)) => {
                let span = self.current_span();
                match self.bump() {
                    Some(Token::StringLit(s)) => Ok(Expr::Literal(Value::Str(s.clone()))),
                    _ => Err(DbError::Parse {
                        message: "expected string literal".into(),
                        span,
                    }),
                }
            }
            Some(Token::NumberLit(_)) => {
                let span = self.current_span();
                match self.bump() {
                    Some(Token::NumberLit(n)) => Ok(Expr::Literal(Value::Num(*n))),
                    _ => Err(DbError::Parse {
                        message: "expected number literal".into(),
                        span,
                    }),
                }
            }
            Some(Token::LParen) => {
                self.bump();
                if self.peek_kw("SELECT") {
                    let sub = self.select_statement()?;
                    self.expect_token(&Token::RParen, "')' closing subquery")?;
                    return Ok(Expr::Subquery(Box::new(sub)));
                }
                let inner = self.expr()?;
                self.expect_token(&Token::RParen, "')' closing parenthesized expression")?;
                Ok(inner)
            }
            Some(Token::Ident(_)) => self.ident_led_expr(),
            _ => Err(self.error("expected expression")),
        }
    }

    fn ident_led_expr(&mut self) -> Result<Expr, DbError> {
        // NULL literal.
        if self.peek_kw("NULL") {
            self.bump();
            return Ok(Expr::Literal(Value::Null));
        }
        // CAST(MULTISET(select) AS type)
        if self.peek_kw("CAST") && self.peek_nth(1) == Some(&Token::LParen) {
            self.bump();
            self.expect_token(&Token::LParen, "'(' after CAST")?;
            self.expect_kw("MULTISET")?;
            self.expect_token(&Token::LParen, "'(' after MULTISET")?;
            let query = self.select_statement()?;
            self.expect_token(&Token::RParen, "')' closing MULTISET")?;
            self.expect_kw("AS")?;
            let target = self.ident()?;
            self.expect_token(&Token::RParen, "')' closing CAST")?;
            return Ok(Expr::CastMultiset { query: Box::new(query), target });
        }
        // EXISTS (select)
        if self.peek_kw("EXISTS") && self.peek_nth(1) == Some(&Token::LParen) {
            self.bump();
            self.expect_token(&Token::LParen, "'(' after EXISTS")?;
            let sub = self.select_statement()?;
            self.expect_token(&Token::RParen, "')' closing EXISTS")?;
            return Ok(Expr::Exists(Box::new(sub)));
        }
        // REF(alias)
        if self.peek_kw("REF") && self.peek_nth(1) == Some(&Token::LParen) {
            self.bump();
            self.expect_token(&Token::LParen, "'(' after REF")?;
            let alias = self.ident()?;
            self.expect_token(&Token::RParen, "')' closing REF")?;
            return Ok(Expr::RefOf(alias));
        }
        // DEREF(expr)
        if self.peek_kw("DEREF") && self.peek_nth(1) == Some(&Token::LParen) {
            self.bump();
            self.expect_token(&Token::LParen, "'(' after DEREF")?;
            let inner = self.expr()?;
            self.expect_token(&Token::RParen, "')' closing DEREF")?;
            return Ok(Expr::Deref(Box::new(inner)));
        }
        let name = self.ident()?;
        // Call: constructor or function.
        if self.peek() == Some(&Token::LParen) {
            self.bump();
            if name.eq_str("COUNT") && self.eat_token(&Token::Star) {
                self.expect_token(&Token::RParen, "')' closing COUNT(*)")?;
                return Ok(Expr::CountStar);
            }
            let mut args = Vec::new();
            if !self.eat_token(&Token::RParen) {
                loop {
                    args.push(self.expr()?);
                    if self.eat_token(&Token::Comma) {
                        continue;
                    }
                    self.expect_token(&Token::RParen, "')' closing argument list")?;
                    break;
                }
            }
            return Ok(Expr::Call { name, args });
        }
        // Path: name(.name)*
        let mut parts = vec![name];
        while self.peek() == Some(&Token::Dot) {
            self.bump();
            parts.push(self.ident()?);
        }
        Ok(Expr::Path(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(input: &str) -> Stmt {
        parse_statement(input).unwrap()
    }

    #[test]
    fn parses_paper_section_2_1_create_type() {
        let stmt = one(
            "CREATE TYPE Type_Professor AS OBJECT( PName VARCHAR(80), Subject VARCHAR(120));",
        );
        match stmt {
            Stmt::CreateObjectType { name, attrs } => {
                assert!(name.eq_str("Type_Professor"));
                assert_eq!(attrs.len(), 2);
                assert_eq!(attrs[0].1, SqlType::Varchar(80));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_nested_object_type_domains() {
        let stmt = one(
            "CREATE TYPE Type_Course AS OBJECT( Name VARCHAR(100), Professor Type_Professor)",
        );
        match stmt {
            Stmt::CreateObjectType { attrs, .. } => {
                assert!(matches!(attrs[1].1, SqlType::Object(ref n) if n.eq_str("Type_Professor")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_varray_and_nested_table_types() {
        let v = one("CREATE TYPE TypeVA_Subject AS VARRAY(5) OF VARCHAR(200)");
        assert!(matches!(v, Stmt::CreateVarrayType { max: 5, elem: SqlType::Varchar(200), .. }));
        let nt = one("CREATE TYPE Type_TabSubject AS TABLE OF VARCHAR(200)");
        assert!(matches!(nt, Stmt::CreateNestedTableType { elem: SqlType::Varchar(200), .. }));
        let rt = one("CREATE TYPE TabRefProfessor AS TABLE OF REF Type_Professor");
        assert!(matches!(
            rt,
            Stmt::CreateNestedTableType { elem: SqlType::Ref(ref n), .. } if n.eq_str("Type_Professor")
        ));
    }

    #[test]
    fn parses_forward_type_declaration() {
        assert!(matches!(one("CREATE TYPE Type_Professor;"), Stmt::CreateTypeForward { .. }));
    }

    #[test]
    fn parses_object_table_with_pk_constraint() {
        let stmt = one("CREATE TABLE TabProfessor OF Type_Professor( PName PRIMARY KEY)");
        match stmt {
            Stmt::CreateObjectTable { name, of_type, constraints } => {
                assert!(name.eq_str("TabProfessor"));
                assert!(of_type.eq_str("Type_Professor"));
                assert!(matches!(constraints[0], Constraint::PrimaryKey(ref cols) if cols.len() == 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_object_table_with_not_null_and_check() {
        let stmt = one(
            "CREATE TABLE TabCourse OF Type_Course( attrName NOT NULL, \
             CHECK (attrAddress.attrStreet IS NOT NULL))",
        );
        match stmt {
            Stmt::CreateObjectTable { constraints, .. } => {
                assert_eq!(constraints.len(), 2);
                assert!(matches!(constraints[0], Constraint::NotNull(_)));
                assert!(matches!(constraints[1], Constraint::Check(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_relational_table_with_nested_table_store() {
        let stmt = one(
            "CREATE TABLE TabProfessor ( Name VARCHAR(80), Subject Type_TabSubject) \
             NESTED TABLE Subject STORE AS TabSubject_List",
        );
        match stmt {
            Stmt::CreateRelationalTable { columns, nested_table_stores, .. } => {
                assert_eq!(columns.len(), 2);
                assert_eq!(nested_table_stores.len(), 1);
                assert!(nested_table_stores[0].1.eq_str("TabSubject_List"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_insert_with_nested_constructors() {
        let stmt = one(
            "INSERT INTO Course_Offering VALUES ('CS', Type_Course ('CAD Intro', \
             Type_Professor ('Jaeger','CAD')))",
        );
        match stmt {
            Stmt::Insert { values, .. } => {
                assert_eq!(values.len(), 2);
                assert!(matches!(values[1], Expr::Call { ref name, ref args }
                    if name.eq_str("Type_Course") && args.len() == 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_the_paper_dot_notation_query() {
        let stmt = one(
            "SELECT S.attrLName FROM TabUniversity S \
             WHERE S.attrStudent.attrCourse.attrProfessor.attrPName = 'Jaeger'",
        );
        match stmt {
            Stmt::Select(sel) => {
                assert_eq!(sel.items.len(), 1);
                assert!(matches!(sel.items[0].expr, Expr::Path(ref p) if p.len() == 2));
                match sel.where_clause.as_ref().unwrap() {
                    Expr::Binary { lhs, .. } => {
                        assert!(matches!(**lhs, Expr::Path(ref p) if p.len() == 5));
                    }
                    other => panic!("unexpected where {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_table_collection_unnesting() {
        let stmt =
            one("SELECT s.COLUMN_VALUE FROM TabProfessor p, TABLE(p.attrSubject) s");
        match stmt {
            Stmt::Select(sel) => {
                assert_eq!(sel.from.len(), 2);
                assert!(matches!(sel.from[1], FromItem::CollectionTable { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_cast_multiset() {
        let stmt = one(
            "SELECT Type_Professor(p.attrPName, CAST (MULTISET (SELECT s.attrSubject \
             FROM tabSubject s WHERE p.IDProfessor = s.IDProfessor) AS TypeVA_Subject), \
             p.attrDept) FROM tabProfessor p",
        );
        match stmt {
            Stmt::Select(sel) => {
                let Expr::Call { args, .. } = &sel.items[0].expr else {
                    panic!("expected constructor call")
                };
                assert!(matches!(args[1], Expr::CastMultiset { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_ref_and_deref() {
        let stmt = one(
            "INSERT INTO T VALUES ((SELECT REF(p) FROM TabProfessor p WHERE p.PName = 'K'))",
        );
        match stmt {
            Stmt::Insert { values, .. } => {
                assert!(matches!(values[0], Expr::Subquery(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let q = one("SELECT DEREF(c.Prof_Ref) FROM TabCourse c");
        match q {
            Stmt::Select(sel) => assert!(matches!(sel.items[0].expr, Expr::Deref(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_create_view_with_object_constructors() {
        let stmt = one(
            "CREATE VIEW OView_University AS SELECT Type_University(u.attrStudyCourse) \
             AS University FROM tabUniversity u",
        );
        match stmt {
            Stmt::CreateView { name, query, or_replace } => {
                assert!(name.eq_str("OView_University"));
                assert!(!or_replace);
                assert_eq!(query.items[0].alias.as_ref().unwrap().as_str(), "University");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_drop_statements() {
        assert!(matches!(one("DROP TYPE T FORCE"), Stmt::DropType { force: true, .. }));
        assert!(matches!(one("DROP TYPE T"), Stmt::DropType { force: false, .. }));
        assert!(matches!(one("DROP TABLE T"), Stmt::DropTable { .. }));
        assert!(matches!(one("DROP VIEW V"), Stmt::DropView { .. }));
    }

    #[test]
    fn parses_update_with_nested_set_path() {
        let stmt = one("UPDATE Tab SET attrList.attrBoss = (SELECT REF(x) FROM T x), a = 1 WHERE ID = 'p2'");
        match stmt {
            Stmt::Update { sets, where_clause, .. } => {
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[0].0.len(), 2);
                assert!(matches!(sets[0].1, Expr::Subquery(_)));
                assert!(where_clause.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_delete_with_where() {
        let stmt = one("DELETE FROM T WHERE x = 1");
        assert!(matches!(stmt, Stmt::Delete { where_clause: Some(_), .. }));
    }

    #[test]
    fn parses_logical_operators_with_precedence() {
        let stmt = one("SELECT x FROM t WHERE a = 1 OR b = 2 AND NOT c = 3");
        let Stmt::Select(sel) = stmt else { panic!() };
        // OR must be the top node (AND binds tighter).
        match sel.where_clause.unwrap() {
            Expr::Binary { op: BinOp::Or, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_is_null_and_like() {
        let stmt = one("SELECT x FROM t WHERE a IS NOT NULL AND b LIKE 'J%' AND c NOT LIKE '%x'");
        assert!(matches!(stmt, Stmt::Select(_)));
    }

    #[test]
    fn parses_order_by() {
        let stmt = one("SELECT x FROM t ORDER BY x DESC, y");
        let Stmt::Select(sel) = stmt else { panic!() };
        assert_eq!(sel.order_by.len(), 2);
        assert!(!sel.order_by[0].1); // DESC
        assert!(sel.order_by[1].1); // implicit ASC
    }

    #[test]
    fn parses_count_star() {
        let stmt = one("SELECT COUNT(*) FROM t");
        let Stmt::Select(sel) = stmt else { panic!() };
        assert!(matches!(sel.items[0].expr, Expr::CountStar));
    }

    #[test]
    fn parses_select_star() {
        let stmt = one("SELECT * FROM t");
        let Stmt::Select(sel) = stmt else { panic!() };
        assert!(sel.star);
    }

    #[test]
    fn multi_statement_script() {
        let stmts = parse_script(
            "CREATE TYPE A AS OBJECT(x VARCHAR(10)); \
             CREATE TABLE T OF A; \
             INSERT INTO T VALUES (A('1'));",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn syntax_errors_have_positions() {
        let err = parse_script("SELECT FROM").unwrap_err();
        assert!(matches!(err, DbError::Syntax { .. }));
    }

    #[test]
    fn statement_spans_cover_the_statement_text() {
        let src = "CREATE TABLE T OF A;\n  INSERT INTO T VALUES (1);";
        let spanned = parse_script_spanned(src).unwrap();
        assert_eq!(spanned.len(), 2);
        let text = |s: &Span| -> String {
            src.chars().skip(s.start).take(s.len()).collect()
        };
        assert_eq!(text(&spanned[0].span), "CREATE TABLE T OF A");
        assert_eq!(text(&spanned[1].span), "INSERT INTO T VALUES (1)");
        assert_eq!(spanned[1].span.line_col(src), (2, 3));
    }

    #[test]
    fn identifier_length_enforced_at_parse_time() {
        let long = "X".repeat(31);
        let err = parse_script(&format!("DROP TABLE {long}")).unwrap_err();
        assert!(matches!(err, DbError::IdentifierTooLong(_)));
    }

    fn sql_type_of(stmt: &str) -> SqlType {
        match one(stmt) {
            Stmt::CreateObjectType { attrs, .. } => attrs[0].1.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_all_scalar_types() {
        assert_eq!(sql_type_of("CREATE TYPE T AS OBJECT(x VARCHAR2(99))"), SqlType::Varchar(99));
        assert_eq!(sql_type_of("CREATE TYPE T AS OBJECT(x CHAR(3))"), SqlType::Char(3));
        assert_eq!(sql_type_of("CREATE TYPE T AS OBJECT(x NUMBER)"), SqlType::Number);
        assert_eq!(sql_type_of("CREATE TYPE T AS OBJECT(x INTEGER)"), SqlType::Integer);
        assert_eq!(sql_type_of("CREATE TYPE T AS OBJECT(x DATE)"), SqlType::Date);
        assert_eq!(sql_type_of("CREATE TYPE T AS OBJECT(x CLOB)"), SqlType::Clob);
    }
}
