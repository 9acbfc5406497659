//! SQL AST → text rendering.
//!
//! The inverse of the parser: every statement prints to a form the parser
//! accepts again (checked by property tests). Used for debugging, script
//! re-emission and the `EXPLAIN`-style output of examples.

use crate::catalog::Constraint;
use crate::error::DbError;
use crate::sql::ast::{BinOp, Expr, FromItem, SelectStmt, Stmt};
use crate::sql::parser::parse_statement;
use crate::types::SqlType;
use crate::value::Value;

/// Verify that `stmt` survives print → re-parse unchanged. Returns a typed
/// error (instead of panicking) when the printed text fails to parse or
/// parses to a different statement — which can happen for ASTs built
/// programmatically from identifiers the grammar cannot read back.
pub fn check_round_trip(stmt: &Stmt) -> Result<(), DbError> {
    let printed = print_stmt(stmt);
    let reparsed = parse_statement(&printed).map_err(|e| {
        DbError::Execution(format!("printed SQL failed to re-parse: {e} (printed: {printed})"))
    })?;
    if reparsed != *stmt {
        return Err(DbError::Execution(format!(
            "printed SQL re-parsed to a different statement (printed: {printed})"
        )));
    }
    Ok(())
}

/// `s` as a SQL string literal: in single quotes, each `'` doubled. The
/// printer, `Value::to_sql_literal` and the mapping generators all quote
/// through here.
pub fn quote_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    let mut rest = s;
    while let Some(at) = rest.find('\'') {
        out.push_str(&rest[..=at]);
        out.push('\'');
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('\'');
    out
}

/// Render a statement as SQL text (no trailing semicolon).
pub fn print_stmt(stmt: &Stmt) -> String {
    match stmt {
        Stmt::CreateTypeForward { name } => format!("CREATE TYPE {name}"),
        Stmt::CreateObjectType { name, attrs } => {
            let cols: Vec<String> =
                attrs.iter().map(|(n, t)| format!("{n} {}", print_type(t))).collect();
            format!("CREATE TYPE {name} AS OBJECT ({})", cols.join(", "))
        }
        Stmt::CreateVarrayType { name, max, elem } => {
            format!("CREATE TYPE {name} AS VARRAY({max}) OF {}", print_type(elem))
        }
        Stmt::CreateNestedTableType { name, elem } => {
            format!("CREATE TYPE {name} AS TABLE OF {}", print_type(elem))
        }
        Stmt::CreateObjectTable { name, of_type, constraints } => {
            if constraints.is_empty() {
                format!("CREATE TABLE {name} OF {of_type}")
            } else {
                let parts: Vec<String> = constraints.iter().map(print_constraint).collect();
                format!("CREATE TABLE {name} OF {of_type} ({})", parts.join(", "))
            }
        }
        Stmt::CreateRelationalTable { name, columns, constraints, nested_table_stores } => {
            let mut parts: Vec<String> = columns
                .iter()
                .map(|c| {
                    let mut s = format!("{} {}", c.name, print_type(&c.sql_type));
                    if c.primary_key {
                        s.push_str(" PRIMARY KEY");
                    } else if c.not_null {
                        s.push_str(" NOT NULL");
                    }
                    s
                })
                .collect();
            parts.extend(constraints.iter().map(print_constraint));
            let mut out = format!("CREATE TABLE {name} ({})", parts.join(", "));
            for (col, store) in nested_table_stores {
                out.push_str(&format!(" NESTED TABLE {col} STORE AS {store}"));
            }
            out
        }
        Stmt::CreateView { name, query, or_replace } => {
            let replace = if *or_replace { "OR REPLACE " } else { "" };
            format!("CREATE {replace}VIEW {name} AS {}", print_select(query))
        }
        Stmt::CreateIndex { name, table, columns, unique } => {
            let uniq = if *unique { "UNIQUE " } else { "" };
            let cols: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
            format!("CREATE {uniq}INDEX {name} ON {table} ({})", cols.join(", "))
        }
        Stmt::DropIndex { name } => format!("DROP INDEX {name}"),
        Stmt::AnalyzeTable { table } => format!("ANALYZE TABLE {table} COMPUTE STATISTICS"),
        Stmt::DropType { name, force } => {
            format!("DROP TYPE {name}{}", if *force { " FORCE" } else { "" })
        }
        Stmt::DropTable { name } => format!("DROP TABLE {name}"),
        Stmt::DropView { name } => format!("DROP VIEW {name}"),
        Stmt::Insert { table, columns, values } => {
            let cols = match columns {
                Some(cols) => format!(
                    " ({})",
                    cols.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
                ),
                None => String::new(),
            };
            let vals: Vec<String> = values.iter().map(print_expr).collect();
            format!("INSERT INTO {table}{cols} VALUES ({})", vals.join(", "))
        }
        Stmt::Select(query) => print_select(query),
        Stmt::Delete { table, where_clause } => {
            let mut out = format!("DELETE FROM {table}");
            if let Some(pred) = where_clause {
                out.push_str(&format!(" WHERE {}", print_expr(pred)));
            }
            out
        }
        Stmt::Update { table, sets, where_clause } => {
            let assignments: Vec<String> = sets
                .iter()
                .map(|(path, value)| {
                    let lhs: Vec<String> = path.iter().map(|p| p.to_string()).collect();
                    format!("{} = {}", lhs.join("."), print_expr(value))
                })
                .collect();
            let mut out = format!("UPDATE {table} SET {}", assignments.join(", "));
            if let Some(pred) = where_clause {
                out.push_str(&format!(" WHERE {}", print_expr(pred)));
            }
            out
        }
        Stmt::Commit => "COMMIT".to_string(),
        Stmt::Rollback { to: None } => "ROLLBACK".to_string(),
        Stmt::Rollback { to: Some(name) } => format!("ROLLBACK TO {name}"),
        Stmt::Savepoint { name } => format!("SAVEPOINT {name}"),
        Stmt::Explain(inner) => format!("EXPLAIN {}", print_stmt(inner)),
    }
}

/// Render a SELECT statement.
pub fn print_select(query: &SelectStmt) -> String {
    let mut out = String::from("SELECT ");
    if query.distinct {
        out.push_str("DISTINCT ");
    }
    if query.star {
        out.push('*');
    } else {
        let items: Vec<String> = query
            .items
            .iter()
            .map(|item| match &item.alias {
                Some(alias) => format!("{} AS {alias}", print_expr(&item.expr)),
                None => print_expr(&item.expr),
            })
            .collect();
        out.push_str(&items.join(", "));
    }
    out.push_str(" FROM ");
    let from: Vec<String> = query
        .from
        .iter()
        .map(|item| match item {
            FromItem::Table { name, alias } => match alias {
                Some(alias) => format!("{name} {alias}"),
                None => name.to_string(),
            },
            FromItem::CollectionTable { expr, alias } => match alias {
                Some(alias) => format!("TABLE({}) {alias}", print_expr(expr)),
                None => format!("TABLE({})", print_expr(expr)),
            },
        })
        .collect();
    out.push_str(&from.join(", "));
    if let Some(pred) = &query.where_clause {
        out.push_str(&format!(" WHERE {}", print_expr(pred)));
    }
    if !query.order_by.is_empty() {
        let keys: Vec<String> = query
            .order_by
            .iter()
            .map(|(expr, asc)| {
                format!("{}{}", print_expr(expr), if *asc { "" } else { " DESC" })
            })
            .collect();
        out.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    }
    out
}

/// Render an expression (fully parenthesized where precedence matters).
pub fn print_expr(expr: &Expr) -> String {
    match expr {
        Expr::Literal(v) => v.to_sql_literal(),
        Expr::Path(parts) => {
            parts.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(".")
        }
        Expr::Call { name, args } => {
            let inner: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", inner.join(", "))
        }
        Expr::CountStar => "COUNT(*)".to_string(),
        Expr::Binary { op, lhs, rhs } => {
            let op_text = match op {
                BinOp::Eq => "=",
                BinOp::Ne => "<>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Concat => "||",
            };
            format!("({} {op_text} {})", print_expr(lhs), print_expr(rhs))
        }
        Expr::Not(inner) => format!("(NOT {})", print_expr(inner)),
        Expr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            print_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        Expr::Like { expr, pattern, negated } => format!(
            "({} {}LIKE {})",
            print_expr(expr),
            if *negated { "NOT " } else { "" },
            quote_literal(pattern)
        ),
        Expr::RefOf(alias) => format!("REF({alias})"),
        Expr::Deref(inner) => format!("DEREF({})", print_expr(inner)),
        Expr::Subquery(query) => format!("({})", print_select(query)),
        Expr::KeyRef(key_ref) => format!("({})", print_select(&key_ref.subquery())),
        Expr::CastMultiset { query, target } => {
            format!("CAST(MULTISET({}) AS {target})", print_select(query))
        }
        Expr::Exists(query) => format!("EXISTS ({})", print_select(query)),
    }
}

fn print_constraint(constraint: &Constraint) -> String {
    match constraint {
        Constraint::PrimaryKey(cols) if cols.len() == 1 => format!("{} PRIMARY KEY", cols[0]),
        Constraint::PrimaryKey(cols) => format!(
            "PRIMARY KEY ({})",
            cols.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
        ),
        Constraint::NotNull(col) => format!("{col} NOT NULL"),
        Constraint::Check(expr) => format!("CHECK ({})", print_expr(expr)),
        Constraint::Unique(cols) => format!(
            "UNIQUE ({})",
            cols.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
        ),
    }
}

fn print_type(t: &SqlType) -> String {
    t.to_string()
}

/// `Value::Date` prints as `DATE '…'`, which the expression grammar does not
/// read back; SQL scripts should carry dates as strings. `Num(NaN)` prints
/// as `NULL` (there is no NaN literal), so it re-parses to a different —
/// albeit SQL-equivalent — value. (Helper retained for literal round-trip
/// tests.)
pub fn literal_round_trips(v: &Value) -> bool {
    match v {
        Value::Date(_) | Value::Obj { .. } | Value::Coll { .. } | Value::Ref(_) => false,
        Value::Num(n) => !n.is_nan(),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;

    /// print(parse(text)) must re-parse to the same AST.
    fn round_trip(text: &str) {
        let ast = parse_statement(text).unwrap();
        check_round_trip(&ast).unwrap_or_else(|e| panic!("{text}: {e}"));
    }

    #[test]
    fn a_quoted_literal_doubles_its_quotes_and_lexes_back() {
        for s in ["", "Jaeger", "O'Hara", "'", "''x'", "é'😀"] {
            let quoted = quote_literal(s);
            assert_eq!(quoted, format!("'{}'", s.replace('\'', "''")));
            assert_eq!(Value::str(s).to_sql_literal(), quoted);
            let tokens = crate::sql::lexer::tokenize(&quoted).unwrap();
            assert_eq!(tokens.len(), 1, "{quoted}");
            assert_eq!(tokens[0].token, crate::sql::lexer::Token::StringLit(s.to_string()));
        }
        round_trip("SELECT t.a FROM T t WHERE t.a LIKE 'O''Hara%'");
    }

    #[test]
    fn check_round_trip_reports_unprintable_statements() {
        // An identifier with a space prints into text the grammar cannot
        // read back — the check must surface that as an error, not a panic.
        let stmt = Stmt::Delete {
            table: crate::ident::Ident::internal("two words"),
            where_clause: None,
        };
        let err = check_round_trip(&stmt).unwrap_err();
        assert!(matches!(err, DbError::Execution(_)));
        assert!(err.to_string().contains("re-parse"), "{err}");
    }

    #[test]
    fn ddl_round_trips() {
        round_trip("CREATE TYPE T AS OBJECT (a VARCHAR(10), b NUMBER, r REF T)");
        round_trip("CREATE TYPE V AS VARRAY(5) OF VARCHAR(100)");
        round_trip("CREATE TYPE NT AS TABLE OF REF T");
        round_trip("CREATE TABLE Tab OF T (a PRIMARY KEY, b NOT NULL)");
        round_trip("CREATE TABLE R (x NUMBER PRIMARY KEY, y VARCHAR(5) NOT NULL, CHECK (x > 0))");
        round_trip("DROP TYPE T FORCE");
        round_trip("CREATE TYPE T");
    }

    #[test]
    fn dml_round_trips() {
        round_trip("INSERT INTO T VALUES (A('x', B('y', NULL)), 3.5)");
        round_trip("INSERT INTO T (a, b) VALUES (1, 'two')");
        round_trip("DELETE FROM T WHERE a = 1 AND b IS NOT NULL");
        round_trip("UPDATE T SET a.b = (SELECT REF(x) FROM P x WHERE x.n = 'k') WHERE id = '1'");
    }

    #[test]
    fn query_round_trips() {
        round_trip("SELECT DISTINCT s.a AS name FROM T s, TABLE(s.kids) k WHERE k.x LIKE 'J%' ORDER BY s.a DESC, k.x");
        round_trip("SELECT COUNT(*) FROM T");
        round_trip("SELECT * FROM T");
        round_trip(
            "SELECT Type_P(p.a, CAST(MULTISET(SELECT s.v FROM S s WHERE s.id = p.id) AS VA)) FROM P p",
        );
        round_trip("SELECT x FROM T WHERE EXISTS (SELECT y FROM U u WHERE u.y = x)");
        round_trip("SELECT DEREF(c.r) FROM C c WHERE NOT c.x = 1 OR c.y <> 2");
    }

    #[test]
    fn transaction_control_round_trips() {
        round_trip("COMMIT");
        round_trip("COMMIT WORK");
        round_trip("ROLLBACK");
        round_trip("ROLLBACK WORK");
        round_trip("SAVEPOINT before_load");
        round_trip("ROLLBACK TO before_load");
        round_trip("ROLLBACK TO SAVEPOINT before_load");
    }

    #[test]
    fn explain_round_trips() {
        round_trip("EXPLAIN SELECT s.a FROM T s");
        round_trip("EXPLAIN SELECT COUNT(*) FROM T t, U u WHERE t.id = u.id");
        round_trip("EXPLAIN INSERT INTO T VALUES (1, 'x')");
        round_trip("EXPLAIN DELETE FROM T WHERE a = 1");
        round_trip("EXPLAIN CREATE TABLE Tab OF T");
        // The Oracle spelling normalizes to the bare form.
        let ast = parse_statement("EXPLAIN PLAN FOR SELECT * FROM T").unwrap();
        assert_eq!(print_stmt(&ast), "EXPLAIN SELECT * FROM T");
        check_round_trip(&ast).unwrap();
    }

    #[test]
    fn non_finite_literals_print_to_parseable_text() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let printed = Value::Num(v).to_sql_literal();
            let stmt = parse_statement(&format!("SELECT x FROM T WHERE x = {printed}"))
                .unwrap_or_else(|e| panic!("literal {printed:?} does not re-parse: {e}"));
            assert!(matches!(stmt, Stmt::Select(_)));
        }
        assert!(!literal_round_trips(&Value::Num(f64::NAN)));
        assert!(literal_round_trips(&Value::Num(f64::INFINITY)));
    }

    #[test]
    fn index_and_analyze_round_trips() {
        round_trip("CREATE INDEX Idx_Name ON TabStudent (SName)");
        round_trip("CREATE UNIQUE INDEX Idx_Id ON TabStudent (StudId)");
        round_trip("CREATE INDEX Idx_Edge ON TabEdge (Target, Name)");
        round_trip("DROP INDEX Idx_Name");
        round_trip("ANALYZE TABLE TabStudent COMPUTE STATISTICS");
        // The bare form normalizes to the COMPUTE STATISTICS spelling.
        let ast = parse_statement("ANALYZE TABLE TabStudent").unwrap();
        assert_eq!(print_stmt(&ast), "ANALYZE TABLE TabStudent COMPUTE STATISTICS");
        check_round_trip(&ast).unwrap();
    }

    #[test]
    fn view_round_trips() {
        round_trip("CREATE VIEW V AS SELECT t.a FROM T t");
        round_trip("CREATE OR REPLACE VIEW V AS SELECT t.a || t.b AS ab FROM T t");
    }
}
