//! Abstract syntax of the SQL dialect.

use crate::catalog::Constraint;
use crate::ident::Ident;
use crate::types::SqlType;
use crate::value::Value;

/// A binary operator in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Concat,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// String/number/NULL literal.
    Literal(Value),
    /// Dot-notation path: `alias.attr.sub.subsub` — §4.1: "The object
    /// structure can be traversed using the dot notation without executing
    /// join operations."
    Path(Vec<Ident>),
    /// Constructor or built-in function call: `Type_Course('CAD', …)`,
    /// `UPPER(x)`, `COUNT(*)`.
    Call { name: Ident, args: Vec<Expr> },
    /// `COUNT(*)` (the only star-argument call).
    CountStar,
    Binary { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    Not(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr LIKE 'pattern'`.
    Like { expr: Box<Expr>, pattern: String, negated: bool },
    /// `REF(alias)` — the OID of the row object bound to `alias` (§2.3).
    RefOf(Ident),
    /// `DEREF(expr)` — follow a REF to its row object.
    Deref(Box<Expr>),
    /// Scalar subquery `(SELECT …)`.
    Subquery(Box<SelectStmt>),
    /// The REF of the row with a given key — what the Oracle 8 REF
    /// workaround's `(SELECT REF(x) FROM Tab x WHERE x.ID = 'key')` asks
    /// for, built by a loader rather than parsed. [`KeyRef::subquery`] is
    /// its definition.
    KeyRef(Box<KeyRef>),
    /// `CAST(MULTISET(SELECT …) AS collection_type)` (§6.3).
    CastMultiset { query: Box<SelectStmt>, target: Ident },
    /// `EXISTS (SELECT …)`.
    Exists(Box<SelectStmt>),
}

impl Expr {
    pub fn str_lit(s: &str) -> Expr {
        Expr::Literal(Value::Str(s.to_string()))
    }

    pub fn path(parts: &[&str]) -> Expr {
        Expr::Path(parts.iter().map(|p| Ident::internal(p)).collect())
    }

    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op: BinOp::Eq, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }
}

/// The REF of the row of object table `table` whose `path` equals `key`:
/// the paper's REF-wiring subquery (§4.2) as data. It means exactly
/// [`KeyRef::subquery`] — the printer prints that, the WAL logs that, and
/// the engine evaluates that, except that a one-column key with a fresh
/// index is answered by one probe of that index.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRef {
    pub table: Ident,
    /// Attribute names below the row: `[IDCourse]`, or `[attrList, attrid]`
    /// for an ID kept in an attribute-list object.
    pub path: Vec<Ident>,
    pub key: Value,
}

impl KeyRef {
    /// `SELECT REF(x) FROM table x WHERE x.path = key`.
    pub fn subquery(&self) -> SelectStmt {
        let alias = Ident::internal("x");
        let mut parts = Vec::with_capacity(1 + self.path.len());
        parts.push(alias.clone());
        parts.extend_from_slice(&self.path);
        SelectStmt {
            distinct: false,
            items: vec![SelectItem { expr: Expr::RefOf(alias.clone()), alias: None }],
            star: false,
            from: vec![FromItem::Table { name: self.table.clone(), alias: Some(alias) }],
            where_clause: Some(Expr::eq(Expr::Path(parts), Expr::Literal(self.key.clone()))),
            order_by: Vec::new(),
        }
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<Ident>,
}

/// One item of a FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// `Table alias` — a table, object table or view.
    Table { name: Ident, alias: Option<Ident> },
    /// `TABLE(path) alias` — collection un-nesting.
    CollectionTable { expr: Expr, alias: Option<Ident> },
}

impl FromItem {
    /// The binding name rows are visible under.
    pub fn binding(&self) -> Ident {
        match self {
            FromItem::Table { name, alias } => alias.clone().unwrap_or_else(|| name.clone()),
            FromItem::CollectionTable { alias, .. } => {
                alias.clone().unwrap_or_else(|| Ident::internal("COLLECTION"))
            }
        }
    }
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    /// `SELECT *` when items is empty and star is true.
    pub star: bool,
    pub from: Vec<FromItem>,
    pub where_clause: Option<Expr>,
    pub order_by: Vec<(Expr, bool)>, // (expr, ascending)
}

/// A column definition in DDL.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    pub name: Ident,
    pub sql_type: SqlType,
    pub not_null: bool,
    pub primary_key: bool,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `CREATE TYPE name;` — incomplete/forward declaration (§6.2).
    CreateTypeForward { name: Ident },
    /// `CREATE TYPE name AS OBJECT (…)`.
    CreateObjectType { name: Ident, attrs: Vec<(Ident, SqlType)> },
    /// `CREATE TYPE name AS VARRAY(max) OF elem`.
    CreateVarrayType { name: Ident, max: u32, elem: SqlType },
    /// `CREATE TYPE name AS TABLE OF elem`.
    CreateNestedTableType { name: Ident, elem: SqlType },
    /// `CREATE TABLE name OF type (constraints…)`.
    CreateObjectTable { name: Ident, of_type: Ident, constraints: Vec<Constraint> },
    /// `CREATE TABLE name (col type …, constraints…) [NESTED TABLE … STORE AS …]`.
    CreateRelationalTable {
        name: Ident,
        columns: Vec<ColumnSpec>,
        constraints: Vec<Constraint>,
        nested_table_stores: Vec<(Ident, Ident)>,
    },
    /// `CREATE [OR REPLACE] VIEW name AS select`.
    CreateView { name: Ident, query: SelectStmt, or_replace: bool },
    /// `CREATE [UNIQUE] INDEX name ON table (col, …)` — a persistent
    /// secondary index maintained through every mutation and undo replay.
    CreateIndex { name: Ident, table: Ident, columns: Vec<Ident>, unique: bool },
    /// `DROP INDEX name`.
    DropIndex { name: Ident },
    /// `ANALYZE TABLE name [COMPUTE STATISTICS]` — collect row-count and
    /// per-column cardinality statistics for the cost-based planner.
    AnalyzeTable { table: Ident },
    DropType { name: Ident, force: bool },
    DropTable { name: Ident },
    DropView { name: Ident },
    Insert { table: Ident, columns: Option<Vec<Ident>>, values: Vec<Expr> },
    Select(SelectStmt),
    Delete { table: Ident, where_clause: Option<Expr> },
    /// `UPDATE table SET path = expr, … [WHERE pred]`. SET paths may
    /// navigate into embedded object attributes (`attrList.attrBoss`).
    Update { table: Ident, sets: Vec<(Vec<Ident>, Expr)>, where_clause: Option<Expr> },
    /// `COMMIT [WORK]` — make all changes since the last commit permanent
    /// and discard the undo log.
    Commit,
    /// `ROLLBACK [WORK]` (undo everything since the last commit) or
    /// `ROLLBACK [WORK] TO [SAVEPOINT] name` (undo back to a savepoint,
    /// which stays usable — Oracle semantics).
    Rollback { to: Option<Ident> },
    /// `SAVEPOINT name` — mark the current undo position; re-using a name
    /// moves the savepoint.
    Savepoint { name: Ident },
    /// `EXPLAIN [PLAN FOR] stmt` — render the execution plan of `stmt`
    /// without running it.
    Explain(Box<Stmt>),
}

impl Stmt {
    /// Short tag for statistics and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Stmt::CreateTypeForward { .. }
            | Stmt::CreateObjectType { .. }
            | Stmt::CreateVarrayType { .. }
            | Stmt::CreateNestedTableType { .. } => "CREATE TYPE",
            Stmt::CreateObjectTable { .. } | Stmt::CreateRelationalTable { .. } => "CREATE TABLE",
            Stmt::CreateView { .. } => "CREATE VIEW",
            Stmt::CreateIndex { .. } => "CREATE INDEX",
            Stmt::DropIndex { .. } => "DROP INDEX",
            Stmt::AnalyzeTable { .. } => "ANALYZE",
            Stmt::DropType { .. } => "DROP TYPE",
            Stmt::DropTable { .. } => "DROP TABLE",
            Stmt::DropView { .. } => "DROP VIEW",
            Stmt::Insert { .. } => "INSERT",
            Stmt::Select(_) => "SELECT",
            Stmt::Delete { .. } => "DELETE",
            Stmt::Update { .. } => "UPDATE",
            Stmt::Commit => "COMMIT",
            Stmt::Rollback { .. } => "ROLLBACK",
            Stmt::Savepoint { .. } => "SAVEPOINT",
            Stmt::Explain(_) => "EXPLAIN",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_helpers_build_expected_shapes() {
        let e = Expr::eq(Expr::path(&["s", "attrLName"]), Expr::str_lit("Conrad"));
        match e {
            Expr::Binary { op: BinOp::Eq, lhs, rhs } => {
                assert!(matches!(*lhs, Expr::Path(ref p) if p.len() == 2));
                assert!(matches!(*rhs, Expr::Literal(Value::Str(ref s)) if s == "Conrad"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn from_item_binding_prefers_alias() {
        let with_alias = FromItem::Table {
            name: Ident::internal("TabUniversity"),
            alias: Some(Ident::internal("u")),
        };
        assert_eq!(with_alias.binding().as_str(), "u");
        let without = FromItem::Table { name: Ident::internal("TabUniversity"), alias: None };
        assert_eq!(without.binding().as_str(), "TabUniversity");
    }

    #[test]
    fn stmt_kinds() {
        assert_eq!(Stmt::DropType { name: Ident::internal("T"), force: true }.kind(), "DROP TYPE");
    }
}
