//! `sqlcheck`: a pre-execution semantic analyzer and lint pass for
//! generated SQL scripts.
//!
//! The XML→ORDB mapping strategies (§3) emit whole DDL/DML scripts; this
//! module checks such a script *without executing it*. The analyzer binds
//! each parsed statement against a **shadow catalog** — DDL statements
//! evolve the shadow catalog through [`crate::exec::ddl::apply_ddl_catalog`],
//! the *same* function the executor uses, so the two can never disagree
//! about what a script's DDL means — and runs these passes per statement:
//!
//! 1. **Name resolution** — tables, views, types, FROM aliases and
//!    dot-notation paths (`alias.attr.sub`, §4.1) resolve against the
//!    shadow catalog and the statement's scope frames.
//! 2. **Values** — every expression whose value does not depend on the data
//!    is folded by the executor's own functions (`exec::eval::call` for
//!    constructors and built-ins, `eval_expr` for the other operators,
//!    `coerce` inside both), and an INSERT's row goes through the executor's
//!    row path (`exec::dml`: the object-table explode, shaping, column
//!    coercion, NOT NULL) with NULL standing in for each value that does not
//!    fold. A rejection on the way is the executor's own error, named by
//!    `code_for`. `CAST(MULTISET …)` targets and `DEREF` operands are
//!    checked the same way (see `expr`).
//! 3. **Mode gating** — nested collection DDL is an [`Severity::Error`]
//!    under [`DbMode::Oracle8`] and clean under `Oracle9` (§2.2), because
//!    the shared DDL path enforces it on the shadow catalog.
//! 4. **Lints** — unscoped REF columns, REF targets with no object table in
//!    the script (dangling risk), the §4.3 CHECK-on-nullable-object quirk,
//!    dead and shadowed aliases.
//!
//! The script is lexed once: the parser hands back its tokens, and each
//! statement's diagnostics anchor in the tokens inside its span, found by
//! binary search on their offsets.
//!
//! ## The differential guarantee
//!
//! [`Severity`] encodes a contract, checked end-to-end by the
//! `analyze_prop` differential test:
//!
//! * statement executes successfully ⇒ the analyzer emitted **no `Error`**
//!   for it (no false positives), and
//! * the analyzer emitted an `Error` ⇒ the executor **rejects** the
//!   statement.
//!
//! To uphold it, `Error` is reserved for rejections of an *eager,
//! data-independent* executor check (unknown INSERT target, DDL the catalog
//! rejects, a value the executor rejects before it reads a row, …);
//! anything evaluated per-row, behind a short-circuit, or dependent on
//! stored data stays a `Warning`. The `eager` flag threaded through the
//! expression walker tracks exactly which positions the executor evaluates
//! unconditionally. Because a value verdict is the executor's own function
//! applied to what the executor would apply it to, or to NULL, which every
//! one of those functions accepts, it holds by construction; and for an
//! INSERT whose values all fold it is complete too: the executor rejecting
//! it for anything but a CHECK or a key collision ⇒ an `Error`.

mod dataflow;
mod expr;
mod lints;
mod select;

pub use xmlord_diag::{Diagnostic, Severity};
use xmlord_diag::Span;

use crate::catalog::{Catalog, TableDef};
use crate::error::DbError;
use crate::exec::ddl::apply_ddl_catalog;
use crate::exec::dml::{coerced_row, exploded, may_explode, require_values, shape_row, table_keys};
use crate::exec::eval::ExecCtx;
use crate::ident::Ident;
use crate::mode::DbMode;
use crate::sql::ast::{Expr, Stmt};
use crate::sql::lexer::{SpannedToken, Token};
use crate::sql::parser::parse_script_tokens;
use crate::sql::span::SpannedStmt;
use crate::stats::ExecStats;
use crate::storage::Storage;

use crate::scope::{Layout, Scope};
use expr::{analyze_expr, Fold};
use select::analyze_select;

/// Per-statement analysis context: the pre-statement shadow catalog, what
/// the executor's value functions run against, the statement's tokens (for
/// span anchoring) and the diagnostic sink.
pub(crate) struct StmtCx<'a> {
    pub catalog: &'a Catalog,
    /// The analyzer's empty storage. A folded expression never reads it.
    pub storage: &'a Storage,
    pub mode: DbMode,
    /// The statement's tokens, in offset order.
    pub tokens: &'a [SpannedToken],
    /// Span of the whole statement — the fallback anchor.
    pub span: Span,
    pub diags: &'a mut Vec<Diagnostic>,
}

impl StmtCx<'_> {
    pub fn push(&mut self, severity: Severity, code: &'static str, message: String, span: Span) {
        self.diags.push(Diagnostic { severity, code, message, span });
    }

    pub fn error(&mut self, code: &'static str, message: String, span: Span) {
        self.push(Severity::Error, code, message, span);
    }

    pub fn warn(&mut self, code: &'static str, message: String, span: Span) {
        self.push(Severity::Warning, code, message, span);
    }

    /// `Error` when the executor runs the corresponding check eagerly,
    /// `Warning` otherwise — the single gate of the differential guarantee.
    pub fn report(&mut self, eager: bool, code: &'static str, message: String, span: Span) {
        self.push(if eager { Severity::Error } else { Severity::Warning }, code, message, span);
    }

    /// Report the executor's own rejection `err` under the code its variant
    /// names, as [`report`](Self::report) grades it.
    pub fn reject(&mut self, eager: bool, err: &DbError, span: Span) {
        self.report(eager, code_for(err), err.to_string(), span);
    }

    /// Run one of the executor's functions against the shadow catalog and
    /// the analyzer's empty storage.
    pub fn exec<T>(&self, f: impl FnOnce(&mut ExecCtx) -> T) -> T {
        let mut stats = ExecStats::default();
        f(&mut ExecCtx::new(self.catalog, self.storage, &mut stats, self.mode))
    }

    /// Span of the first occurrence of `ident` inside this statement;
    /// falls back to the statement span.
    pub fn anchor_ident(&self, ident: &Ident) -> Span {
        find_token(self.tokens, |t| matches!(t, Token::Ident(s) if ident.eq_str(s)))
            .unwrap_or(self.span)
    }

    /// Span of the first keyword `kw` inside this statement.
    pub fn anchor_kw(&self, kw: &str) -> Span {
        find_token(self.tokens, |t| t.is_kw(kw)).unwrap_or(self.span)
    }
}

/// Span of the first of `tokens` matching `pred`.
fn find_token(tokens: &[SpannedToken], pred: impl Fn(&Token) -> bool) -> Option<Span> {
    tokens.iter().find(|t| pred(&t.token)).map(SpannedToken::span)
}

/// The tokens inside `span`, found by binary search on their offsets.
pub(crate) fn tokens_within(tokens: &[SpannedToken], span: Span) -> &[SpannedToken] {
    let start = tokens.partition_point(|t| t.offset < span.start);
    let end = tokens.partition_point(|t| t.offset < span.end);
    &tokens[start..end.max(start)]
}

/// The script analyzer. Holds the shadow catalog (evolved by the script's
/// own DDL) and the REF targets seen so far.
pub struct Analyzer {
    mode: DbMode,
    catalog: Catalog,
    /// Empty: what the executor's value functions run against.
    storage: Storage,
    /// REF target types declared by the script, with the span of the first
    /// declaring column — checked against the final catalog at end of script.
    ref_targets: Vec<(Ident, Span)>,
    /// Savepoint names established so far by the script. `ROLLBACK TO` a
    /// name outside this set is only a *warning*: the savepoint may have
    /// been established by an earlier script in the same session, which the
    /// analyzer cannot see.
    savepoints: std::collections::BTreeSet<Ident>,
}

impl Analyzer {
    /// Analyzer over an empty shadow catalog (self-contained scripts).
    pub fn new(mode: DbMode) -> Analyzer {
        Analyzer::with_catalog(Catalog::new(), mode)
    }

    /// Analyzer whose shadow catalog starts from an existing catalog — e.g.
    /// a clone of a live session's, to lint statements against current state.
    pub fn with_catalog(catalog: Catalog, mode: DbMode) -> Analyzer {
        Analyzer {
            mode,
            catalog,
            storage: Storage::new(),
            ref_targets: Vec::new(),
            savepoints: std::collections::BTreeSet::new(),
        }
    }

    pub fn mode(&self) -> DbMode {
        self.mode
    }

    /// The shadow catalog in its current (post-analysis) state.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Analyze a whole script. `Err` only on scan/parse failure; all
    /// semantic findings come back as [`Diagnostic`]s in statement order.
    pub fn analyze_script(&mut self, source: &str) -> Result<Vec<Diagnostic>, DbError> {
        let (stmts, tokens) = parse_script_tokens(source)?;
        let mut diags = Vec::new();
        for ss in &stmts {
            self.analyze_stmt(tokens_within(&tokens, ss.span), ss, &mut diags);
        }
        self.lint_dangling_refs(&mut diags);
        dataflow::dataflow_pass(&tokens, &stmts, &mut diags);
        Ok(diags)
    }

    fn analyze_stmt(&mut self, tokens: &[SpannedToken], ss: &SpannedStmt, diags: &mut Vec<Diagnostic>) {
        let stmt = &ss.stmt;
        if let Stmt::Explain(inner) = stmt {
            // EXPLAIN never executes its target, so findings that would be
            // hard errors on the statement itself are advisory here — the
            // plan still renders. Analyze the inner statement against a
            // *clone* of the current state: EXPLAIN'd DDL must not evolve
            // the shadow catalog.
            let mut sub = Analyzer::with_catalog(self.catalog.clone(), self.mode);
            sub.savepoints = self.savepoints.clone();
            let sub_ss = SpannedStmt { stmt: (**inner).clone(), span: ss.span };
            let mut sub_diags = Vec::new();
            sub.analyze_stmt(tokens, &sub_ss, &mut sub_diags);
            for mut d in sub_diags {
                if d.severity == Severity::Error {
                    d.severity = Severity::Warning;
                }
                diags.push(d);
            }
            return;
        }
        {
            let mut cx = StmtCx {
                catalog: &self.catalog,
                storage: &self.storage,
                mode: self.mode,
                tokens,
                span: ss.span,
                diags,
            };
            match stmt {
                Stmt::Insert { table, columns, values } => {
                    analyze_insert(&mut cx, table, columns, values)
                }
                Stmt::Select(query) => analyze_select(&mut cx, None, query, true),
                Stmt::Update { table, sets, where_clause } => {
                    analyze_update(&mut cx, table, sets, where_clause.as_ref())
                }
                Stmt::Delete { table, where_clause } => {
                    analyze_delete(&mut cx, table, where_clause.as_ref())
                }
                Stmt::CreateView { query, .. } => {
                    // The executor stores the query unvalidated; it only runs
                    // when the view is expanded — everything is lazy here.
                    analyze_select(&mut cx, None, query, false)
                }
                Stmt::Savepoint { name } => {
                    self.savepoints.insert(name.clone());
                }
                // COMMIT and full ROLLBACK discard every savepoint.
                Stmt::Commit | Stmt::Rollback { to: None } => self.savepoints.clear(),
                Stmt::Rollback { to: Some(name) } => {
                    if !self.savepoints.contains(name) {
                        let span = cx.anchor_ident(name);
                        cx.warn(
                            "unknown-savepoint",
                            format!(
                                "savepoint '{name}' is not established earlier in this script; \
                                 ROLLBACK TO will fail unless the session already holds it \
                                 (ORA-01086)"
                            ),
                            span,
                        );
                    }
                }
                ddl => lints::lint_ddl(&mut cx, ddl, &mut self.ref_targets),
            }
        }
        // Evolve the shadow catalog through the executor's own DDL path.
        // A rejected statement leaves the catalog unchanged — exactly like
        // a failed statement in a live session — and analysis continues.
        if let Err(err) = apply_ddl_catalog(&mut self.catalog, self.mode, stmt) {
            let span = error_span(tokens, ss.span, &err);
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: code_for(&err),
                message: err.to_string(),
                span,
            });
        }
    }

    /// End-of-script pass: a REF target type with no object table OF that
    /// type anywhere in the final catalog can never point at a live object.
    fn lint_dangling_refs(&self, diags: &mut Vec<Diagnostic>) {
        for (target, span) in &self.ref_targets {
            let has_table = self.catalog.table_names().any(|n| {
                matches!(self.catalog.get_table(n),
                    Some(TableDef::Object { of_type, .. }) if of_type == target)
            });
            if !has_table {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    code: "ref-no-target-table",
                    message: format!(
                        "REF {target}: the script creates no object table OF {target}, so \
                         these references can never be populated (dangling risk)"
                    ),
                    span: *span,
                });
            }
        }
    }
}

/// Stable diagnostic code for an executor rejection the analyzer reports.
pub(crate) fn code_for(err: &DbError) -> &'static str {
    match err {
        DbError::Syntax { .. } => "syntax",
        DbError::Parse { .. } => "parse",
        DbError::IdentifierTooLong(_) => "identifier-too-long",
        DbError::UnknownType(_) => "unknown-type",
        DbError::UnknownTable(_) => "unknown-table",
        DbError::UnknownColumn(_) => "unknown-column",
        DbError::ViewCycle(_) => "view-cycle",
        DbError::ViewNesting(_) => "view-nesting",
        DbError::UnknownIndex(_) => "unknown-index",
        DbError::DuplicateName(_) => "duplicate-name",
        DbError::SelfContainingCollection(_) => "self-containing-collection",
        DbError::DuplicateColumn { .. } => "duplicate-column",
        DbError::NestedCollectionNotSupported { .. } => "nested-collection",
        DbError::DependentTypeExists { .. } => "dependent-type",
        DbError::ConstructorArity { .. } => "constructor-arity",
        DbError::IncompleteType(_) => "incomplete-type",
        DbError::UnknownFunction(_) => "unknown-function",
        DbError::CallArity(_) => "call-arity",
        DbError::InsertArity { .. } => "insert-arity",
        DbError::CountStarPosition => "countstar-position",
        DbError::TypeMismatch { .. } => "type-mismatch",
        DbError::ValueTooLarge { .. } => "value-too-large",
        DbError::VarrayLimitExceeded { .. } => "varray-limit",
        DbError::NotNullViolation { .. } => "not-null",
        DbError::CheckViolation { .. } => "check-violation",
        DbError::UniqueViolation { .. } => "unique-violation",
        DbError::DanglingRef => "dangling-ref",
        DbError::UnknownSavepoint(_) => "unknown-savepoint",
        DbError::Execution(_) => "execution",
        DbError::ReadOnly(_) => "read-only",
        DbError::CorruptDurableState(_) => "corrupt-durable-state",
        DbError::Io(_) => "io",
    }
}

/// Best-effort fine anchor for a rejection: the identifier it names if
/// that occurs in the statement (a repeated column at its repetition),
/// else the whole statement.
fn error_span(tokens: &[SpannedToken], stmt_span: Span, err: &DbError) -> Span {
    let name: Option<&str> = match err {
        DbError::UnknownType(n)
        | DbError::UnknownTable(n)
        | DbError::UnknownColumn(n)
        | DbError::DuplicateName(n)
        | DbError::SelfContainingCollection(n)
        | DbError::IdentifierTooLong(n) => Some(n),
        DbError::NestedCollectionNotSupported { element, .. } => Some(element),
        DbError::DuplicateColumn { column, .. } => Some(column),
        DbError::DependentTypeExists { dropped, .. } => Some(dropped),
        _ => None,
    };
    let repetition = usize::from(matches!(err, DbError::DuplicateColumn { .. }));
    name.and_then(|n| {
        let mut named = tokens
            .iter()
            .filter(|t| matches!(&t.token, Token::Ident(s) if s.eq_ignore_ascii_case(n)));
        named.nth(repetition).map(SpannedToken::span)
    })
    .unwrap_or(stmt_span)
}

/// Static INSERT analysis, in the order of
/// `exec::dml::execute_insert_batch`: the table lookup; the VALUES, folded
/// in the empty environment, where every check is as eager as the
/// statement; then the executor's own row path over what folded, NULL
/// standing in for what did not.
fn analyze_insert(cx: &mut StmtCx, table: &Ident, columns: &Option<Vec<Ident>>, values: &[Expr]) {
    let catalog = cx.catalog;
    let Some(table_def) = catalog.get_table(table) else {
        let code = if catalog.get_view(table).is_some() {
            // INSERT only targets base tables; a view here fails the same
            // lookup in the executor.
            "insert-into-view"
        } else {
            "unknown-table"
        };
        cx.error(code, format!("table '{table}' does not exist"), cx.anchor_ident(table));
        return;
    };
    let folds: Vec<Fold> = values.iter().map(|v| analyze_expr(cx, &Scope::EMPTY, true, v)).collect();
    if may_explode(table_def, columns, folds.len()) && !folds[0].is_known() {
        // A single opaque value may turn out to be an object of the table's
        // type and explode into a full row: no claim about the row is safe.
        return;
    }
    if let Err(err) = cx.exec(|ctx| judge_row(ctx, table_def, columns, &folds)) {
        cx.reject(true, &err, error_span(cx.tokens, cx.span, &err));
    }
}

/// What the executor does with one VALUES list before its CHECKs and keys
/// are tested against data: the keys' columns resolved, the row exploded or
/// shaped and coerced, NOT NULL. A column holding a stand-in NULL is not
/// judged NOT NULL.
fn judge_row(
    ctx: &mut ExecCtx,
    table: &TableDef,
    columns: &Option<Vec<Ident>>,
    folds: &[Fold],
) -> Result<(), DbError> {
    let table_columns = ctx.catalog.table_columns(table);
    table_keys(ctx, table, table_columns)?;
    let object = match folds {
        [only] if may_explode(table, columns, 1) => exploded(table, only.stand_in()).ok(),
        _ => None,
    };
    let (row, known) = match object {
        Some(attrs) => (attrs.to_vec(), folds[0].known_parts(attrs.len())),
        None => {
            let provided = folds.iter().map(Fold::stand_in).collect();
            let known = folds.iter().map(Fold::is_known).collect();
            let known = shape_row(table.name(), table_columns, columns, known, true)?;
            (coerced_row(ctx, table.name(), table_columns, columns, provided)?, known)
        }
    };
    let layout = Layout::table(ctx.catalog, table.name().clone(), table);
    for constraint in table.constraints() {
        require_values(table, &layout, constraint, &row, |column| known[column])?;
    }
    Ok(())
}

/// UPDATE: the table lookup is eager; SET targets and expressions run
/// per matching row, so everything past the lookup is a `Warning`.
fn analyze_update(
    cx: &mut StmtCx,
    table: &Ident,
    sets: &[(Vec<Ident>, Expr)],
    where_clause: Option<&Expr>,
) {
    let Some(table_def) = cx.catalog.get_table(table) else {
        cx.error("unknown-table", format!("table '{table}' does not exist"), cx.anchor_ident(table));
        return;
    };
    let table_columns = cx.catalog.table_columns(table_def);
    let layouts = [Layout::table(cx.catalog, table.clone(), table_def)];
    let scope = Scope::new(&layouts, None);
    for (path, rhs) in sets {
        match table_columns.iter().find(|(c, _)| c == &path[0]) {
            None => cx.warn(
                "unknown-column",
                format!("SET target '{}' is not a column of '{table}'", path[0]),
                cx.anchor_ident(&path[0]),
            ),
            Some((_, col_type)) if path.len() > 1 => {
                let full = path.iter().map(|p| p.as_str()).collect::<Vec<_>>().join(".");
                expr::walk_attrs(cx, col_type.clone(), &path[1..], &full);
            }
            Some(_) => {}
        }
        analyze_expr(cx, &scope, false, rhs);
    }
    if let Some(pred) = where_clause {
        analyze_expr(cx, &scope, false, pred);
    }
}

fn analyze_delete(cx: &mut StmtCx, table: &Ident, where_clause: Option<&Expr>) {
    let Some(table_def) = cx.catalog.get_table(table) else {
        cx.error("unknown-table", format!("table '{table}' does not exist"), cx.anchor_ident(table));
        return;
    };
    let layouts = [Layout::table(cx.catalog, table.clone(), table_def)];
    if let Some(pred) = where_clause {
        analyze_expr(cx, &Scope::new(&layouts, None), false, pred);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: DbMode, sql: &str) -> Vec<Diagnostic> {
        Analyzer::new(mode).analyze_script(sql).expect("script parses")
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags.iter().filter(|d| d.severity == Severity::Error).collect()
    }

    const NESTED: &str = "CREATE TYPE TypeVA_Inner AS VARRAY(4) OF VARCHAR(20);\n\
         CREATE TYPE TypeNT_Outer AS TABLE OF TypeVA_Inner;";

    #[test]
    fn nested_collection_is_an_error_under_oracle8_only() {
        let d8 = run(DbMode::Oracle8, NESTED);
        let errs = errors(&d8);
        assert_eq!(errs.len(), 1, "{d8:?}");
        assert_eq!(errs[0].code, "nested-collection");
        // The error anchors at the offending element type on line 2.
        assert_eq!(errs[0].line_col(NESTED).0, 2);

        let d9 = run(DbMode::Oracle9, NESTED);
        assert!(errors(&d9).is_empty(), "{d9:?}");
    }

    /// The executor refuses a collection type that is its own element in
    /// either mode, so the analyzer does, through the same DDL path; a
    /// constructor of the name afterwards is unknown.
    #[test]
    fn a_self_containing_collection_is_an_error_in_both_modes() {
        let sql = "CREATE TYPE TV1 AS TABLE OF TV1;\n\
                   CREATE TYPE TV2 AS VARRAY(3) OF TV2;\n\
                   SELECT TV1() FROM DUAL;";
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let d = run(mode, sql);
            let codes: Vec<&str> = errors(&d).iter().map(|e| e.code).collect();
            assert_eq!(
                codes[..2],
                ["self-containing-collection", "self-containing-collection"],
                "{mode:?}: {d:?}"
            );
            let mut db = crate::Database::new(mode);
            for stmt in ["CREATE TYPE TV1 AS TABLE OF TV1", "CREATE TYPE TV2 AS VARRAY(3) OF TV2"] {
                assert!(
                    matches!(db.execute(stmt), Err(DbError::SelfContainingCollection(_))),
                    "{mode:?}: {stmt}"
                );
            }
        }
    }

    /// The executor refuses a repeated column or attribute name, so the
    /// analyzer does, anchored at the repetition; the table is then unknown
    /// to later statements.
    #[test]
    fn a_repeated_column_name_is_an_error_in_both_modes() {
        let sql = "CREATE TABLE T (a NUMBER, A VARCHAR(5));\n\
                   CREATE TYPE Ty AS OBJECT (x NUMBER, X NUMBER);\n\
                   INSERT INTO T VALUES (1, 'x');";
        for mode in [DbMode::Oracle8, DbMode::Oracle9] {
            let d = run(mode, sql);
            let errs = errors(&d);
            let codes: Vec<&str> = errs.iter().map(|e| e.code).collect();
            assert_eq!(codes, ["duplicate-column", "duplicate-column", "unknown-table"], "{d:?}");
            assert_eq!(errs[0].line_col(sql), (1, 27), "{mode:?}");
            assert_eq!(errs[1].line_col(sql), (2, 37), "{mode:?}");
        }
    }

    #[test]
    fn failed_ddl_leaves_the_shadow_catalog_unchanged() {
        // Under Oracle 8 the outer type is rejected, so a table of it is
        // also unknown — two errors, and analysis keeps going.
        let sql = format!("{NESTED}\nCREATE TABLE TabX (Docs TypeNT_Outer);");
        let d = run(DbMode::Oracle8, &sql);
        let errs = errors(&d);
        assert_eq!(errs.len(), 2, "{d:?}");
        assert_eq!(errs[1].code, "unknown-type");
    }

    #[test]
    fn unknown_insert_table_is_an_error_with_a_fine_span() {
        let sql = "INSERT INTO TabMissing VALUES (1);";
        let d = run(DbMode::Oracle9, sql);
        let errs = errors(&d);
        assert_eq!(errs.len(), 1, "{d:?}");
        assert_eq!(errs[0].code, "unknown-table");
        let (line, col) = errs[0].line_col(sql);
        assert_eq!((line, col), (1, 13));
    }

    const SCHEMA: &str = "CREATE TYPE Type_Prof AS OBJECT (PName VARCHAR(30), Room NUMBER);\n\
         CREATE TABLE Professor OF Type_Prof (PName NOT NULL);\n";

    #[test]
    fn insert_arity_and_literal_coercion_errors() {
        let sql = format!(
            "{SCHEMA}INSERT INTO Professor VALUES (Type_Prof('Kudrass'));\n\
             INSERT INTO Professor VALUES ('A', 'B', 'C');\n\
             INSERT INTO Professor (PName, Room) VALUES ('Conrad', 'not a number');"
        );
        let d = run(DbMode::Oracle9, &sql);
        let codes: Vec<&str> = errors(&d).iter().map(|e| e.code).collect();
        assert_eq!(codes, vec!["constructor-arity", "insert-arity", "type-mismatch"], "{d:?}");
    }

    #[test]
    fn a_value_that_does_not_fold_leaves_the_other_columns_judged() {
        let sql = format!(
            "{SCHEMA}INSERT INTO Professor (PName, Room) \
             VALUES ((SELECT p.PName FROM Professor p), 'not a number');"
        );
        let d = run(DbMode::Oracle9, &sql);
        let codes: Vec<&str> = errors(&d).iter().map(|e| e.code).collect();
        assert_eq!(codes, vec!["type-mismatch"], "{d:?}");
    }

    #[test]
    fn a_script_is_tokenized_once_however_many_statements_it_has() {
        // Each round adds an unknown-table error anchored at its name, an
        // unknown-column warning anchored in a path, and dataflow's reads.
        let round = "INSERT INTO Nowhere VALUES (1);\nSELECT p.Nope FROM Professor p;\n";
        for rounds in [1, 200] {
            let sql = format!("{SCHEMA}{}", round.repeat(rounds));
            let before = crate::sql::lexer::tokenizes();
            let d = run(DbMode::Oracle9, &sql);
            assert_eq!(crate::sql::lexer::tokenizes() - before, 1, "{rounds} rounds");
            assert_eq!(errors(&d).len(), rounds, "{d:?}");
            assert_eq!(d.len(), 2 * rounds, "{d:?}");
        }
    }

    #[test]
    fn literal_null_into_not_null_column_is_an_error() {
        let sql = format!("{SCHEMA}INSERT INTO Professor VALUES (Type_Prof(NULL, 42));");
        let d = run(DbMode::Oracle9, &sql);
        let errs = errors(&d);
        assert_eq!(errs.len(), 1, "{d:?}");
        assert_eq!(errs[0].code, "not-null");
    }

    #[test]
    fn select_unknown_first_table_error_later_table_warning() {
        let sql = "SELECT * FROM Nowhere;";
        let d = run(DbMode::Oracle9, sql);
        assert_eq!(errors(&d).len(), 1, "{d:?}");

        let sql2 = format!("{SCHEMA}SELECT * FROM Professor p, Nowhere n;");
        let d2 = run(DbMode::Oracle9, &sql2);
        assert!(errors(&d2).is_empty(), "{d2:?}");
        assert!(d2.iter().any(|x| x.code == "unknown-table"), "{d2:?}");
    }

    #[test]
    fn check_on_nullable_object_column_warns() {
        let sql = "CREATE TYPE Type_Addr AS OBJECT (City VARCHAR(30));\n\
             CREATE TYPE Type_Uni AS OBJECT (UName VARCHAR(30), Addr Type_Addr);\n\
             CREATE TABLE University OF Type_Uni (CHECK (Addr.City = 'Leipzig'));";
        let d = run(DbMode::Oracle9, sql);
        assert!(errors(&d).is_empty(), "{d:?}");
        let quirk: Vec<_> = d.iter().filter(|x| x.code == "check-null-object").collect();
        assert_eq!(quirk.len(), 1, "{d:?}");
        assert_eq!(quirk[0].line_col(sql).0, 3);
    }

    #[test]
    fn unscoped_ref_warns_and_missing_target_table_warns() {
        let sql = "CREATE TYPE Type_P AS OBJECT (Name VARCHAR(10));\n\
             CREATE TYPE Type_C AS OBJECT (Title VARCHAR(10), Held REF Type_P);";
        let d = run(DbMode::Oracle9, sql);
        assert!(d.iter().any(|x| x.code == "unscoped-ref"), "{d:?}");
        assert!(d.iter().any(|x| x.code == "ref-no-target-table"), "{d:?}");

        // Creating an object table of the target silences the dangling lint.
        let sql2 = format!("{sql}\nCREATE TABLE Profs OF Type_P;");
        let d2 = run(DbMode::Oracle9, &sql2);
        assert!(!d2.iter().any(|x| x.code == "ref-no-target-table"), "{d2:?}");
    }

    #[test]
    fn dead_and_shadowed_aliases_warn() {
        let sql = format!(
            "{SCHEMA}SELECT p.PName FROM Professor p, Professor q;\n\
             SELECT p.PName FROM Professor p, Professor p;"
        );
        let d = run(DbMode::Oracle9, &sql);
        assert!(errors(&d).is_empty(), "{d:?}");
        assert!(d.iter().any(|x| x.code == "dead-alias"), "{d:?}");
        assert!(d.iter().any(|x| x.code == "shadowed-alias"), "{d:?}");
    }

    #[test]
    fn accepted_script_from_the_paper_is_error_free() {
        // §4.1-style mapping output: types, object table, constructor
        // insert, dot-path select.
        let sql = "CREATE TYPE Type_Course AS OBJECT (Title VARCHAR(40), CreditHours NUMBER);\n\
             CREATE TYPE TypeVA_Course AS VARRAY(10) OF Type_Course;\n\
             CREATE TYPE Type_Prof AS OBJECT (PName VARCHAR(30), Courses TypeVA_Course);\n\
             CREATE TABLE Professor OF Type_Prof;\n\
             INSERT INTO Professor VALUES (Type_Prof('Kudrass', TypeVA_Course(Type_Course('DBS', 4))));\n\
             SELECT p.PName FROM Professor p WHERE p.PName = 'Kudrass';\n\
             SELECT c.Title FROM Professor p, TABLE(p.Courses) c;";
        let d = run(DbMode::Oracle9, sql);
        assert!(errors(&d).is_empty(), "{d:?}");
    }

    #[test]
    fn explain_demotes_errors_and_leaves_the_shadow_catalog_alone() {
        let sql = "EXPLAIN INSERT INTO TabMissing VALUES (1);\n\
             EXPLAIN CREATE TABLE T (x NUMBER);\n\
             INSERT INTO T VALUES (1);";
        let d = run(DbMode::Oracle9, sql);
        // The unknown INSERT target under EXPLAIN is demoted to a warning…
        assert!(d.iter().any(
            |x| x.severity == Severity::Warning && x.code == "unknown-table" && x.line_col(sql).0 == 1
        ), "{d:?}");
        // …and the EXPLAIN'd CREATE TABLE did not evolve the shadow
        // catalog, so the real INSERT on line 3 still fails hard.
        let errs = errors(&d);
        assert_eq!(errs.len(), 1, "{d:?}");
        assert_eq!(errs[0].code, "unknown-table");
        assert_eq!(errs[0].line_col(sql).0, 3);
    }

    #[test]
    fn cast_multiset_target_must_be_a_collection() {
        let sql = format!(
            "{SCHEMA}SELECT CAST(MULTISET(SELECT p.PName FROM Professor p) AS Type_Prof) FROM Professor q;"
        );
        let d = run(DbMode::Oracle9, &sql);
        assert!(d.iter().any(|x| x.code == "cast-target-not-collection"), "{d:?}");
    }

    #[test]
    fn deref_of_a_literal_and_unknown_function_are_flagged() {
        let sql = format!("{SCHEMA}SELECT DEREF(42) FROM Professor p;\nSELECT NVL2(p.Room) FROM Professor p;");
        let d = run(DbMode::Oracle9, &sql);
        assert!(d.iter().any(|x| x.code == "deref-non-ref"), "{d:?}");
        assert!(d.iter().any(|x| x.code == "unknown-function"), "{d:?}");
    }
}
