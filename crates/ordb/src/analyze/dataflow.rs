//! maplint level 3: a flow-sensitive dataflow pass over whole scripts.
//!
//! The per-statement analysis in [`super::Analyzer`] binds each statement
//! against the shadow catalog; this pass looks *across* statements at how
//! table contents flow through the script:
//!
//! * `dead-write` — rows written to a table that is dropped before anything
//!   reads it;
//! * `create-drop-unused` — a table created and dropped without any access
//!   in between;
//! * `rolled-back-write` — uncommitted writes undone by a full `ROLLBACK`
//!   before anything read them;
//! * `subquery-empty-table` — a DML statement whose subquery scans a table
//!   this script created but has not populated yet (the generated
//!   `(SELECT REF(x) FROM Tab x WHERE …)` parent-wiring pattern yields
//!   NULL, i.e. a dangling REF insert).
//!
//! Every finding is a [`Severity::Warning`]: the statements all *execute* —
//! the differential guarantee reserves Errors for certain rejections.
//!
//! Table references are collected by intersecting the identifier tokens of
//! each statement's span with the tables known to the script, so
//! references inside arbitrarily nested subqueries count as reads without a
//! full AST walk. Use-before-CREATE ordering needs no pass of its own: the
//! per-statement binder already reports `unknown-table` Errors against the
//! shadow catalog.

use std::collections::{BTreeMap, BTreeSet};

use xmlord_diag::{Diagnostic, Severity, Span};

use crate::ident::Ident;
use crate::sql::ast::Stmt;
use crate::analyze::tokens_within;
use crate::sql::lexer::{SpannedToken, Token};
use crate::sql::span::SpannedStmt;

/// State of one table as the pass walks the script.
#[derive(Debug, Default)]
struct TableState {
    /// Span of the CREATE TABLE when this script created it.
    created_here: Option<Span>,
    /// Any read or write since creation (decides `create-drop-unused`).
    accessed: bool,
    /// INSERT statements so far (decides `subquery-empty-table`).
    inserts: usize,
    /// Write spans not yet observed by any read (decides `dead-write`).
    unread_writes: Vec<Span>,
    /// Write spans neither read nor committed (decides `rolled-back-write`).
    uncommitted_unread_writes: Vec<Span>,
}

/// Run the dataflow pass over a parsed script and the tokens it was parsed
/// from.
pub(crate) fn dataflow_pass(
    tokens: &[SpannedToken],
    stmts: &[SpannedStmt],
    diags: &mut Vec<Diagnostic>,
) {
    let mut tables: BTreeMap<String, TableState> = BTreeMap::new();
    let mut names: BTreeMap<String, String> = BTreeMap::new(); // upper → display

    let warn = |code: &'static str, message: String, span: Span, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic { severity: Severity::Warning, code, message, span });
    };

    for ss in stmts {
        // EXPLAIN'd statements never execute: invisible to dataflow.
        if matches!(ss.stmt, Stmt::Explain(_)) {
            continue;
        }
        let write_target: Option<&Ident> = match &ss.stmt {
            Stmt::Insert { table, .. }
            | Stmt::Update { table, .. }
            | Stmt::Delete { table, .. } => Some(table),
            _ => None,
        };

        // Reads: every known table mentioned in the statement other than
        // the write target itself.
        let mentioned = mentioned_idents(tokens_within(tokens, ss.span));
        let mut reads: BTreeSet<String> = mentioned
            .into_iter()
            .filter(|n| tables.contains_key(n))
            .collect();
        if let Some(t) = write_target {
            reads.remove(t.key());
        }
        // Dropping a table is not a read of its contents.
        if let Stmt::DropTable { name } = &ss.stmt {
            reads.remove(name.key());
        }
        // UPDATE and DELETE scan the target's rows before mutating them.
        if matches!(ss.stmt, Stmt::Update { .. } | Stmt::Delete { .. }) {
            if let Some(t) = write_target {
                reads.insert(t.key().to_string());
            }
        }
        for key in &reads {
            if let Some(state) = tables.get_mut(key) {
                state.accessed = true;
                state.unread_writes.clear();
                state.uncommitted_unread_writes.clear();
                // A subquery over a table this script created but never
                // populated finds no rows: the generated REF-wiring pattern
                // inserts NULL where a reference was intended.
                if write_target.is_some() && state.created_here.is_some() && state.inserts == 0 {
                    warn(
                        "subquery-empty-table",
                        format!(
                            "the subquery scans '{}', which this script created but has not \
                             populated yet — it finds no rows, so the written value is NULL \
                             (dangling-REF risk)",
                            names[key]
                        ),
                        ss.span,
                        diags,
                    );
                }
            }
        }

        match &ss.stmt {
            Stmt::CreateObjectTable { name, .. } | Stmt::CreateRelationalTable { name, .. } => {
                let key = name.key().to_string();
                names.insert(key.clone(), name.as_str().to_string());
                tables.insert(key, TableState { created_here: Some(ss.span), ..TableState::default() });
            }
            Stmt::Insert { table, .. } => {
                let key = table.key().to_string();
                names.entry(key.clone()).or_insert_with(|| table.as_str().to_string());
                let state = tables.entry(key).or_default();
                state.accessed = true;
                state.inserts += 1;
                state.unread_writes.push(ss.span);
                state.uncommitted_unread_writes.push(ss.span);
            }
            Stmt::Update { table, .. } | Stmt::Delete { table, .. } => {
                let key = table.key().to_string();
                names.entry(key.clone()).or_insert_with(|| table.as_str().to_string());
                let state = tables.entry(key).or_default();
                state.accessed = true;
                state.unread_writes.push(ss.span);
                state.uncommitted_unread_writes.push(ss.span);
            }
            Stmt::DropTable { name } => {
                let key = name.key().to_string();
                if let Some(state) = tables.remove(&key) {
                    if state.created_here.is_some() && !state.accessed {
                        warn(
                            "create-drop-unused",
                            format!(
                                "table '{name}' is created and dropped by this script without \
                                 any read or write in between"
                            ),
                            ss.span,
                            diags,
                        );
                    }
                    for span in &state.unread_writes {
                        warn(
                            "dead-write",
                            format!(
                                "rows written to '{name}' here are never read before the \
                                 table is dropped"
                            ),
                            *span,
                            diags,
                        );
                    }
                }
            }
            Stmt::Commit => {
                for state in tables.values_mut() {
                    state.uncommitted_unread_writes.clear();
                }
            }
            Stmt::Rollback { to: None } => {
                for (key, state) in tables.iter_mut() {
                    for span in state.uncommitted_unread_writes.drain(..) {
                        warn(
                            "rolled-back-write",
                            format!(
                                "this write to '{}' is undone by the ROLLBACK before \
                                 anything reads it",
                                names[key]
                            ),
                            span,
                            diags,
                        );
                    }
                    // The writes are gone from unread_writes' perspective too.
                    state.unread_writes.clear();
                }
            }
            Stmt::Rollback { to: Some(_) } => {
                // Partial rollback: which writes survive depends on the
                // savepoint position — stay conservative, claim nothing.
                for state in tables.values_mut() {
                    state.uncommitted_unread_writes.clear();
                    state.unread_writes.clear();
                }
            }
            _ => {}
        }
    }
}

/// Upper-cased identifier tokens of a statement.
fn mentioned_idents(tokens: &[SpannedToken]) -> BTreeSet<String> {
    tokens
        .iter()
        .filter_map(|t| match &t.token {
            Token::Ident(s) => Some(s.to_uppercase()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::{Analyzer, Severity};
    use crate::mode::DbMode;

    fn warnings(sql: &str) -> Vec<(String, String)> {
        Analyzer::new(DbMode::Oracle9)
            .analyze_script(sql)
            .expect("script parses")
            .into_iter()
            .map(|d| (d.code.to_string(), d.message))
            .collect()
    }

    const PROF: &str = "CREATE TYPE Type_P AS OBJECT (PName VARCHAR(30));\n\
         CREATE TABLE Professor OF Type_P;\n";

    #[test]
    fn create_drop_unused_fires_only_without_access() {
        let sql = format!("{PROF}DROP TABLE Professor;");
        assert!(warnings(&sql).iter().any(|(c, _)| c == "create-drop-unused"), "{sql}");

        let used = format!(
            "{PROF}INSERT INTO Professor VALUES (Type_P('K'));\n\
             SELECT p.PName FROM Professor p;\nDROP TABLE Professor;"
        );
        let w = warnings(&used);
        assert!(!w.iter().any(|(c, _)| c == "create-drop-unused"), "{w:?}");
        assert!(!w.iter().any(|(c, _)| c == "dead-write"), "{w:?}");
    }

    #[test]
    fn unread_write_before_drop_is_a_dead_write() {
        let sql = format!(
            "{PROF}INSERT INTO Professor VALUES (Type_P('K'));\nDROP TABLE Professor;"
        );
        let w = warnings(&sql);
        assert!(w.iter().any(|(c, _)| c == "dead-write"), "{w:?}");
        assert!(!w.iter().any(|(c, _)| c == "create-drop-unused"), "{w:?}");
    }

    #[test]
    fn rolled_back_write_warns_unless_committed_or_read() {
        let sql = format!("{PROF}INSERT INTO Professor VALUES (Type_P('K'));\nROLLBACK;");
        assert!(warnings(&sql).iter().any(|(c, _)| c == "rolled-back-write"));

        let committed = format!(
            "{PROF}INSERT INTO Professor VALUES (Type_P('K'));\nCOMMIT;\nROLLBACK;"
        );
        assert!(!warnings(&committed).iter().any(|(c, _)| c == "rolled-back-write"));

        let read = format!(
            "{PROF}INSERT INTO Professor VALUES (Type_P('K'));\n\
             SELECT p.PName FROM Professor p;\nROLLBACK;"
        );
        assert!(!warnings(&read).iter().any(|(c, _)| c == "rolled-back-write"));
    }

    #[test]
    fn ref_subquery_over_unpopulated_table_warns() {
        let sql = "CREATE TYPE Type_P AS OBJECT (PName VARCHAR(30));\n\
             CREATE TABLE Professor OF Type_P;\n\
             CREATE TYPE Type_C AS OBJECT (Title VARCHAR(30), Held REF Type_P);\n\
             CREATE TABLE Course OF Type_C;\n\
             INSERT INTO Course VALUES (Type_C('DBS', (SELECT REF(p) FROM Professor p WHERE p.PName = 'K')));";
        let w = warnings(sql);
        assert!(w.iter().any(|(c, _)| c == "subquery-empty-table"), "{w:?}");

        // Populating the parent first silences it — the generated loader
        // ordering (parent row before child REF) stays clean.
        let ordered = "CREATE TYPE Type_P AS OBJECT (PName VARCHAR(30));\n\
             CREATE TABLE Professor OF Type_P;\n\
             CREATE TYPE Type_C AS OBJECT (Title VARCHAR(30), Held REF Type_P);\n\
             CREATE TABLE Course OF Type_C;\n\
             INSERT INTO Professor VALUES (Type_P('K'));\n\
             INSERT INTO Course VALUES (Type_C('DBS', (SELECT REF(p) FROM Professor p WHERE p.PName = 'K')));";
        let w2 = warnings(ordered);
        assert!(!w2.iter().any(|(c, _)| c == "subquery-empty-table"), "{w2:?}");
    }

    #[test]
    fn dataflow_findings_are_never_errors() {
        let sql = format!(
            "{PROF}INSERT INTO Professor VALUES (Type_P('K'));\nROLLBACK;\nDROP TABLE Professor;"
        );
        let diags = Analyzer::new(DbMode::Oracle9).analyze_script(&sql).unwrap();
        for d in diags {
            assert_eq!(d.severity, Severity::Warning, "{}: {}", d.code, d.message);
        }
    }
}
