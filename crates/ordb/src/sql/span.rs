//! The SQL-specific span carrier: a parsed statement plus where it sits in
//! its script. The span vocabulary itself ([`Span`], line/column
//! arithmetic) is `xmlord-diag`'s, shared with the DTD and mapping linters.
//!
//! Offsets are **character** indices into the SQL text (the lexer iterates
//! `char`s, not bytes), so line/column conversion counts characters too —
//! a multi-byte character advances the column by one, like an editor does.

use xmlord_diag::Span;

/// A statement plus the span it occupies in the script it was parsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedStmt {
    pub stmt: crate::sql::ast::Stmt,
    pub span: Span,
}
