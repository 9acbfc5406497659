//! The SQL dialect: lexer, AST and parser.
//!
//! Covers the Oracle-flavoured subset the paper's generated scripts use —
//! see the crate docs for the full statement inventory.

pub mod ast;
pub mod lexer;
pub mod param;
pub mod parser;
pub mod printer;
pub mod span;

pub use ast::{Expr, FromItem, KeyRef, SelectItem, SelectStmt, Stmt};
pub use parser::{parse_script, parse_script_spanned, parse_statement};
pub use printer::{print_expr, print_select, print_stmt};
pub use span::SpannedStmt;
pub use xmlord_diag::Span;
