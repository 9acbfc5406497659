//! Engine error type, loosely modelled on Oracle's error taxonomy so the
//! paper's failure scenarios (identifier too long, collection nesting in
//! Oracle 8, constraint violations, …) surface as distinct variants.

use xmlord_diag::Span;
use std::fmt;

/// Any failure raised by the engine: syntax, catalog, typing, constraint or
/// execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// SQL lexical or syntax error.
    Syntax { message: String, position: usize },
    /// Parse error with a full source span (start/end character offsets) —
    /// the span-carrying variant behind [`crate::analyze`] diagnostics and
    /// the parser sites that used to panic on malformed input.
    Parse { message: String, span: Span },
    /// Identifier longer than the 30-character Oracle limit (ORA-00972).
    IdentifierTooLong(String),
    /// Name not found in the catalog.
    UnknownType(String),
    UnknownTable(String),
    UnknownColumn(String),
    /// A view whose query reads, through other views or not, the view
    /// itself (ORA-01731).
    ViewCycle(String),
    /// A view read through more than [`crate::scope::MAX_VIEW_NESTING`]
    /// views: the one that would go one level deeper.
    ViewNesting(String),
    /// `DROP INDEX` names an index that does not exist.
    UnknownIndex(String),
    /// Name already exists.
    DuplicateName(String),
    /// A VARRAY or nested-table type whose element type is itself.
    SelfContainingCollection(String),
    /// `CREATE TABLE` or `CREATE TYPE … AS OBJECT` naming one column or
    /// attribute twice, ignoring case (ORA-00957).
    DuplicateColumn { owner: String, column: String },
    /// Oracle 8 mode: collection element type is a collection or LOB (§2.2).
    NestedCollectionNotSupported { collection: String, element: String },
    /// A type that other objects depend on cannot be dropped without FORCE.
    DependentTypeExists { dropped: String, dependent: String },
    /// A constructor called with a number of arguments other than its
    /// object type's attribute count.
    ConstructorArity { type_name: String, expected: usize, actual: usize },
    /// A constructor of a type that is only forward-declared (`CREATE TYPE
    /// T;` with no body yet).
    IncompleteType(String),
    /// A call whose name is neither a catalog type nor a built-in function.
    UnknownFunction(String),
    /// A built-in function called with other than its one argument.
    CallArity(String),
    /// `INSERT` with a number of values other than its column count — the
    /// table's, or the explicit column list's.
    InsertArity { table: String, columns: usize, values: usize },
    /// `COUNT(*)` anywhere but as the sole item of a select list.
    CountStarPosition,
    /// Value does not fit the declared column/attribute type. Boxed, so a
    /// rare error does not widen every `Result` the engine returns.
    TypeMismatch(Box<TypeMismatch>),
    /// String longer than its VARCHAR(n) bound (ORA-12899).
    ValueTooLarge { column: String, max: u32, actual: usize },
    /// VARRAY has more elements than its declared maximum.
    VarrayLimitExceeded { type_name: String, max: u32, actual: usize },
    /// NOT NULL constraint violated (ORA-01400).
    NotNullViolation { column: String },
    /// CHECK constraint evaluated to FALSE (ORA-02290).
    CheckViolation { constraint: String },
    /// PRIMARY KEY / UNIQUE violated (ORA-00001).
    UniqueViolation { constraint: String },
    /// REF points to no live row object.
    DanglingRef,
    /// `ROLLBACK TO name` names a savepoint that was never established, or
    /// was discarded by a COMMIT/ROLLBACK (ORA-01086).
    UnknownSavepoint(String),
    /// Arbitrary execution failure with context.
    Execution(String),
    /// A [`crate::mvcc::ReadSession`] was handed a statement that is not
    /// SELECT / EXPLAIN; carries the rejected statement's kind tag.
    /// Snapshot-read sessions never mutate — writes go through the single
    /// writing [`crate::Database`] (ORA-01456 flavor).
    ReadOnly(&'static str),
    /// On-disk durable state (WAL or snapshot) failed validation: bad
    /// magic, checksummed-but-undecodable payload, non-monotone sequence
    /// numbers, or a snapshot that contradicts engine invariants. Torn
    /// tails are *not* this error — they are silently truncated by
    /// recovery; this variant marks bytes that fsync discipline says can
    /// never arise from a crash.
    CorruptDurableState(String),
    /// Operating-system I/O failure while reading or writing durable state.
    Io(String),
}

/// What [`DbError::TypeMismatch`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeMismatch {
    /// Where, when a declared column, attribute or collection element was
    /// being filled.
    pub column: Option<String>,
    pub expected: String,
    pub found: String,
}

impl DbError {
    /// A [`DbError::TypeMismatch`]; `column` names where, if anywhere.
    pub fn type_mismatch(
        column: Option<&str>,
        expected: impl Into<String>,
        found: impl Into<String>,
    ) -> DbError {
        DbError::TypeMismatch(Box::new(TypeMismatch {
            column: column.map(str::to_string),
            expected: expected.into(),
            found: found.into(),
        }))
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Syntax { message, position } => {
                write!(f, "SQL syntax error at offset {position}: {message}")
            }
            DbError::Parse { message, span } => {
                write!(f, "SQL parse error at offset {}..{}: {message}", span.start, span.end)
            }
            DbError::IdentifierTooLong(name) => {
                write!(f, "identifier '{name}' exceeds 30 characters (ORA-00972)")
            }
            DbError::UnknownType(name) => write!(f, "type '{name}' does not exist"),
            DbError::UnknownTable(name) => write!(f, "table or view '{name}' does not exist"),
            DbError::UnknownColumn(name) => write!(f, "column or path '{name}' does not exist"),
            DbError::ViewCycle(name) => {
                write!(f, "view '{name}' is defined in terms of itself (ORA-01731)")
            }
            DbError::ViewNesting(name) => write!(
                f,
                "view '{name}' nests views more than {} deep",
                crate::scope::MAX_VIEW_NESTING
            ),
            DbError::UnknownIndex(name) => write!(f, "index '{name}' does not exist"),
            DbError::DuplicateName(name) => {
                write!(f, "name '{name}' is already used by an existing object")
            }
            DbError::SelfContainingCollection(name) => {
                write!(f, "collection type '{name}' cannot have itself as its element type")
            }
            DbError::DuplicateColumn { owner, column } => {
                write!(f, "'{owner}' declares column or attribute '{column}' twice (ORA-00957)")
            }
            DbError::NestedCollectionNotSupported { collection, element } => write!(
                f,
                "Oracle 8 mode: collection type '{collection}' cannot have element type \
                 '{element}' (nested collections/LOBs require Oracle 9, §2.2)"
            ),
            DbError::DependentTypeExists { dropped, dependent } => write!(
                f,
                "cannot drop type '{dropped}': '{dependent}' depends on it (use DROP TYPE … FORCE)"
            ),
            DbError::ConstructorArity { type_name, expected, actual } => {
                write!(f, "constructor {type_name}(…): expected {expected} arguments, got {actual}")
            }
            DbError::IncompleteType(name) => write!(
                f,
                "constructor {name}(…): type is an incomplete forward declaration"
            ),
            DbError::UnknownFunction(name) => {
                write!(f, "'{name}' is neither a type in the catalog nor a built-in function")
            }
            DbError::CallArity(name) => write!(f, "{name} takes one argument"),
            DbError::InsertArity { table, columns, values } => {
                write!(f, "INSERT INTO {table}: {values} values for {columns} columns")
            }
            DbError::CountStarPosition => {
                write!(f, "COUNT(*) is only valid as the sole item of a select list")
            }
            DbError::TypeMismatch(m) => match &m.column {
                Some(column) => write!(
                    f,
                    "type mismatch for '{column}': expected {}, found {}",
                    m.expected, m.found
                ),
                None => write!(f, "type mismatch: expected {}, found {}", m.expected, m.found),
            },
            DbError::ValueTooLarge { column, max, actual } => write!(
                f,
                "value too large for column '{column}' (actual: {actual}, maximum: {max}) (ORA-12899)"
            ),
            DbError::VarrayLimitExceeded { type_name, max, actual } => write!(
                f,
                "VARRAY '{type_name}' limit exceeded: {actual} elements, maximum {max}"
            ),
            DbError::NotNullViolation { column } => {
                write!(f, "cannot insert NULL into '{column}' (ORA-01400)")
            }
            DbError::CheckViolation { constraint } => {
                write!(f, "check constraint ({constraint}) violated (ORA-02290)")
            }
            DbError::UniqueViolation { constraint } => {
                write!(f, "unique constraint ({constraint}) violated (ORA-00001)")
            }
            DbError::DanglingRef => write!(f, "REF does not point to a live row object"),
            DbError::UnknownSavepoint(name) => {
                write!(f, "savepoint '{name}' never established (ORA-01086)")
            }
            DbError::Execution(msg) => write!(f, "execution error: {msg}"),
            DbError::ReadOnly(kind) => {
                write!(f, "read-only session: {kind} is not allowed (only SELECT/EXPLAIN)")
            }
            DbError::CorruptDurableState(msg) => {
                write!(f, "corrupt durable state: {msg}")
            }
            DbError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_oracle_error_codes() {
        assert!(DbError::NotNullViolation { column: "X".into() }.to_string().contains("ORA-01400"));
        assert!(DbError::IdentifierTooLong("Y".into()).to_string().contains("ORA-00972"));
        assert!(DbError::UniqueViolation { constraint: "PK".into() }
            .to_string()
            .contains("ORA-00001"));
    }

    #[test]
    fn oracle8_nesting_message_names_both_types() {
        let err = DbError::NestedCollectionNotSupported {
            collection: "TypeVA_Course".into(),
            element: "TypeVA_Professor".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("TypeVA_Course") && msg.contains("TypeVA_Professor"));
    }
}
