//! Runtime values: scalars, object instances, collections and REFs.
//!
//! ## A composite is an immutable shared block
//!
//! The attributes of a [`Value::Obj`] and the elements of a [`Value::Coll`]
//! are an `Arc<Vec<Value>>` — the same block type a stored row
//! ([`crate::storage::Row::values`]) and an evaluation frame
//! ([`crate::exec::Frame::values`]) hold — so cloning a composite, at any
//! depth, bumps one reference count and copies no value. Holders of a block:
//!
//! * the **heap** (a row's columns, and every object or collection nested
//!   below them);
//! * the **undo log** (the row image a rollback puts back);
//! * a **reader snapshot** ([`crate::mvcc::ReadSession`]) pinned at an
//!   earlier commit;
//! * a **frame** — a table row's block, or, for `TABLE(t.coll)`, the `attrs`
//!   block of the collection element it un-nests;
//! * a **query result** (`SELECT t.coll` hands out the stored block itself).
//!
//! Nothing mutates a block another holder can see. The one writer is
//! `UPDATE`'s nested `SET` (`assign_path` in `exec/dml.rs`), which calls
//! `Arc::make_mut` level by level on the row's *new* image: only the blocks
//! along the assigned path are copied, sibling attributes and neighbouring
//! rows stay shared with the undo log and with pinned readers. `Debug`,
//! `PartialEq` and the WAL/snapshot encoders see through the `Arc`, so no
//! dumped, logged or stored byte depends on who shares what.

use std::fmt;
use std::sync::Arc;

use crate::ident::Ident;

/// Object identifier of a row object (§2.3: "Oracle supports the concept of
/// object identifiers that are managed for row objects"). Globally unique
/// within one [`crate::Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OID#{}", self.0)
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Str(String),
    Num(f64),
    /// DATE values carried as ISO-8601 strings (sufficient for the paper's
    /// meta-table `Date` column).
    Date(String),
    /// An instance of an object type: type name + attribute values in
    /// declaration order (a shared block — see the module doc).
    Obj { type_name: Ident, attrs: Arc<Vec<Value>> },
    /// An instance of a collection type (VARRAY or nested table).
    Coll { type_name: Ident, elements: Arc<Vec<Value>> },
    /// Reference to a row object.
    Ref(Oid),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// String content, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) | Value::Date(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, coercing numeric-looking strings like SQL does.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Str(s) => s.trim().parse().ok(),
            _ => None,
        }
    }

    /// The shared block of a composite value, for tests that compare
    /// blocks by pointer.
    #[cfg(test)]
    pub(crate) fn block(&self) -> &Arc<Vec<Value>> {
        match self {
            Value::Obj { attrs, .. } => attrs,
            Value::Coll { elements, .. } => elements,
            other => panic!("not a composite: {other:?}"),
        }
    }

    /// SQL equality: NULL compares equal to nothing (three-valued logic is
    /// applied by the expression evaluator; this is the TRUE case only).
    /// Numeric comparison applies string→number coercion on mixed operands.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Num(_), _) | (_, Value::Num(_)) => {
                match (self.as_num(), other.as_num()) {
                    (Some(a), Some(b)) => Some(a == b),
                    _ => Some(false),
                }
            }
            (Value::Str(a), Value::Str(b)) => Some(a == b),
            (Value::Date(a), Value::Date(b)) => Some(a == b),
            (Value::Ref(a), Value::Ref(b)) => Some(a == b),
            (a, b) => Some(a == b),
        }
    }

    /// SQL ordering comparison; `None` when either side is NULL or the
    /// values are not comparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Num(_), _) | (_, Value::Num(_)) => {
                let (a, b) = (self.as_num()?, other.as_num()?);
                a.partial_cmp(&b)
            }
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Feed this value's join-key identity into `h` without materializing
    /// anything (no clone, no allocation); returns `false` when the value
    /// has no join key (NULL never matches anything; objects and
    /// collections compare structurally). Hash joins and index buckets key
    /// on it through [`crate::storage::key_hash`].
    ///
    /// The identity respects [`Value::sql_eq`]'s numeric coercion: any
    /// value that *parses* as a number feeds its numeric value, so
    /// `Num(4)`, `Str("4")` and `Str("04")` hash together. `sql_eq` is not
    /// transitive across those (`'04' = 4` but `'04' <> '4'`), and distinct
    /// identities may share a hash, so a bucket is a prefilter only —
    /// probers must re-verify candidates with the real predicate. The
    /// guarantee is *no false negatives*: `sql_eq(a, b) == Some(true)`
    /// implies equal hashes.
    pub fn hash_join_key<H: std::hash::Hasher>(&self, h: &mut H) -> bool {
        match self {
            Value::Null => false,
            Value::Num(n) => {
                h.write_u8(0);
                h.write_u64(canonical_num_bits(*n));
                true
            }
            Value::Str(s) => {
                match self.as_num() {
                    Some(n) => {
                        h.write_u8(0);
                        h.write_u64(canonical_num_bits(n));
                    }
                    None => {
                        h.write_u8(1);
                        h.write(s.as_bytes());
                    }
                }
                true
            }
            Value::Date(s) => {
                h.write_u8(2);
                h.write(s.as_bytes());
                true
            }
            Value::Ref(oid) => {
                h.write_u8(3);
                h.write_u64(oid.0);
                true
            }
            Value::Obj { .. } | Value::Coll { .. } => false,
        }
    }

    /// Render as a SQL literal (for script/debug output).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Str(s) => crate::sql::printer::quote_literal(s),
            Value::Num(n) => num_sql_literal(*n),
            Value::Date(s) => format!("DATE '{s}'"),
            Value::Obj { type_name, attrs } => {
                let inner: Vec<String> = attrs.iter().map(Value::to_sql_literal).collect();
                format!("{type_name}({})", inner.join(", "))
            }
            Value::Coll { type_name, elements } => {
                let inner: Vec<String> = elements.iter().map(Value::to_sql_literal).collect();
                format!("{type_name}({})", inner.join(", "))
            }
            Value::Ref(oid) => format!("{oid}"),
        }
    }
}

/// Render an f64 as a SQL numeric literal the lexer reads back to an
/// `sql_eq`-equal value. The default float formatting would print `inf` /
/// `NaN`, which lex as identifiers and corrupt re-generated scripts (a
/// NUMBER column can overflow to infinity when a load script carries a
/// digit string beyond f64 range). Infinities print as an overflowing
/// digit literal that parses straight back to the same infinity; NaN — not
/// producible by the lexer at all — degrades to `NULL`.
fn num_sql_literal(n: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, n).expect("writing to a String cannot fail");
    out
}

/// [`num_sql_literal`] written into `out` without a `String` of its own.
fn write_num(out: &mut impl fmt::Write, n: f64) -> fmt::Result {
    if n.is_nan() {
        return out.write_str("NULL");
    }
    if n.is_infinite() {
        // 1 followed by 309 zeros overflows f64 (max ~1.8e308).
        let sign = if n < 0.0 { "-" } else { "" };
        return write!(out, "{sign}1{}", "0".repeat(309));
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// Bit pattern of a float with `-0.0` folded into `0.0` so both hash alike.
fn canonical_num_bits(n: f64) -> u64 {
    if n == 0.0 {
        0f64.to_bits()
    } else {
        n.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` honours width/alignment flags, so values line up in the
        // table output of examples and the experiments binary.
        match self {
            Value::Null => f.pad("NULL"),
            Value::Str(s) | Value::Date(s) => f.pad(s),
            // Without a width or precision to pad to, the digits go straight
            // out.
            Value::Num(n) if f.width().is_none() && f.precision().is_none() => write_num(f, *n),
            Value::Num(n) => f.pad(&num_sql_literal(*n)),
            other => f.pad(&other.to_sql_literal()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::key_hash;

    fn id(s: &str) -> Ident {
        Ident::new(s).unwrap()
    }

    #[test]
    fn null_equality_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::str("x")), None);
        assert_eq!(Value::str("x").sql_eq(&Value::Null), None);
        assert_eq!(Value::str("x").sql_eq(&Value::str("x")), Some(true));
        assert_eq!(Value::str("x").sql_eq(&Value::str("y")), Some(false));
    }

    #[test]
    fn numeric_coercion_in_comparisons() {
        assert_eq!(Value::Num(4.0).sql_eq(&Value::str("4")), Some(true));
        assert_eq!(Value::str("4").sql_eq(&Value::Num(4.0)), Some(true));
        assert_eq!(Value::str("abc").sql_eq(&Value::Num(4.0)), Some(false));
        assert_eq!(
            Value::Num(3.0).sql_cmp(&Value::str("10")),
            Some(std::cmp::Ordering::Less)
        );
    }

    #[test]
    fn string_comparison_is_lexical() {
        assert_eq!(Value::str("abc").sql_cmp(&Value::str("abd")), Some(std::cmp::Ordering::Less));
    }

    #[test]
    fn sql_literal_escapes_quotes() {
        assert_eq!(Value::str("O'Hara").to_sql_literal(), "'O''Hara'");
    }

    #[test]
    fn object_literal_renders_constructor_syntax() {
        let v = Value::Obj {
            type_name: id("Type_Professor"),
            attrs: Arc::new(vec![Value::str("Jaeger"), Value::str("CAD")]),
        };
        assert_eq!(v.to_sql_literal(), "Type_Professor('Jaeger', 'CAD')");
    }

    #[test]
    fn whole_numbers_render_without_fraction() {
        assert_eq!(Value::Num(4.0).to_string(), "4");
        assert_eq!(Value::Num(4.5).to_string(), "4.5");
    }

    #[test]
    fn as_num_parses_strings() {
        assert_eq!(Value::str(" 42 ").as_num(), Some(42.0));
        assert_eq!(Value::str("x").as_num(), None);
        assert_eq!(Value::Null.as_num(), None);
    }

    /// `sql_eq == Some(true)` must imply equal join hashes (no false
    /// negatives in the hash-join prefilter).
    #[test]
    fn join_hashes_never_split_sql_equal_values() {
        let join_hash = |v: &Value| key_hash([v]);
        let equal_pairs = [
            (Value::Num(4.0), Value::str("4")),
            (Value::str("04"), Value::Num(4.0)),
            (Value::str("x"), Value::str("x")),
            (Value::Num(0.0), Value::Num(-0.0)),
            (Value::Date("2002-01-01".into()), Value::Date("2002-01-01".into())),
            (Value::Ref(Oid(7)), Value::Ref(Oid(7))),
        ];
        for (a, b) in equal_pairs {
            assert_eq!(a.sql_eq(&b), Some(true), "{a:?} vs {b:?}");
            assert_eq!(join_hash(&a), join_hash(&b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn null_and_composites_have_no_join_hash() {
        assert_eq!(key_hash([&Value::Null]), None);
        let obj = Value::Obj { type_name: id("T"), attrs: Arc::default() };
        assert_eq!(key_hash([&obj]), None);
        let coll = Value::Coll { type_name: id("T"), elements: Arc::default() };
        assert_eq!(key_hash([&coll]), None);
    }
}
