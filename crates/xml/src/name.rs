//! XML names and namespace-qualified names.
//!
//! The mapping layer (paper §5) derives database identifiers from element and
//! attribute names, and the meta-table stores namespace information, so names
//! are first-class here: validated on parse, split into `prefix:local`.
//!
//! A [`QName`] is *shared*: it holds one reference-counted copy of the raw
//! `prefix:local` text plus the offset of the colon, so cloning a name is a
//! pointer copy and [`QName::as_raw`], [`QName::prefix`] and
//! [`QName::local_part`] are slices of it. Who interns: the DOM builder
//! ([`crate::parser`]) keeps one `QName` per distinct name of the document
//! it is building and hands out clones, so a name allocates once per
//! document however often it occurs; the table dies with the parse. Names
//! made elsewhere ([`QName::parse`], [`QName::local`]) allocate their
//! own copy.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A (possibly prefixed) XML qualified name.
#[derive(Clone)]
pub struct QName {
    /// `prefix:local`, or just `local`.
    raw: Arc<str>,
    /// Byte offset of the colon in `raw`; 0 for an unprefixed name (a valid
    /// name never starts with its colon).
    colon: u32,
}

impl QName {
    /// Build a name from its raw `prefix:local` form.
    ///
    /// Returns `None` when the raw text is not a valid QName (empty parts,
    /// more than one colon, invalid characters).
    pub fn parse(raw: &str) -> Option<QName> {
        let colon = split_qname(raw)?;
        Some(QName { raw: Arc::from(raw), colon: u32::try_from(colon).ok()? })
    }

    /// An unprefixed name. Panics if `local` is not a valid NCName — intended
    /// for names that originate in code, not in documents.
    pub fn local(local: &str) -> QName {
        assert!(is_valid_ncname(local), "invalid NCName {local:?}");
        QName { raw: Arc::from(local), colon: 0 }
    }

    /// Raw `prefix:local` (or just `local`) form.
    pub fn as_raw(&self) -> &str {
        &self.raw
    }

    /// Namespace prefix, empty for unprefixed names.
    pub fn prefix(&self) -> &str {
        &self.raw[..self.colon as usize]
    }

    /// Local part of the name.
    pub fn local_part(&self) -> &str {
        match self.colon {
            0 => &self.raw,
            colon => &self.raw[colon as usize + 1..],
        }
    }

    pub fn has_prefix(&self) -> bool {
        self.colon != 0
    }
}

// Two valid names are equal exactly when their raw texts are, so equality
// and hashing go through `raw` (a pointer comparison first: clones of one
// interned name share it). Ordering stays (prefix, local).
impl PartialEq for QName {
    fn eq(&self, other: &QName) -> bool {
        Arc::ptr_eq(&self.raw, &other.raw) || self.raw == other.raw
    }
}

impl Eq for QName {}

impl Hash for QName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl Ord for QName {
    fn cmp(&self, other: &QName) -> Ordering {
        (self.prefix(), self.local_part()).cmp(&(other.prefix(), other.local_part()))
    }
}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &QName) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QName")
            .field("prefix", &self.prefix())
            .field("local", &self.local_part())
            .finish()
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

/// Offset of the colon of a valid QName (0 when it has no prefix); `None`
/// when `raw` is not one.
pub(crate) fn split_qname(raw: &str) -> Option<usize> {
    match raw.split_once(':') {
        None => is_valid_ncname(raw).then_some(0),
        Some((prefix, local)) => {
            (is_valid_ncname(prefix) && is_valid_ncname(local)).then_some(prefix.len())
        }
    }
}

/// First character of an XML name (colon excluded: NCName).
pub fn is_name_start_char(ch: char) -> bool {
    if ch.is_ascii() {
        return ch.is_ascii_alphabetic() || ch == '_';
    }
    matches!(ch,
        '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}'
        | '\u{200C}'..='\u{200D}' | '\u{2070}'..='\u{218F}'
        | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}'
        | '\u{10000}'..='\u{EFFFF}')
}

/// Subsequent character of an XML name (colon excluded: NCName).
pub fn is_name_char(ch: char) -> bool {
    if ch.is_ascii() {
        return ch.is_ascii_alphanumeric() || matches!(ch, '_' | '-' | '.');
    }
    is_name_start_char(ch)
        || matches!(ch, '\u{B7}' | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

/// Validate an NCName (a name with no colon).
pub fn is_valid_ncname(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) if is_name_start_char(first) => chars.all(is_name_char),
        _ => false,
    }
}

/// Validate a full name as it may appear in a document (at most one colon).
pub fn is_valid_qname(s: &str) -> bool {
    QName::parse(s).is_some()
}

/// Validate an `Nmtoken` (any name characters, colon allowed per XML spec).
pub fn is_valid_nmtoken(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| is_name_char(c) || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_unprefixed_names() {
        let q = QName::parse("University").unwrap();
        assert_eq!(q.prefix(), "");
        assert_eq!(q.local_part(), "University");
        assert_eq!(q.as_raw(), "University");
    }

    #[test]
    fn parses_prefixed_names() {
        let q = QName::parse("uni:Student").unwrap();
        assert_eq!(q.prefix(), "uni");
        assert_eq!(q.local_part(), "Student");
        assert_eq!(q.as_raw(), "uni:Student");
        assert!(q.has_prefix());
        assert_eq!(q.to_string(), "uni:Student");
    }

    #[test]
    fn rejects_malformed_names() {
        for bad in ["", ":", "a:", ":b", "a:b:c", "1abc", "-x", "a b", "a\u{0}"] {
            assert!(QName::parse(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accepts_names_with_digits_dots_dashes_inside() {
        for good in ["a1", "a-b", "a.b", "_x", "Straße", "日本語"] {
            assert!(QName::parse(good).is_some(), "rejected {good:?}");
        }
    }

    #[test]
    fn nmtoken_allows_leading_digit() {
        assert!(is_valid_nmtoken("1st"));
        assert!(!is_valid_ncname("1st"));
        assert!(!is_valid_nmtoken(""));
    }
}
