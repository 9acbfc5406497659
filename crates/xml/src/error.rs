//! Error and source-position types shared by the parser.

use std::fmt;

/// A position in the source text, 1-based, as reported in error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    pub line: u32,
    pub column: u32,
    /// Byte offset into the input, 0-based.
    pub offset: usize,
}

impl Position {
    pub fn start() -> Self {
        Position { line: 1, column: 1, offset: 0 }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// The category of a well-formedness violation or syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Input ended inside a construct.
    UnexpectedEof,
    /// A character that cannot start/continue the expected construct.
    Unexpected(String),
    /// `</b>` closing `<a>`, etc.
    MismatchedTag { open: String, close: String },
    /// The same attribute name appears twice on one element.
    DuplicateAttribute(String),
    /// A name does not match the XML `Name` production.
    InvalidName(String),
    /// Reference to an entity that is not predefined nor declared.
    UnknownEntity(String),
    /// Entity expansion recursed into itself.
    RecursiveEntity(String),
    /// `&#xZZ;` or a reference to a code point that is not a valid XML char.
    InvalidCharRef(String),
    /// Document has no root element, or content outside the root.
    StructureViolation(String),
    /// `--` inside a comment, `]]>` in character data, and similar.
    IllegalConstruct(String),
    /// A start tag that would open more than [`crate::MAX_ELEMENT_DEPTH`]
    /// nested elements.
    DepthLimitExceeded,
    /// The references of one document expand to more than
    /// [`crate::MAX_ENTITY_EXPANSION_BYTES`].
    EntityExpansionLimit,
    /// A literal character outside the XML 1.0 `Char` production (a C0
    /// control other than tab, LF, CR; U+FFFE; U+FFFF).
    InvalidChar(char),
}

impl fmt::Display for XmlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            XmlErrorKind::Unexpected(what) => write!(f, "unexpected {what}"),
            XmlErrorKind::MismatchedTag { open, close } => {
                write!(f, "closing tag </{close}> does not match <{open}>")
            }
            XmlErrorKind::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute '{name}'")
            }
            XmlErrorKind::InvalidName(name) => write!(f, "invalid XML name '{name}'"),
            XmlErrorKind::UnknownEntity(name) => write!(f, "unknown entity '&{name};'"),
            XmlErrorKind::RecursiveEntity(name) => {
                write!(f, "entity '&{name};' expands recursively")
            }
            XmlErrorKind::InvalidCharRef(raw) => write!(f, "invalid character reference '{raw}'"),
            XmlErrorKind::StructureViolation(msg) => write!(f, "{msg}"),
            XmlErrorKind::IllegalConstruct(msg) => write!(f, "{msg}"),
            XmlErrorKind::DepthLimitExceeded => write!(
                f,
                "elements nested more than {} deep",
                crate::MAX_ELEMENT_DEPTH
            ),
            XmlErrorKind::EntityExpansionLimit => write!(
                f,
                "entity references expand to more than {} bytes",
                crate::MAX_ENTITY_EXPANSION_BYTES
            ),
            XmlErrorKind::InvalidChar(ch) => {
                write!(f, "character U+{:04X} is not allowed in XML", *ch as u32)
            }
        }
    }
}

/// A well-formedness or syntax error, with the position where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub kind: XmlErrorKind,
    pub position: Position,
}

impl XmlError {
    pub fn new(kind: XmlErrorKind, position: Position) -> Self {
        XmlError { kind, position }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}: {}", self.position, self.kind)
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position_and_kind() {
        let err = XmlError::new(
            XmlErrorKind::DuplicateAttribute("id".into()),
            Position { line: 3, column: 9, offset: 42 },
        );
        let msg = err.to_string();
        assert!(msg.contains("3:9"), "{msg}");
        assert!(msg.contains("duplicate attribute 'id'"), "{msg}");
    }

    #[test]
    fn mismatched_tag_message_names_both_tags() {
        let kind = XmlErrorKind::MismatchedTag { open: "a".into(), close: "b".into() };
        let msg = kind.to_string();
        assert!(msg.contains("</b>") && msg.contains("<a>"), "{msg}");
    }

    #[test]
    fn position_start_is_line_one_column_one() {
        let p = Position::start();
        assert_eq!((p.line, p.column, p.offset), (1, 1, 0));
    }
}
