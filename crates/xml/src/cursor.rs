//! A cursor over the input that knows where it is.
//!
//! The XML reader ([`crate::events`]), the entity expander and the DTD
//! parser (in `xmlord-dtd`) consume input through this cursor so error
//! positions are consistent across the two parsers of the paper's Fig. 1
//! architecture.
//!
//! The cursor advances by byte offset only — a whole slice at a time where
//! the caller has one (`eat`, `take_until`, `advance`). Line and column are
//! *derived* when somebody asks ([`Cursor::position`], normally to build an
//! error): the text between the last position handed out and the current
//! offset is scanned once, so asking repeatedly stays linear in the input
//! and not asking costs nothing.

use std::cell::Cell;

use crate::error::{Position, XmlError, XmlErrorKind};

/// A peekable cursor over `&str` that can report its [`Position`].
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    input: &'a str,
    offset: usize,
    /// The last position derived; never past `offset`.
    mark: Cell<Position>,
}

impl<'a> Cursor<'a> {
    pub fn new(input: &'a str) -> Self {
        Cursor { input, offset: 0, mark: Cell::new(Position::start()) }
    }

    /// Current position (of the next unread character).
    pub fn position(&self) -> Position {
        self.position_at(self.offset)
    }

    /// Position of the character at byte `offset` of the input, which must
    /// lie on a character boundary. Cheapest for offsets at or after the
    /// last position asked for.
    pub fn position_at(&self, offset: usize) -> Position {
        let mut pos = self.mark.get();
        if offset < pos.offset {
            pos = Position::start();
        }
        let skipped = &self.input[pos.offset..offset];
        let line_tail = match skipped.rfind('\n') {
            Some(last_newline) => {
                let newlines = skipped.as_bytes().iter().filter(|b| **b == b'\n').count();
                pos.line += newlines as u32;
                pos.column = 1;
                &skipped[last_newline + 1..]
            }
            None => skipped,
        };
        pos.column += line_tail.chars().count() as u32;
        pos.offset = offset;
        if offset <= self.offset {
            self.mark.set(pos);
        }
        pos
    }

    /// Byte offset of the next unread character.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The unread remainder of the input.
    pub fn rest(&self) -> &'a str {
        &self.input[self.offset..]
    }

    pub fn is_eof(&self) -> bool {
        self.offset >= self.input.len()
    }

    /// Peek at the next character without consuming it.
    pub fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// Peek at the next byte without consuming it.
    pub fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.offset).copied()
    }

    /// Peek at the character `n` characters ahead (0 == `peek`).
    pub fn peek_nth(&self, n: usize) -> Option<char> {
        self.rest().chars().nth(n)
    }

    /// True if the unread input starts with `s`.
    pub fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    /// Consume and return the next character.
    pub fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.offset += ch.len_utf8();
        Some(ch)
    }

    /// Consume `bytes` bytes, which must end on a character boundary.
    pub fn advance(&mut self, bytes: usize) {
        self.offset += bytes;
        debug_assert!(self.input.is_char_boundary(self.offset), "advance() split a character");
    }

    /// Consume `s` if the input starts with it; return whether it did.
    pub fn eat(&mut self, s: &str) -> bool {
        let found = self.starts_with(s);
        if found {
            self.offset += s.len();
        }
        found
    }

    /// Consume `s` or fail with an `Unexpected` error mentioning `what`.
    pub fn expect(&mut self, s: &str, what: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            Ok(())
        } else if self.is_eof() {
            Err(self.error(XmlErrorKind::UnexpectedEof))
        } else {
            Err(self.error(XmlErrorKind::Unexpected(format!(
                "input at '{}' (expected {what})",
                preview(self.rest())
            ))))
        }
    }

    /// Consume characters while `pred` holds; return the consumed slice.
    pub fn take_while(&mut self, mut pred: impl FnMut(char) -> bool) -> &'a str {
        let rest = self.rest();
        let len = rest.char_indices().find(|(_, ch)| !pred(*ch)).map_or(rest.len(), |(at, _)| at);
        self.offset += len;
        &rest[..len]
    }

    /// Consume XML whitespace (space, tab, CR, LF); return whether any was consumed.
    pub fn skip_ws(&mut self) -> bool {
        let rest = self.rest().as_bytes();
        let len = rest.iter().position(|b| !matches!(b, b' ' | b'\t' | b'\r' | b'\n')).unwrap_or(rest.len());
        self.offset += len;
        len > 0
    }

    /// Consume up to (but not including) the first occurrence of `delim`.
    /// Errors with `UnexpectedEof` if `delim` never occurs.
    pub fn take_until(&mut self, delim: &str) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        match rest.find(delim) {
            Some(idx) => {
                self.offset += idx;
                Ok(&rest[..idx])
            }
            None => Err(self.error(XmlErrorKind::UnexpectedEof)),
        }
    }

    pub fn error(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.position())
    }
}

/// XML S production: space, tab, carriage return, line feed.
pub fn is_xml_ws(ch: char) -> bool {
    matches!(ch, ' ' | '\t' | '\r' | '\n')
}

/// A short preview of the input for error messages.
fn preview(s: &str) -> String {
    let mut out: String = s.chars().take(16).collect();
    if s.chars().count() > 16 {
        out.push('…');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_lines_and_columns() {
        let mut c = Cursor::new("ab\ncd");
        assert_eq!(c.bump(), Some('a'));
        assert_eq!(c.position().column, 2);
        c.bump();
        c.bump(); // newline
        assert_eq!(c.position().line, 2);
        assert_eq!(c.position().column, 1);
        assert_eq!(c.bump(), Some('c'));
        assert_eq!(c.position().column, 2);
    }

    #[test]
    fn positions_are_derived_for_any_offset_in_any_order() {
        let mut c = Cursor::new("a\nbä\n\ncd");
        assert_eq!(c.take_until("d").unwrap(), "a\nbä\n\nc");
        let end = c.position();
        assert_eq!((end.line, end.column, end.offset), (4, 2, 8));
        // An earlier offset after a later one, and the later one again.
        let earlier = c.position_at(5);
        assert_eq!((earlier.line, earlier.column, earlier.offset), (2, 3, 5));
        assert_eq!(c.position(), end);
        c.advance(1);
        assert!(c.is_eof());
        assert_eq!(c.position().column, 3);
    }

    #[test]
    fn eat_consumes_only_on_match() {
        let mut c = Cursor::new("<!--x");
        assert!(!c.eat("<!DOCTYPE"));
        assert_eq!(c.position().offset, 0);
        assert!(c.eat("<!--"));
        assert_eq!(c.rest(), "x");
    }

    #[test]
    fn take_until_returns_span_and_stops_before_delimiter() {
        let mut c = Cursor::new("hello-->tail");
        let got = c.take_until("-->").unwrap();
        assert_eq!(got, "hello");
        assert!(c.starts_with("-->"));
    }

    #[test]
    fn take_until_eof_is_error() {
        let mut c = Cursor::new("no terminator");
        assert!(c.take_until("-->").is_err());
    }

    #[test]
    fn take_while_handles_multibyte() {
        let mut c = Cursor::new("äöü!");
        let got = c.take_while(|ch| ch != '!');
        assert_eq!(got, "äöü");
        assert_eq!(c.peek(), Some('!'));
    }

    #[test]
    fn skip_ws_reports_whether_it_skipped() {
        let mut c = Cursor::new("  x");
        assert!(c.skip_ws());
        assert!(!c.skip_ws());
        assert_eq!(c.peek(), Some('x'));
    }

    #[test]
    fn expect_reports_expected_token() {
        let mut c = Cursor::new("abc");
        let err = c.expect(">", "tag close").unwrap_err();
        assert!(err.to_string().contains("tag close"));
    }
}
