//! Escaping of character data and attribute values.
//!
//! §6.1 of the paper discusses exactly this machinery: markup characters
//! "are stored using the lt, gt, amp, quot, and apos entities", the parser
//! "transforms those entity references into the corresponding character
//! literals that are stored in the database", and on retrieval the
//! serializer must re-escape them. These helpers implement both directions.

use std::io;

/// Output target of the way back to text: a `String` (infallible) or any
/// [`io::Write`] through [`IoSink`]. The escaping rules below, the DOM
/// serializer and the retrieval writer all write through it, so one rule
/// produces the same bytes for every caller.
pub(crate) trait Sink {
    fn put_str(&mut self, s: &str) -> io::Result<()>;
}

impl Sink for String {
    fn put_str(&mut self, s: &str) -> io::Result<()> {
        self.push_str(s);
        Ok(())
    }
}

/// Adapter turning an [`io::Write`] into a [`Sink`]. Callers wanting
/// buffering wrap their writer in a [`io::BufWriter`].
pub(crate) struct IoSink<'a, W: io::Write>(pub(crate) &'a mut W);

impl<W: io::Write> Sink for IoSink<'_, W> {
    fn put_str(&mut self, s: &str) -> io::Result<()> {
        self.0.write_all(s.as_bytes())
    }
}

/// The character-data rule: `&`, `<` and `>` (the latter for safety with
/// `]]>` sequences).
fn text_reference(byte: u8) -> Option<&'static str> {
    match byte {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        _ => None,
    }
}

/// The attribute-value rule, for values inside double quotes: the text
/// rule plus the quote and the three whitespace controls a parser would
/// normalise.
fn attr_reference(byte: u8) -> Option<&'static str> {
    match byte {
        b'"' => Some("&quot;"),
        b'\n' => Some("&#10;"),
        b'\t' => Some("&#9;"),
        b'\r' => Some("&#13;"),
        other => text_reference(other),
    }
}

/// Write `s` with every byte `rule` names replaced: the unescaped runs go
/// out as slices of `s`, so text that needs no escaping costs one write
/// and no allocation. Every replaced byte is ASCII, so each run ends on a
/// character boundary.
fn write_escaped<S: Sink>(
    s: &str,
    rule: fn(u8) -> Option<&'static str>,
    out: &mut S,
) -> io::Result<()> {
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if let Some(reference) = rule(byte) {
            out.put_str(&s[run..i])?;
            out.put_str(reference)?;
            run = i + 1;
        }
    }
    out.put_str(&s[run..])
}

/// Write character data, escaped by the text rule.
pub(crate) fn write_text<S: Sink>(s: &str, out: &mut S) -> io::Result<()> {
    write_escaped(s, text_reference, out)
}

/// Write an attribute value, escaped by the attribute rule.
pub(crate) fn write_attr<S: Sink>(s: &str, out: &mut S) -> io::Result<()> {
    write_escaped(s, attr_reference, out)
}

/// Escape character data content: `&`, `<` and `>` (the latter for safety
/// with `]]>` sequences).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    infallible(write_text(s, &mut out));
    out
}

/// Escape an attribute value for emission inside double quotes.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    infallible(write_attr(s, &mut out));
    out
}

/// Unwrap the result of a write into a `String`, which cannot fail.
pub(crate) fn infallible(written: io::Result<()>) {
    written.expect("String sink is infallible");
}

/// The replacement text of a predefined entity, if `name` is one of the five.
pub fn predefined_entity(name: &str) -> Option<&'static str> {
    match name {
        "lt" => Some("<"),
        "gt" => Some(">"),
        "amp" => Some("&"),
        "apos" => Some("'"),
        "quot" => Some("\""),
        _ => None,
    }
}

/// True if `ch` is a character permitted by the XML 1.0 `Char` production.
pub fn is_xml_char(ch: char) -> bool {
    matches!(ch,
        '\u{9}' | '\u{A}' | '\u{D}'
        | '\u{20}'..='\u{D7FF}'
        | '\u{E000}'..='\u{FFFD}'
        | '\u{10000}'..='\u{10FFFF}')
}

/// Decode a character reference body (the part between `&#` and `;`),
/// e.g. `"x41"` or `"65"`. Returns `None` for syntax errors or code points
/// outside the XML `Char` production.
pub fn decode_char_ref(body: &str) -> Option<char> {
    let code = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X')) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<u32>().ok()?
    };
    let ch = char::from_u32(code)?;
    is_xml_char(ch).then_some(ch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_text_markup_characters() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn escapes_attr_quotes_and_whitespace_controls() {
        assert_eq!(escape_attr("\"x\"\n"), "&quot;x&quot;&#10;");
    }

    #[test]
    fn all_five_predefined_entities_resolve() {
        assert_eq!(predefined_entity("lt"), Some("<"));
        assert_eq!(predefined_entity("gt"), Some(">"));
        assert_eq!(predefined_entity("amp"), Some("&"));
        assert_eq!(predefined_entity("apos"), Some("'"));
        assert_eq!(predefined_entity("quot"), Some("\""));
        assert_eq!(predefined_entity("nbsp"), None);
    }

    #[test]
    fn decodes_decimal_and_hex_char_refs() {
        assert_eq!(decode_char_ref("65"), Some('A'));
        assert_eq!(decode_char_ref("x41"), Some('A'));
        assert_eq!(decode_char_ref("X41"), Some('A'));
        assert_eq!(decode_char_ref("x20AC"), Some('€'));
    }

    #[test]
    fn rejects_invalid_char_refs() {
        assert_eq!(decode_char_ref(""), None);
        assert_eq!(decode_char_ref("x"), None);
        assert_eq!(decode_char_ref("zz"), None);
        assert_eq!(decode_char_ref("0"), None); // NUL is not an XML char
        assert_eq!(decode_char_ref("x1F"), None); // control char
        assert_eq!(decode_char_ref("xD800"), None); // surrogate
        assert_eq!(decode_char_ref("x110000"), None); // out of range
    }

    #[test]
    fn tab_cr_lf_are_xml_chars_but_other_controls_are_not() {
        assert!(is_xml_char('\t') && is_xml_char('\r') && is_xml_char('\n'));
        assert!(!is_xml_char('\u{0}') && !is_xml_char('\u{B}') && !is_xml_char('\u{1F}'));
    }
}
