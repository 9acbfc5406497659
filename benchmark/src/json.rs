//! JSON output without a dependency: a value tree and its two renderings.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Whole numbers print without a fraction, so counts stay counts.
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no spaces after separators.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indentation, one member per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity; a measurement that produced one
            // is reported as null rather than as an invalid document.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                // Arrays of scalars stay on one line even when pretty.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                let inner = if scalar { None } else { indent };
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if scalar && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    newline(out, inner, level + 1);
                    item.write(out, inner, level + 1);
                }
                if !items.is_empty() {
                    newline(out, inner, level);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, level + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                if !pairs.is_empty() {
                    newline(out, indent, level);
                }
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_escapes() {
        let v = Json::obj([
            ("a", Json::Int(3)),
            ("b", Json::Num(1.5)),
            ("c", Json::str("x\"y\n")),
            ("d", Json::Arr(vec![Json::Bool(true), Json::Int(0)])),
            ("e", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.compact(),
            r#"{"a":3,"b":1.5,"c":"x\"y\n","d":[true,0],"e":null}"#
        );
    }

    #[test]
    fn pretty_keeps_scalar_arrays_on_one_line() {
        let v = Json::obj([("k", Json::Arr(vec![Json::str("a"), Json::str("b")]))]);
        assert_eq!(v.pretty(), "{\n  \"k\": [\"a\", \"b\"]\n}\n");
    }
}
