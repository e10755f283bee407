//! A minimal JSON value and writer (the benchmark has no serde).
//!
//! Objects keep insertion order, so output is stable run to run. Floats
//! are written with Rust's shortest round-trip formatting — every digit
//! measured, nothing rounded.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn uint(v: u64) -> Json {
        i64::try_from(v).map_or(Json::Num(v as f64), Json::Int)
    }

    /// Compact single-line form.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented form with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => write!(out, "{v}").expect("write to String"),
            // JSON has no NaN or infinity; a metric that is one is a bug
            // upstream, and `null` makes the consumer fail loudly.
            Json::Num(v) if !v.is_finite() => out.push_str("null"),
            Json::Num(v) => write!(out, "{v:?}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
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
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_form_escapes_and_keeps_order() {
        let v = Json::obj([
            ("b", Json::Bool(true)),
            (
                "a",
                Json::Arr(vec![Json::Int(-3), Json::Num(1.5), Json::Null]),
            ),
            ("s", Json::str("q\"\\\n\u{1}é")),
            ("e", Json::Obj(vec![])),
        ]);
        assert_eq!(
            v.compact(),
            r#"{"b":true,"a":[-3,1.5,null],"s":"q\"\\\n\u0001é","e":{}}"#
        );
    }

    #[test]
    fn floats_keep_every_digit_and_stay_floats() {
        assert_eq!(Json::Num(1.2034).compact(), "1.2034");
        assert_eq!(Json::Num(2.0).compact(), "2.0");
        assert_eq!(Json::Num(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::uint(u64::MAX).compact(), "1.8446744073709552e19");
        assert_eq!(Json::uint(7).compact(), "7");
    }

    #[test]
    fn pretty_form_indents_nested_values() {
        let v = Json::obj([(
            "k",
            Json::Arr(vec![Json::Int(1), Json::obj([("x", Json::Null)])]),
        )]);
        assert_eq!(
            v.pretty(),
            "{\n  \"k\": [\n    1,\n    {\n      \"x\": null\n    }\n  ]\n}\n"
        );
    }
}
