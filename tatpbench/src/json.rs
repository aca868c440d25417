//! Minimal JSON writer (the repository has no `serde_json`).

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, written exactly.
    Int(u64),
    /// A measured number; must be finite.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serializes to compact JSON text. Panics on a non-finite number,
    /// which JSON cannot represent and which no metric may take.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            Json::Num(x) => {
                assert!(x.is_finite(), "non-finite number {x} in JSON output");
                // `{:?}` prints the shortest text that reads back as the
                // same f64 and always keeps a decimal point or exponent.
                write!(out, "{x:?}").expect("write to String")
            }
            Json::Str(s) => write_str(s, out),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
    fn renders_the_result_line_shape() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([
                        ("value", Json::Num(0.8127)),
                        ("unit", Json::Str("s".into())),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(
            line.render(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_a_decimal_point() {
        assert_eq!(Json::Num(1.0).render(), "1.0");
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(-2.5e-9).render(), "-2.5e-9");
        assert_eq!(Json::Int(u64::MAX).render(), "18446744073709551615");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::Str("a\"b\\c\nd\u{1}é".into()).render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001é\"");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_numbers_are_refused() {
        Json::Num(f64::NAN).render();
    }
}
