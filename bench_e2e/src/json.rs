//! A JSON value and its writer — the workspace is hermetic, so there is no
//! serde; reading back is done with `ringo_core::trace::json::parse`.

use ringo_core::trace::json::write_escaped;
use std::fmt::Write;

/// A JSON document under construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A `{"value": .., "unit": ..}` pair, the shape of every metric in the
    /// final result line.
    pub fn metric(value: f64, unit: &str) -> Self {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    }

    /// Serialises on one line. Numbers keep every digit `f64` holds; a
    /// non-finite number, which JSON cannot carry, is written as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_core::trace::json::{parse, JsonValue};

    #[test]
    fn round_trips_through_the_trace_parser() {
        let doc = Json::obj([
            (
                "name",
                Json::str("tab\there \"quoted\" back\\slash\nline \u{1}"),
            ),
            ("n", Json::Num(42.0)),
            ("t", Json::Num(0.123_456_789_012_345_68)),
            ("neg", Json::Num(-1.5e-7)),
            ("nan", Json::Num(f64::NAN)),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
            ),
            ("nested", Json::obj([("m", Json::metric(1.25, "ms"))])),
        ]);
        let parsed = parse(&doc.render()).expect("writer output parses");
        assert_eq!(
            parsed.get("name").and_then(JsonValue::as_str),
            Some("tab\there \"quoted\" back\\slash\nline \u{1}")
        );
        assert_eq!(parsed.get("n").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(
            parsed.get("t").and_then(JsonValue::as_f64),
            Some(0.123_456_789_012_345_68)
        );
        assert_eq!(parsed.get("neg").and_then(JsonValue::as_f64), Some(-1.5e-7));
        assert_eq!(parsed.get("nan"), Some(&JsonValue::Null));
        assert_eq!(
            parsed.get("flags").and_then(JsonValue::as_arr),
            Some(
                &[
                    JsonValue::Bool(true),
                    JsonValue::Bool(false),
                    JsonValue::Null
                ][..]
            )
        );
        let m = parsed
            .get("nested")
            .and_then(|n| n.get("m"))
            .expect("nested metric");
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("ms"));
        assert!(!doc.render().contains('\n'), "one line");
    }
}
