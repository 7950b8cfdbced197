//! Minimal hand-rolled JSON writer and reader for the trace dump (no
//! dependencies).
//!
//! The emitted document has the shape
//!
//! ```json
//! {
//!   "version": 3,
//!   "counters": {"pool.chunks_executed": 128, ...,
//!                "trace.events.recorded": 12, "trace.events.dropped": 0},
//!   "histograms": {"table.join": {"count": 2, "sum_ns": ..., "min_ns": ...,
//!                                 "max_ns": ..., "buckets": [...]}, ...},
//!   "events": [{"seq": 0, "name": "table.select", "tid": 1, "span_id": 3,
//!               "parent_id": 0, "depth": 0, "wall_ns": ..., "rows_in": ...,
//!               "rows_out": ..., "mem_delta": ..., "mem_peak_delta": ...},
//!              ...],
//!   "threads": [{"tid": 1, "name": "main", "events": 12, "dropped": 0},
//!               ...],
//!   "mem": {"current_bytes": ..., "peak_bytes": ...}
//! }
//! ```
//!
//! `events` lists the timelines' completed spans in `seq` order.
//!
//! [`parse`] is the matching reader: a small recursive-descent JSON parser
//! (strings with escapes, f64 numbers, arrays, objects) used by the test
//! suite to validate this dump structurally instead of by substring
//! matching.

use std::fmt::Write;

/// Escapes `s` into `out` as a JSON string literal (with quotes).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes the full trace state; see the module docs for the schema.
pub(crate) fn trace_to_json() -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\n  \"version\": 3,\n  \"counters\": {");
    let counters = crate::counters_snapshot();
    for c in counters.iter() {
        out.push_str("\n    ");
        write_escaped(&mut out, c.name);
        write!(out, ": {},", c.value).unwrap();
    }
    // The flight recorder's tallies ride along as synthetic counters so
    // ring overflow is visible in every dump.
    write!(
        out,
        "\n    \"trace.events.recorded\": {},\n    \"trace.events.dropped\": {}",
        crate::events::total_recorded(),
        crate::events::total_dropped()
    )
    .unwrap();
    out.push_str("\n  },\n  \"histograms\": {");
    let hists = crate::histograms_snapshot();
    for (i, h) in hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write_escaped(&mut out, h.name);
        write!(
            out,
            ": {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"buckets\": [",
            h.count, h.sum_ns, h.min_ns, h.max_ns
        )
        .unwrap();
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write!(out, "{b}").unwrap();
        }
        out.push_str("]}");
    }
    out.push_str("\n  },\n  \"events\": [");
    let timelines = crate::timelines_snapshot();
    for (i, (tid, e)) in crate::events::completed(&timelines).into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"seq\": ");
        write!(out, "{}, \"name\": ", e.seq).unwrap();
        write_escaped(&mut out, e.name);
        write!(
            out,
            ", \"tid\": {tid}, \"span_id\": {}, \"parent_id\": {}, \"depth\": {}, \
             \"wall_ns\": {}, \"rows_in\": {}, \"rows_out\": {}, \
             \"mem_delta\": {}, \"mem_peak_delta\": {}}}",
            e.span_id,
            e.parent_id,
            e.depth,
            e.t_ns.saturating_sub(e.start_ns),
            e.rows_in,
            e.rows_out,
            e.mem_delta,
            e.mem_peak_delta
        )
        .unwrap();
    }
    out.push_str("\n  ],\n  \"threads\": [");
    for (i, tl) in timelines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"tid\": ");
        write!(out, "{}, \"name\": ", tl.tid).unwrap();
        write_escaped(&mut out, &tl.thread_name);
        write!(
            out,
            ", \"events\": {}, \"dropped\": {}}}",
            tl.events.len(),
            tl.dropped
        )
        .unwrap();
    }
    write!(
        out,
        "\n  ],\n  \"mem\": {{\"current_bytes\": {}, \"peak_bytes\": {}}}\n}}\n",
        crate::mem::current_bytes(),
        crate::mem::peak_bytes()
    )
    .unwrap();
    out
}

/// A parsed JSON value, produced by [`parse`].
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; trace dumps stay well within the
    /// 2^53 exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64` if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses a JSON document. Errors carry a byte offset and a short reason.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Copy runs of plain bytes in one shot.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            if start < self.pos {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid utf-8 at byte {start}"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xd800) << 10)
                                        + low.checked_sub(0xdc00).ok_or_else(|| {
                                            format!("bad low surrogate at byte {}", self.pos)
                                        })?;
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            s.push(c.ok_or_else(|| {
                                format!("invalid \\u escape at byte {}", self.pos)
                            })?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(format!("truncated \\u escape at byte {}", self.pos));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| format!("bad hex at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_controls_and_quotes() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn dump_contains_recorded_metrics() {
        let _l = crate::test_lock();
        crate::set_enabled(true);
        crate::reset();
        crate::counter("test.json_counter").add(11);
        {
            let mut sp = crate::span!("test.json_span");
            sp.rows_in(4);
            sp.rows_out(2);
        }
        let j = crate::to_json();
        assert!(j.contains("\"version\": 3"), "{j}");
        assert!(j.contains("\"test.json_counter\": 11"), "{j}");
        assert!(j.contains("\"test.json_span\""), "{j}");
        assert!(j.contains("\"rows_in\": 4"), "{j}");
        assert!(j.contains("\"mem\""), "{j}");
        assert!(j.contains("\"trace.events.recorded\""), "{j}");
        assert!(j.contains("\"trace.events.dropped\""), "{j}");
        // The dump round-trips through the hand-rolled reader.
        let d = parse(&j).expect("dump parses");
        assert_eq!(d.get("version").and_then(JsonValue::as_u64), Some(3));
        let events = d.get("events").and_then(JsonValue::as_arr).expect("events");
        let span = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("test.json_span"))
            .expect("span event present");
        assert_eq!(span.get("rows_in").and_then(JsonValue::as_u64), Some(4));
        assert!(span.get("tid").and_then(JsonValue::as_u64).unwrap() >= 1);
        assert!(span.get("span_id").and_then(JsonValue::as_u64).unwrap() >= 1);
        let threads = d
            .get("threads")
            .and_then(JsonValue::as_arr)
            .expect("threads");
        assert!(!threads.is_empty(), "{j}");
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v = parse(
            r#"{"a": [1, -2.5, 1e3], "s": "x\"y\\z\nA", "t": true, "f": false, "n": null, "o": {"k": 7}}"#,
        )
        .expect("parses");
        assert_eq!(
            v.get("a").and_then(JsonValue::as_arr).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1],
            JsonValue::Num(-2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2],
            JsonValue::Num(1000.0)
        );
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\"y\\z\nA"));
        assert_eq!(v.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("f"), Some(&JsonValue::Bool(false)));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("o")
                .and_then(|o| o.get("k"))
                .and_then(JsonValue::as_u64),
            Some(7)
        );
        // Escaped surrogate pair decodes to one scalar.
        let emoji = parse("\"\\ud83d\\ude00\"").expect("surrogate pair");
        assert_eq!(emoji, JsonValue::Str("😀".to_owned()));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err(), "trailing data");
        assert!(parse(r#""\q""#).is_err(), "bad escape");
    }
}
