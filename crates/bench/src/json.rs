//! A minimal JSON document builder and parser for metrics export.
//!
//! The workspace is dependency-free, so instead of serde this provides the
//! few value shapes the reports need, with RFC 8259 string escaping and
//! stable (insertion-order) object keys. [`Json::parse`] is the matching
//! reader — just enough of RFC 8259 for `repro analyze` to load a report
//! back and validate its schema before trusting any field.

use std::fmt;

/// Version stamped into every report as `schema_version`, alongside the
/// report-specific `schema` name. Bump it when a report's shape changes
/// incompatibly; `repro analyze` refuses versions it does not know.
///
/// v2: the traffic report gained `l1i_cross_misses` (run- and
/// regime-level) when the driver moved from a synthetic FCFS queue onto
/// the multi-query server's admission path.
pub const SCHEMA_VERSION: u64 = 2;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (counter values; kept exact, never via f64).
    U64(u64),
    /// A floating-point number; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parse a JSON document. Numbers that are non-negative integers come
    /// back as [`Json::U64`]; everything else numeric becomes
    /// [`Json::F64`]. Errors carry a byte offset and a short reason.
    pub fn parse(text: &str) -> Result<Json, String> {
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

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly enough for checks).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by the writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar, sized by its lead byte.
                    // Validating only those bytes keeps parsing linear
                    // (re-validating the rest of the input per character
                    // made it quadratic).
                    let len = match lead {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let scalar = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| format!("bad utf-8 at byte {}", self.pos))?;
                    out.push_str(scalar);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if integral && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.pretty(), "null\n");
        assert_eq!(Json::Bool(true).pretty(), "true\n");
        assert_eq!(Json::U64(u64::MAX).pretty(), "18446744073709551615\n");
        assert_eq!(Json::F64(1.5).pretty(), "1.5\n");
        assert_eq!(Json::F64(f64::NAN).pretty(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::str("a\"b\\c\nd\u{1}").pretty();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::str("bufferdb-modes/v1")),
            ("schema_version".into(), Json::U64(SCHEMA_VERSION)),
            ("neg".into(), Json::F64(-2.5)),
            ("flag".into(), Json::Bool(false)),
            ("none".into(), Json::Null),
            (
                "arr".into(),
                Json::Arr(vec![Json::U64(1), Json::str("a\"b\nc"), Json::Obj(vec![])]),
            ),
        ]);
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("bufferdb-modes/v1")
        );
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(parsed.get("neg").and_then(Json::as_f64), Some(-2.5));
        assert_eq!(
            parsed.get("arr").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nulll",
            "--3",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_handles_escapes_and_number_shapes() {
        let v =
            Json::parse("{\"s\":\"a\\u0041\\n\",\"big\":18446744073709551615,\"e\":1e3}").unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("aA\n"));
        assert_eq!(v.get("big").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("e"), Some(&Json::F64(1000.0)));
    }

    /// `Parser::string` used to re-validate the whole remaining input for
    /// every character: 4 MB of strings took minutes. Linear parsing takes
    /// well under a second even unoptimized.
    #[test]
    fn parses_megabytes_of_strings_and_round_trips_non_ascii() {
        let text = "naïve café — 指令缓存 🚀 \"quoted\" \\ tab\t";
        let doc = Json::Arr(
            (0..80_000)
                .map(|i| Json::str(format!("{i} {text}")))
                .collect(),
        );
        let rendered = doc.pretty();
        assert!(rendered.len() > 4 << 20, "{} bytes", rendered.len());
        let start = std::time::Instant::now();
        let parsed = Json::parse(&rendered).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "parse took {:?}: quadratic again?",
            start.elapsed()
        );
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.as_arr().and_then(|a| a[7].as_str()),
            Some(format!("7 {text}").as_str())
        );
    }

    #[test]
    fn nested_structure_renders_stably() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("q1")),
            ("rows".into(), Json::U64(4)),
            ("runs".into(), Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.pretty();
        assert!(text.starts_with("{\n  \"name\": \"q1\","), "{text}");
        assert!(text.contains("\"runs\": [\n    1,\n    2\n  ]"), "{text}");
        assert!(text.contains("\"empty\": {}"), "{text}");
        // Keys stay in insertion order.
        let name_pos = text.find("name").unwrap();
        let rows_pos = text.find("rows").unwrap();
        assert!(name_pos < rows_pos);
    }
}
