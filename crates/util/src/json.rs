//! A minimal JSON value type, serializer and parser.
//!
//! Experiment records and bench results are written as JSON for
//! EXPERIMENTS.md; the `qse serve` protocol additionally *reads*
//! line-delimited JSON requests, so this module carries both
//! directions. Types opt in by implementing [`ToJson`] (build a
//! [`Json`] tree), and [`Json::pretty`] renders it with the same
//! 2-space indentation `serde_json::to_string_pretty` produced, so
//! existing `results/*.json` diffs stay readable. [`Json::parse`] is a
//! recursive-descent reader with a depth cap, returning a typed
//! [`JsonError`] with a byte offset on malformed input.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A signed integer (serialised without a decimal point).
    Int(i64),
    /// An unsigned integer beyond `i64` range.
    UInt(u64),
    /// A double; non-finite values serialise as `null` (JSON has no NaN).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong, and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap for [`Json::parse`]: deep enough for any protocol
/// message, shallow enough that adversarial `[[[[…` input cannot blow
/// the stack.
pub const MAX_PARSE_DEPTH: usize = 64;

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses one JSON document (surrounding whitespace allowed, nothing
    /// else may follow).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A non-negative integer view of this value (`Int` ≥ 0, `UInt`, or
    /// a `Num` that is exactly a whole number in `u64` range).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            Json::UInt(u) => Some(u),
            Json::Num(n) if n >= 0.0 && n <= u64::MAX as f64 && n.fract() == 0.0 => Some(n as u64),
            _ => None,
        }
    }

    /// A float view of any numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Pretty rendering with 2-space indentation and a trailing newline
    /// omitted (matching `serde_json::to_string_pretty`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest-roundtrip Display; force a decimal
                    // point so the value re-reads as a float.
                    let s = format!("{n}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                write_escaped(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1)
            }),
        }
    }
}

/// Compact one-line rendering; `to_string()` returns it.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.error("unterminated escape"));
                    };
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                        }
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                // Multi-byte UTF-8: the input is a &str, so continuation
                // bytes are valid; copy them through verbatim.
                b if b < 0x20 => return Err(self.error("raw control character in string")),
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Re-decode the full character from the source slice.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.error(format!("malformed number `{text}`")))
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Conversion into a [`Json`] tree — the workspace's `Serialize`.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! impl_tojson_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                match i64::try_from(*self) {
                    Ok(i) => Json::Int(i),
                    Err(_) => Json::UInt(*self as u64),
                }
            }
        }
    )*};
}

impl_tojson_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-7).to_string(), "-7");
        assert_eq!(Json::UInt(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(3.0).to_string(), "3.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn floats_roundtrip_shortest() {
        for v in [0.1, 1e-300, 123456.789, -0.007, 1e21] {
            let s = Json::Num(v).to_string();
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\n\t\u{1}".into()).to_string(),
            r#""a\"b\\c\n\t\u0001""#
        );
    }

    #[test]
    fn compact_nesting() {
        let j = Json::object([
            ("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("name", Json::Str("qft".into())),
        ]);
        assert_eq!(j.to_string(), r#"{"xs":[1,2],"name":"qft"}"#);
    }

    #[test]
    fn pretty_matches_serde_json_shape() {
        let j = Json::object([("x", Json::Int(7))]);
        assert_eq!(j.pretty(), "{\n  \"x\": 7\n}");
        let arr = Json::Arr(vec![Json::object([("a", Json::Bool(false))])]);
        assert_eq!(arr.pretty(), "[\n  {\n    \"a\": false\n  }\n]");
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::object::<&str, _>([]).pretty(), "{}");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(Json::parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(Json::parse("-1e3").unwrap(), Json::Num(-1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_structures_and_accessors() {
        let j = Json::parse(
            r#"{"op":"submit","n":16,"gates":[["h",0],["cphase",0,1,0.5]],"deep":{"x":null}}"#,
        )
        .unwrap();
        assert_eq!(j.get("op").and_then(Json::as_str), Some("submit"));
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(16));
        let gates = j.get("gates").and_then(Json::as_arr).unwrap();
        assert_eq!(gates.len(), 2);
        assert_eq!(gates[1].as_arr().unwrap()[3].as_f64(), Some(0.5));
        assert_eq!(j.get("deep").unwrap().get("x"), Some(&Json::Null));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Int(3).as_f64(), Some(3.0));
        assert_eq!(Json::Num(4.0).as_u64(), Some(4));
        assert_eq!(Json::Num(4.5).as_u64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(
            j.get("deep").and_then(Json::as_obj).map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn parse_roundtrips_serializer_output() {
        let original = Json::object([
            ("name", Json::Str("qft \"blocked\"\n".into())),
            ("sizes", Json::Arr(vec![Json::Int(12), Json::Int(-3)])),
            ("rate", Json::Num(0.125)),
            ("big", Json::UInt(u64::MAX)),
            ("none", Json::Null),
            ("ok", Json::Bool(false)),
            ("unicode", Json::Str("π ≈ 3.14159".into())),
        ]);
        assert_eq!(Json::parse(&original.to_string()).unwrap(), original);
        assert_eq!(Json::parse(&original.pretty()).unwrap(), original);
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\n\t\u0041\u00e9""#).unwrap(),
            Json::Str("a\"b\\c\n\tAé".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[1 2]",
            "\"\\q\"",
            "\"\\ud83d\"",
            "--1",
            "1e",
            "{1:2}",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
        // Depth cap: 100 nested arrays must be rejected, not overflow.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(30) + &"]".repeat(30);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn tojson_impls_compose() {
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(v.to_json().to_string(), "[1,2,3]");
        let m: BTreeMap<u64, usize> = [(3u64, 10usize), (1, 20)].into();
        assert_eq!(m.to_json().to_string(), r#"{"1":20,"3":10}"#);
        assert_eq!(None::<f64>.to_json().to_string(), "null");
        assert_eq!(Some("hi").to_json().to_string(), "\"hi\"");
        assert_eq!(u64::MAX.to_json().to_string(), "18446744073709551615");
    }
}
