//! The workspace's one JSON writer and parser, hand-rolled with no
//! external dependencies and no serde.
//!
//! [`ObjWriter`] and [`ArrWriter`] write nested objects and arrays. Each
//! container takes a [`Layout`], a fixed property of the document being
//! written, so every committed artifact keeps its exact bytes. [`parse`]
//! reads any of them back into a [`JsonValue`], and
//! [`JsonValue::to_json`] re-renders one compactly.

use std::fmt::Write as _;

/// Escapes `s` into `out` as JSON string contents (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Writes an `f64` the way JSON expects (no NaN/Inf; those become `null`).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Ensure a decimal point or exponent so the value reads back as a
        // float, matching what a JSON emitter is expected to produce.
        let s = format!("{v}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// How a container lays out its members. Line layouts indent members two
/// spaces per enclosing container, so a container's own nesting depth
/// fixes its indent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":[2,3]}`: one-line records (JSONL traces, journals,
    /// ledgers, flight dumps, HTTP bodies).
    Compact,
    /// `{"a": 1, "b": [2, 3]}`: inline values inside multi-line documents.
    Spaced,
    /// One `"a": 1` member per line; the closing bracket on a line of its
    /// own, even when there are no members.
    Lines,
    /// One `"a":1` member per line, with the closing bracket right after
    /// the last member: the outer object of `grinch-bench-report/v1`.
    Stacked,
}

/// The state both writers share: the buffer, this container's layout and
/// depth, and whether a member has been written yet.
struct Members {
    buf: String,
    layout: Layout,
    depth: usize,
    first: bool,
}

impl Members {
    fn open(mut buf: String, layout: Layout, depth: usize, bracket: char) -> Self {
        buf.push(bracket);
        Self {
            buf,
            layout,
            depth,
            first: true,
        }
    }

    fn newline(&mut self, depth: usize) {
        self.buf.push('\n');
        for _ in 0..depth {
            self.buf.push_str("  ");
        }
    }

    /// Starts the next member (separator, line break, key) and returns the
    /// buffer its value goes into.
    fn next(&mut self, key: Option<&str>) -> &mut String {
        if !self.first {
            self.buf.push_str(if self.layout == Layout::Spaced {
                ", "
            } else {
                ","
            });
        }
        if matches!(self.layout, Layout::Lines | Layout::Stacked) {
            self.newline(self.depth + 1);
        }
        if let Some(key) = key {
            write_str(&mut self.buf, key);
            self.buf.push_str(match self.layout {
                Layout::Compact | Layout::Stacked => ":",
                Layout::Spaced | Layout::Lines => ": ",
            });
        }
        self.first = false;
        &mut self.buf
    }

    fn close(mut self, bracket: char) -> String {
        if self.layout == Layout::Lines {
            self.newline(self.depth);
        }
        self.buf.push(bracket);
        self.buf
    }

    /// Writes a nested object as the next member. The child owns the
    /// buffer while `fill` runs.
    fn obj(&mut self, key: Option<&str>, layout: Layout, fill: impl FnOnce(&mut ObjWriter)) {
        self.next(key);
        let buf = std::mem::take(&mut self.buf);
        let mut child = ObjWriter(Members::open(buf, layout, self.depth + 1, '{'));
        fill(&mut child);
        self.buf = child.0.close('}');
    }

    /// Writes a nested array as the next member, like [`Members::obj`].
    fn arr(&mut self, key: Option<&str>, layout: Layout, fill: impl FnOnce(&mut ArrWriter)) {
        self.next(key);
        let buf = std::mem::take(&mut self.buf);
        let mut child = ArrWriter(Members::open(buf, layout, self.depth + 1, '['));
        fill(&mut child);
        self.buf = child.0.close(']');
    }
}

/// Incremental writer for one JSON object, single-line by default.
pub struct ObjWriter(Members);

impl ObjWriter {
    /// Opens a compact object.
    pub fn new() -> Self {
        Self::with_layout(Layout::Compact)
    }

    /// Opens an object laid out as `layout`.
    pub fn with_layout(layout: Layout) -> Self {
        Self(Members::open(String::new(), layout, 0, '{'))
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        write_str(self.0.next(Some(k)), v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        let _ = write!(self.0.next(Some(k)), "{v}");
        self
    }

    /// Adds a signed integer field.
    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        let _ = write!(self.0.next(Some(k)), "{v}");
        self
    }

    /// Adds a float field.
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        write_f64(self.0.next(Some(k)), v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.0
            .next(Some(k))
            .push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a null field.
    pub fn null(&mut self, k: &str) -> &mut Self {
        self.0.next(Some(k)).push_str("null");
        self
    }

    /// Adds a pre-rendered JSON value verbatim.
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.0.next(Some(k)).push_str(json);
        self
    }

    /// Adds a nested object laid out as `layout`, filled by `fill`.
    pub fn obj(&mut self, k: &str, layout: Layout, fill: impl FnOnce(&mut ObjWriter)) -> &mut Self {
        self.0.obj(Some(k), layout, fill);
        self
    }

    /// Adds a nested array laid out as `layout`, filled by `fill`.
    pub fn arr(&mut self, k: &str, layout: Layout, fill: impl FnOnce(&mut ArrWriter)) -> &mut Self {
        self.0.arr(Some(k), layout, fill);
        self
    }

    /// Closes the object and returns it (no trailing newline).
    pub fn finish(self) -> String {
        self.0.close('}')
    }
}

impl Default for ObjWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Writer for the items of one array, handed out by [`ObjWriter::arr`]
/// and [`ArrWriter::arr`].
pub struct ArrWriter(Members);

impl ArrWriter {
    /// Appends a string.
    pub fn str(&mut self, v: &str) {
        write_str(self.0.next(None), v);
    }

    /// Appends an unsigned integer.
    pub fn u64(&mut self, v: u64) {
        let _ = write!(self.0.next(None), "{v}");
    }

    /// Appends a float.
    pub fn f64(&mut self, v: f64) {
        write_f64(self.0.next(None), v);
    }

    /// Appends a pre-rendered JSON value verbatim.
    pub fn raw(&mut self, json: &str) {
        self.0.next(None).push_str(json);
    }

    /// Appends an object laid out as `layout`, filled by `fill`.
    pub fn obj(&mut self, layout: Layout, fill: impl FnOnce(&mut ObjWriter)) {
        self.0.obj(None, layout, fill);
    }

    /// Appends an array laid out as `layout`, filled by `fill`.
    pub fn arr(&mut self, layout: Layout, fill: impl FnOnce(&mut ArrWriter)) {
        self.0.arr(None, layout, fill);
    }
}

/// A parsed JSON value. Integer literals (no `.` or exponent) keep their
/// exact value in [`JsonValue::Int`] — up to the `i128`/`u128` range the
/// histogram sums need — so a parsed snapshot re-emits byte-identically;
/// float literals stay `f64` in [`JsonValue::Num`].
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A JSON number written as a float (`1.5`, `3.0`, `1e9`).
    Num(f64),
    /// A JSON number written as an integer literal, kept exact.
    /// Negative integers use the sign of the `i128`; non-negative values
    /// up to `u128::MAX` are stored as `i128` when they fit, otherwise in
    /// the dedicated [`JsonValue::BigUint`] variant.
    Int(i128),
    /// A non-negative integer literal beyond `i128::MAX` (the JSONL sink
    /// emits histogram sums as raw `u128` digits).
    BigUint(u128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Key order is preserved (span fields round-trip through
    /// a parse → re-emit cycle byte-identically); lookups are linear,
    /// which is fine for the handful of keys a telemetry record carries.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one (integer literals convert,
    /// possibly losing precision beyond 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::BigUint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            JsonValue::BigUint(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a non-negative 128-bit integer, if it is a whole
    /// number (exact for integer literals of any magnitude the sinks emit).
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u128),
            JsonValue::Int(n) => u128::try_from(*n).ok(),
            JsonValue::BigUint(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            JsonValue::Int(n) => i64::try_from(*n).ok(),
            JsonValue::BigUint(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Renders the value as compact JSON. Integer literals and key order
    /// survived the parse, so a compact document re-renders byte-identically.
    pub fn to_json(&self) -> String {
        // A bracketless container: its one member is the whole document.
        let mut root = Members {
            buf: String::new(),
            layout: Layout::Compact,
            depth: 0,
            first: true,
        };
        self.write(&mut root, None);
        root.buf
    }

    fn write(&self, m: &mut Members, key: Option<&str>) {
        match self {
            JsonValue::Null => m.next(key).push_str("null"),
            JsonValue::Bool(b) => m.next(key).push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_f64(m.next(key), *n),
            JsonValue::Int(n) => {
                let _ = write!(m.next(key), "{n}");
            }
            JsonValue::BigUint(n) => {
                let _ = write!(m.next(key), "{n}");
            }
            JsonValue::Str(s) => write_str(m.next(key), s),
            JsonValue::Arr(items) => m.arr(key, Layout::Compact, |a| {
                items.iter().for_each(|v| v.write(&mut a.0, None));
            }),
            JsonValue::Obj(pairs) => m.obj(key, Layout::Compact, |o| {
                pairs.iter().for_each(|(k, v)| v.write(&mut o.0, Some(k)));
            }),
        }
    }
}

/// The deepest nesting [`parse`] accepts. The deepest document the
/// workspace writes is SARIF, 9 levels; the bound keeps the parser's
/// recursion to a few KiB of stack, so a hostile `[[[[...` body is a
/// parse error rather than a stack overflow on the serve thread.
pub const MAX_DEPTH: usize = 32;

/// Parses one JSON document. Returns `None` on any syntax error,
/// trailing garbage or nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Option<JsonValue> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    (p.pos == p.bytes.len()).then_some(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.eat("null").map(|_| JsonValue::Null),
            b't' => self.eat("true").map(|_| JsonValue::Bool(true)),
            b'f' => self.eat("false").map(|_| JsonValue::Bool(false)),
            b'"' => self.string().map(JsonValue::Str),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            _ => self.number(),
        }
    }

    /// Parses one container a level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Option<JsonValue>) -> Option<JsonValue> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Option<String> {
        if self.bump()? != b'"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = self.bytes.get(self.pos..self.pos + 4)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        self.pos += 4;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return None,
                },
                b => {
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        // Decode the character this lead byte starts, from
                        // its own bytes only: the whole string stays
                        // linear in its length.
                        let c = decode_char(&self.bytes[self.pos - 1..])?;
                        self.pos += c.len_utf8() - 1;
                        out.push(c);
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if !is_float {
            // Integer literal: keep it exact so `u64` ids and `u128`
            // histogram sums survive a parse → re-emit round trip.
            if let Ok(n) = s.parse::<i128>() {
                return Some(JsonValue::Int(n));
            }
            if let Ok(n) = s.parse::<u128>() {
                return Some(JsonValue::BigUint(n));
            }
        }
        s.parse::<f64>().ok().map(JsonValue::Num)
    }

    fn array(&mut self) -> Option<JsonValue> {
        self.bump()?; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Some(JsonValue::Arr(items)),
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<JsonValue> {
        self.bump()?; // '{'
        let mut map = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bump()? != b':' {
                return None;
            }
            let val = self.value()?;
            map.push((key, val));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Some(JsonValue::Obj(map)),
                _ => return None,
            }
        }
    }
}

/// The UTF-8 character starting at `bytes[0]`, read from its own bytes (at
/// most four, as its lead byte says) and never from the rest of `bytes`.
fn decode_char(bytes: &[u8]) -> Option<char> {
    let width = match bytes.first()? {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf7 => 4,
        _ => return None,
    };
    std::str::from_utf8(bytes.get(..width)?)
        .ok()?
        .chars()
        .next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_ascii_strings_decode_each_character_from_its_own_bytes() {
        // Every character decodes with an invalid byte right behind the
        // string: a decoder that validated the rest of the input (the
        // quadratic one) would refuse each of them, so each decode examined
        // at most the character's own two bytes.
        let mut bytes = "é".repeat(32 * 1024).into_bytes();
        bytes.push(0xff);
        let chars = (0..bytes.len() - 1)
            .step_by(2)
            .filter(|&i| decode_char(&bytes[i..]) == Some('é'))
            .count();
        assert_eq!(chars, 32 * 1024);
        for (lead, c) in [("\u{7f}", '\u{7f}'), ("€", '€'), ("𝄞", '𝄞')] {
            let mut one = lead.as_bytes().to_vec();
            one.push(0xff);
            assert_eq!(decode_char(&one), Some(c));
        }
        // A continuation byte starts no character, and a cut one is refused.
        assert_eq!(decode_char(&[0xa9]), None);
        assert_eq!(decode_char(&"€".as_bytes()[..2]), None);
        // A 64 KiB string of them parses, whole.
        let text = "é".repeat(32 * 1024);
        let parsed = parse(&format!("\"{text}\"")).expect("parses");
        assert_eq!(parsed.as_str(), Some(text.as_str()));
    }

    #[test]
    fn writer_escapes_and_parser_unescapes() {
        let mut w = ObjWriter::new();
        w.str("name", "line\n\"quoted\"\\tab\t")
            .u64("n", 42)
            .i64("neg", -7)
            .f64("f", 1.5)
            .bool("ok", true)
            .null("missing");
        let line = w.finish();
        let v = parse(&line).expect("parses");
        assert_eq!(
            v.get("name").unwrap().as_str(),
            Some("line\n\"quoted\"\\tab\t")
        );
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("neg").unwrap().as_f64(), Some(-7.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), Some(&JsonValue::Null));
    }

    #[test]
    fn parser_handles_nesting_and_arrays() {
        let v = parse(r#"{"a": [1, 2.5, "x", {"b": false}], "c": {}}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            JsonValue::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        };
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[3].get("b"), Some(&JsonValue::Bool(false)));
        assert_eq!(v.get("c"), Some(&JsonValue::Obj(Default::default())));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert_eq!(parse("{"), None);
        assert_eq!(parse("{} extra"), None);
        assert_eq!(parse(r#"{"a"}"#), None);
        assert_eq!(parse(""), None);
    }

    #[test]
    fn layouts_nest_with_depth_indents() {
        let mut w = ObjWriter::with_layout(Layout::Lines);
        w.str("k", "v")
            .arr("lines", Layout::Lines, |a| {
                a.obj(Layout::Spaced, |o| {
                    o.u64("n", 1).arr("xs", Layout::Spaced, |a| {
                        a.f64(0.5);
                        a.str("s");
                    });
                });
                a.raw("null");
            })
            .arr("none", Layout::Lines, |_| {})
            .obj("compact", Layout::Compact, |o| {
                o.bool("t", true).null("z");
            });
        assert_eq!(
            w.finish(),
            concat!(
                "{\n",
                "  \"k\": \"v\",\n",
                "  \"lines\": [\n",
                "    {\"n\": 1, \"xs\": [0.5, \"s\"]},\n",
                "    null\n",
                "  ],\n",
                "  \"none\": [\n",
                "  ],\n",
                "  \"compact\": {\"t\":true,\"z\":null}\n",
                "}",
            )
        );
        let mut w = ObjWriter::with_layout(Layout::Stacked);
        w.str("a", "b").obj("m", Layout::Lines, |o| {
            o.f64("x", 1.0);
        });
        assert_eq!(
            w.finish(),
            "{\n  \"a\":\"b\",\n  \"m\":{\n    \"x\": 1.0\n  }}"
        );
    }

    #[test]
    fn parsed_values_re_render_byte_identically() {
        let line = r#"{"a":[1,-2,3.5,"x\n",true,null,{}],"b":{"c":[]},"big":340282366920938463463374607431768211455}"#;
        assert_eq!(parse(line).unwrap().to_json(), line);
        assert_eq!(JsonValue::Str("q\"".into()).to_json(), r#""q\"""#);
    }

    #[test]
    fn nesting_beyond_the_bound_is_rejected_without_overflow() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_some());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&over), None);
        assert_eq!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)), None);
        // A body that fits the serve endpoint's 64 KiB limit, parsed on a
        // thread with the default 2 MiB stack.
        let hostile = "[".repeat(65_000);
        let parsed = std::thread::spawn(move || parse(&hostile))
            .join()
            .expect("no stack overflow");
        assert_eq!(parsed, None);
    }

    #[test]
    fn floats_render_with_decimal_point() {
        let mut w = ObjWriter::new();
        w.f64("v", 3.0);
        assert_eq!(w.finish(), r#"{"v":3.0}"#);
    }
}
