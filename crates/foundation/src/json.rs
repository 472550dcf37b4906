//! Minimal JSON serialization replacing the `serde` derives.
//!
//! The workspace only ever *emitted* structured data (reports, traces,
//! counter dumps); nothing deserialized. So this module provides a JSON
//! value type, [`Json`], a [`ToJson`] trait the data-holding crates
//! implement by hand (no derive machinery), and a compact writer.
//!
//! Numbers: `u64`/`i64` are kept as integers and written exactly;
//! `f64` is written with enough digits to round-trip ([`fmt_f64`]), and
//! non-finite floats serialize as `null` (JSON has no NaN/Inf).

use std::collections::BTreeMap;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (written without a decimal point).
    Int(i64),
    /// An unsigned integer (counters; written exactly).
    UInt(u64),
    /// A double (written with round-trip precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<I>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (&'static str, Json)>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array by mapping `items` through [`ToJson`].
    pub fn arr<'a, T: ToJson + 'a>(items: impl IntoIterator<Item = &'a T>) -> Json {
        Json::Arr(items.into_iter().map(ToJson::to_json).collect())
    }

    /// Parse a JSON document (the inverse of [`Json::dump`], added for
    /// reading bench baselines back). Numbers without a fraction or
    /// exponent parse as [`Json::UInt`]/[`Json::Int`] when they fit,
    /// [`Json::Num`] otherwise. Errors carry a byte offset.
    ///
    /// Nesting is bounded by [`MAX_DEPTH`]: the parser recurses per
    /// array/object level, so hostile input like a 100k-deep `[[[…`
    /// would otherwise overflow the stack. Deeper documents return a
    /// typed error (with the byte offset of the level that crossed the
    /// limit) instead.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int`/`UInt`/`Num` as `f64`, else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the serialization of `self` to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(x) => out.push_str(&fmt_f64(*x)),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Each level is
/// one recursion frame, so the bound is what keeps a hostile
/// deeply-nested document from overflowing the stack; 128 is far beyond
/// anything the workspace writes (traces nest 3 levels).
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent parser state over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Bump the nesting depth on entering an array/object; errors (with
    /// the opening bracket's byte offset) past [`MAX_DEPTH`]. The caller
    /// decrements on exit.
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos.saturating_sub(1)
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = tok.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = tok.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        let x =
            tok.parse::<f64>().map_err(|_| format!("invalid number '{tok}' at byte {start}"))?;
        // An overflowing literal (e.g. `1e999`) parses to ±inf, which
        // `dump` would then write as `null` — silently breaking the
        // dump→parse→dump round-trip the bench `--baseline` path relies
        // on. JSON has no non-finite numbers; reject at the source.
        if !x.is_finite() {
            return Err(format!("number '{tok}' overflows f64 at byte {start}"));
        }
        Ok(Json::Num(x))
    }
}

/// Format an `f64` so it parses back to the identical bits (shortest of
/// `{}` and, when that loses precision, `{:e}` with full digits), with
/// non-finite values mapped to `null`.
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    // Rust's `{}` for f64 is already shortest-round-trip.
    let s = format!("{x}");
    // Ensure the token is valid JSON (it always is for finite floats:
    // optional sign, digits, optional fraction/exponent).
    s
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Types that can serialize themselves to a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
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

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

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
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

/// Streaming reader for newline-delimited JSON (NDJSON).
///
/// Wraps any [`std::io::BufRead`] source and yields one parsed [`Json`]
/// document per non-blank line, reusing a single line buffer across calls
/// so steady-state reads do not grow the heap. Lines longer than
/// `max_line` bytes are rejected before parsing (a hostile peer cannot
/// force an unbounded buffer), and parse errors are reported with both
/// the line's starting byte offset in the stream and the in-line offset
/// from [`Json::parse`].
pub struct NdjsonReader<R: std::io::BufRead> {
    src: R,
    line: String,
    /// Byte offset in the stream where the *next* line begins.
    offset: u64,
    max_line: usize,
}

/// One failure from [`NdjsonReader::next_doc`]: the stream byte offset of
/// the offending line plus a human-readable message.
#[derive(Debug)]
pub struct NdjsonError {
    pub offset: u64,
    pub message: String,
}

impl std::fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (line starts at stream byte {})", self.message, self.offset)
    }
}

impl<R: std::io::BufRead> NdjsonReader<R> {
    /// Default per-line size cap: generous for job frames, small enough
    /// that a malicious never-ending "line" cannot exhaust memory.
    pub const DEFAULT_MAX_LINE: usize = 1 << 20;

    pub fn new(src: R) -> Self {
        Self::with_max_line(src, Self::DEFAULT_MAX_LINE)
    }

    pub fn with_max_line(src: R, max_line: usize) -> Self {
        NdjsonReader { src, line: String::new(), offset: 0, max_line }
    }

    /// Byte offset in the stream where the next line will begin.
    pub fn stream_offset(&self) -> u64 {
        self.offset
    }

    /// The raw text of the most recently read line (trailing newline
    /// stripped). Valid until the next `next_doc` call.
    pub fn last_line(&self) -> &str {
        self.line.trim_end_matches(['\n', '\r'])
    }

    /// Read the next non-blank line without parsing it (protocol servers
    /// that do their own frame decoding want the raw text). The returned
    /// slice borrows the reused internal buffer. Returns `Ok(None)` at
    /// end of stream.
    pub fn next_line(&mut self) -> Result<Option<&str>, NdjsonError> {
        loop {
            let start = self.offset;
            self.line.clear();
            let n = read_limited_line(&mut self.src, &mut self.line, self.max_line)
                .map_err(|message| NdjsonError { offset: start, message })?;
            if n == 0 {
                return Ok(None);
            }
            self.offset += n as u64;
            if self.line.trim().is_empty() {
                continue;
            }
            // borrow-checker friendly re-slice of the retained buffer
            break;
        }
        Ok(Some(self.line.trim_end_matches(['\n', '\r'])))
    }

    /// Read the next document. Blank lines are skipped. Returns
    /// `Ok(None)` at end of stream.
    pub fn next_doc(&mut self) -> Result<Option<Json>, NdjsonError> {
        loop {
            let start = self.offset;
            self.line.clear();
            let n = read_limited_line(&mut self.src, &mut self.line, self.max_line)
                .map_err(|message| NdjsonError { offset: start, message })?;
            if n == 0 {
                return Ok(None);
            }
            self.offset += n as u64;
            let text = self.line.trim_end_matches(['\n', '\r']);
            if text.trim().is_empty() {
                continue;
            }
            return match Json::parse(text) {
                Ok(doc) => Ok(Some(doc)),
                Err(message) => Err(NdjsonError { offset: start, message }),
            };
        }
    }
}

/// `read_line` with a byte cap: reads until `\n` or EOF, erroring once the
/// line exceeds `max_line` bytes (the rest of the oversized line is left
/// unread; callers treating this as fatal should drop the connection).
/// Returns the number of bytes consumed (0 at EOF).
fn read_limited_line<R: std::io::BufRead>(
    src: &mut R,
    out: &mut String,
    max_line: usize,
) -> Result<usize, String> {
    let mut buf = std::mem::take(out).into_bytes();
    let mut total = 0usize;
    let result = loop {
        let chunk = match src.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break Err(format!("read error: {e}")),
        };
        if chunk.is_empty() {
            break Ok(total); // EOF (possibly mid-line)
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        if total + take > max_line {
            break Err(format!("line exceeds {max_line} byte limit"));
        }
        buf.extend_from_slice(&chunk[..take]);
        src.consume(take);
        total += take;
        if done {
            break Ok(total);
        }
    };
    match String::from_utf8(buf) {
        Ok(s) => {
            *out = s;
            result
        }
        Err(e) => {
            *out = String::from_utf8_lossy(e.as_bytes()).into_owned();
            result.and_then(|_| Err("line is not valid UTF-8".to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize_exactly() {
        assert_eq!(Json::Null.dump(), "null");
        assert_eq!(Json::Bool(true).dump(), "true");
        assert_eq!(Json::Int(-7).dump(), "-7");
        assert_eq!(Json::UInt(u64::MAX).dump(), u64::MAX.to_string());
        assert_eq!(Json::Num(0.25).dump(), "0.25");
        assert_eq!(Json::Num(f64::NAN).dump(), "null");
    }

    #[test]
    fn floats_round_trip_through_text() {
        for x in [0.1, 1.0 / 3.0, 1e-308, 1e308, std::f64::consts::PI, -0.0] {
            let s = fmt_f64(x);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!("a\"b\\c\nd".to_json().dump(), r#""a\"b\\c\nd""#);
        assert_eq!("\u{1}".to_json().dump(), "\"\\u0001\"");
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let j = Json::obj([("b", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(j.dump(), r#"{"b":1,"a":2}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj([
            ("name", "apply/LoRAStencil".to_json()),
            ("best_ns", Json::Num(343312.5)),
            ("iters", Json::UInt(96)),
            ("neg", Json::Int(-3)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("esc", "a\"b\\c\nd".to_json()),
        ]);
        let back = Json::parse(&j.dump()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_junk() {
        let j = Json::parse(" [ 1 , {\"a\" : 2.5e3} ] ").unwrap();
        assert_eq!(j.as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(j.as_arr().unwrap()[1].get("a").and_then(Json::as_f64), Some(2500.0));
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn overflowing_literals_are_rejected_with_offset() {
        // 1e999 -> inf would dump as `null`, breaking dump→parse→dump
        for bad in ["1e999", "-1e999", "1e308e"] {
            assert!(Json::parse(bad).is_err(), "{bad} must not parse");
        }
        let err = Json::parse("[1, 1e999]").unwrap_err();
        assert!(err.contains("byte 4"), "error must carry the byte offset: {err}");
        assert!(err.contains("1e999"), "{err}");
        // underflow to zero and the largest finite literal stay legal
        assert_eq!(Json::parse("1e-999").unwrap().as_f64(), Some(0.0));
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
    }

    /// Recursive [`Json`] generator for the round-trip property:
    /// scalars at every depth, arrays/objects while depth remains.
    /// Generated `Num`s are always finite (non-finite floats are
    /// unrepresentable in JSON text by design).
    struct JsonGen {
        depth: usize,
    }

    impl crate::prop::Gen for JsonGen {
        type Value = Json;

        fn generate(&self, rng: &mut crate::rng::Xoshiro256pp) -> Json {
            let arms = if self.depth == 0 { 6 } else { 8 };
            match rng.below_u64(arms) {
                0 => Json::Null,
                1 => Json::Bool(rng.below_u64(2) == 0),
                2 => Json::Int(rng.next_u64() as i64),
                3 => Json::UInt(rng.next_u64()),
                4 => {
                    let x = rng.range_f64(-1e9, 1e9);
                    // canonicalize -0.0: its text form `-0` reparses as 0
                    Json::Num(if x == 0.0 { 0.0 } else { x })
                }
                5 => {
                    let n = rng.range_usize(0, 8);
                    Json::Str(
                        (0..n)
                            .map(|_| {
                                *['a', 'β', '"', '\\', '\n', '\t', '/', '\u{1}', '𝄞', ' ']
                                    .get(rng.below_u64(10) as usize)
                                    .unwrap()
                            })
                            .collect(),
                    )
                }
                6 => {
                    let child = JsonGen { depth: self.depth - 1 };
                    let n = rng.range_usize(0, 4);
                    Json::Arr((0..n).map(|_| child.generate(rng)).collect())
                }
                _ => {
                    let child = JsonGen { depth: self.depth - 1 };
                    let n = rng.range_usize(0, 4);
                    Json::Obj((0..n).map(|i| (format!("k{i}"), child.generate(rng))).collect())
                }
            }
        }

        fn shrink(&self, v: &Json) -> Vec<Json> {
            match v {
                Json::Null => vec![],
                Json::Arr(items) if !items.is_empty() => {
                    let mut c = vec![Json::Arr(items[..items.len() - 1].to_vec())];
                    c.extend(items.iter().cloned());
                    c
                }
                Json::Obj(pairs) if !pairs.is_empty() => {
                    let mut c = vec![Json::Obj(pairs[..pairs.len() - 1].to_vec())];
                    c.extend(pairs.iter().map(|(_, v)| v.clone()));
                    c
                }
                _ => vec![Json::Null],
            }
        }
    }

    #[test]
    fn prop_dump_parse_dump_round_trips() {
        use crate::prop;
        prop::check("json_dump_parse_dump", &JsonGen { depth: 3 }, |j| {
            let text = j.dump();
            let back = Json::parse(&text).map_err(|e| format!("parse of {text:?}: {e}"))?;
            crate::prop::prop_assert_eq!(back.dump(), text);
            Ok(())
        });
    }

    #[test]
    fn nested_structures_compose() {
        let j = Json::obj([
            ("xs", vec![1u64, 2, 3].to_json()),
            ("name", "grid".to_json()),
            ("opt", (None as Option<u64>).to_json()),
        ]);
        assert_eq!(j.dump(), r#"{"xs":[1,2,3],"name":"grid","opt":null}"#);
    }

    #[test]
    fn hostile_deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // 10k-deep array: without the depth guard this recurses 10k
        // frames and crashes the process instead of returning Err.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(err.contains(&format!("{MAX_DEPTH} levels")), "{err}");
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");

        // same for objects
        let deep_obj = r#"{"a":"#.repeat(10_000) + "1" + &"}".repeat(10_000);
        assert!(Json::parse(&deep_obj).unwrap_err().contains("nesting deeper than"));

        // exactly MAX_DEPTH levels still parses; the depth counter must
        // unwind correctly so siblings at depth 2 don't accumulate
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let siblings = format!("[{}]", vec!["[[1]]"; 200].join(","));
        assert!(Json::parse(&siblings).is_ok(), "depth must reset between siblings");
        let obj_siblings = format!("[{}]", vec![r#"{"a":{"b":1}}"#; 200].join(","));
        assert!(Json::parse(&obj_siblings).is_ok(), "object depth must unwind too");
    }

    #[test]
    fn ndjson_reader_streams_documents_with_offsets() {
        let text = "{\"a\":1}\n\n  \n[2,3]\nnot json\n";
        let mut r = NdjsonReader::new(text.as_bytes());
        assert_eq!(r.stream_offset(), 0);
        let d1 = r.next_doc().unwrap().unwrap();
        assert_eq!(d1.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(r.last_line(), "{\"a\":1}");
        // blank lines are skipped; offset tracks the raw stream
        let d2 = r.next_doc().unwrap().unwrap();
        assert_eq!(d2.as_arr().unwrap().len(), 2);
        let err = r.next_doc().unwrap_err();
        assert_eq!(err.offset, 18, "offset of the line that failed to parse");
        assert!(err.message.contains("byte"), "{}", err.message);
        assert!(r.next_doc().unwrap().is_none(), "EOF after the bad line");
    }

    #[test]
    fn ndjson_reader_caps_line_length() {
        let long = format!("[{}]\n[1]\n", "1,".repeat(100));
        let mut r = NdjsonReader::with_max_line(long.as_bytes(), 64);
        let err = r.next_doc().unwrap_err();
        assert!(err.message.contains("64 byte limit"), "{}", err.message);
        // unterminated final line (EOF without newline) still parses
        let mut r2 = NdjsonReader::new("[7]".as_bytes());
        assert_eq!(r2.next_doc().unwrap().unwrap().as_arr().unwrap().len(), 1);
        assert!(r2.next_doc().unwrap().is_none());
    }
}
