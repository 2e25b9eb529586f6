//! The JSON reader of the service protocol.
//!
//! The workspace's vendored serde is a marker-only shim, so requests, replies
//! and journal records are read by this module: a recursive descent parser
//! into a [`Json`] value tree. Numbers keep their raw source text so 64-bit
//! seeds round-trip without `f64` precision loss. Everything the service
//! writes goes through the workspace's one writer, [`apls_telemetry::json`];
//! [`quote`] is its escaper returning a fresh string.

use apls_telemetry::json::{find_quote_or_backslash, quote_into};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw literal text (see [`Json::as_u64`]).
    Num(String),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.s.len() {
            return Err(format!("trailing characters after JSON value at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral number in range.
    /// Parses the raw literal, so full 64-bit seeds are exact.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize`, if this is an integral number in range.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` when the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Escapes and quotes a string as a JSON string literal.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
}

/// Deepest allowed array/object nesting. A hostile request of hundreds of
/// thousands of `[` would otherwise overflow the reactor thread's stack and
/// abort the whole process.
const MAX_DEPTH: usize = 64;

/// Byte-offset parser over the input `&str` — no up-front `Vec<char>` copy,
/// so a request near the service's 16 MiB line cap costs one buffer, not
/// five (offsets in error messages are byte offsets).
struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    /// Advances past `c`, which must be the char `peek` just returned.
    fn bump(&mut self, c: char) {
        self.pos += c.len_utf8();
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if !c.is_whitespace() {
                break;
            }
            self.bump(c);
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.bump(c);
            Ok(())
        } else {
            Err(format!("expected '{c}' at offset {}", self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match self.peek() {
            Some('n') => self.literal("null", Json::Null),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('[') => self.array(depth),
            Some('{') => self.object(depth),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected character '{c}' at offset {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let raw = &self.s[start..self.pos];
        // validate by parsing; the raw text is what gets stored
        raw.parse::<f64>().map_err(|_| format!("invalid number '{raw}' at offset {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    /// Decodes a string literal. Bytes between escapes are copied as whole
    /// runs: the scan (eight bytes a step) stops only at `"` or `\`, both
    /// ASCII, so every run ends on a char boundary, and the escape is
    /// dispatched on its byte.
    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let bytes = self.s.as_bytes();
        let mut out = String::new();
        loop {
            let end = find_quote_or_backslash(bytes, self.pos);
            out.push_str(&self.s[self.pos..end]);
            let stop = *bytes.get(end).ok_or("unterminated string")?;
            self.pos = end + 1;
            if stop == b'"' {
                return Ok(out);
            }
            let esc = *bytes.get(self.pos).ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let first = self.hex4()?;
                    let code = if (0xd800..0xdc00).contains(&first) {
                        // high surrogate: require a low surrogate next
                        self.expect('\\')?;
                        self.expect('u')?;
                        let low = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err("invalid surrogate pair".to_string());
                        }
                        0x10000 + ((first - 0xd800) << 10) + (low - 0xdc00)
                    } else {
                        first
                    };
                    out.push(char::from_u32(code).ok_or_else(|| "invalid \\u escape".to_string())?);
                }
                _ => {
                    // the escaped char may be multibyte: name all of it
                    let other = self.s[self.pos - 1..].chars().next().unwrap_or_default();
                    return Err(format!("unknown escape '\\{other}'"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or("truncated \\u escape")?;
            self.bump(c);
            code = code * 16 + c.to_digit(16).ok_or(format!("invalid hex digit '{c}'"))?;
        }
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(Json::parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn u64_seeds_do_not_lose_precision() {
        let seed = u64::MAX - 7;
        let json = Json::parse(&seed.to_string()).unwrap();
        assert_eq!(json.as_u64(), Some(seed));
    }

    #[test]
    fn objects_and_arrays_round_trip() {
        let text = r#"{"op":"place","seed":7,"engines":["seqpair","hier"],"fast":true,"x":null}"#;
        let json = Json::parse(text).unwrap();
        assert_eq!(json.get("op").and_then(Json::as_str), Some("place"));
        assert_eq!(json.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(json.get("engines").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert!(json.get("x").is_some_and(Json::is_null));
        let engines = Json::Arr(vec![Json::Str("seqpair".into()), Json::Str("hier".into())]);
        let fields = vec![
            ("op".to_string(), Json::Str("place".into())),
            ("seed".to_string(), Json::Num("7".into())),
            ("engines".to_string(), engines),
            ("fast".to_string(), Json::Bool(true)),
            ("x".to_string(), Json::Null),
        ];
        assert_eq!(json, Json::Obj(fields));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}f\u{1F600}";
        let quoted = quote(original);
        let parsed = Json::parse(&quoted).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        // embedded multi-line report bodies survive quoting
        let report = "{\n  \"circuit\": \"x\"\n}\n";
        assert_eq!(Json::parse(&quote(report)).unwrap().as_str(), Some(report));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let json = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(json.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn deep_nesting_is_rejected_not_fatal() {
        // 200k nested brackets must yield an error, not a stack overflow
        let bomb = "[".repeat(200_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // moderate nesting still parses
        let ok = format!("{}1{}", "[".repeat(32), "]".repeat(32));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn malformed_documents_error() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\\ud800x\"").is_err());
    }

    #[test]
    fn string_errors_name_the_offending_input() {
        let err = |text: &str| Json::parse(text).unwrap_err();
        assert_eq!(err("\"abc"), "unterminated string");
        assert_eq!(err("\"abc\\"), "unterminated escape");
        assert_eq!(err("\"a\\é\""), "unknown escape '\\é'");
        assert_eq!(err("\"\\u12"), "truncated \\u escape");
        assert_eq!(err("\"\\u12G4\""), "invalid hex digit 'G'");
        assert_eq!(err("\"\\ud800x\""), "expected '\\' at offset 7");
        assert_eq!(err("\"\\ud800\\n\""), "expected 'u' at offset 8");
        assert_eq!(err("\"\\ud800\\u0041\""), "invalid surrogate pair");
        assert_eq!(err("\"\\udc00\""), "invalid \\u escape");
    }
}

/// The run-copying string codec checked against the per-character decoder
/// and escaper it replaced, which are kept here verbatim as oracles.
#[cfg(test)]
mod codec_differential {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// The per-character string decoder: one `chars().next()` and one
    /// `push` per input character.
    struct Oracle<'a> {
        s: &'a str,
        pos: usize,
    }

    impl Oracle<'_> {
        fn peek(&self) -> Option<char> {
            self.s[self.pos..].chars().next()
        }

        fn bump(&mut self, c: char) {
            self.pos += c.len_utf8();
        }

        fn expect(&mut self, c: char) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.bump(c);
                Ok(())
            } else {
                Err(format!("expected '{c}' at offset {}", self.pos))
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let mut code = 0u32;
            for _ in 0..4 {
                let c = self.peek().ok_or("truncated \\u escape")?;
                self.bump(c);
                code = code * 16 + c.to_digit(16).ok_or(format!("invalid hex digit '{c}'"))?;
            }
            Ok(code)
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                let c = self.peek().ok_or("unterminated string")?;
                self.bump(c);
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let esc = self.peek().ok_or("unterminated escape")?;
                        self.bump(esc);
                        match esc {
                            '"' => out.push('"'),
                            '\\' => out.push('\\'),
                            '/' => out.push('/'),
                            'b' => out.push('\u{8}'),
                            'f' => out.push('\u{c}'),
                            'n' => out.push('\n'),
                            'r' => out.push('\r'),
                            't' => out.push('\t'),
                            'u' => {
                                let first = self.hex4()?;
                                let code = if (0xd800..0xdc00).contains(&first) {
                                    self.expect('\\')?;
                                    self.expect('u')?;
                                    let low = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&low) {
                                        return Err("invalid surrogate pair".to_string());
                                    }
                                    0x10000 + ((first - 0xd800) << 10) + (low - 0xdc00)
                                } else {
                                    first
                                };
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "invalid \\u escape".to_string())?,
                                );
                            }
                            other => return Err(format!("unknown escape '\\{other}'")),
                        }
                    }
                    c => out.push(c),
                }
            }
        }
    }

    /// The per-character escaper.
    fn oracle_quote(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    /// Decodes `text` with both decoders; the results (and, on success, the
    /// offset each stopped at) must agree.
    fn assert_same_decode(text: &str) {
        let mut new = Parser { s: text, pos: 0 };
        let mut old = Oracle { s: text, pos: 0 };
        let (got, want) = (new.string(), old.string());
        assert_eq!(got, want, "decoding {text:?}");
        if got.is_ok() {
            assert_eq!(new.pos, old.pos, "end offset decoding {text:?}");
        }
    }

    /// One generated character: ASCII, control, the three escapable
    /// punctuation marks, or any scalar value (multibyte included).
    fn piece(kind: usize, code: u32) -> char {
        match kind {
            0 | 1 => char::from(b' ' + (code % 95) as u8),
            2 => char::from((code % 0x20) as u8),
            3 => ['"', '\\', '/', '\u{7f}'][code as usize % 4],
            4 => char::from_u32(0x80 + code % 0x780).unwrap_or('é'),
            5 => char::from_u32(0x10000 + code % 0x10_0000).unwrap_or('😀'),
            _ => char::from_u32(code).unwrap_or('\u{fffd}'),
        }
    }

    fn text_of(pieces: &[(usize, u32, usize)]) -> String {
        pieces.iter().map(|&(kind, code, _)| piece(kind, code)).collect()
    }

    /// Writes `c` into a literal in one of several legal spellings: raw,
    /// short escape, `\u` in either hex case, or a surrogate pair.
    fn encode(c: char, form: usize, out: &mut String) {
        let short = match c {
            '"' => Some('"'),
            '\\' => Some('\\'),
            '/' => Some('/'),
            '\u{8}' => Some('b'),
            '\u{c}' => Some('f'),
            '\n' => Some('n'),
            '\r' => Some('r'),
            '\t' => Some('t'),
            _ => None,
        };
        let mut units = [0u16; 2];
        let hex = |out: &mut String, unit: u16| {
            let _ = if form.is_multiple_of(2) {
                write!(out, "\\u{unit:04x}")
            } else {
                write!(out, "\\u{unit:04X}")
            };
        };
        match (form, short) {
            (0, Some(letter)) => {
                out.push('\\');
                out.push(letter);
            }
            (0 | 1, None) if c != '"' && c != '\\' => out.push(c),
            _ => {
                for &unit in c.encode_utf16(&mut units).iter() {
                    hex(out, unit);
                }
            }
        }
    }

    fn literal_of(pieces: &[(usize, u32, usize)]) -> String {
        let mut lit = String::from('"');
        for &(kind, code, form) in pieces {
            encode(piece(kind, code), form, &mut lit);
        }
        lit.push('"');
        lit
    }

    /// Fragments that make a literal malformed wherever they are spliced in.
    const DEFECTS: &[&str] = &[
        "\\x",
        "\\é",
        "\\😀",
        "\\u",
        "\\u1",
        "\\u12G4",
        "\\uZ000",
        "\\u00é0",
        "\\ud800",
        "\\ud800x",
        "\\ud800\\n",
        "\\ud800\\u0041",
        "\\udbff\\ud800",
        "\\udc00",
        "\\udfff",
        "\\uD83D\\uDE0",
    ];

    const PIECES: std::ops::Range<usize> = 0..48;

    #[test]
    fn every_lane_of_the_eight_byte_scan_agrees_with_the_oracles() {
        // one special char at every offset of a filler run, the fillers
        // chosen next to the scan's thresholds (0x1f/0x20, '"' ± 1,
        // '\' ± 1, 0x7f, multibyte)
        let fillers = [' ', '!', '#', '[', ']', '\u{7f}', '\u{80}', 'é', '€', '😀'];
        let specials = ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', 'x'];
        for filler in fillers {
            for special in specials {
                for len in 0..20 {
                    for at in 0..=len {
                        let text: String =
                            (0..=len).map(|i| if i == at { special } else { filler }).collect();
                        let quoted = quote(&text);
                        assert_eq!(quoted, oracle_quote(&text), "quoting {text:?}");
                        assert_same_decode(&quoted);
                        for cut in 0..quoted.len() {
                            if quoted.is_char_boundary(cut) {
                                assert_same_decode(&quoted[..cut]);
                            }
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn decoder_matches_the_oracle_on_valid_literals(
            pieces in vec((0usize..7, 0u32..0x11_0000, 0usize..4), PIECES),
        ) {
            let lit = literal_of(&pieces);
            assert_same_decode(&lit);
            prop_assert_eq!(Parser { s: &lit, pos: 0 }.string(), Ok(text_of(&pieces)));
            // followed by more input, the literal still ends at its quote
            assert_same_decode(&format!("{lit},\"next\""));
        }

        #[test]
        fn decoder_matches_the_oracle_on_malformed_literals(
            pieces in vec((0usize..7, 0u32..0x11_0000, 0usize..4), PIECES),
            defect in 0usize..DEFECTS.len(),
            at in 0usize..64,
        ) {
            let lit = literal_of(&pieces);
            // every prefix: unterminated strings, escapes, \u and pairs
            for (cut, _) in lit.char_indices() {
                assert_same_decode(&lit[..cut]);
            }
            // a defect right before the closing quote is always an error
            let body = &lit[1..lit.len() - 1];
            let bad = format!("\"{body}{}\"", DEFECTS[defect]);
            prop_assert!(Oracle { s: &bad, pos: 0 }.string().is_err(), "{bad:?}");
            assert_same_decode(&bad);
            // spliced in elsewhere, what follows may complete it: only the
            // agreement is checked
            let cut = body.char_indices().map(|(i, _)| i).nth(at).unwrap_or(body.len());
            assert_same_decode(&format!("\"{}{}{}\"", &body[..cut], DEFECTS[defect], &body[cut..]));
        }

        #[test]
        fn escaper_matches_the_oracle_and_round_trips(
            pieces in vec((0usize..7, 0u32..0x11_0000, 0usize..4), PIECES),
        ) {
            let text = text_of(&pieces);
            let quoted = quote(&text);
            prop_assert_eq!(&quoted, &oracle_quote(&text));
            prop_assert_eq!(Json::parse(&quoted), Ok(Json::Str(text)));
        }
    }
}
