//! The workspace's one JSON writer: the string escaper and a streaming
//! writer over `&mut String`.
//!
//! Every JSON document the workspace emits goes through here: portfolio
//! reports, service replies and frames, request lines, journal records,
//! metrics snapshots and trace events. A container names its [`Layout`]
//! when it is opened and a float names its [`Float`] format at the call, so
//! each emitter keeps its exact bytes while all of them share one comma
//! rule, one `null` spelling and one escaper.
//!
//! ```
//! use apls_telemetry::json::{self, Float, Layout};
//!
//! let mut out = String::new();
//! json::object(&mut out, Layout::Compact, |w| {
//!     w.key("name").str("a\"b");
//!     w.key("cost").f64(1.25, Float::Fixed(3));
//!     w.key("tags").array(Layout::Compact, |w| {
//!         w.int(1);
//!         w.f64(f64::NAN, Float::Shortest);
//!     });
//! });
//! assert_eq!(out, r#"{"name":"a\"b","cost":1.250,"tags":[1,null]}"#);
//! ```

use std::fmt::{self, Write as _};

/// How a container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One line, no spaces: `{"a":1,"b":[2,3]}`.
    Compact,
    /// One line, a space after each separator: `{"a": 1, "b": 2}`.
    Row,
    /// One member per line, indented two spaces per nesting level, `": "`
    /// after keys, and the closing bracket on a line of its own at the
    /// container's own indent.
    Indented,
}

/// How a float is written. Every format writes a non-finite value as
/// `null`, since JSON has no spelling for NaN or infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Float {
    /// This many decimals: `Fixed(3)` writes `1.500`.
    Fixed(usize),
    /// Rounded half away from zero to a whole number: `2.5` writes `3`.
    Rounded,
    /// The shortest decimal that reads back as the same `f64`, without an
    /// exponent: `1.5`, `19.8`, `3`.
    Shortest,
}

/// A primitive integer type, written in decimal.
pub trait Int: fmt::Display {}

macro_rules! int {
    ($($t:ty),*) => { $(impl Int for $t {})* };
}
int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, i128);

/// Appends one object to `out`; `members` writes its members.
pub fn object(out: &mut String, layout: Layout, members: impl FnOnce(&mut Writer<'_>)) {
    // a writer expecting one value, as if after a key
    Writer { out, layout, depth: 0, empty: true, keyed: true }.object(layout, members);
}

/// Writes the members of one open object or the elements of one open array.
///
/// In an object, each member is [`Writer::key`] followed by one value; in an
/// array, each value is an element. Nested containers open with
/// [`Writer::object`] and [`Writer::array`] and close when their closure
/// returns.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    layout: Layout,
    /// Nesting depth of this container's members; the root object's are 1.
    depth: usize,
    /// Nothing written into the container yet.
    empty: bool,
    /// A key was just written: the next value completes its member.
    keyed: bool,
}

impl Writer<'_> {
    /// Starts a member or element: the separator and, in an indented
    /// container, the line break and indent.
    fn member(&mut self) {
        if !self.empty {
            self.out.push(',');
            if self.layout == Layout::Row {
                self.out.push(' ');
            }
        }
        self.empty = false;
        if self.layout == Layout::Indented {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.depth));
        }
    }

    /// Where the next value goes, separator already written.
    fn value(&mut self) -> &mut String {
        if self.keyed {
            self.keyed = false;
        } else {
            self.member();
        }
        self.out
    }

    /// Writes a member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        quote_into(self.out, key);
        self.out.push_str(if self.layout == Layout::Compact { ":" } else { ": " });
        self.keyed = true;
        self
    }

    /// Writes an integer.
    pub fn int(&mut self, v: impl Int) {
        let _ = write!(self.value(), "{v}");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.value().push_str(if v { "true" } else { "false" });
    }

    /// Writes a string literal, escaped.
    pub fn str(&mut self, v: &str) {
        quote_into(self.value(), v);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.value().push_str("null");
    }

    /// Writes a float in `format`; non-finite values write `null`.
    pub fn f64(&mut self, v: f64, format: Float) {
        let out = self.value();
        if !v.is_finite() {
            out.push_str("null");
            return;
        }
        let _ = match format {
            Float::Fixed(decimals) => write!(out, "{v:.decimals$}"),
            Float::Rounded => write!(out, "{:.0}", v.round()),
            Float::Shortest => write!(out, "{v}"),
        };
    }

    /// Writes `v` with `some`, or `null` when there is none.
    pub fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Self, T)) {
        match v {
            Some(v) => some(self, v),
            None => self.null(),
        }
    }

    /// Copies `json`, which must already be one JSON value (an escaped
    /// string literal, say), verbatim.
    pub fn raw(&mut self, json: &str) {
        self.value().push_str(json);
    }

    /// Writes a nested object; `members` writes its members.
    pub fn object(&mut self, layout: Layout, members: impl FnOnce(&mut Writer<'_>)) {
        self.nest(layout, ['{', '}'], members);
    }

    /// Writes a nested array; `items` writes its elements.
    pub fn array(&mut self, layout: Layout, items: impl FnOnce(&mut Writer<'_>)) {
        self.nest(layout, ['[', ']'], items);
    }

    fn nest(
        &mut self,
        layout: Layout,
        [open, close]: [char; 2],
        fill: impl FnOnce(&mut Writer<'_>),
    ) {
        let depth = self.depth + 1;
        let out = self.value();
        out.push(open);
        let mut w = Writer { out, layout, depth, empty: true, keyed: false };
        fill(&mut w);
        if layout == Layout::Indented && !w.empty {
            w.out.push('\n');
            w.out.extend(std::iter::repeat_n("  ", depth - 1));
        }
        w.out.push(close);
    }
}

/// Appends `s` as a JSON string literal (quotes, escapes). Runs of bytes
/// that need no escape are copied whole; only ASCII bytes are escaped, so
/// every run is whole UTF-8.
pub fn quote_into(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    loop {
        let at =
            scan(bytes, run, |word| below(word, 0x20) | equal(word, b'"') | equal(word, b'\\'));
        out.push_str(&s[run..at]);
        let Some(&b) = bytes.get(at) else { break };
        run = at + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push('"');
}

/// The offset of the first `"` or `\` in `bytes` at or after `from`, or
/// `bytes.len()` when there is none: where a JSON string literal's body
/// stops being a plain copy.
#[must_use]
pub fn find_quote_or_backslash(bytes: &[u8], from: usize) -> usize {
    scan(bytes, from, |word| equal(word, b'"') | equal(word, b'\\'))
}

/// `0x01` in every byte lane of a word.
const LANES: u64 = 0x0101_0101_0101_0101;

/// High bit set in the lanes of `word` that hold `byte`.
fn equal(word: u64, byte: u8) -> u64 {
    let x = word ^ (LANES * u64::from(byte));
    x.wrapping_sub(LANES) & !x & (LANES << 7)
}

/// High bit set in the lanes of `word` below `limit` (at most `0x80`).
fn below(word: u64, limit: u8) -> u64 {
    word.wrapping_sub(LANES * u64::from(limit)) & !word & (LANES << 7)
}

/// The offset of the first byte at or after `from` that `flags` marks, or
/// `bytes.len()`, eight bytes per step. `flags` maps eight little-endian
/// bytes to a word with the high bit of each marked lane set (built from
/// [`equal`] and [`below`]); a borrow may also mark lanes *above* a marked
/// one, never below, so the lowest mark is exact.
#[inline]
fn scan(bytes: &[u8], from: usize, flags: impl Fn(u64) -> u64) -> usize {
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let marks = flags(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        if marks != 0 {
            return i + (marks.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    // the last few bytes one at a time, each in the lowest lane
    bytes[i..].iter().position(|&b| flags(u64::from(b)) & 0x80 != 0).map_or(bytes.len(), |p| i + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(layout: Layout, members: impl FnOnce(&mut Writer<'_>)) -> String {
        let mut out = String::new();
        object(&mut out, layout, members);
        out
    }

    #[test]
    fn layouts_space_members_as_named() {
        let members = |w: &mut Writer<'_>| {
            w.key("a").int(1);
            w.key("b").array(Layout::Compact, |w| {
                w.int(-2);
                w.bool(true);
            });
            w.key("c").object(Layout::Row, |w| {
                w.key("d").null();
                w.key("e").str("x");
            });
        };
        assert_eq!(
            written(Layout::Compact, members),
            r#"{"a":1,"b":[-2,true],"c":{"d": null, "e": "x"}}"#
        );
        assert_eq!(
            written(Layout::Row, members),
            r#"{"a": 1, "b": [-2,true], "c": {"d": null, "e": "x"}}"#
        );
        assert_eq!(
            written(Layout::Indented, members),
            "{\n  \"a\": 1,\n  \"b\": [-2,true],\n  \"c\": {\"d\": null, \"e\": \"x\"}\n}"
        );
    }

    #[test]
    fn indented_containers_nest_two_spaces_a_level() {
        let out = written(Layout::Indented, |w| {
            w.key("rows").array(Layout::Indented, |w| {
                w.object(Layout::Row, |w| w.key("x").int(1));
                w.object(Layout::Indented, |w| w.key("y").int(2));
            });
            w.key("none").array(Layout::Indented, |_| {});
        });
        assert_eq!(
            out,
            "{\n  \"rows\": [\n    {\"x\": 1},\n    {\n      \"y\": 2\n    }\n  ],\n  \"none\": []\n}"
        );
        let raw_and_opt = written(Layout::Compact, |w| {
            w.key("raw").raw("\"pre\\\"quoted\"");
            w.key("some").opt(Some(3u64), Writer::int);
            w.key("none").opt(None::<u64>, Writer::int);
        });
        assert_eq!(raw_and_opt, r#"{"raw":"pre\"quoted","some":3,"none":null}"#);
    }

    #[test]
    fn floats_take_their_named_format_and_non_finite_is_null() {
        let floats = |v: f64| {
            written(Layout::Compact, |w| {
                w.key("f").array(Layout::Compact, |w| {
                    for format in
                        [Float::Fixed(3), Float::Fixed(0), Float::Rounded, Float::Shortest]
                    {
                        w.f64(v, format);
                    }
                });
            })
        };
        assert_eq!(floats(2.5), r#"{"f":[2.500,2,3,2.5]}"#);
        assert_eq!(floats(-0.125), r#"{"f":[-0.125,-0,-0,-0.125]}"#);
        assert_eq!(floats(19.8), r#"{"f":[19.800,20,20,19.8]}"#);
        assert_eq!(floats(1e-7), r#"{"f":[0.000,0,0,0.0000001]}"#);
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(floats(v), r#"{"f":[null,null,null,null]}"#);
        }
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        let quoted = |s: &str| {
            let mut out = String::new();
            quote_into(&mut out, s);
            out
        };
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quoted("\r\t"), "\"\\r\\t\"");
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
        assert_eq!(
            written(Layout::Compact, |w| w.key("k\"").str("\u{7f}é")),
            "{\"k\\\"\":\"\u{7f}é\"}"
        );
    }
}
