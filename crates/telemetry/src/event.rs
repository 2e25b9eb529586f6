//! The trace-event model and its Chrome `trace_event` JSON rendering.
//!
//! One [`TraceEvent`] renders as one self-contained JSON object, so a file of
//! newline-separated events is simultaneously valid JSON-lines *and* the
//! element stream of a Chrome `traceEvents` array (see
//! [`crate::RecordingCollector::to_chrome_trace`]).

use std::fmt::Write as _;

/// An argument value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number; non-finite values render as JSON `null`.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl Value {
    /// Appends the value as a JSON fragment.
    pub fn render(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => quote_into(out, s),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One Chrome `trace_event` record.
///
/// `ph` is the Chrome phase: `'X'` for complete (span with duration), `'i'`
/// for instant, `'C'` for counter samples. Timestamps and durations are in
/// microseconds since the owning [`crate::Telemetry`] handle's epoch, as the
/// Chrome format requires.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (the span/phase label).
    pub name: String,
    /// Category, used to group phases in summaries.
    pub cat: String,
    /// Chrome phase character.
    pub ph: char,
    /// Start timestamp in microseconds since the telemetry epoch.
    pub ts_us: u64,
    /// Duration in microseconds; present exactly for `'X'` events.
    pub dur_us: Option<u64>,
    /// Logical thread id (stable per OS thread for one process).
    pub tid: u64,
    /// Event arguments in insertion order.
    pub args: Vec<(String, Value)>,
}

impl TraceEvent {
    /// Renders the event as one compact JSON object (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"name\":");
        quote_into(&mut out, &self.name);
        out.push_str(",\"cat\":");
        quote_into(&mut out, &self.cat);
        out.push_str(",\"ph\":");
        let mut ph = [0u8; 4];
        quote_into(&mut out, self.ph.encode_utf8(&mut ph));
        let _ = write!(out, ",\"ts\":{},\"pid\":1,\"tid\":{}", self.ts_us, self.tid);
        if let Some(dur) = self.dur_us {
            let _ = write!(out, ",\"dur\":{dur}");
        }
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                quote_into(&mut out, key);
                out.push(':');
                value.render(&mut out);
            }
            out.push('}');
        }
        out.push('}');
        out
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

    #[test]
    fn renders_complete_event_with_args() {
        let event = TraceEvent {
            name: "anneal".to_string(),
            cat: "engine".to_string(),
            ph: 'X',
            ts_us: 12,
            dur_us: Some(34),
            tid: 2,
            args: vec![("seed".to_string(), Value::U64(7)), ("cost".to_string(), Value::F64(1.5))],
        };
        assert_eq!(
            event.to_json_line(),
            "{\"name\":\"anneal\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":12,\"pid\":1,\
             \"tid\":2,\"dur\":34,\"args\":{\"seed\":7,\"cost\":1.5}}"
        );
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite() {
        let event = TraceEvent {
            name: "a\"b\\c\nd".to_string(),
            cat: String::new(),
            ph: 'i',
            ts_us: 0,
            dur_us: None,
            tid: 1,
            args: vec![("x".to_string(), Value::F64(f64::NAN))],
        };
        let line = event.to_json_line();
        assert!(line.contains("a\\\"b\\\\c\\nd"));
        assert!(line.contains("\"x\":null"));
        assert!(!line.contains("dur"));
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
    }
}
