//! The trace-event model and its Chrome `trace_event` JSON rendering.
//!
//! One [`TraceEvent`] renders as one self-contained JSON object, so a file of
//! newline-separated events is simultaneously valid JSON-lines *and* the
//! element stream of a Chrome `traceEvents` array (see
//! [`crate::RecordingCollector::to_chrome_trace`]).

use crate::json::{self, Float, Layout, Writer};

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
        json::object(&mut out, Layout::Compact, |w| self.write_members(w));
        out
    }

    /// Writes the event's members into the open object `w`.
    pub(crate) fn write_members(&self, w: &mut Writer<'_>) {
        w.key("name").str(&self.name);
        w.key("cat").str(&self.cat);
        w.key("ph").str(self.ph.encode_utf8(&mut [0; 4]));
        w.key("ts").int(self.ts_us);
        w.key("pid").int(1);
        w.key("tid").int(self.tid);
        if let Some(dur) = self.dur_us {
            w.key("dur").int(dur);
        }
        if !self.args.is_empty() {
            w.key("args").object(Layout::Compact, |w| {
                for (key, value) in &self.args {
                    let w = w.key(key);
                    match value {
                        Value::U64(v) => w.int(*v),
                        Value::I64(v) => w.int(*v),
                        Value::F64(v) => w.f64(*v, Float::Shortest),
                        Value::Bool(v) => w.bool(*v),
                        Value::Str(s) => w.str(s),
                    }
                }
            });
        }
    }
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
}
