//! Pluggable event sinks: the [`Collector`] trait plus the in-memory and
//! streaming implementations.

use crate::event::TraceEvent;
use crate::json::{self, Layout};
use std::fmt;
use std::io::Write;
use std::sync::Mutex;

/// A sink for trace events.
///
/// Collectors must be cheap and infallible from the caller's perspective:
/// instrumented hot paths call [`Collector::record`] while holding no locks
/// of their own, and a collector that fails (e.g. a broken pipe) must swallow
/// the error rather than propagate it into the placement engines.
pub trait Collector: Send + Sync {
    /// Records one event.
    fn record(&self, event: TraceEvent);
}

/// Collector that buffers every event in memory.
///
/// Used by tests (inspect [`RecordingCollector::events`]) and by the CLI's
/// `--trace` mode, which writes the buffer out once the run finishes.
#[derive(Debug, Default)]
pub struct RecordingCollector {
    events: Mutex<Vec<TraceEvent>>,
}

impl RecordingCollector {
    /// Creates an empty recording collector.
    #[must_use]
    pub fn new() -> Self {
        RecordingCollector::default()
    }

    /// A snapshot of the recorded events, in arrival order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("recording collector poisoned").clone()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("recording collector poisoned").len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the buffer as JSON-lines: one Chrome `trace_event` object per
    /// line, terminated by a newline.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let events = self.events.lock().expect("recording collector poisoned");
        let mut out = String::new();
        for event in events.iter() {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Renders the buffer as a complete Chrome trace document
    /// (`{"traceEvents":[...]}`), loadable by `chrome://tracing` / Perfetto.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let events = self.events.lock().expect("recording collector poisoned");
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |w| {
            w.key("traceEvents").array(Layout::Compact, |w| {
                for event in events.iter() {
                    w.object(Layout::Compact, |w| event.write_members(w));
                }
            });
            w.key("displayTimeUnit").str("ms");
        });
        out
    }
}

impl Collector for RecordingCollector {
    fn record(&self, event: TraceEvent) {
        self.events.lock().expect("recording collector poisoned").push(event);
    }
}

/// Collector that fans each event out to several sinks in order.
///
/// Built by [`crate::Telemetry::tee`] so a daemon can stream a trace to disk
/// *and* feed the in-memory flight recorder from the same instrumentation
/// points. Events are cloned for all sinks but the last.
pub struct FanoutCollector {
    sinks: Vec<std::sync::Arc<dyn Collector>>,
}

impl FanoutCollector {
    /// Creates a fan-out over `sinks`; events are delivered in order.
    #[must_use]
    pub fn new(sinks: Vec<std::sync::Arc<dyn Collector>>) -> Self {
        FanoutCollector { sinks }
    }
}

impl fmt::Debug for FanoutCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FanoutCollector({} sinks)", self.sinks.len())
    }
}

impl Collector for FanoutCollector {
    fn record(&self, event: TraceEvent) {
        let Some((last, rest)) = self.sinks.split_last() else {
            return;
        };
        for sink in rest {
            sink.record(event.clone());
        }
        last.record(event);
    }
}

/// Collector that writes each event eagerly as one JSON line.
///
/// Used by `apls serve --trace FILE` so a long-lived daemon streams its trace
/// instead of buffering it. Write errors are swallowed: telemetry must never
/// take down the host process.
pub struct StreamCollector {
    out: Mutex<Box<dyn Write + Send>>,
}

impl StreamCollector {
    /// Creates a streaming collector over any writer.
    #[must_use]
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        StreamCollector { out: Mutex::new(out) }
    }

    /// Flushes the underlying writer (errors swallowed).
    pub fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

impl fmt::Debug for StreamCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StreamCollector(..)")
    }
}

impl Collector for StreamCollector {
    fn record(&self, event: TraceEvent) {
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{}", event.to_json_line());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Value;

    fn sample(name: &str) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "test".to_string(),
            ph: 'i',
            ts_us: 1,
            dur_us: None,
            tid: 1,
            args: vec![("k".to_string(), Value::U64(1))],
        }
    }

    #[test]
    fn recording_collector_round_trips_formats() {
        let collector = RecordingCollector::new();
        assert!(collector.is_empty());
        collector.record(sample("a"));
        collector.record(sample("b"));
        assert_eq!(collector.len(), 2);
        let lines = collector.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        let doc = collector.to_chrome_trace();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"b\""));
    }

    #[test]
    fn stream_collector_writes_lines() {
        use std::sync::Arc;
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let collector = StreamCollector::new(Box::new(buf.clone()));
        collector.record(sample("x"));
        collector.flush();
        let written = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(written.ends_with("}\n"));
        assert!(written.contains("\"name\":\"x\""));
    }
}
