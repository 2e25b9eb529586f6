//! In-memory spans recorded by the benchmark's own code around its calls
//! into the service and the crates, written at exit as Chrome `trace_event`
//! JSON lines (the shape `apls trace --file` summarises).

use apls_telemetry::{TraceEvent, Value};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
struct SpanRecord {
    cat: &'static str,
    name: &'static str,
    id: u64,
    parent: u64,
    job: u64,
    tid: u64,
    start: Duration,
    end: Duration,
}

/// A span sink shared by every benchmark thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Opens a span; `parent` 0 means a root span, `job` 0 means no job.
    pub fn span(
        &self,
        tid: u64,
        cat: &'static str,
        name: &'static str,
        parent: u64,
        job: u64,
    ) -> Span<'_> {
        Span {
            tracer: self,
            cat,
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            job,
            tid,
            start: self.epoch.elapsed(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink poisoned").len()
    }

    /// Writes every span as one `trace_event` JSON line. `args` carry the
    /// span id, its parent (0 for roots), the job id and the end time, so
    /// the span tree can be rebuilt from the file alone.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut spans = self.spans.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        for s in spans {
            let event = TraceEvent {
                name: s.name.to_string(),
                cat: s.cat.to_string(),
                ph: 'X',
                ts_us: s.start.as_micros() as u64,
                dur_us: Some((s.end - s.start).as_micros() as u64),
                tid: s.tid,
                args: vec![
                    ("span".to_string(), Value::U64(s.id)),
                    ("parent".to_string(), Value::U64(s.parent)),
                    ("job".to_string(), Value::U64(s.job)),
                    ("end_us".to_string(), Value::U64(s.end.as_micros() as u64)),
                ],
            };
            writeln!(out, "{}", event.to_json_line())?;
        }
        out.flush()
    }
}

/// An open span; [`Span::end`] records it and returns its duration.
pub struct Span<'a> {
    tracer: &'a Tracer,
    cat: &'static str,
    name: &'static str,
    id: u64,
    parent: u64,
    job: u64,
    tid: u64,
    start: Duration,
}

impl Span<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn end(self) -> Duration {
        let end = self.tracer.epoch.elapsed();
        let record = SpanRecord {
            cat: self.cat,
            name: self.name,
            id: self.id,
            parent: self.parent,
            job: self.job,
            tid: self.tid,
            start: self.start,
            end,
        };
        self.tracer.spans.lock().expect("span sink poisoned").push(record);
        end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_their_parent_and_job() {
        let tracer = Tracer::new();
        let root = tracer.span(1, "layer", "root", 0, 0);
        let child = tracer.span(1, "io", "parse", root.id(), 7);
        let child_id = child.id();
        child.end();
        root.end();
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).expect("writes");
        let text = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"root\",\"cat\":\"layer\",\"ph\":\"X\""));
        assert!(lines[1].contains(&format!("\"span\":{child_id},\"parent\":1,\"job\":7")));
    }
}
