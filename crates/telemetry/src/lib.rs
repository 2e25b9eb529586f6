//! Unified telemetry for the analog-layout-synthesis workspace: structured
//! tracing spans/events over pluggable [`Collector`]s, a [`MetricsRegistry`]
//! of counters/gauges/histograms, and trace summarisation.
//!
//! # Design
//!
//! * **Std-only.** No dependencies, no vendored shims.
//! * **Off by default, free when off.** A [`Telemetry`] handle is an
//!   `Option<Arc<..>>`; the disabled handle ([`Telemetry::disabled`]) makes
//!   every span/event a branch on a null check — no allocation, no clock
//!   read, no lock. Hot loops hoist [`Telemetry::is_enabled`] into a bool.
//! * **Determinism.** Telemetry *observes*, never *participates*: it holds no
//!   RNG, consumes no `SeedStream` lane, and instrumented code paths are
//!   byte-identical in their results with telemetry enabled, disabled, or
//!   compiled out. This is pinned by `tests/telemetry_determinism.rs` at the
//!   workspace root.
//! * **One event format.** Every event renders as a self-contained Chrome
//!   `trace_event` JSON object, so a newline-separated event stream is valid
//!   JSON-lines *and* (wrapped in `{"traceEvents":[...]}`) a Chrome trace.
//!
//! # Example
//!
//! ```
//! use apls_telemetry::{event, span, RecordingCollector, Telemetry};
//! use std::sync::Arc;
//!
//! let collector = Arc::new(RecordingCollector::new());
//! let telemetry = Telemetry::with_collector(collector.clone());
//! {
//!     let mut s = span!(telemetry, "engine", "anneal", seed = 7u64);
//!     event!(telemetry, "engine", "temp_step", step = 0u64);
//!     s.arg("best_cost", 12.5);
//! } // span drops -> complete event recorded
//! assert_eq!(collector.len(), 2);
//!
//! // The disabled handle records nothing and costs (almost) nothing.
//! let off = Telemetry::disabled();
//! let _s = span!(off, "engine", "anneal");
//! assert!(!off.is_enabled());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod summary;

pub use collector::{Collector, FanoutCollector, RecordingCollector, StreamCollector};
pub use event::{TraceEvent, Value};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_MS_BOUNDS};
pub use recorder::FlightRecorder;
pub use summary::{PhaseStats, TraceSummary};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stable-per-thread logical id used as the Chrome `tid` field.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|tid| *tid)
}

struct Inner {
    epoch: Instant,
    collector: Arc<dyn Collector>,
}

/// A cloneable telemetry handle: either disabled (the default — every
/// operation is a null-check) or bound to a [`Collector`] with a shared time
/// epoch.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The disabled handle: records nothing, costs a null-check per call.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A handle recording into `collector`, with its epoch starting now.
    #[must_use]
    pub fn with_collector(collector: Arc<dyn Collector>) -> Self {
        Telemetry { inner: Some(Arc::new(Inner { epoch: Instant::now(), collector })) }
    }

    /// Whether a collector is installed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns a handle that records into `extra` *in addition to* whatever
    /// this handle already records into.
    ///
    /// A disabled handle becomes an enabled one over `extra` alone; an enabled
    /// handle keeps its epoch (so timestamps from both handles stay on one
    /// timeline) and fans out through a [`FanoutCollector`]. This is how the
    /// daemon layers the always-on flight recorder under an optional
    /// `--trace` stream.
    #[must_use]
    pub fn tee(&self, extra: Arc<dyn Collector>) -> Telemetry {
        match &self.inner {
            None => Telemetry::with_collector(extra),
            Some(inner) => Telemetry {
                inner: Some(Arc::new(Inner {
                    epoch: inner.epoch,
                    collector: Arc::new(FanoutCollector::new(vec![inner.collector.clone(), extra])),
                })),
            },
        }
    }

    /// Microseconds since this handle's epoch (0 when disabled).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Opens a span; the returned guard emits one Chrome complete (`'X'`)
    /// event when dropped. Prefer the [`span!`] macro, which attaches
    /// arguments only when the handle is enabled.
    pub fn span(&self, cat: &'static str, name: &'static str) -> Span<'_> {
        let start_us = match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        };
        Span { inner: self.inner.as_deref(), cat, name, start_us, args: Vec::new() }
    }

    /// Emits an instant (`'i'`) event. Prefer the [`event!`] macro, which
    /// skips argument construction when disabled.
    pub fn instant(&self, cat: &'static str, name: &'static str, args: Vec<(String, Value)>) {
        self.emit(cat, name, 'i', args);
    }

    /// Emits a counter (`'C'`) sample; Chrome plots each argument as a
    /// series.
    pub fn counter(&self, cat: &'static str, name: &'static str, args: Vec<(String, Value)>) {
        self.emit(cat, name, 'C', args);
    }

    fn emit(&self, cat: &'static str, name: &'static str, ph: char, args: Vec<(String, Value)>) {
        if let Some(inner) = &self.inner {
            let ts_us = inner.epoch.elapsed().as_micros() as u64;
            inner.collector.record(TraceEvent {
                name: name.to_string(),
                cat: cat.to_string(),
                ph,
                ts_us,
                dur_us: None,
                tid: current_tid(),
                args,
            });
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_enabled() {
            f.write_str("Telemetry(enabled)")
        } else {
            f.write_str("Telemetry(disabled)")
        }
    }
}

/// A span guard: emits one complete (`'X'`) trace event covering its
/// lifetime when dropped. Created by [`Telemetry::span`] / the [`span!`]
/// macro; attach result fields with [`Span::arg`] before it drops.
#[must_use = "a span records its duration when dropped; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    inner: Option<&'a Inner>,
    cat: &'static str,
    name: &'static str,
    start_us: u64,
    args: Vec<(String, Value)>,
}

impl Span<'_> {
    /// Whether the span will actually record (false for disabled handles).
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an argument (no-op when disabled).
    pub fn arg(&mut self, key: &str, value: impl Into<Value>) {
        if self.inner.is_some() {
            self.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner {
            let end_us = inner.epoch.elapsed().as_micros() as u64;
            inner.collector.record(TraceEvent {
                name: self.name.to_string(),
                cat: self.cat.to_string(),
                ph: 'X',
                ts_us: self.start_us,
                dur_us: Some(end_us.saturating_sub(self.start_us)),
                tid: current_tid(),
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

impl fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Span({}/{}, recording: {})", self.cat, self.name, self.is_recording())
    }
}

/// Opens a [`Span`] on a [`Telemetry`] handle:
/// `span!(tel, "category", "name", key = value, ...)`.
///
/// Argument expressions are only evaluated when the handle is enabled.
#[macro_export]
macro_rules! span {
    ($tel:expr, $cat:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __span = $tel.span($cat, $name);
        if __span.is_recording() {
            $(__span.arg(stringify!($key), $value);)*
        }
        __span
    }};
}

/// Emits an instant event on a [`Telemetry`] handle:
/// `event!(tel, "category", "name", key = value, ...)`.
///
/// Argument expressions are only evaluated when the handle is enabled.
#[macro_export]
macro_rules! event {
    ($tel:expr, $cat:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        if $tel.is_enabled() {
            let __args: Vec<(String, $crate::Value)> =
                vec![$((stringify!($key).to_string(), $crate::Value::from($value))),*];
            $tel.instant($cat, $name, __args);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert_eq!(tel.now_us(), 0);
        {
            let mut s = span!(tel, "c", "n", ignored = 1u64);
            s.arg("also_ignored", 2u64);
        }
        event!(tel, "c", "n", x = 3u64);
    }

    #[test]
    fn span_emits_complete_event_with_args() {
        let collector = Arc::new(RecordingCollector::new());
        let tel = Telemetry::with_collector(collector.clone());
        {
            let mut s = span!(tel, "engine", "anneal", seed = 7u64);
            s.arg("best_cost", 1.25);
        }
        let events = collector.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!((e.ph, e.name.as_str(), e.cat.as_str()), ('X', "anneal", "engine"));
        assert!(e.dur_us.is_some());
        assert_eq!(e.args[0], ("seed".to_string(), Value::U64(7)));
        assert_eq!(e.args[1], ("best_cost".to_string(), Value::F64(1.25)));
    }

    #[test]
    fn instant_and_counter_events_record() {
        let collector = Arc::new(RecordingCollector::new());
        let tel = Telemetry::with_collector(collector.clone());
        event!(tel, "service", "accept", port = 80u64);
        tel.counter("service", "queue", vec![("depth".to_string(), Value::U64(3))]);
        let events = collector.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ph, 'i');
        assert_eq!(events[1].ph, 'C');
    }

    #[test]
    fn clones_share_the_collector_and_epoch() {
        let collector = Arc::new(RecordingCollector::new());
        let tel = Telemetry::with_collector(collector.clone());
        let clone = tel.clone();
        event!(clone, "a", "b");
        assert_eq!(collector.len(), 1);
        assert!(clone.now_us() >= tel.now_us() || tel.now_us() == clone.now_us());
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let collector = Arc::new(RecordingCollector::new());
        let tel = Telemetry::with_collector(collector.clone());
        event!(tel, "t", "one");
        event!(tel, "t", "two");
        let events = collector.events();
        assert_eq!(events[0].tid, events[1].tid);
    }
}
