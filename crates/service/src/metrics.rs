//! Service-level metrics: counters, gauges and latency histograms.
//!
//! One [`MetricsRegistry`] holds every figure the daemon reports: `stats`
//! embeds its snapshot and `/metrics` renders it. The handles below are
//! pre-resolved at service start so the hot request path never takes the
//! registry lock; the static configuration is gauges set once at start.

use apls_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_MS_BOUNDS};

/// Pre-resolved metric handles of one service instance.
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    /// The backing registry (snapshot source of the `stats` response).
    pub registry: MetricsRegistry,
    /// Requests parsed off a connection, by any op.
    pub requests_total: Counter,
    /// Requests refused with `retry` because the job queue was full.
    pub retries_total: Counter,
    /// Requests answered with an error envelope.
    pub errors_total: Counter,
    /// Jobs answered with a report, whether solved or served from the cache
    /// (also the `stats` reply's `jobs_completed`).
    pub jobs_completed_total: Counter,
    /// Jobs served from the result cache, at admission or after dequeue (also
    /// the `stats` reply's `cache_hits`).
    pub cache_hits_total: Counter,
    /// Jobs that found no cached report and went on to a worker's solve,
    /// counted once per job where the worker's re-probe misses.
    pub cache_misses_total: Counter,
    /// Reports stored in the result cache, new keys and refreshes.
    pub cache_insertions_total: Counter,
    /// Result-cache entries evicted to make room for a new key.
    pub cache_evictions_total: Counter,
    /// Result-cache entries held, set at each insertion.
    pub cache_entries: Gauge,
    /// Poisoned locks recovered by [`crate::sync::lock_or_recover`].
    pub poison_recoveries_total: Counter,
    /// Jobs currently waiting in the bounded queue.
    pub queue_depth: Gauge,
    /// Jobs currently being solved by a worker.
    pub in_flight: Gauge,
    /// Live client connections.
    pub connections_active: Gauge,
    /// Worker panics caught and converted to `internal` error responses.
    pub worker_panics_total: Counter,
    /// Worker threads respawned after a panic escaped the job boundary.
    pub worker_respawns_total: Counter,
    /// Jobs that expired their deadline and were answered `timeout`.
    pub timeouts_total: Counter,
    /// Journal records durably appended.
    pub journal_records_total: Counter,
    /// Journal appends that failed (service degraded to non-durable).
    pub journal_write_failures_total: Counter,
    /// Completed pre-crash reports restored into the cache at startup.
    pub jobs_recovered_total: Counter,
    /// Incomplete journaled jobs replayed through the workers at startup.
    pub jobs_replayed_total: Counter,
    /// Accepted connections dropped by fault injection.
    pub connections_dropped_total: Counter,
    /// Fds currently registered in the readiness poller (listener + wake
    /// pipe + one per connection).
    pub poller_registered_fds: Gauge,
    /// Times the reactor woke from its readiness poll with at least one
    /// event.
    pub readiness_wakeups_total: Counter,
    /// Streaming frames written (accepted/queued/progress/report).
    pub frames_sent_total: Counter,
    /// Reactor iterations that exceeded the stall-watchdog threshold.
    pub reactor_stalls_total: Counter,
    /// Largest outstanding per-connection write buffer seen in the most
    /// recent reactor flush pass (bytes).
    pub write_buffer_bytes: Gauge,
    /// High-water mark of [`Self::write_buffer_bytes`] over the process
    /// lifetime.
    pub write_buffer_high_water: Gauge,
    /// Seconds since the service started (refreshed at snapshot/scrape time).
    pub uptime_seconds: Gauge,
    /// `1` when `/readyz` would answer 200, else `0` (refreshed likewise).
    pub ready: Gauge,
    /// Flight-recorder dumps written to disk (panic, fault trip, or `dump`).
    pub flight_dumps_total: Counter,
    /// Time from request accept (line parsed) to the admission decision —
    /// index/seed/cache/journal work under the enqueue lock (ms).
    pub admit_ms: Histogram,
    /// Time a job spent queued before a worker picked it up (ms).
    pub queue_ms: Histogram,
    /// Time a worker spent solving (or fetching from cache) a job (ms).
    pub solve_ms: Histogram,
    /// Time from a response/frame being queued to its bytes reaching the
    /// socket (ms): the write-stall component of job latency.
    pub flush_ms: Histogram,
    /// End-to-end `place` latency as the reactor saw it (ms).
    pub total_ms: Histogram,
    /// Time the reactor spent blocked in its readiness poll (ms).
    pub poll_wait_ms: Histogram,
    /// Time one reactor iteration spent processing after the poll
    /// returned (ms).
    pub loop_ms: Histogram,
}

impl ServiceMetrics {
    pub(crate) fn new() -> ServiceMetrics {
        let registry = MetricsRegistry::new();
        ServiceMetrics {
            requests_total: registry.counter("requests_total"),
            retries_total: registry.counter("retries_total"),
            errors_total: registry.counter("errors_total"),
            jobs_completed_total: registry.counter("jobs_completed_total"),
            cache_hits_total: registry.counter("cache_hits_total"),
            cache_misses_total: registry.counter("cache_misses_total"),
            cache_insertions_total: registry.counter("cache_insertions_total"),
            cache_evictions_total: registry.counter("cache_evictions_total"),
            cache_entries: registry.gauge("cache_entries"),
            poison_recoveries_total: registry.counter("poison_recoveries_total"),
            queue_depth: registry.gauge("queue_depth"),
            in_flight: registry.gauge("in_flight_jobs"),
            connections_active: registry.gauge("connections_active"),
            worker_panics_total: registry.counter("worker_panics_total"),
            worker_respawns_total: registry.counter("worker_respawns_total"),
            timeouts_total: registry.counter("timeouts_total"),
            journal_records_total: registry.counter("journal_records_total"),
            journal_write_failures_total: registry.counter("journal_write_failures_total"),
            jobs_recovered_total: registry.counter("jobs_recovered_total"),
            jobs_replayed_total: registry.counter("jobs_replayed_total"),
            connections_dropped_total: registry.counter("connections_dropped_total"),
            poller_registered_fds: registry.gauge("poller_registered_fds"),
            readiness_wakeups_total: registry.counter("readiness_wakeups_total"),
            frames_sent_total: registry.counter("frames_sent_total"),
            reactor_stalls_total: registry.counter("reactor_stalls_total"),
            write_buffer_bytes: registry.gauge("write_buffer_bytes"),
            write_buffer_high_water: registry.gauge("write_buffer_high_water_bytes"),
            uptime_seconds: registry.gauge("uptime_seconds"),
            ready: registry.gauge("ready"),
            flight_dumps_total: registry.counter("flight_dumps_total"),
            admit_ms: registry.histogram("admit_ms", LATENCY_MS_BOUNDS),
            queue_ms: registry.histogram("queue_ms", LATENCY_MS_BOUNDS),
            solve_ms: registry.histogram("solve_ms", LATENCY_MS_BOUNDS),
            flush_ms: registry.histogram("flush_ms", LATENCY_MS_BOUNDS),
            total_ms: registry.histogram("total_ms", LATENCY_MS_BOUNDS),
            poll_wait_ms: registry.histogram("poll_wait_ms", LATENCY_MS_BOUNDS),
            loop_ms: registry.histogram("loop_ms", LATENCY_MS_BOUNDS),
            registry,
        }
    }
}
