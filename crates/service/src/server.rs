//! The placement daemon: bounded job queue, worker pool, result cache and
//! the state they share with the readiness reactor ([`crate::reactor`]),
//! the only thread that touches client sockets.
//!
//! ```text
//!            ┌─────────┐  admit_place: bounded sync_channel  ┌──────────┐
//!  TCP ──────► reactor │ ────── Job {canonical, ...} ───────► worker 0..N
//!  clients   │ thread  │ ◄── JobMsg (CompletionQueue +  ──── │ run_portfolio
//!            └─────────┘          wake pipe)                 └────┬─────┘
//!                 ▲                                               │
//!                 └─────────────── LRU result cache ◄─────────────┘
//!                                         ▲
//!                        durable job journal (enqueue/complete)
//! ```
//!
//! Determinism contract: a job's report body is
//! [`apls_portfolio::PortfolioReport::to_json_deterministic`] — a pure
//! function of `(circuit, config, seed)` — so responses are byte-identical
//! regardless of worker count, queue depth, arrival order, or whether the
//! cache served them. Jobs without a pinned seed get one from
//! [`SeedStream::seed_for`]`(JOB_SEED_LANE, job_index)` where `job_index`
//! counts accepted jobs from 0, so replaying a job log against a fresh
//! service reproduces every report bit for bit.
//!
//! Fault tolerance (see DESIGN.md §12): the optional [`crate::journal`]
//! extends the replay guarantee across a crash — completed reports are
//! restored into the cache at startup and incomplete jobs are re-solved with
//! their recorded seeds. Worker panics are caught per job
//! (`catch_unwind`), answered as `{"status":"error","kind":"internal"}`,
//! and never poison shared state ([`crate::sync::lock_or_recover`]); a
//! panic that escapes the job boundary respawns the worker loop in place.
//! Per-job deadlines cancel cooperatively between restarts and answer
//! `{"status":"timeout"}`. A deterministic [`FaultPlan`] can inject worker
//! panics, forced-slow solves, journal write failures and connection drops
//! at pinned points for testing.

use crate::cache::{CacheStats, LruCache};
use crate::canonical::{Canonical, Interner};
use crate::fault::FaultPlan;
use crate::journal::{Journal, JournalConfig, JournalRecord, Recovery};
use crate::json::quote;
use crate::metrics::ServiceMetrics;
use crate::protocol::JobSpec;
use crate::reactor::{Listening, WakeSender};
use crate::reply::Dest;
use crate::sync::lock_or_recover;
use apls_anneal::rng::SeedStream;
use apls_io::canonical_hash;
use apls_portfolio::{
    run_portfolio_with, CancelToken, PortfolioConfig, RestartObserver, RestartRecord, RunContext,
};
use apls_telemetry::{FlightRecorder, Telemetry};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The seed-stream lane job seeds derive from (engines use lanes 1–5 of
/// their per-job streams; this lane lives in the *service's* stream, rooted
/// at [`ServiceConfig::seed`]).
pub const JOB_SEED_LANE: u64 = 0x10B;

/// Wire-protocol version reported by `ping`.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default for [`ServiceConfig::max_request_bytes`]. Inline `.apls` circuits
/// are the big case (~30 bytes per module line); 16 MiB fits circuits three
/// orders of magnitude beyond the largest bundled benchmark while bounding
/// what one peer can make the daemon buffer.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

/// Default for [`ServiceConfig::max_connections`]; beyond the limit, new
/// connections are refused with an error line so a connection flood cannot
/// exhaust file descriptors.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind (`0` = ephemeral, see
    /// [`PlacementService::local_addr`]).
    pub port: u16,
    /// Worker threads executing placement jobs.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue answers `retry`.
    pub queue_capacity: usize,
    /// Result-cache entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Root of the service seed stream for jobs without a pinned seed.
    pub seed: u64,
    /// Test/bench hook: artificial extra latency per computed (non-cached)
    /// job, simulating heavier circuits than the suite can afford to run.
    pub job_delay: Option<Duration>,
    /// Concurrent connections served at once (default 1024).
    pub max_connections: usize,
    /// Largest accepted request line (default 16 MiB); an oversized line is answered with
    /// `{"status":"error","kind":"request_too_large"}` and the connection
    /// closed.
    pub max_request_bytes: usize,
    /// Optional durable job journal; see [`crate::journal`]. `None` keeps
    /// the pre-journal in-memory behaviour.
    pub journal: Option<JournalConfig>,
    /// Deterministic fault injection (tests/CI only; the CLI additionally
    /// requires the `APLS_FAULT_INJECTION=1` environment guard).
    pub fault_plan: Option<FaultPlan>,
    /// Optional HTTP sidecar address (`host:port`) exposing Prometheus
    /// `/metrics`, `/healthz` and `/readyz`. `None` (the default) serves no
    /// HTTP endpoint.
    pub metrics_addr: Option<String>,
    /// Flight-recorder ring capacity in events; `0` disables the recorder.
    /// The default keeps a small always-on ring so every daemon can produce
    /// a postmortem dump.
    pub flight_recorder: usize,
    /// Where flight-recorder dumps land (and, via `<path>.a`/`<path>.b`,
    /// the crash-survivable spill ring). `None` dumps to a per-process file
    /// in the system temp directory and keeps no spill.
    pub flight_recorder_path: Option<PathBuf>,
}

/// Default flight-recorder ring capacity (events).
pub const DEFAULT_FLIGHT_RECORDER_CAPACITY: usize = 2048;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 128,
            seed: 1,
            job_delay: None,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            journal: None,
            fault_plan: None,
            metrics_addr: None,
            flight_recorder: DEFAULT_FLIGHT_RECORDER_CAPACITY,
            flight_recorder_path: None,
        }
    }
}

/// The result-cache key: (circuit hash, canonical config string, seed).
/// The 64-bit hash alone proves nothing, so a key match is a hit only when
/// the entry's canonical circuit text is byte-equal to the request's (see
/// [`probe`]): a hash collision is a miss, never another circuit's report.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// [`canonical_hash`] of the canonical `.apls` text of the circuit.
    circuit_hash: u64,
    /// Canonical string of every result-relevant config field.
    config: String,
    /// The job's root seed.
    seed: u64,
}

/// One finished report in the result cache, ready to copy onto the wire
/// and into the journal.
#[derive(Debug, Clone)]
struct CachedReport {
    /// Canonical `.apls` text of the circuit the report was solved for.
    circuit: Arc<str>,
    /// The deterministic report body, escaped as a JSON string literal.
    quoted: Arc<str>,
    /// [`canonical_hash`] of the report body (the journal's `report_fp`).
    report_fp: u64,
}

impl CachedReport {
    /// Escapes and fingerprints `report` once, as it enters the cache.
    fn new(circuit: Arc<str>, report: &str) -> CachedReport {
        CachedReport { circuit, quoted: quote(report).into(), report_fp: canonical_hash(report) }
    }
}

/// Probes the result cache for `key`, solved for the canonical circuit
/// text `circuit`. An entry under the same key but for different text (a
/// circuit-hash collision) counts as a miss.
fn probe(
    cache: &Mutex<LruCache<CacheKey, CachedReport>>,
    key: &CacheKey,
    circuit: &Arc<str>,
) -> Option<CachedReport> {
    lock_or_recover(cache)
        .get_checked(key, |entry| Arc::ptr_eq(&entry.circuit, circuit) || entry.circuit == *circuit)
        .cloned()
}

/// One queued placement job.
struct Job {
    /// Arrival-order job index (the envelope's `id`, the journal's `index`).
    index: u64,
    canonical: Canonical,
    config: PortfolioConfig,
    cache_key: CacheKey,
    /// Cooperative deadline; an expired job answers `timeout`.
    deadline: Option<Instant>,
    enqueued: Instant,
    /// Where the job's messages go; recovery replays answer nobody. A
    /// streamed job gets per-restart `progress` messages, a plain job only
    /// the final [`JobMsg::Done`].
    reply: Option<Dest>,
}

/// Why a job produced no report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobFailure {
    /// The solve panicked; the worker caught it and kept running.
    Panic,
    /// The job expired its deadline before completing.
    Timeout,
}

/// A worker-to-reactor message for one job.
pub(crate) enum JobMsg {
    /// One restart of a streamed job completed (plan order).
    Progress {
        /// Engine that ran the restart.
        engine: &'static str,
        /// Restart number within that engine.
        restart: usize,
        /// Restarts completed so far (1-based).
        completed: usize,
        /// Planned total restarts.
        total: usize,
        /// The restart's placement cost.
        cost: f64,
    },
    /// The job finished (report, timeout or panic).
    Done {
        /// The deterministic report, escaped as a JSON string literal (with
        /// its cache-hit flag), or why there is none.
        outcome: Result<(Arc<str>, bool), JobFailure>,
        queue_ms: f64,
        solve_ms: f64,
    },
}

/// The reactor's inbound queue of job messages, shared with every worker:
/// workers never touch connection sockets, they hand each message to the
/// reactor thread that owns them. Pushing wakes the reactor out of its
/// readiness poll via the self-pipe.
pub(crate) struct CompletionQueue {
    queue: Mutex<VecDeque<(u64, JobMsg)>>,
    wake: WakeSender,
}

impl CompletionQueue {
    fn push(&self, index: u64, msg: JobMsg) {
        lock_or_recover(&self.queue).push_back((index, msg));
        self.wake.wake();
    }

    /// Takes everything queued so far (reactor thread only).
    pub(crate) fn drain(&self) -> Vec<(u64, JobMsg)> {
        lock_or_recover(&self.queue).drain(..).collect()
    }
}

/// The sending half of the job queue plus the arrival-order job counter,
/// behind one mutex so that (index assignment, enqueue, journal append) is
/// atomic: a rejected job never consumes an index and journal records appear
/// in index order, which keeps derived seeds replayable.
struct EnqueueSlot {
    next_index: u64,
    tx: SyncSender<Job>,
}

/// State shared by the reactor, the workers and the metrics sidecar.
pub(crate) struct Shared {
    pub(crate) config: ServiceConfig,
    seeds: SeedStream,
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
    cache: Mutex<LruCache<CacheKey, CachedReport>>,
    /// Resolves request circuits to their memoised canonical form.
    pub(crate) circuits: Interner,
    enqueue: Mutex<Option<EnqueueSlot>>,
    pub(crate) journal: Option<Journal>,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    pub(crate) telemetry: Telemetry,
    pub(crate) metrics: ServiceMetrics,
    /// The always-on flight recorder (absent when `flight_recorder == 0`).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// True while the journal-recovery replay thread is still re-enqueueing
    /// pre-crash jobs; `/readyz` answers 503 until this clears.
    pub(crate) recovery_pending: AtomicBool,
    /// Self-pipe sender: wakes the reactor out of its readiness wait on
    /// shutdown.
    wake: WakeSender,
    /// Where workers push job messages for the reactor.
    pub(crate) completions: CompletionQueue,
}

impl Shared {
    /// Appends a journal record, degrading to non-durable on failure: the
    /// job is answered either way, the failure is counted and traced, and
    /// the flight recorder captures the moments leading up to it.
    fn journal_append(&self, record: &JournalRecord<'_>) {
        let Some(journal) = &self.journal else { return };
        match journal.append(record) {
            Ok(()) => self.metrics.journal_records_total.inc(),
            Err(e) => {
                self.metrics.journal_write_failures_total.inc();
                apls_telemetry::event!(
                    self.telemetry,
                    "service",
                    "journal_write_failure",
                    error = e.to_string()
                );
                self.dump_flight("journal_write_failure");
            }
        }
    }

    /// Writes the flight-recorder ring to the configured path, or to a
    /// per-process file under the system temp directory, counting and
    /// tracing a successful dump. `None` when the recorder is disabled.
    /// Worker panics and fault-injection trips ignore the result (a crash
    /// path must not crash harder); the `dump` op answers with it.
    pub(crate) fn dump_flight(&self, reason: &str) -> Option<std::io::Result<FlightDump>> {
        let recorder = self.recorder.as_ref()?;
        let path = self.config.flight_recorder_path.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("apls-flight-{}.jsonl", std::process::id()))
        });
        Some(recorder.dump_to(&path).map(|events| {
            self.metrics.flight_dumps_total.inc();
            apls_telemetry::event!(
                self.telemetry,
                "service",
                "flight_dump",
                reason = reason.to_string(),
                events = events as u64
            );
            FlightDump {
                path,
                events,
                overwritten: recorder.overwritten(),
                capacity: recorder.capacity(),
            }
        }))
    }

    /// Readiness for `/readyz`: the journal-recovery replay has finished
    /// re-enqueueing and the job queue sits below its high-water mark
    /// (90% of capacity), i.e. the instance can absorb new work.
    pub(crate) fn is_ready(&self) -> (bool, &'static str) {
        if self.recovery_pending.load(Ordering::SeqCst) {
            return (false, "recovery replay in progress");
        }
        let capacity = self.config.queue_capacity as i64;
        let high_water = (capacity * 9 / 10).max(1);
        if self.metrics.queue_depth.get() >= high_water {
            return (false, "job queue above high-water");
        }
        (true, "ready")
    }

    /// The result cache's insertion/eviction counters and its entry count,
    /// read together.
    pub(crate) fn cache_stats(&self) -> (CacheStats, usize) {
        let cache = lock_or_recover(&self.cache);
        (cache.stats(), cache.len())
    }

    /// Uptime in whole seconds, refreshing the gauge as a side effect so
    /// both `stats` snapshots and `/metrics` scrapes see a current value.
    pub(crate) fn refresh_uptime(&self) -> u64 {
        let uptime = self.started.elapsed().as_secs();
        self.metrics.uptime_seconds.set(uptime as i64);
        uptime
    }
}

/// One flight-recorder dump written to disk.
pub(crate) struct FlightDump {
    /// Where the dump landed.
    pub(crate) path: PathBuf,
    /// Events written.
    pub(crate) events: usize,
    /// Events the ring had overwritten before the dump.
    pub(crate) overwritten: u64,
    /// The ring's capacity in events.
    pub(crate) capacity: usize,
}

/// A running placement service.
///
/// # Example
///
/// ```
/// use apls_service::{JobSpec, PlacementService, ServiceClient, ServiceConfig};
///
/// let service = PlacementService::start(ServiceConfig::default()).expect("binds");
/// let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
/// let spec = JobSpec::bundled("miller_opamp_fig6").with_seed(7).with_restarts(1).with_fast(true);
/// let response = client.place(&spec).expect("round-trips");
/// assert!(response.is_ok());
/// service.shutdown();
/// service.join();
/// ```
pub struct PlacementService {
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    recovery: Option<JoinHandle<()>>,
    metrics_server: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl PlacementService {
    /// Binds the listener and spawns the reactor and worker threads.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable, the
    /// readiness-poller setup error (`Unsupported` off Unix, where the
    /// service cannot run), or the journal open/replay error when a
    /// configured journal cannot be used.
    ///
    /// # Panics
    ///
    /// Panics when `workers` or `queue_capacity` is zero.
    pub fn start(config: ServiceConfig) -> std::io::Result<PlacementService> {
        PlacementService::start_with_telemetry(config, Telemetry::disabled())
    }

    /// [`PlacementService::start`] with a telemetry handle threaded through
    /// the request lifecycle and into every placement job. Observe-only:
    /// report bodies are byte-identical whatever collector is installed.
    ///
    /// # Errors
    ///
    /// As [`PlacementService::start`].
    ///
    /// # Panics
    ///
    /// Panics when `workers` or `queue_capacity` is zero.
    pub fn start_with_telemetry(
        config: ServiceConfig,
        telemetry: Telemetry,
    ) -> std::io::Result<PlacementService> {
        assert!(config.workers >= 1, "service needs at least one worker");
        assert!(config.queue_capacity >= 1, "service needs a queue depth of at least 1");
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let local_addr = listener.local_addr()?;
        // The poller, the self-pipe and their registrations come up before
        // any thread is spawned, so a failure fails the start.
        let listening = Listening::new(listener)?;
        // Bind the observability sidecar before spawning anything so a bad
        // --metrics-addr fails the whole start instead of leaking threads.
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };

        // The always-on flight recorder: a bounded ring of service/reactor
        // events teed under whatever collector the caller installed, plus an
        // optional crash-survivable disk spill.
        let recorder = if config.flight_recorder > 0 {
            let mut recorder = FlightRecorder::new(config.flight_recorder)
                .with_categories(&["service", "reactor"]);
            if let Some(path) = &config.flight_recorder_path {
                recorder = recorder.with_spill(path)?;
            }
            Some(Arc::new(recorder))
        } else {
            None
        };
        let telemetry = match &recorder {
            Some(recorder) => {
                telemetry.tee(Arc::clone(recorder) as Arc<dyn apls_telemetry::Collector>)
            }
            None => telemetry,
        };

        let fault = config.fault_plan.clone().filter(|p| !p.is_empty()).map(Arc::new);
        let (journal, recovered) = match &config.journal {
            Some(journal_config) => {
                let (journal, recovery) = Journal::open(journal_config, fault.clone())?;
                (Some(journal), Some(recovery))
            }
            None => (None, None),
        };

        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity);
        let recovery_tx = tx.clone();
        let next_index = recovered.as_ref().map_or(0, |r| r.next_index);
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            seeds: SeedStream::new(config.seed),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            circuits: Interner::new(config.cache_capacity),
            enqueue: Mutex::new(Some(EnqueueSlot { next_index, tx })),
            journal,
            fault,
            telemetry,
            metrics: ServiceMetrics::new(),
            recorder,
            recovery_pending: AtomicBool::new(false),
            wake: listening.waker(),
            completions: CompletionQueue {
                queue: Mutex::new(VecDeque::new()),
                wake: listening.waker(),
            },
            config,
        });
        shared.metrics.registry.set_info(
            "build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("git", env!("APLS_GIT_HASH")),
                ("poller", listening.poller_name()),
            ],
        );

        let workers = (0..shared.config.workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    // In-place respawn supervisor: per-job panics are caught
                    // inside worker_loop; if one nonetheless escapes (a bug
                    // in the loop itself), the worker re-enters the loop
                    // instead of dying and silently shrinking the pool.
                    loop {
                        match catch_unwind(AssertUnwindSafe(|| worker_loop(&rx, &shared))) {
                            Ok(()) => break, // queue closed and drained: shutdown
                            Err(_) => {
                                shared.metrics.worker_respawns_total.inc();
                                if shared.shutdown.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let recovery =
            recovered.and_then(|recovery| replay_recovered_jobs(recovery, &shared, recovery_tx));
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || crate::reactor::run(listening, &shared))
        };
        let metrics_server =
            metrics_listener.map(|listener| crate::http::spawn(listener, Arc::clone(&shared)));
        Ok(PlacementService {
            local_addr,
            metrics_addr,
            shared,
            reactor: Some(reactor),
            recovery,
            metrics_server,
            workers,
        })
    }

    /// The bound address (with the actual port when an ephemeral one was
    /// requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound HTTP observability address, when
    /// [`ServiceConfig::metrics_addr`] was set.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Initiates a graceful shutdown: stop accepting, drain the queue, let
    /// in-flight responses go out. Idempotent; [`PlacementService::join`]
    /// waits for completion.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Blocks until the service has shut down (via
    /// [`PlacementService::shutdown`] or a client `shutdown` request) and
    /// every thread has exited.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        if let Some(recovery) = self.recovery.take() {
            let _ = recovery.join();
        }
        if let Some(metrics_server) = self.metrics_server.take() {
            let _ = metrics_server.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(journal) = &self.shared.journal {
            journal.sync();
        }
    }
}

impl Drop for PlacementService {
    fn drop(&mut self) {
        self.shutdown();
        self.join_threads();
    }
}

/// Restores completed journaled jobs into the cache and re-enqueues
/// incomplete ones (in index order, with their recorded seeds) on a
/// background thread, so startup does not block behind a queue-capacity's
/// worth of replayed solves.
fn replay_recovered_jobs(
    recovery: Recovery,
    shared: &Arc<Shared>,
    tx: SyncSender<Job>,
) -> Option<JoinHandle<()>> {
    if recovery.torn_lines > 0 {
        // a torn tail is expected after a mid-write crash; the partial
        // record's job simply counts as incomplete and is replayed
        apls_telemetry::event!(
            shared.telemetry,
            "service",
            "journal_torn_tail",
            lines = recovery.torn_lines as u64
        );
    }
    let mut pending: Vec<Job> = Vec::new();
    for job in recovery.jobs {
        let Ok(canonical) = shared.circuits.resolve(&job.spec.circuit) else {
            apls_telemetry::event!(shared.telemetry, "service", "recovery_skip", id = job.index);
            continue;
        };
        let config = job.spec.config_canonical();
        // Integrity gate: a record whose fingerprints no longer match its
        // spec (bit rot, foreign journal) must not poison the cache.
        if canonical.hash != job.circuit_hash || canonical_hash(&config) != job.config_fp {
            apls_telemetry::event!(shared.telemetry, "service", "recovery_skip", id = job.index);
            continue;
        }
        let cache_key = CacheKey { circuit_hash: canonical.hash, config, seed: job.seed };
        match job.report {
            Some(report) => {
                let entry = CachedReport::new(Arc::clone(&canonical.text), &report);
                lock_or_recover(&shared.cache).insert(cache_key, entry);
                shared.metrics.jobs_recovered_total.inc();
            }
            None => {
                // Nobody waits for a replayed job's response: its purpose is
                // the journal completion record and the cache entry it
                // leaves behind.
                pending.push(Job {
                    index: job.index,
                    config: job.spec.resolved_config(job.seed),
                    canonical,
                    cache_key,
                    deadline: None,
                    enqueued: Instant::now(),
                    reply: None,
                });
                shared.metrics.jobs_replayed_total.inc();
            }
        }
    }
    if pending.is_empty() {
        return None;
    }
    // `/readyz` answers 503 until the replay has re-enqueued everything.
    shared.recovery_pending.store(true, Ordering::SeqCst);
    let shared = Arc::clone(shared);
    Some(std::thread::spawn(move || {
        for job in pending {
            shared.metrics.queue_depth.add(1);
            if tx.send(job).is_err() {
                // shutdown before the replay drained; the journal still
                // holds the enqueue records, the next start finishes the job
                shared.metrics.queue_depth.sub(1);
                break;
            }
        }
        shared.recovery_pending.store(false, Ordering::SeqCst);
    }))
}

pub(crate) fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Dropping the only SyncSender lets the workers drain the queue and exit.
    lock_or_recover(&shared.enqueue).take();
    // The self-pipe pops the reactor out of its readiness wait immediately.
    shared.wake.wake();
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    loop {
        // Holding the lock while waiting is fine: the holder takes the next
        // job and releases before solving, so dequeueing is serialised but
        // solving is parallel.
        let job = match lock_or_recover(rx).recv() {
            Ok(job) => job,
            Err(_) => break, // queue closed and drained: shutdown
        };
        shared.metrics.queue_depth.sub(1);
        shared.metrics.in_flight.add(1);
        let queue_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        shared.metrics.queue_ms.observe(queue_ms);
        let solve_start = Instant::now();

        let outcome = execute_job(&job, shared, queue_ms);
        match &outcome {
            Ok((entry, _)) => {
                shared.journal_append(&JournalRecord::Complete {
                    index: job.index,
                    report_fp: entry.report_fp,
                    quoted_report: &entry.quoted,
                });
                shared.metrics.jobs_completed_total.inc();
            }
            Err(JobFailure::Timeout) => shared.metrics.timeouts_total.inc(),
            Err(JobFailure::Panic) => {
                shared.metrics.worker_panics_total.inc();
                // Postmortem capture: persist the events leading up to the
                // panic before the error envelope goes out.
                shared.dump_flight("worker_panic");
            }
        }
        shared.metrics.in_flight.sub(1);
        let solve_ms = solve_start.elapsed().as_secs_f64() * 1e3;
        shared.metrics.solve_ms.observe(solve_ms);
        if job.reply.is_some() {
            // The client may have hung up; the reactor drops the message then.
            let outcome = outcome.map(|(entry, cache_hit)| (entry.quoted, cache_hit));
            shared.completions.push(job.index, JobMsg::Done { outcome, queue_ms, solve_ms });
        }
    }
}

/// Relays per-restart progress of a streamed job to the reactor while the
/// solve runs. Observe-only: the report body stays byte-identical.
struct ProgressRelay<'a> {
    completions: &'a CompletionQueue,
    index: u64,
}

impl RestartObserver for ProgressRelay<'_> {
    fn restart_complete(&self, record: &RestartRecord, completed: usize, total: usize) {
        self.completions.push(
            self.index,
            JobMsg::Progress {
                engine: record.engine.name(),
                restart: record.restart,
                completed,
                total,
                cost: record.cost,
            },
        );
    }
}

/// Runs one dequeued job to a report, a cache hit, or a failure — never a
/// panic: the solve is wrapped in `catch_unwind` so an engine crash (or an
/// injected one) is confined to this job.
fn execute_job(
    job: &Job,
    shared: &Shared,
    queue_ms: f64,
) -> Result<(CachedReport, bool), JobFailure> {
    // Re-check the cache after dequeue: back-to-back identical misses dedupe.
    if let Some(entry) = probe(&shared.cache, &job.cache_key, &job.canonical.text) {
        shared.metrics.cache_hits_total.inc();
        return Ok((entry, true));
    }
    shared.metrics.cache_misses_total.inc();
    // A job that expired while queued is not worth starting.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(JobFailure::Timeout);
    }
    if let Some(ms) = shared.fault.as_ref().and_then(|plan| plan.slow_solve_ms(job.index)) {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if let Some(delay) = shared.config.job_delay {
        std::thread::sleep(delay);
    }
    let solved = catch_unwind(AssertUnwindSafe(|| {
        if shared.fault.as_ref().is_some_and(|plan| plan.panic_on_job(job.index)) {
            panic!("fault injection: worker panic on job {}", job.index);
        }
        let mut span = apls_telemetry::span!(
            shared.telemetry,
            "service",
            "solve",
            circuit = job.canonical.circuit.name.as_str(),
            seed = job.config.root_seed
        );
        let cancel = job.deadline.map(CancelToken::with_deadline).unwrap_or_default();
        let relay = ProgressRelay { completions: &shared.completions, index: job.index };
        let streaming = matches!(job.reply, Some(Dest::Stream(_)));
        let observer = streaming.then_some(&relay as &dyn RestartObserver);
        let context = RunContext { telemetry: shared.telemetry.clone(), cancel, observer };
        let result = run_portfolio_with(&job.canonical.circuit, &job.config, &context);
        if span.is_recording() {
            span.arg("queue_ms", queue_ms);
            span.arg("timed_out", result.is_err());
        }
        result
    }));
    match solved {
        Err(_) => Err(JobFailure::Panic),
        Ok(Err(_cancelled)) => Err(JobFailure::Timeout),
        Ok(Ok(report)) => {
            let entry =
                CachedReport::new(Arc::clone(&job.canonical.text), &report.to_json_deterministic());
            lock_or_recover(&shared.cache).insert(job.cache_key.clone(), entry.clone());
            Ok((entry, false))
        }
    }
}

/// The outcome of admitting a `place` request under the enqueue lock.
pub(crate) enum Admission {
    /// The service is shutting down; nothing was admitted.
    ShuttingDown,
    /// The bounded queue is full; nothing was admitted (no index consumed).
    QueueFull,
    /// A cache hit: the job consumed an index and is already complete
    /// (journaled Enqueue+Complete, counters bumped); no worker involved.
    Cached {
        /// The job's arrival-order index.
        index: u64,
        /// The resolved root seed.
        seed: u64,
        /// The cached deterministic report body, escaped as a JSON string
        /// literal.
        quoted_report: Arc<str>,
    },
    /// The job was enqueued; its messages arrive via the completion queue.
    Enqueued {
        /// The job's arrival-order index.
        index: u64,
        /// The resolved root seed.
        seed: u64,
    },
}

/// Admits one `place` job: assigns the arrival-order index, resolves the
/// seed, probes the cache and journals — all atomically under the enqueue
/// lock, so derived seeds stay replay-stable whatever the outcome. Timing
/// spans and `total_ms` accounting stay with the caller.
pub(crate) fn admit_place(
    spec: &JobSpec,
    canonical: Canonical,
    shared: &Shared,
    to: Dest,
    accepted: Instant,
) -> Admission {
    let circuit_hash = canonical.hash;
    let config_canonical = spec.config_canonical();
    let deadline_ms = spec.deadline_ms;

    let mut guard = lock_or_recover(&shared.enqueue);
    let Some(slot) = guard.as_mut() else {
        return Admission::ShuttingDown;
    };
    let index = slot.next_index;
    let seed = spec.seed.unwrap_or_else(|| shared.seeds.seed_for(JOB_SEED_LANE, index));
    // The journaled spec is self-contained for replay: seed pinned to the
    // resolved value, deadline stripped (a replayed job deserves its full
    // time budget — the deadline bounded the original request's latency, not
    // the result), stream tags stripped (transport concerns, like the
    // deadline, are not part of what the job computes).
    let journal_spec = shared.journal.as_ref().map(|_| {
        let mut journal_spec = spec.clone();
        journal_spec.seed = Some(seed);
        journal_spec.deadline_ms = None;
        journal_spec.stream = None;
        journal_spec.stream_id = None;
        journal_spec.to_json_line()
    });
    let config_fp = canonical_hash(&config_canonical);
    let enqueue_record = journal_spec.as_deref().map(|spec| JournalRecord::Enqueue {
        index,
        seed,
        circuit_hash,
        config_fp,
        spec,
    });
    let cache_key = CacheKey { circuit_hash, config: config_canonical, seed };
    // Probe the cache here, before spending a queue slot: a hit is answered
    // even when the queue is full of multi-second solves. Hits still consume
    // a job index, exactly as enqueued jobs do, so derived seeds stay
    // replay-stable either way.
    if let Some(entry) = probe(&shared.cache, &cache_key, &canonical.text) {
        slot.next_index += 1;
        if let Some(record) = &enqueue_record {
            shared.journal_append(record);
            shared.journal_append(&JournalRecord::Complete {
                index,
                report_fp: entry.report_fp,
                quoted_report: &entry.quoted,
            });
        }
        drop(guard);
        shared.metrics.admit_ms.observe(accepted.elapsed().as_secs_f64() * 1e3);
        shared.metrics.cache_hits_total.inc();
        shared.metrics.jobs_completed_total.inc();
        return Admission::Cached { index, seed, quoted_report: entry.quoted };
    }
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Job {
        index,
        config: spec.resolved_config(seed),
        canonical,
        cache_key,
        deadline,
        enqueued: Instant::now(),
        reply: Some(to),
    };
    match slot.tx.try_send(job) {
        Ok(()) => {
            slot.next_index += 1;
            if let Some(record) = &enqueue_record {
                shared.journal_append(record);
            }
            shared.metrics.queue_depth.add(1);
            shared.metrics.admit_ms.observe(accepted.elapsed().as_secs_f64() * 1e3);
            apls_telemetry::event!(shared.telemetry, "service", "enqueue", id = index, seed = seed);
            Admission::Enqueued { index, seed }
        }
        Err(TrySendError::Full(_)) => Admission::QueueFull,
        Err(TrySendError::Disconnected(_)) => Admission::ShuttingDown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two different canonical circuit texts forced onto one circuit hash
    /// must never be served each other's reports, and the probes must leave
    /// the entry count and insertion counters alone.
    #[test]
    fn a_circuit_hash_collision_is_a_miss_not_a_cross_served_report() {
        let cache = Mutex::new(LruCache::new(8));
        let text_a: Arc<str> = "apls 1\ncircuit \"a\"\n".into();
        let text_b: Arc<str> = "apls 1\ncircuit \"b\"\n".into();
        let key = CacheKey { circuit_hash: 42, config: "restarts=1".to_string(), seed: 7 };

        let entry_a = CachedReport::new(Arc::clone(&text_a), "{\"report\":\"a\"}");
        lock_or_recover(&cache).insert(key.clone(), entry_a);
        let hit = probe(&cache, &key, &text_a).expect("same text hits");
        assert_eq!(&*hit.quoted, quote("{\"report\":\"a\"}"));
        assert_eq!(hit.report_fp, canonical_hash("{\"report\":\"a\"}"));
        // a byte-equal copy in a different allocation hits too
        let copy_a: Arc<str> = String::from(&*text_a).into();
        assert!(probe(&cache, &key, &copy_a).is_some());
        assert!(probe(&cache, &key, &text_b).is_none(), "b must not get a's report");

        // b solved and inserted under the same key takes the entry over
        let entry_b = CachedReport::new(Arc::clone(&text_b), "{\"report\":\"b\"}");
        lock_or_recover(&cache).insert(key.clone(), entry_b);
        let hit = probe(&cache, &key, &text_b).expect("b hits its own report");
        assert_eq!(&*hit.quoted, quote("{\"report\":\"b\"}"));
        assert!(probe(&cache, &key, &text_a).is_none(), "a must not get b's report");

        let stats = lock_or_recover(&cache).stats();
        assert_eq!(stats, CacheStats { insertions: 2, evictions: 0 });
        assert_eq!(lock_or_recover(&cache).len(), 1);
    }
}
