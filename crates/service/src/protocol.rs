//! The JSON-lines wire protocol: job requests and response envelopes.
//!
//! One JSON object per line in each direction. Requests carry an `op`:
//!
//! ```text
//! {"op":"place","circuit":"miller_v2","seed":7,"restarts":4,"fast":true}
//! {"op":"place","apls":"apls 1\ncircuit \"x\"\n…","engines":["seqpair","hier"]}
//! {"op":"ping"}   {"op":"stats"}   {"op":"shutdown"}
//! ```
//!
//! `place` responses wrap the *deterministic* portfolio report
//! ([`apls_portfolio::PortfolioReport::to_json_deterministic`]) verbatim in a
//! `"report"` string field, alongside the job envelope (id, seed, cache flag,
//! queue/solve/total milliseconds). The full schema is documented in
//! DESIGN.md §10.

use crate::json::Json;
use apls_io::canonical_hash;
use apls_portfolio::{EarlyStop, PortfolioConfig, PortfolioEngine};
use apls_telemetry::json::{self, Float, Layout};
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Where a job's circuit comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSource {
    /// One of the bundled benchmark circuits, by name
    /// (see [`apls_circuit::benchmarks::names`]).
    Bundled(String),
    /// An inline circuit in `.apls` text form.
    Inline(String),
}

/// A placement job request: a circuit source plus the `PortfolioConfig`
/// subset a client may set. Unset fields take the service defaults
/// ([`PortfolioConfig::default`], with one rayon thread per job — parallelism
/// comes from the service worker pool).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The circuit to place.
    pub circuit: CircuitSource,
    /// Root seed. `None` lets the service derive one from its own seed
    /// stream and the job index (reproducible under job-log replay).
    pub seed: Option<u64>,
    /// Restarts per stochastic engine.
    pub restarts: Option<usize>,
    /// Engine subset to race.
    pub engines: Option<Vec<PortfolioEngine>>,
    /// Short smoke annealing schedule.
    pub fast: Option<bool>,
    /// Wirelength weight of the cost function.
    pub wirelength_weight: Option<f64>,
    /// The hier engine's annealing threshold.
    pub hier_anneal_threshold: Option<usize>,
    /// Plateau early-stop window.
    pub plateau: Option<usize>,
    /// Rayon threads *within* the job (default 1).
    pub threads: Option<usize>,
    /// Per-job deadline in milliseconds, measured from enqueue. Checked
    /// cooperatively between restarts; an expired job answers
    /// `{"status":"timeout"}` and frees its worker. Timing-only: never part
    /// of the cache key, and stripped before journaling so recovery replays
    /// the job with its full time budget.
    pub deadline_ms: Option<u64>,
    /// Requests a streamed response: tagged frames
    /// (`accepted → queued → progress* → report`) instead of one envelope
    /// line, so one connection can interleave many in-flight jobs. Requires
    /// [`JobSpec::stream_id`]. Transport-only: like `deadline_ms`, never part
    /// of the cache key and stripped before journaling — the final report
    /// body is byte-identical to the non-streaming path.
    pub stream: Option<bool>,
    /// Client-chosen correlation id echoed in every frame of a streamed
    /// job. Scoped to the connection: two ids may not be in flight on the
    /// same connection at once. Only valid together with `stream: true`.
    pub stream_id: Option<u64>,
}

impl JobSpec {
    /// A default-configured job for a bundled benchmark circuit.
    #[must_use]
    pub fn bundled(name: impl Into<String>) -> Self {
        JobSpec::new(CircuitSource::Bundled(name.into()))
    }

    /// A default-configured job for an inline `.apls` circuit.
    #[must_use]
    pub fn inline(text: impl Into<String>) -> Self {
        JobSpec::new(CircuitSource::Inline(text.into()))
    }

    fn new(circuit: CircuitSource) -> Self {
        JobSpec {
            circuit,
            seed: None,
            restarts: None,
            engines: None,
            fast: None,
            wirelength_weight: None,
            hier_anneal_threshold: None,
            plateau: None,
            threads: None,
            deadline_ms: None,
            stream: None,
            stream_id: None,
        }
    }

    /// Pins the root seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the restarts per stochastic engine (builder style).
    #[must_use]
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = Some(restarts);
        self
    }

    /// Restricts the racing engines (builder style).
    #[must_use]
    pub fn with_engines(mut self, engines: impl Into<Vec<PortfolioEngine>>) -> Self {
        self.engines = Some(engines.into());
        self
    }

    /// Selects the short smoke schedule (builder style).
    #[must_use]
    pub fn with_fast(mut self, fast: bool) -> Self {
        self.fast = Some(fast);
        self
    }

    /// Sets the per-job deadline in milliseconds (builder style).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Requests a streamed response correlated by `id` (builder style).
    #[must_use]
    pub fn with_stream(mut self, id: u64) -> Self {
        self.stream = Some(true);
        self.stream_id = Some(id);
        self
    }

    /// Encodes the request as one JSON line (without trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |w| {
            w.key("op").str("place");
            match &self.circuit {
                CircuitSource::Bundled(name) => w.key("circuit").str(name),
                CircuitSource::Inline(text) => w.key("apls").str(text),
            }
            if let Some(seed) = self.seed {
                w.key("seed").int(seed);
            }
            if let Some(restarts) = self.restarts {
                w.key("restarts").int(restarts);
            }
            if let Some(engines) = &self.engines {
                w.key("engines").array(Layout::Compact, |w| {
                    for engine in engines {
                        w.str(engine.name());
                    }
                });
            }
            if let Some(fast) = self.fast {
                w.key("fast").bool(fast);
            }
            if let Some(weight) = self.wirelength_weight {
                w.key("wirelength_weight").f64(weight, Float::Shortest);
            }
            if let Some(threshold) = self.hier_anneal_threshold {
                w.key("hier_anneal_threshold").int(threshold);
            }
            if let Some(window) = self.plateau {
                w.key("plateau").int(window);
            }
            if let Some(threads) = self.threads {
                w.key("threads").int(threads);
            }
            if let Some(deadline) = self.deadline_ms {
                w.key("deadline_ms").int(deadline);
            }
            if let Some(stream) = self.stream {
                w.key("stream").bool(stream);
            }
            if let Some(id) = self.stream_id {
                w.key("id").int(id);
            }
        });
        out
    }

    /// Decodes a `place` request object (the server side of
    /// [`JobSpec::to_json_line`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the request is structurally valid JSON but not
    /// a valid job: missing/conflicting circuit source, unknown or
    /// wrong-typed fields, unknown engine names, or a value
    /// [`JobSpec::check`] refuses.
    pub fn from_json(json: &Json) -> Result<JobSpec, String> {
        // strict field set: a typo'd option must error, not silently run the
        // job with defaults
        const KNOWN: [&str; 14] = [
            "op",
            "circuit",
            "apls",
            "seed",
            "restarts",
            "engines",
            "fast",
            "wirelength_weight",
            "hier_anneal_threshold",
            "plateau",
            "threads",
            "deadline_ms",
            "stream",
            "id",
        ];
        if let Json::Obj(fields) = json {
            for (key, _) in fields {
                if !KNOWN.contains(&key.as_str()) {
                    return Err(format!(
                        "unknown request field '{key}' (known: {})",
                        KNOWN.join(", ")
                    ));
                }
            }
        }
        let circuit = match (json.get("circuit"), json.get("apls")) {
            (Some(_), Some(_)) => {
                return Err("request has both 'circuit' and 'apls'; pick one".to_string())
            }
            (Some(name), None) => CircuitSource::Bundled(
                name.as_str().ok_or("'circuit' must be a string")?.to_string(),
            ),
            (None, Some(text)) => {
                CircuitSource::Inline(text.as_str().ok_or("'apls' must be a string")?.to_string())
            }
            (None, None) => {
                return Err(
                    "request needs a circuit: 'circuit' (bundled name) or 'apls' (inline text)"
                        .to_string(),
                )
            }
        };
        let mut spec = JobSpec::new(circuit);
        if let Some(v) = json.get("seed") {
            spec.seed = Some(v.as_u64().ok_or("'seed' must be an unsigned 64-bit integer")?);
        }
        if let Some(v) = json.get("restarts") {
            spec.restarts = Some(v.as_usize().ok_or("'restarts' must be a positive integer")?);
        }
        if let Some(v) = json.get("engines") {
            let items = v.as_arr().ok_or("'engines' must be an array of engine names")?;
            let mut engines = Vec::with_capacity(items.len());
            for item in items {
                let name = item.as_str().ok_or("'engines' entries must be strings")?;
                engines.push(PortfolioEngine::from_name(name).ok_or_else(|| {
                    format!("unknown engine '{name}' ({})", PortfolioEngine::names())
                })?);
            }
            spec.engines = Some(engines);
        }
        if let Some(v) = json.get("fast") {
            spec.fast = Some(v.as_bool().ok_or("'fast' must be a boolean")?);
        }
        if let Some(v) = json.get("wirelength_weight") {
            spec.wirelength_weight =
                Some(v.as_f64().ok_or("'wirelength_weight' must be a number")?);
        }
        if let Some(v) = json.get("hier_anneal_threshold") {
            spec.hier_anneal_threshold =
                Some(v.as_usize().ok_or("'hier_anneal_threshold' must be a positive integer")?);
        }
        if let Some(v) = json.get("plateau") {
            spec.plateau = Some(v.as_usize().ok_or("'plateau' must be a positive integer")?);
        }
        if let Some(v) = json.get("threads") {
            spec.threads = Some(v.as_usize().ok_or("'threads' must be an integer")?);
        }
        if let Some(v) = json.get("deadline_ms") {
            spec.deadline_ms = Some(v.as_u64().ok_or("'deadline_ms' must be an unsigned integer")?);
        }
        if let Some(v) = json.get("stream") {
            spec.stream = Some(v.as_bool().ok_or("'stream' must be a boolean")?);
        }
        if let Some(v) = json.get("id") {
            spec.stream_id = Some(v.as_u64().ok_or("'id' must be an unsigned 64-bit integer")?);
        }
        spec.check()?;
        match (spec.stream, spec.stream_id) {
            (Some(true), None) => {
                return Err("'stream':true needs a client-chosen 'id' to tag frames".to_string())
            }
            (None | Some(false), Some(_)) => {
                return Err("'id' is only valid with 'stream':true".to_string())
            }
            _ => {}
        }
        Ok(spec)
    }

    /// Checks the job's range rules: [`PortfolioConfig::check`] on the
    /// resolved configuration, and a deadline of at least 1 ms. Every way a
    /// job arrives — a local run, `apls submit`, a `place` request — is
    /// checked here.
    ///
    /// # Errors
    ///
    /// Returns the message of the first rule the job breaks.
    pub fn check(&self) -> Result<(), String> {
        self.resolved_config(0).check()?;
        if self.deadline_ms == Some(0) {
            return Err("'deadline_ms' must be at least 1".to_string());
        }
        Ok(())
    }

    /// Resolves the spec into a full portfolio configuration rooted at
    /// `seed`. Defaults match [`PortfolioConfig::default`] except `threads`,
    /// which defaults to 1: job-level parallelism belongs to the service's
    /// worker pool, not to rayon inside one job. A thread count above the
    /// host's core count is cut to it, so a request cannot make a worker
    /// start more OS threads than there are cores; `0` still means one per
    /// core, and the count never changes results.
    #[must_use]
    pub fn resolved_config(&self, seed: u64) -> PortfolioConfig {
        let threads = self.threads.map_or(1, |threads| threads.min(available_cores()));
        let mut config = PortfolioConfig::new(seed).with_threads(threads);
        if let Some(restarts) = self.restarts {
            config = config.with_restarts(restarts);
        }
        if let Some(engines) = &self.engines {
            config = config.with_engines(engines.clone());
        }
        if let Some(fast) = self.fast {
            config = config.with_fast_schedule(fast);
        }
        if let Some(w) = self.wirelength_weight {
            config = config.with_wirelength_weight(w);
        }
        if let Some(t) = self.hier_anneal_threshold {
            config = config.with_hier_anneal_threshold(t);
        }
        if let Some(p) = self.plateau {
            config = config.with_early_stop(EarlyStop::after(p));
        }
        config
    }

    /// Canonical string of every *result-relevant* configuration field.
    ///
    /// Built over the resolved configuration, so explicit defaults and
    /// omitted fields produce identical strings. `threads` and `deadline_ms`
    /// are deliberately excluded — thread count and time budget never change
    /// a *completed* report — and the seed is a separate cache-key
    /// component. The service keys its cache by (circuit hash, this string,
    /// seed) and serves a hit only when the entry's canonical circuit text is
    /// byte-equal to the request's, so a hash collision cannot cross-serve
    /// reports.
    #[must_use]
    pub fn config_canonical(&self) -> String {
        let config = self.resolved_config(0);
        let engines: Vec<&str> = config.engines.iter().map(|e| e.name()).collect();
        format!(
            "restarts={};engines={};fast={};ww={:016x};hat={};plateau={}",
            config.restarts,
            engines.join(","),
            config.fast_schedule,
            config.wirelength_weight.to_bits(),
            config.hier_anneal_threshold,
            config.early_stop.map_or_else(|| "none".to_string(), |e| e.window.to_string()),
        )
    }

    /// [`canonical_hash`] of [`JobSpec::config_canonical`] — a compact
    /// summary for the journal, logs and tests (the cache itself keys on
    /// the full string).
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        canonical_hash(&self.config_canonical())
    }
}

/// The host's core count, read once: the most rayon threads a job may ask
/// for.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A decoded `place` response envelope.
#[derive(Debug, Clone)]
pub struct PlaceResponse {
    /// Job id assigned by the service (arrival order), when the job was
    /// accepted.
    pub id: Option<u64>,
    /// `"ok"`, `"retry"`, `"timeout"` or `"error"`.
    pub status: String,
    /// Machine-readable error category (`"request_too_large"`,
    /// `"internal"`, `"deadline"`, `"bad_request"`, `"unavailable"`), when
    /// the service attached one.
    pub kind: Option<String>,
    /// How many attempts [`crate::ServiceClient::place_with_retry`] spent to
    /// obtain this response. Always 1 for a plain decode — the field is
    /// client-side bookkeeping, not part of the wire envelope.
    pub attempts: u32,
    /// Circuit name, echoed back.
    pub circuit: Option<String>,
    /// The root seed the job ran with (pinned or derived).
    pub seed: Option<u64>,
    /// Whether the report came from the result cache.
    pub cache_hit: bool,
    /// Time spent queued, in milliseconds.
    pub queue_ms: Option<f64>,
    /// Time spent solving (or fetching from cache), in milliseconds.
    pub solve_ms: Option<f64>,
    /// Total request latency observed by the service, in milliseconds.
    pub total_ms: Option<f64>,
    /// The deterministic portfolio report JSON, verbatim.
    pub report: Option<String>,
    /// Error message for `"error"` / `"retry"` responses.
    pub error: Option<String>,
}

impl PlaceResponse {
    /// Decodes one response line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a JSON object.
    pub fn from_json_line(line: &str) -> Result<PlaceResponse, String> {
        let json = Json::parse(line)?;
        if !matches!(json, Json::Obj(_)) {
            return Err("response is not a JSON object".to_string());
        }
        Ok(PlaceResponse {
            id: json.get("id").and_then(Json::as_u64),
            status: json.get("status").and_then(Json::as_str).unwrap_or("error").to_string(),
            kind: json.get("kind").and_then(Json::as_str).map(str::to_string),
            attempts: 1,
            circuit: json.get("circuit").and_then(Json::as_str).map(str::to_string),
            seed: json.get("seed").and_then(Json::as_u64),
            cache_hit: json.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
            queue_ms: json.get("queue_ms").and_then(Json::as_f64),
            solve_ms: json.get("solve_ms").and_then(Json::as_f64),
            total_ms: json.get("total_ms").and_then(Json::as_f64),
            report: json.get("report").and_then(Json::as_str).map(str::to_string),
            error: json.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// `true` for a successful placement response.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// `true` when the service asked the client to retry (queue full).
    #[must_use]
    pub fn is_retry(&self) -> bool {
        self.status == "retry"
    }

    /// `true` when the job expired its deadline before completing.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        self.status == "timeout"
    }
}

/// One decoded frame of a streamed `place` response.
///
/// A streamed job answers with tagged single-line frames in the fixed order
/// `accepted → queued → progress* → report`; a job the service could not
/// accept (queue full, bad request, duplicate id) skips straight to a
/// `report` frame carrying the error envelope. Frames of concurrent jobs on
/// one connection interleave only at line granularity — never mid-line.
#[derive(Debug, Clone)]
pub enum StreamFrame {
    /// The job was admitted: the service assigned `job` (the arrival-order
    /// index non-streamed envelopes call `id`) and resolved the seed.
    Accepted {
        /// Client-chosen correlation id.
        id: u64,
        /// Server-assigned arrival-order job index.
        job: u64,
        /// Circuit name, echoed back.
        circuit: String,
        /// The root seed the job will run with (pinned or derived).
        seed: u64,
    },
    /// The job entered the bounded queue (`depth` jobs were queued after the
    /// insert; a cache hit reports depth 0 — it never consumes a slot).
    Queued {
        /// Client-chosen correlation id.
        id: u64,
        /// Queue depth right after the insert.
        depth: u64,
    },
    /// One restart of the portfolio plan completed.
    Progress {
        /// Client-chosen correlation id.
        id: u64,
        /// Engine that ran the restart.
        engine: String,
        /// Restart number within that engine.
        restart: u64,
        /// Restarts completed so far (1-based, plan order).
        completed: u64,
        /// Planned total restarts.
        total: u64,
        /// The restart's placement cost.
        cost: f64,
    },
    /// The final envelope; `response.report` is byte-identical to the
    /// non-streaming path for the same `(circuit, config, seed)`.
    Report {
        /// Client-chosen correlation id.
        id: u64,
        /// The decoded terminal envelope ([`PlaceResponse::id`] carries the
        /// server job index from the frame's `job` field).
        response: Box<PlaceResponse>,
    },
}

impl StreamFrame {
    /// Decodes one frame line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a JSON object, is missing the
    /// `frame`/`id` tags, or names an unknown frame type. A plain
    /// (non-frame) response line is an error too — callers that multiplex
    /// should only feed lines from streaming connections here.
    pub fn from_json_line(line: &str) -> Result<StreamFrame, String> {
        let json = Json::parse(line)?;
        let frame = json
            .get("frame")
            .and_then(Json::as_str)
            .ok_or("not a stream frame: no 'frame' tag")?
            .to_string();
        let id = json.get("id").and_then(Json::as_u64).ok_or("frame has no 'id'")?;
        match frame.as_str() {
            "accepted" => Ok(StreamFrame::Accepted {
                id,
                job: json.get("job").and_then(Json::as_u64).ok_or("accepted frame has no 'job'")?,
                circuit: json.get("circuit").and_then(Json::as_str).unwrap_or_default().to_string(),
                seed: json
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("accepted frame has no 'seed'")?,
            }),
            "queued" => Ok(StreamFrame::Queued {
                id,
                depth: json.get("depth").and_then(Json::as_u64).unwrap_or(0),
            }),
            "progress" => Ok(StreamFrame::Progress {
                id,
                engine: json.get("engine").and_then(Json::as_str).unwrap_or_default().to_string(),
                restart: json.get("restart").and_then(Json::as_u64).unwrap_or(0),
                completed: json.get("completed").and_then(Json::as_u64).unwrap_or(0),
                total: json.get("total").and_then(Json::as_u64).unwrap_or(0),
                cost: json.get("cost").and_then(Json::as_f64).unwrap_or(f64::NAN),
            }),
            "report" => {
                let mut response = PlaceResponse::from_json_line(line)?;
                // in a report frame, `id` is the client correlation id and
                // `job` the server index that plain envelopes call `id`
                response.id = json.get("job").and_then(Json::as_u64);
                Ok(StreamFrame::Report { id, response: Box::new(response) })
            }
            other => Err(format!("unknown frame type '{other}'")),
        }
    }

    /// The client correlation id carried by every frame.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            StreamFrame::Accepted { id, .. }
            | StreamFrame::Queued { id, .. }
            | StreamFrame::Progress { id, .. }
            | StreamFrame::Report { id, .. } => *id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let spec = JobSpec::bundled("miller_v2")
            .with_seed(0xDEAD_BEEF_DEAD_BEEF)
            .with_restarts(4)
            .with_engines([PortfolioEngine::SequencePair, PortfolioEngine::Hier])
            .with_fast(true);
        let line = spec.to_json_line();
        let json = Json::parse(&line).expect("encodes valid JSON");
        assert_eq!(json.get("op").and_then(Json::as_str), Some("place"));
        let decoded = JobSpec::from_json(&json).expect("decodes");
        assert_eq!(decoded, spec);
    }

    #[test]
    fn inline_circuits_survive_quoting() {
        let spec = JobSpec::inline("apls 1\ncircuit \"x\"\n");
        let json = Json::parse(&spec.to_json_line()).unwrap();
        let decoded = JobSpec::from_json(&json).unwrap();
        assert_eq!(decoded.circuit, CircuitSource::Inline("apls 1\ncircuit \"x\"\n".to_string()));
    }

    #[test]
    fn a_non_finite_weight_encodes_as_null_and_is_refused() {
        for weight in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut spec = JobSpec::bundled("miller_v2");
            spec.wirelength_weight = Some(weight);
            let line = spec.to_json_line();
            assert_eq!(line, r#"{"op":"place","circuit":"miller_v2","wirelength_weight":null}"#);
            let json = Json::parse(&line).expect("valid JSON");
            assert_eq!(
                JobSpec::from_json(&json).unwrap_err(),
                "'wirelength_weight' must be a number"
            );
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_messages() {
        for (line, needle) in [
            (r#"{"op":"place"}"#, "needs a circuit"),
            (r#"{"op":"place","circuit":"x","apls":"y"}"#, "pick one"),
            (r#"{"op":"place","circuit":"x","restarts":0}"#, "at least 1"),
            (r#"{"op":"place","circuit":"x","engines":["warp"]}"#, "unknown engine"),
            (r#"{"op":"place","circuit":"x","engines":["hier","hier"]}"#, "duplicate engine"),
            (r#"{"op":"place","circuit":"x","wirelength_weight":-1}"#, "non-negative"),
            (r#"{"op":"place","circuit":"x","seed":"abc"}"#, "'seed'"),
            // typo'd field names must not silently fall back to defaults
            (r#"{"op":"place","circuit":"x","restart":4}"#, "unknown request field 'restart'"),
            (r#"{"op":"place","circuit":"x","Seed":7}"#, "unknown request field 'Seed'"),
        ] {
            let err = JobSpec::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn fingerprint_ignores_threads_and_matches_explicit_defaults() {
        let base = JobSpec::bundled("miller_v2");
        let mut threaded = base.clone();
        threaded.threads = Some(8);
        assert_eq!(base.config_fingerprint(), threaded.config_fingerprint());

        let mut explicit = base.clone();
        explicit.restarts = Some(PortfolioConfig::default().restarts);
        assert_eq!(base.config_fingerprint(), explicit.config_fingerprint());

        let different = base.clone().with_restarts(3);
        assert_ne!(base.config_fingerprint(), different.config_fingerprint());
    }

    #[test]
    fn threads_are_cut_to_the_core_count() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let mut spec = JobSpec::bundled("miller_v2");
        assert_eq!(spec.resolved_config(0).threads, 1, "a job defaults to one thread");
        spec.threads = Some(usize::MAX);
        assert_eq!(spec.resolved_config(0).threads, cores);
        spec.threads = Some(0);
        assert_eq!(spec.resolved_config(0).threads, 0, "0 still means one per core");
    }

    #[test]
    fn deadline_round_trips_but_never_touches_the_cache_key() {
        let base = JobSpec::bundled("miller_v2").with_seed(7);
        let deadlined = base.clone().with_deadline_ms(250);
        let line = deadlined.to_json_line();
        let decoded = JobSpec::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(decoded.deadline_ms, Some(250));
        assert_eq!(decoded, deadlined);
        // a deadline changes when a job may be cut, never what it computes
        assert_eq!(base.config_fingerprint(), deadlined.config_fingerprint());

        let err = JobSpec::from_json(
            &Json::parse(r#"{"op":"place","circuit":"x","deadline_ms":0}"#).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn stream_round_trips_validates_and_never_touches_the_cache_key() {
        let base = JobSpec::bundled("miller_v2").with_seed(7);
        let streamed = base.clone().with_stream(17);
        let line = streamed.to_json_line();
        let decoded = JobSpec::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(decoded.stream, Some(true));
        assert_eq!(decoded.stream_id, Some(17));
        assert_eq!(decoded, streamed);
        // streaming changes how the answer is delivered, never what it is
        assert_eq!(base.config_fingerprint(), streamed.config_fingerprint());
        assert_eq!(base.config_canonical(), streamed.config_canonical());

        for (line, needle) in [
            (r#"{"op":"place","circuit":"x","stream":true}"#, "needs a client-chosen 'id'"),
            (r#"{"op":"place","circuit":"x","id":3}"#, "only valid with 'stream':true"),
            (r#"{"op":"place","circuit":"x","stream":false,"id":3}"#, "only valid with"),
            (r#"{"op":"place","circuit":"x","stream":1,"id":3}"#, "'stream' must be a boolean"),
            (r#"{"op":"place","circuit":"x","stream":true,"id":-1}"#, "'id'"),
        ] {
            let err = JobSpec::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn stream_frames_decode_in_grammar_order() {
        let frames = [
            r#"{"frame":"accepted","id":17,"job":4,"circuit":"miller_v2","seed":9}"#,
            r#"{"frame":"queued","id":17,"depth":2}"#,
            r#"{"frame":"progress","id":17,"engine":"seqpair","restart":0,"completed":1,"total":8,"cost":123.5}"#,
            r#"{"frame":"report","id":17,"job":4,"status":"ok","circuit":"miller_v2","seed":9,"cache_hit":false,"queue_ms":0.100,"solve_ms":5.000,"total_ms":5.100,"report":"{}"}"#,
        ];
        match StreamFrame::from_json_line(frames[0]).unwrap() {
            StreamFrame::Accepted { id, job, circuit, seed } => {
                assert_eq!((id, job, circuit.as_str(), seed), (17, 4, "miller_v2", 9));
            }
            other => panic!("{other:?}"),
        }
        match StreamFrame::from_json_line(frames[1]).unwrap() {
            StreamFrame::Queued { id, depth } => assert_eq!((id, depth), (17, 2)),
            other => panic!("{other:?}"),
        }
        match StreamFrame::from_json_line(frames[2]).unwrap() {
            StreamFrame::Progress { id, engine, restart, completed, total, cost } => {
                assert_eq!((id, engine.as_str(), restart), (17, "seqpair", 0));
                assert_eq!((completed, total), (1, 8));
                assert!((cost - 123.5).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        match StreamFrame::from_json_line(frames[3]).unwrap() {
            StreamFrame::Report { id, response } => {
                assert_eq!(id, 17);
                assert!(response.is_ok());
                assert_eq!(response.id, Some(4), "report frames map 'job' to the envelope id");
                assert_eq!(response.report.as_deref(), Some("{}"));
            }
            other => panic!("{other:?}"),
        }
        for frame in &frames {
            let decoded = StreamFrame::from_json_line(frame).unwrap();
            assert_eq!(decoded.id(), 17);
        }

        // a plain envelope is not a frame, and unknown frame types error
        assert!(StreamFrame::from_json_line(r#"{"status":"ok"}"#)
            .unwrap_err()
            .contains("no 'frame' tag"));
        assert!(StreamFrame::from_json_line(r#"{"frame":"surprise","id":1}"#)
            .unwrap_err()
            .contains("unknown frame type"));
    }

    #[test]
    fn timeout_and_kind_decode() {
        let timeout = PlaceResponse::from_json_line(
            r#"{"id":4,"status":"timeout","kind":"deadline","error":"deadline exceeded"}"#,
        )
        .unwrap();
        assert!(timeout.is_timeout() && !timeout.is_ok());
        assert_eq!(timeout.kind.as_deref(), Some("deadline"));
        assert_eq!(timeout.attempts, 1);

        let internal = PlaceResponse::from_json_line(
            r#"{"status":"error","kind":"internal","error":"worker panicked"}"#,
        )
        .unwrap();
        assert_eq!(internal.kind.as_deref(), Some("internal"));
    }

    #[test]
    fn response_envelope_decodes() {
        let line = r#"{"id":3,"status":"ok","circuit":"miller_v2","seed":7,"cache_hit":true,"queue_ms":0.5,"solve_ms":12.0,"total_ms":12.5,"report":"{\n}\n"}"#;
        let response = PlaceResponse::from_json_line(line).unwrap();
        assert!(response.is_ok());
        assert!(response.cache_hit);
        assert_eq!(response.id, Some(3));
        assert_eq!(response.report.as_deref(), Some("{\n}\n"));

        let retry =
            PlaceResponse::from_json_line(r#"{"status":"retry","error":"queue full"}"#).unwrap();
        assert!(retry.is_retry());
    }
}
