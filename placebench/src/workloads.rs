//! The workloads: set-up, the timed closed-loop phase against the service,
//! and every output check.

use crate::affinity;
use crate::check::{best_cost, check_body, check_envelope, parse_envelope};
use crate::layers;
use crate::plan::{Plan, Step, Workload, PINGS_PER_SOLVE, PING_LINE};
use crate::stats::{self, ServiceStats};
use crate::trace::Tracer;
use crate::Metrics;
use apls_circuit::benchmarks;
use apls_portfolio::run_portfolio;
use apls_service::json::Json;
use apls_service::{JournalConfig, PlacementService, ServiceConfig};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Service workers: the 2-core reference box runs one per core.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: [usize; 3] = [3, 15, 15];
/// Journal fsync batching interval of `small_mix` (group commit).
const JOURNAL_SYNC: Duration = Duration::from_millis(10);
/// `small_mix` cache capacity: larger than any plan's key count, so nothing
/// is evicted.
const SMALL_MIX_CACHE: usize = 1 << 20;
/// `small_mix` keys re-requested after the restart on the journal.
const RECOVERY_SAMPLE: usize = 32;
/// `small_mix` misses re-solved in-process and compared byte for byte.
const REFERENCE_SAMPLE: usize = 24;
/// `small_mix` stops anyway after this many times `--seconds`.
const SMALL_MIX_CAP: u64 = 6;
/// Threads for the untimed in-process reference solves.
const REFERENCE_THREADS: usize = 2;

/// One run's parameters.
pub struct Run<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Present on the traced run: spans around every request and every
    /// per-layer call.
    pub tracer: Option<&'a Tracer>,
    /// Scratch directory inside the checkout (journals, trace files).
    pub out_dir: PathBuf,
}

/// What a run found, besides its metrics.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Place requests of the timed phase.
    pub attempted: u64,
    /// Place requests answered with anything but a checked ok report
    /// (error, retry, timeout, transport failure, failed check).
    pub failed: u64,
    /// Every failed check, reconciliation or request, in words.
    pub failures: Vec<String>,
}

/// A JSON-lines connection with reusable buffers.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer, line: String::new() })
    }

    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        Ok(())
    }

    /// Sends one newline-terminated request and reads its answer into
    /// `self.line`: one line, or for a streamed place every frame up to the
    /// report frame. Returns the round-trip time.
    fn roundtrip(&mut self, request: &str, stream: bool) -> io::Result<Duration> {
        let start = Instant::now();
        self.writer.write_all(request.as_bytes())?;
        loop {
            self.read_line()?;
            if !stream || self.line.starts_with("{\"frame\":\"report\"") {
                return Ok(start.elapsed());
            }
        }
    }

    fn stats(&mut self) -> Result<ServiceStats, String> {
        self.roundtrip("{\"op\":\"stats\"}\n", false).map_err(|e| format!("stats: {e}"))?;
        ServiceStats::parse(&self.line)
    }

    /// Polls `stats` until the service reports `ready:true`.
    fn wait_ready(&mut self) -> Result<ServiceStats, String> {
        let give_up = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = self.stats()?;
            if stats.ready {
                return Ok(stats);
            }
            if Instant::now() > give_up {
                return Err("service never reported ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// What the journal held after the timed phase, and how recovery went.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalStats {
    /// Restart until `stats` reports `ready:true`.
    pub recovery_s: f64,
    pub bytes_per_job: f64,
    pub records: f64,
    /// Completed jobs recovery re-solved instead of restoring.
    pub replayed: f64,
}

/// Restarts the service on the journal the timed phase wrote, waits until
/// it is ready and has re-solved whatever it replays, then re-requests a
/// seeded sample of keys: each must be a hit with the original body.
fn restart_on_journal(
    run: &Run<'_>,
    plan: &Plan,
    config: &ServiceConfig,
    bodies: &HashMap<usize, String>,
    ok_places: u64,
    notes: &mut Vec<String>,
) -> Result<JournalStats, String> {
    let path = &config.journal.as_ref().expect("a journaled workload").path;
    let text = std::fs::read_to_string(path).map_err(|e| format!("journal: {e}"))?;
    let clock = Instant::now();
    let restarted = PlacementService::start(config.clone()).map_err(|e| format!("restart: {e}"))?;
    let mut conn = Conn::connect(restarted.local_addr()).map_err(|e| format!("reconnect: {e}"))?;
    let ready = conn.wait_ready()?;
    let recovery_s = clock.elapsed().as_secs_f64();
    // A job whose completion record precedes its enqueue record in the
    // journal is replayed (re-solved) rather than restored; together the
    // two account for every completed job.
    let (restored, replayed) = (ready.jobs_recovered_total, ready.jobs_replayed_total);
    if restored + replayed != ok_places {
        notes.push(format!(
            "recovery restored {restored} and replayed {replayed} jobs, the run completed {ok_places}"
        ));
    }
    let give_up = Instant::now() + Duration::from_secs(60);
    while conn.stats()?.jobs_completed < replayed {
        if Instant::now() > give_up {
            return Err("recovery replay never finished".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut keys: Vec<usize> = bodies.keys().copied().collect();
    keys.sort_unstable();
    let mut client = Client {
        conn,
        plan,
        known: bodies,
        tracer: None,
        tid: 0,
        tally: Tally::default(),
        busy: Duration::ZERO,
    };
    for key in sample(&keys, RECOVERY_SAMPLE, run.seed) {
        client.step(Step::Place { key, line: plan.keys[key].line, hit: true, stream: false });
    }
    notes.extend(client.tally.verdict.failures.iter().map(|f| format!("after recovery: {f}")));
    drop(client);
    restarted.shutdown();
    restarted.join();
    Ok(JournalStats {
        recovery_s,
        bytes_per_job: text.len() as f64 / ok_places.max(1) as f64,
        records: text.lines().count() as f64,
        replayed: replayed as f64,
    })
}

/// One answered place request.
#[derive(Debug, Clone, Copy)]
pub struct PlaceSample {
    pub key: usize,
    pub hit: bool,
    pub rtt_us: f64,
    pub queue_ms: f64,
    pub solve_ms: f64,
    pub total_ms: f64,
}

/// What closed loops produced.
#[derive(Debug, Default)]
pub struct Tally {
    pub places: Vec<PlaceSample>,
    pub pings_us: Vec<f64>,
    /// Report body of every key answered by a miss.
    pub bodies: HashMap<usize, String>,
    pub verdict: Verdict,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.places.extend(other.places);
        self.pings_us.extend(other.pings_us);
        self.bodies.extend(other.bodies);
        self.verdict.attempted += other.verdict.attempted;
        self.verdict.failed += other.verdict.failed;
        self.verdict.failures.extend(other.verdict.failures);
    }

    fn fail(&mut self, message: String) {
        self.verdict.failed += 1;
        if self.verdict.failures.len() < 20 {
            self.verdict.failures.push(message);
        }
    }
}

/// The client side of one connection in the timed phase.
struct Client<'a> {
    conn: Conn,
    plan: &'a Plan,
    /// Bodies received before this loop (primed keys, or the first run
    /// before a restart); hits must repeat them byte for byte.
    known: &'a HashMap<usize, String>,
    tracer: Option<&'a Tracer>,
    tid: u64,
    tally: Tally,
    /// How long [`Client::drive`] ran.
    busy: Duration,
}

impl Client<'_> {
    /// Sends one step; `false` when the connection is unusable.
    fn step(&mut self, step: Step) -> bool {
        match step {
            Step::Ping => self.ping(),
            Step::Place { key, hit, stream, .. } => self.place(step, key, hit, stream),
        }
    }

    fn ping(&mut self) -> bool {
        let span = self.tracer.map(|t| t.span(self.tid, "client", "ping", 0, 0));
        let result = self.conn.roundtrip(PING_LINE, false);
        span.map(|s| s.end());
        match result {
            Ok(rtt) if self.conn.line.starts_with("{\"status\":\"ok\"") => {
                self.tally.pings_us.push(rtt.as_secs_f64() * 1e6);
                true
            }
            Ok(_) => {
                self.tally
                    .verdict
                    .failures
                    .push(format!("ping answered {}", self.conn.line.trim_end()));
                true
            }
            Err(e) => {
                self.tally.verdict.failures.push(format!("ping transport failure: {e}"));
                false
            }
        }
    }

    fn place(&mut self, step: Step, key: usize, hit: bool, stream: bool) -> bool {
        self.tally.verdict.attempted += 1;
        let span = self.tracer.map(|t| t.span(self.tid, "client", "place", 0, key as u64 + 1));
        let result = self.conn.roundtrip(self.plan.line(step), stream);
        span.map(|s| s.end());
        let rtt = match result {
            Ok(rtt) => rtt,
            Err(e) => {
                self.tally.fail(format!("place transport failure: {e}"));
                return false;
            }
        };
        let spec = &self.plan.keys[key];
        let checked = parse_envelope(&self.conn.line).and_then(|envelope| {
            check_envelope(&envelope, &self.plan.echo[spec.circuit], spec.seed, hit)?;
            if hit {
                let expected = self
                    .known
                    .get(&key)
                    .or_else(|| self.tally.bodies.get(&key))
                    .ok_or_else(|| format!("hit on key {key} that was never answered"))?;
                check_body(&envelope.report, expected)?;
            }
            Ok(envelope)
        });
        match checked {
            Ok(envelope) => {
                self.tally.places.push(PlaceSample {
                    key,
                    hit,
                    rtt_us: rtt.as_secs_f64() * 1e6,
                    queue_ms: envelope.queue_ms,
                    solve_ms: envelope.solve_ms,
                    total_ms: envelope.total_ms,
                });
                if !hit {
                    self.tally.bodies.insert(key, envelope.report);
                }
            }
            Err(e) => self.tally.fail(e),
        }
        true
    }

    /// Runs `schedule` closed-loop until it ends or `deadline` passes.
    fn drive(&mut self, schedule: &[Step], deadline: Instant) {
        let start = Instant::now();
        for &step in schedule {
            if Instant::now() >= deadline || !self.step(step) {
                break;
            }
        }
        self.busy = start.elapsed();
    }
}

/// A started service with its connections, after set-up.
struct Live {
    plan: Plan,
    config: ServiceConfig,
    service: PlacementService,
    conns: Vec<Conn>,
    /// `hit_floor`: the primed keys' bodies and priming answers.
    primed: HashMap<usize, String>,
    prime_samples: Vec<PlaceSample>,
}

impl Live {
    fn stop(self) {
        drop(self.conns);
        self.service.shutdown();
        self.service.join();
        if let Some(journal) = &self.config.journal {
            let _ = std::fs::remove_file(&journal.path);
        }
    }
}

/// Reads `examples/circuits/<name>.apls` from the checkout.
pub fn example_text(name: &str) -> Result<String, String> {
    let path = Path::new("examples/circuits").join(format!("{name}.apls"));
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn service_config(workload: Workload, journal: Option<&Path>) -> ServiceConfig {
    let mut config = ServiceConfig { workers: WORKERS, ..ServiceConfig::default() };
    match workload {
        Workload::HitFloor => {}
        Workload::SmallMix => {
            config.cache_capacity = SMALL_MIX_CACHE;
            config.journal = journal.map(|p| JournalConfig::new(p).with_batched_sync(JOURNAL_SYNC));
        }
        Workload::LargeSolve => config.cache_capacity = 0,
    }
    config
}

/// One set-up: plan, service start, connections, priming, readiness.
fn set_up(run: &Run<'_>, attempt: usize) -> Result<Live, String> {
    let mut texts = HashMap::new();
    for &name in run.workload.circuits() {
        texts.insert(name, example_text(name)?);
    }
    let plan = Plan::new(run.workload, run.seed, run.seconds, &|name| texts[name].clone());
    let journal = run.out_dir.join(format!("journal-{}-{attempt}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let config = service_config(run.workload, Some(&journal));
    let service =
        PlacementService::start(config.clone()).map_err(|e| format!("service start: {e}"))?;
    let connections = if run.workload == Workload::HitFloor { 1 } else { 2 };
    let mut conns = (0..connections)
        .map(|_| Conn::connect(service.local_addr()))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let (primed, prime_samples) = prime(&mut conns[0], &plan)?;
    for conn in &mut conns {
        conn.wait_ready()?;
    }
    Ok(Live { plan, config, service, conns, primed, prime_samples })
}

/// Sends the plan's priming misses as streamed jobs multiplexed on one
/// connection and collects their checked bodies.
fn prime(
    conn: &mut Conn,
    plan: &Plan,
) -> Result<(HashMap<usize, String>, Vec<PlaceSample>), String> {
    let start = Instant::now();
    for &step in &plan.prime {
        conn.writer.write_all(plan.line(step).as_bytes()).map_err(|e| format!("prime: {e}"))?;
    }
    let mut bodies = HashMap::new();
    let mut samples = Vec::new();
    while bodies.len() < plan.prime.len() {
        conn.read_line().map_err(|e| format!("prime: {e}"))?;
        if !conn.line.starts_with("{\"frame\":\"report\"") {
            continue;
        }
        let id = Json::parse(&conn.line).ok().and_then(|j| j.get("id").and_then(Json::as_u64));
        let key = id
            .and_then(|id| usize::try_from(id).ok()?.checked_sub(1))
            .ok_or("report frame without id")?;
        let spec = plan.keys.get(key).ok_or("report frame for an unknown id")?;
        let envelope = parse_envelope(&conn.line)?;
        check_envelope(&envelope, &plan.echo[spec.circuit], spec.seed, false)?;
        samples.push(PlaceSample {
            key,
            hit: false,
            rtt_us: start.elapsed().as_secs_f64() * 1e6,
            queue_ms: envelope.queue_ms,
            solve_ms: envelope.solve_ms,
            total_ms: envelope.total_ms,
        });
        bodies.insert(key, envelope.report);
    }
    Ok((bodies, samples))
}

/// Peak resident set size of this process, in MiB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An in-process reference solve of one key.
pub struct Reference {
    pub key: usize,
    pub inline: bool,
    pub report: String,
    pub solve_ms: f64,
    pub plan_us: f64,
    pub report_us: f64,
}

/// Solves `jobs` (key, resolve-inline?) in-process with the same
/// configuration the service resolved, untimed relative to the phase.
fn reference_solves(
    plan: &Plan,
    jobs: &[(usize, bool)],
    tracer: Option<&Tracer>,
) -> Result<Vec<Reference>, String> {
    let next = AtomicUsize::new(0);
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..REFERENCE_THREADS)
            .map(|t| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<Reference>, String> {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(key, inline)) = jobs.get(i) else { return Ok(out) };
                        out.push(reference_solve(plan, key, inline, tracer, 100 + t as u64)?);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("reference thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    all.sort_by_key(|r| (r.key, r.inline));
    Ok(all)
}

fn reference_solve(
    plan: &Plan,
    key: usize,
    inline: bool,
    tracer: Option<&Tracer>,
    tid: u64,
) -> Result<Reference, String> {
    let spec = &plan.keys[key];
    let job = key as u64 + 1;
    let root = tracer.map(|t| t.span(tid, "reference", "reference", 0, job));
    let parent = root.as_ref().map_or(0, |s| s.id());
    let resolve = tracer.map(|t| t.span(tid, "circuit", "resolve", parent, job));
    let circuit = if inline {
        apls_io::parse_circuit(&example_text(spec.circuit)?)
            .map_err(|e| format!("{}: {e}", spec.circuit))?
    } else {
        benchmarks::by_name(spec.circuit)
            .ok_or_else(|| format!("unknown circuit {}", spec.circuit))?
    };
    resolve.map(|s| s.end());
    let config = spec.spec.resolved_config(spec.seed);
    let clock = Instant::now();
    let planned = std::hint::black_box(config.generations());
    let plan_us = clock.elapsed().as_secs_f64() * 1e6;
    drop(planned);
    let solve = tracer.map(|t| t.span(tid, "portfolio", "run_portfolio", parent, job));
    let clock = Instant::now();
    let report = run_portfolio(&circuit, &config);
    let solve_ms = clock.elapsed().as_secs_f64() * 1e3;
    solve.map(|s| s.end());
    let render = tracer.map(|t| t.span(tid, "portfolio", "to_json_deterministic", parent, job));
    let clock = Instant::now();
    let report = report.to_json_deterministic();
    let report_us = clock.elapsed().as_secs_f64() * 1e6;
    render.map(|s| s.end());
    root.map(|s| s.end());
    Ok(Reference { key, inline, report, solve_ms, plan_us, report_us })
}

/// Seeded choice of `count` distinct items of `items`.
fn sample<T: Copy>(items: &[T], count: usize, seed: u64) -> Vec<T> {
    let mut rng = crate::plan::Rng::new(seed);
    let mut picked = items.to_vec();
    rng.shuffle(&mut picked);
    picked.truncate(count);
    picked
}

/// Runs one workload end to end and fills `metrics`.
pub fn run(run: &Run<'_>, metrics: &mut Metrics) -> Result<Verdict, String> {
    // hit_floor confines client and service to one core, so the hit path is
    // timed as CPU work rather than as cross-core wake-ups, which a shared
    // host stretches by up to 2x from one minute to the next.
    let unpinned = if run.workload == Workload::HitFloor {
        Some(affinity::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?)
    } else {
        None
    };

    // --- set-up, several times; the last one is kept --------------------
    let mut setups = Vec::new();
    let mut live = None;
    for attempt in 0..SETUP_REPEATS[run.workload as usize] {
        if let Some(previous) = live.take() {
            Live::stop(previous);
        }
        let clock = Instant::now();
        live = Some(set_up(run, attempt)?);
        setups.push(clock.elapsed().as_secs_f64());
    }
    let Live { plan, config, service, conns, primed, prime_samples } =
        live.expect("at least one set-up");
    metrics.add("setup_s", stats::median(&setups), "s", setups.len());
    // Peak memory once set up. The timed phase is left out: on large_solve
    // its peak moves by a quarter with which worker's allocator arena happens
    // to take which job.
    metrics.add("rss_peak_mb", rss_peak_mb(), "MiB", 1);
    let mut conns = conns;
    let before = conns[0].stats()?;

    // --- the timed phase ---------------------------------------------------
    let start = Instant::now();
    // hit_floor runs for `seconds`; small_mix runs its fixed schedules to
    // the end, with a generous cap so a run always ends in bounded time.
    let deadline = match run.workload {
        Workload::SmallMix => start + Duration::from_secs(run.seconds * SMALL_MIX_CAP),
        _ => start + Duration::from_secs(run.seconds),
    };
    let mut tally = Tally::default();
    let clients: Vec<Client<'_>> = conns
        .drain(..)
        .enumerate()
        .map(|(i, conn)| Client {
            conn,
            plan: &plan,
            known: &primed,
            tracer: run.tracer,
            tid: i as u64 + 1,
            tally: Tally::default(),
            busy: Duration::ZERO,
        })
        .collect();
    let mut clients = if run.workload == Workload::LargeSolve {
        drive_passes(clients, &plan, start, run.seconds)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(i, mut client)| {
                    let schedule = &plan.schedules[i];
                    scope.spawn(move || {
                        client.drive(schedule, deadline);
                        client
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        })
    };
    let elapsed = start.elapsed().as_secs_f64();
    let mut verdict_notes = Vec::new();
    // Throughput: ok answers over the whole phase for large_solve (job
    // count over makespan), else the sum of each connection's own rate.
    let jobs_per_s = match run.workload {
        Workload::LargeSolve => {
            clients.iter().map(|c| c.tally.places.len()).sum::<usize>() as f64 / elapsed
        }
        _ => clients.iter().map(|c| c.tally.places.len() as f64 / c.busy.as_secs_f64()).sum(),
    };
    if run.workload == Workload::SmallMix {
        let sent: usize =
            clients.iter().map(|c| c.tally.places.len() + c.tally.pings_us.len()).sum();
        let planned: usize = plan.schedules.iter().map(Vec::len).sum();
        if sent != planned {
            verdict_notes
                .push(format!("only {sent} of {planned} planned requests were answered in time"));
        }
    }
    let mut conns: Vec<Conn> = Vec::new();
    for client in clients.drain(..) {
        tally.merge(client.tally);
        conns.push(client.conn);
    }
    let after = conns[0].stats()?;

    // --- reconcile the service's own counters with the client's tallies ---
    let ok_places = tally.places.len() as u64;
    let hits = tally.places.iter().filter(|p| p.hit).count() as u64;
    let misses = ok_places - hits;
    let mut expect = |what: &str, service: u64, client: u64| {
        if service != client {
            verdict_notes
                .push(format!("stats {what} moved by {service}, the client counted {client}"));
        }
    };
    expect("jobs_completed", after.jobs_completed - before.jobs_completed, ok_places);
    expect("cache_hits", after.cache_hits - before.cache_hits, hits);
    if config.cache_capacity > 0 {
        expect("cache.insertions", after.cache_insertions - before.cache_insertions, misses);
    }
    expect("errors_total", after.errors_total - before.errors_total, 0);
    expect("retries_total", after.retries_total - before.retries_total, 0);
    expect("timeouts_total", after.timeouts_total - before.timeouts_total, 0);

    // --- end-to-end metrics -----------------------------------------------
    let rtts: Vec<f64> = tally.places.iter().map(|p| p.rtt_us).collect();
    metrics.add("jobs_per_s", jobs_per_s, "1/s", tally.places.len());
    if !rtts.is_empty() {
        metrics.add("place_us_geomean", stats::geomean(&rtts), "us", rtts.len());
    }
    if !tally.pings_us.is_empty() {
        metrics.add("ping_us_p50", stats::median(&tally.pings_us), "us", tally.pings_us.len());
    }
    class_metrics(&tally, metrics);

    // --- small_mix: restart on the journal, re-request a sample ------------
    drop(conns);
    service.shutdown();
    service.join();
    let mut journal_stats = JournalStats::default();
    if let Some(journal) = &config.journal {
        journal_stats =
            restart_on_journal(run, &plan, &config, &tally.bodies, ok_places, &mut verdict_notes)?;
        metrics.add_log("recovery_s", journal_stats.recovery_s, "s", 1);
        let _ = std::fs::remove_file(&journal.path);
    }

    if let Some(previous) = &unpinned {
        affinity::restore(previous).map_err(|e| format!("cannot restore CPU affinity: {e}"))?;
    }

    // --- reference solves and report checks (untimed) ----------------------
    let mut bodies: HashMap<usize, String> = primed.clone();
    bodies.extend(tally.bodies.iter().map(|(k, v)| (*k, v.clone())));
    let mut keys: Vec<usize> = bodies.keys().copied().collect();
    keys.sort_unstable();
    let jobs: Vec<(usize, bool)> = match run.workload {
        Workload::HitFloor => keys.iter().flat_map(|&k| [(k, false), (k, true)]).collect(),
        Workload::SmallMix => {
            sample(&keys, REFERENCE_SAMPLE, run.seed ^ 1).into_iter().map(|k| (k, false)).collect()
        }
        Workload::LargeSolve => keys.iter().map(|&k| (k, false)).collect(),
    };
    let references = reference_solves(&plan, &jobs, run.tracer)?;
    for reference in &references {
        if let Err(e) = check_body(&bodies[&reference.key], &reference.report) {
            verdict_notes.push(format!(
                "{} seed {} ({}): {e}",
                plan.keys[reference.key].circuit,
                plan.keys[reference.key].seed,
                if reference.inline { "inline" } else { "bundled" }
            ));
        }
    }
    let mut costs = Vec::with_capacity(keys.len());
    for key in &keys {
        match best_cost(&bodies[key]) {
            Ok(cost) => costs.push(cost),
            Err(e) => verdict_notes
                .push(format!("{} seed {}: {e}", plan.keys[*key].circuit, plan.keys[*key].seed)),
        }
    }
    if !costs.is_empty() {
        metrics.add("quality_cost_geomean", stats::geomean(&costs), "cost", costs.len());
    }
    metrics.add_log("references_checked", references.len() as f64, "count", references.len());

    // --- per-layer metrics (traced run) -----------------------------------
    if let Some(tracer) = run.tracer {
        let misses: Vec<PlaceSample> = if run.workload == Workload::HitFloor {
            prime_samples
        } else {
            tally.places.iter().filter(|p| !p.hit).copied().collect()
        };
        let service_layer = layers::ServiceLayer {
            places: &tally.places,
            misses: &misses,
            before: &before,
            after: &after,
            references: &references,
            journal: journal_stats,
            traced_place_us_geomean: stats::geomean(&rtts),
        };
        layers::service(&service_layer, metrics);
        layers::in_process(run.workload, &plan, &bodies, tracer, metrics)?;
    }

    let mut verdict = tally.verdict;
    verdict.failures.extend(verdict_notes);
    Ok(verdict)
}

/// `large_solve`: both connections drain one pass of the job list at a time
/// (longest jobs first); a new pass starts while the phase is shorter than
/// `seconds`. Each solve is followed by a burst of pings.
fn drive_passes<'a>(
    mut clients: Vec<Client<'a>>,
    plan: &'a Plan,
    start: Instant,
    seconds: u64,
) -> Vec<Client<'a>> {
    for (pass, schedule) in plan.schedules.iter().enumerate() {
        if pass > 0 && start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
        let next = AtomicUsize::new(0);
        clients = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .map(|mut client| {
                    let next = &next;
                    scope.spawn(move || {
                        while let Some(&step) = schedule.get(next.fetch_add(1, Ordering::Relaxed)) {
                            if !client.step(step) {
                                break;
                            }
                            for _ in 0..PINGS_PER_SOLVE {
                                client.ping();
                            }
                        }
                        client
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
    }
    clients
}

/// Log-only metrics by request class (hit / miss), each with its sample
/// count and the highest tail the sample supports.
fn class_metrics(tally: &Tally, metrics: &mut Metrics) {
    let hits: Vec<f64> = tally.places.iter().filter(|p| p.hit).map(|p| p.rtt_us).collect();
    let misses: Vec<f64> = tally.places.iter().filter(|p| !p.hit).map(|p| p.rtt_us / 1e3).collect();
    for (name, unit, sample) in [("hit_us", "us", hits), ("miss_ms", "ms", misses)] {
        if sample.is_empty() {
            continue;
        }
        let sorted = stats::sorted(sample);
        metrics.add_log(&format!("{name}_p50"), stats::quantile(&sorted, 0.5), unit, sorted.len());
        match stats::highest_tail(&sorted) {
            Some(tail) => {
                metrics.add_log(&format!("{name}_p{}", tail.pct), tail.value, unit, tail.samples)
            }
            None => {
                metrics.note(format!("{name}: {} samples support no tail percentile", sorted.len()))
            }
        }
    }
    let attempted = tally.verdict.attempted.max(1) as f64;
    metrics.add_log(
        "failed_share",
        tally.verdict.failed as f64 / attempted,
        "ratio",
        tally.verdict.attempted as usize,
    );
}
