//! `apls` — analog placement from the command line.
//!
//! Without a subcommand, selects a bundled benchmark circuit, runs a single
//! engine or the full multi-start portfolio, prints a summary, and optionally
//! writes the portfolio report as JSON and the winning placement as SVG:
//!
//! ```text
//! apls --list
//! apls --circuit miller_opamp_fig6 --restarts 8 --seed 42 --json report.json --svg best.svg
//! apls --circuit folded_cascode --engine hbtree --restarts 4 --fast
//! ```
//!
//! Subcommands expose the `.apls` circuit format and the placement service:
//!
//! ```text
//! apls serve --port 7171 --workers 4          # placement daemon (JSON lines over TCP)
//! apls submit --addr 127.0.0.1:7171 --circuit miller_v2 --seed 7 --json report.json
//! apls submit --addr 127.0.0.1:7171 --op shutdown
//! apls convert --circuit buffer --out buffer.apls
//! apls convert --in custom.apls --out -       # parse + canonicalise
//! apls gen --modules 200 --seed 9 --out big.apls
//! ```
//!
//! Exit status: 0 on success, 2 when the command line or a job option is
//! refused, 1 when connecting, a request, a service answer (`retry`,
//! `timeout`, `error`), a file or a local run fails.

use analog_layout_synthesis::circuit::benchmarks::{self, GeneratorConfig};
use analog_layout_synthesis::io::{parse_circuit, serialize_circuit};
use analog_layout_synthesis::portfolio::{
    run_portfolio_with, PortfolioConfig, PortfolioEngine, RunContext,
};
use analog_layout_synthesis::service::json::Json;
use analog_layout_synthesis::service::{
    CircuitSource, FaultPlan, JobSpec, JournalConfig, PlacementService, RetryPolicy, ServiceClient,
    ServiceConfig, StreamFrame,
};
use analog_layout_synthesis::telemetry::{
    RecordingCollector, StreamCollector, Telemetry, TraceSummary,
};
use clap::{Arg, ArgAction, ArgMatches, Command};
use std::process::ExitCode;
use std::sync::Arc;

fn cli() -> Command {
    let command = Command::new("apls")
        .about("Analog placement portfolio runner (DATE 2009 survey reproduction)")
        .version(env!("CARGO_PKG_VERSION"))
        .arg(
            Arg::new("circuit")
                .long("circuit")
                .short('c')
                .value_name("NAME")
                .default_value("miller_opamp_fig6")
                .help("Benchmark circuit to place (see --list)"),
        );
    job_args(command)
        .arg(
            Arg::new("json")
                .long("json")
                .value_name("FILE")
                .help("Write the full report as JSON ('-' for stdout)"),
        )
        .arg(
            Arg::new("svg")
                .long("svg")
                .value_name("FILE")
                .help("Write the winning placement as SVG"),
        )
        .arg(
            Arg::new("trace")
                .long("trace")
                .value_name("FILE")
                .help("Record a Chrome trace of the run (.json = trace document, else JSON lines)"),
        )
        .arg(
            Arg::new("list")
                .long("list")
                .action(ArgAction::SetTrue)
                .help("List the bundled benchmark circuits and exit"),
        )
        .subcommand(serve_command())
        .subcommand(submit_command())
        .subcommand(top_command())
        .subcommand(convert_command())
        .subcommand(gen_command())
        .subcommand(trace_command())
}

/// The job options, stated once: the local run and `submit` both take them,
/// and [`job_spec`] reads them. An option left out takes the portfolio
/// default, except the seed and the thread count, which differ between a
/// local run and a job sent to the service.
fn job_args(command: Command) -> Command {
    let defaults = PortfolioConfig::default();
    command
        .arg(
            Arg::new("engine")
                .long("engine")
                .short('e')
                .value_name("ENGINE")
                .default_value("portfolio")
                .help(format!("portfolio (all engines), or one of: {}", PortfolioEngine::names())),
        )
        .arg(
            Arg::new("restarts")
                .long("restarts")
                .short('k')
                .value_name("K")
                .help(format!(
                    "Annealing restarts per stochastic engine [default: {}]",
                    defaults.restarts
                )),
        )
        .arg(
            Arg::new("seed")
                .long("seed")
                .short('s')
                .value_name("SEED")
                .help("Root seed; every restart derives its own seed from it [default: 1; submit: the service derives one from the job index]"),
        )
        .arg(
            Arg::new("threads")
                .long("threads")
                .short('t')
                .value_name("N")
                .help("Worker threads inside the job (0 = one per core; more than the cores are cut to the core count); never changes results [default: 0; submit: 1]"),
        )
        .arg(
            Arg::new("wirelength-weight")
                .long("wirelength-weight")
                .short('w')
                .value_name("W")
                .help(format!(
                    "Weight of the wirelength term in the cost [default: {}]",
                    defaults.wirelength_weight
                )),
        )
        .arg(
            Arg::new("hier-anneal-threshold")
                .long("hier-anneal-threshold")
                .value_name("N")
                .help(format!(
                    "hier engine: anneal hierarchy nodes with more than N modules [default: {}]",
                    defaults.hier_anneal_threshold
                )),
        )
        .arg(
            Arg::new("plateau")
                .long("plateau")
                .value_name("WINDOW")
                .help("Stop early after WINDOW generations without improvement"),
        )
        .arg(
            Arg::new("fast")
                .long("fast")
                .action(ArgAction::SetTrue)
                .help("Use the short smoke-test annealing schedule"),
        )
}

fn serve_command() -> Command {
    Command::new("serve")
        .about("Run the placement service (JSON lines over TCP)")
        .arg(
            Arg::new("host")
                .long("host")
                .value_name("HOST")
                .default_value("127.0.0.1")
                .help("Interface to bind"),
        )
        .arg(
            Arg::new("port")
                .long("port")
                .short('p')
                .value_name("PORT")
                .default_value("7171")
                .help("Port to bind (0 = pick an ephemeral port and print it)"),
        )
        .arg(
            Arg::new("workers")
                .long("workers")
                .value_name("N")
                .default_value("0")
                .help("Placement worker threads (0 = one per core)"),
        )
        .arg(
            Arg::new("queue")
                .long("queue")
                .value_name("DEPTH")
                .default_value("64")
                .help("Bounded job-queue depth; a full queue answers 'retry'"),
        )
        .arg(
            Arg::new("cache")
                .long("cache")
                .value_name("ENTRIES")
                .default_value("128")
                .help("Result-cache entries, keyed by (circuit, config, seed); 0 disables"),
        )
        .arg(
            Arg::new("seed")
                .long("seed")
                .short('s')
                .value_name("SEED")
                .default_value("1")
                .help("Root of the service seed stream for jobs without a pinned seed"),
        )
        .arg(
            Arg::new("trace")
                .long("trace")
                .value_name("FILE")
                .help("Stream request-lifecycle trace events to FILE as JSON lines"),
        )
        .arg(
            Arg::new("journal")
                .long("journal")
                .value_name("FILE")
                .help("Durable job journal: after a crash, a restart on the same file restores completed reports and replays incomplete jobs byte-identically"),
        )
        .arg(
            Arg::new("journal-sync-ms")
                .long("journal-sync-ms")
                .value_name("MS")
                .help("Batch journal fsyncs every MS milliseconds instead of per record (cheaper, may lose the last MS of records on power loss)"),
        )
        .arg(
            Arg::new("max-connections")
                .long("max-connections")
                .value_name("N")
                .help("Concurrent connections served at once; beyond this, new connections get an error line (default 1024)"),
        )
        .arg(
            Arg::new("fault-plan")
                .long("fault-plan")
                .value_name("FILE")
                .help("Deterministic fault-injection plan (tests/CI only; requires APLS_FAULT_INJECTION=1)"),
        )
        .arg(
            Arg::new("metrics-addr")
                .long("metrics-addr")
                .value_name("HOST:PORT")
                .help("Serve Prometheus /metrics, /healthz and /readyz on a second listener, over HTTP (port 0 = ephemeral, printed at startup)"),
        )
        .arg(
            Arg::new("flight-recorder")
                .long("flight-recorder")
                .value_name("FILE")
                .help("Spill the flight-recorder ring to FILE.a/FILE.b as it records, and dump to FILE on panic, journal failure or the 'dump' op (default: a file under the temp dir, ring only)"),
        )
        .arg(
            Arg::new("flight-recorder-events")
                .long("flight-recorder-events")
                .value_name("N")
                .help("Flight-recorder ring capacity in events (default 2048; 0 disables the recorder)"),
        )
}

fn submit_command() -> Command {
    let command = Command::new("submit")
        .about("Submit one request to a running placement service")
        .arg(
            Arg::new("addr")
                .long("addr")
                .short('a')
                .value_name("HOST:PORT")
                .default_value("127.0.0.1:7171")
                .help("Service address"),
        )
        .arg(
            Arg::new("op")
                .long("op")
                .value_name("OP")
                .default_value("place")
                .help("place, ping, stats, dump, or shutdown"),
        )
        .arg(
            Arg::new("circuit")
                .long("circuit")
                .short('c')
                .value_name("NAME")
                .help("Bundled benchmark circuit to place"),
        )
        .arg(
            Arg::new("file")
                .long("file")
                .short('f')
                .value_name("FILE")
                .help("Inline circuit: a .apls file to embed in the request"),
        )
        .arg(
            Arg::new("deadline-ms")
                .long("deadline-ms")
                .value_name("MS")
                .help("Per-job deadline; a job that exceeds it answers status=timeout"),
        )
        .arg(
            Arg::new("retries")
                .long("retries")
                .value_name("N")
                .help("Retry transient failures and 'retry' answers up to N total attempts (bounded exponential backoff with deterministic jitter)"),
        )
        .arg(
            Arg::new("json")
                .long("json")
                .value_name("FILE")
                .help("Write the job's report body as JSON ('-' for stdout)"),
        )
        .arg(
            Arg::new("stream")
                .long("stream")
                .action(ArgAction::SetTrue)
                .help("Stream tagged progress frames (accepted, queued, per-restart progress) while the job runs; the final report is byte-identical"),
        );
    job_args(command)
}

fn convert_command() -> Command {
    Command::new("convert")
        .about("Convert circuits to canonical .apls text")
        .arg(
            Arg::new("circuit")
                .long("circuit")
                .short('c')
                .value_name("NAME")
                .help("Bundled benchmark circuit to export"),
        )
        .arg(
            Arg::new("in")
                .long("in")
                .short('i')
                .value_name("FILE")
                .help(".apls file to parse and canonicalise"),
        )
        .arg(
            Arg::new("out")
                .long("out")
                .short('o')
                .value_name("FILE")
                .default_value("-")
                .help("Output file ('-' for stdout)"),
        )
}

fn trace_command() -> Command {
    Command::new("trace")
        .about("Summarise a recorded trace file (JSON lines or Chrome trace document)")
        .arg(
            Arg::new("file")
                .long("file")
                .short('f')
                .value_name("FILE")
                .help("Trace file written by --trace or serve --trace"),
        )
}

fn top_command() -> Command {
    Command::new("top")
        .about("Live terminal dashboard over a running placement service (polls 'stats')")
        .arg(
            Arg::new("addr")
                .long("addr")
                .short('a')
                .value_name("HOST:PORT")
                .default_value("127.0.0.1:7171")
                .help("Service address"),
        )
        .arg(
            Arg::new("interval-ms")
                .long("interval-ms")
                .value_name("MS")
                .default_value("1000")
                .help("Poll interval in milliseconds"),
        )
        .arg(
            Arg::new("iterations")
                .long("iterations")
                .short('n')
                .value_name("N")
                .default_value("0")
                .help("Stop after N refreshes (0 = run until interrupted)"),
        )
        .arg(
            Arg::new("no-clear")
                .long("no-clear")
                .action(ArgAction::SetTrue)
                .help("Append each refresh instead of redrawing the screen (for logs/pipes)"),
        )
}

fn gen_command() -> Command {
    Command::new("gen")
        .about("Generate a synthetic analog circuit as .apls text")
        .arg(
            Arg::new("modules")
                .long("modules")
                .short('m')
                .value_name("N")
                .default_value("20")
                .help("Number of modules to generate"),
        )
        .arg(
            Arg::new("seed")
                .long("seed")
                .short('s')
                .value_name("SEED")
                .default_value("1")
                .help("Generator seed (same seed = identical circuit)"),
        )
        .arg(
            Arg::new("name")
                .long("name")
                .value_name("NAME")
                .default_value("synthetic")
                .help("Circuit name"),
        )
        .arg(
            Arg::new("sym-fraction")
                .long("sym-fraction")
                .value_name("F")
                .default_value("0.35")
                .help("Fraction of basic module sets with a symmetry constraint"),
        )
        .arg(
            Arg::new("cc-fraction")
                .long("cc-fraction")
                .value_name("F")
                .default_value("0.15")
                .help("Fraction of basic module sets with a common-centroid constraint"),
        )
        .arg(
            Arg::new("prox-fraction")
                .long("prox-fraction")
                .value_name("F")
                .default_value("0.25")
                .help("Fraction of basic module sets with a proximity constraint"),
        )
        .arg(
            Arg::new("min-edge")
                .long("min-edge")
                .value_name("DBU")
                .default_value("20")
                .help("Smallest module edge length"),
        )
        .arg(
            Arg::new("max-edge")
                .long("max-edge")
                .value_name("DBU")
                .default_value("360")
                .help("Largest module edge length"),
        )
        .arg(
            Arg::new("out")
                .long("out")
                .short('o')
                .value_name("FILE")
                .default_value("-")
                .help("Output file ('-' for stdout)"),
        )
}

/// Renders a moves/sec figure compactly (`412k`, `1.3M`, `950`).
fn human_throughput(mps: f64) -> String {
    if mps >= 1e6 {
        format!("{:.1}M", mps / 1e6)
    } else if mps >= 1e3 {
        format!("{:.0}k", mps / 1e3)
    } else {
        format!("{mps:.0}")
    }
}

fn parse_number<T: std::str::FromStr>(
    matches_value: Option<&String>,
    what: &str,
) -> Result<T, String> {
    let raw = matches_value.ok_or_else(|| format!("missing value for {what}"))?;
    raw.parse().map_err(|_| format!("invalid {what}: '{raw}'"))
}

fn parse_optional<T: std::str::FromStr>(
    matches_value: Option<&String>,
    what: &str,
) -> Result<Option<T>, String> {
    matches_value.map(|raw| parse_number(Some(raw), what)).transpose()
}

/// Reports a failed run (connecting, a request, a service answer, a file
/// or the run itself) and exits 1. A refused command line or job option is
/// returned as an error instead, and [`main`] exits 2.
fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

fn write_output(path: &str, content: &str, what: &str) {
    if path == "-" {
        print!("{content}");
    } else {
        std::fs::write(path, content).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        println!("{what} written to {path}");
    }
}

/// Reads the job options of [`job_args`] (and `submit`'s `--deadline-ms`,
/// absent on the local command) into a job for `circuit`, and checks it
/// with [`JobSpec::check`]: the rules the service applies to a `place`
/// request, with the same messages.
fn job_spec(matches: &ArgMatches, circuit: CircuitSource) -> Result<JobSpec, String> {
    let engines = match matches.get_one::<String>("engine").expect("defaulted").as_str() {
        "portfolio" => None,
        name => Some(vec![PortfolioEngine::from_name(name).ok_or_else(|| {
            format!("unknown engine '{name}' (portfolio, {})", PortfolioEngine::names())
        })?]),
    };
    let spec = JobSpec {
        circuit,
        seed: parse_optional(matches.get_one::<String>("seed"), "--seed")?,
        restarts: parse_optional(matches.get_one::<String>("restarts"), "--restarts")?,
        engines,
        fast: matches.get_flag("fast").then_some(true),
        wirelength_weight: parse_optional(
            matches.get_one::<String>("wirelength-weight"),
            "--wirelength-weight",
        )?,
        hier_anneal_threshold: parse_optional(
            matches.get_one::<String>("hier-anneal-threshold"),
            "--hier-anneal-threshold",
        )?,
        plateau: parse_optional(matches.get_one::<String>("plateau"), "--plateau")?,
        threads: parse_optional(matches.get_one::<String>("threads"), "--threads")?,
        deadline_ms: parse_optional(matches.get_one::<String>("deadline-ms"), "--deadline-ms")?,
        stream: None,
        stream_id: None,
    };
    spec.check()?;
    Ok(spec)
}

fn run_serve(matches: &ArgMatches) -> Result<(), String> {
    let workers: usize = parse_number(matches.get_one::<String>("workers"), "--workers")?;
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        workers
    };
    let queue_capacity: usize = parse_number(matches.get_one::<String>("queue"), "--queue")?;
    if queue_capacity == 0 {
        return Err("--queue must be at least 1".to_string());
    }
    let journal = match matches.get_one::<String>("journal") {
        Some(path) => {
            let mut journal = JournalConfig::new(path);
            if let Some(ms) = parse_optional::<u64>(
                matches.get_one::<String>("journal-sync-ms"),
                "--journal-sync-ms",
            )? {
                journal = journal.with_batched_sync(std::time::Duration::from_millis(ms));
            }
            Some(journal)
        }
        None => {
            if matches.get_one::<String>("journal-sync-ms").is_some() {
                return Err("--journal-sync-ms requires --journal FILE".to_string());
            }
            None
        }
    };
    let fault_plan = match matches.get_one::<String>("fault-plan") {
        Some(path) => {
            // fault injection degrades the service on purpose; the env guard
            // keeps a copy-pasted test command line from hurting production
            if std::env::var("APLS_FAULT_INJECTION").as_deref() != Ok("1") {
                return Err(
                    "--fault-plan is a test harness; set APLS_FAULT_INJECTION=1 to confirm"
                        .to_string(),
                );
            }
            Some(FaultPlan::load(std::path::Path::new(path)).unwrap_or_else(|e| fail(e)))
        }
        None => None,
    };
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        host: matches.get_one::<String>("host").expect("defaulted").clone(),
        port: parse_number(matches.get_one::<String>("port"), "--port")?,
        workers,
        queue_capacity,
        cache_capacity: parse_number(matches.get_one::<String>("cache"), "--cache")?,
        seed: parse_number(matches.get_one::<String>("seed"), "--seed")?,
        max_connections: parse_optional(
            matches.get_one::<String>("max-connections"),
            "--max-connections",
        )?
        .unwrap_or(defaults.max_connections),
        max_request_bytes: defaults.max_request_bytes,
        journal,
        fault_plan,
        metrics_addr: matches.get_one::<String>("metrics-addr").cloned(),
        flight_recorder: parse_optional(
            matches.get_one::<String>("flight-recorder-events"),
            "--flight-recorder-events",
        )?
        .unwrap_or(defaults.flight_recorder),
        flight_recorder_path: matches.get_one::<String>("flight-recorder").map(Into::into),
    };
    if config.max_connections == 0 {
        return Err("--max-connections must be at least 1".to_string());
    }
    let workers = config.workers;
    let queue = config.queue_capacity;
    let cache = config.cache_capacity;
    let journal_note = config
        .journal
        .as_ref()
        .map(|j| format!(", journal {}", j.path.display()))
        .unwrap_or_default();
    let fault_note = if config.fault_plan.is_some() { ", FAULT INJECTION ACTIVE" } else { "" };
    let telemetry = match matches.get_one::<String>("trace") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(format!("cannot create trace file {path}: {e}")));
            println!("streaming trace events to {path}");
            Telemetry::with_collector(Arc::new(StreamCollector::new(Box::new(file))))
        }
        None => Telemetry::disabled(),
    };
    let service = PlacementService::start_with_telemetry(config, telemetry)
        .unwrap_or_else(|e| fail(format!("cannot start service: {e}")));
    println!(
        "apls service listening on {} ({workers} worker(s), queue {queue}, cache {cache}{journal_note}{fault_note})",
        service.local_addr()
    );
    if let Some(addr) = service.metrics_addr() {
        println!("apls metrics listening on http://{addr}/metrics (also /healthz, /readyz)");
    }
    println!("stop with: apls submit --addr {} --op shutdown", service.local_addr());
    service.join();
    println!("apls service stopped");
    Ok(())
}

fn run_submit(matches: &ArgMatches) -> Result<(), String> {
    let addr = matches.get_one::<String>("addr").expect("defaulted");
    // connects only once the request is known to be valid
    let connect = || {
        ServiceClient::connect(addr)
            .unwrap_or_else(|e| fail(format!("cannot connect to {addr}: {e}")))
    };
    let op = matches.get_one::<String>("op").expect("defaulted");
    match op.as_str() {
        "ping" | "stats" | "dump" | "shutdown" => {
            let mut client = connect();
            let response = match op.as_str() {
                "ping" => client.ping(),
                "stats" => client.stats(),
                "dump" => client.dump(),
                _ => client.shutdown(),
            }
            .unwrap_or_else(|e| fail(format!("request failed: {e}")));
            println!("{response}");
            return Ok(());
        }
        "place" => {}
        other => return Err(format!("unknown op '{other}' (place, ping, stats, dump, shutdown)")),
    }

    let circuit = match (matches.get_one::<String>("circuit"), matches.get_one::<String>("file")) {
        (Some(_), Some(_)) => return Err("--circuit and --file are mutually exclusive".to_string()),
        (Some(name), None) => CircuitSource::Bundled(name.clone()),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            // fail fast with a positioned message instead of shipping junk
            parse_circuit(&text).unwrap_or_else(|e| fail(format!("{path}:{e}")));
            CircuitSource::Inline(text)
        }
        (None, None) => {
            return Err("submit needs a circuit: --circuit NAME or --file FILE.apls".to_string())
        }
    };
    let spec = job_spec(matches, circuit)?;
    let stream = matches.get_flag("stream");
    let retries: Option<u32> = parse_optional(matches.get_one::<String>("retries"), "--retries")?;
    match retries {
        Some(_) if stream => return Err("--retries cannot be combined with --stream".to_string()),
        Some(0) => return Err("--retries must be at least 1".to_string()),
        _ => {}
    }

    let response = if stream {
        connect().place_streaming(&spec, |frame| match frame {
            StreamFrame::Accepted { job, circuit, seed, .. } => {
                println!("accepted: job {job} circuit={circuit} seed={seed}");
            }
            StreamFrame::Queued { depth, .. } => println!("queued: depth {depth}"),
            StreamFrame::Progress { engine, restart, completed, total, cost, .. } => {
                println!("progress: {completed}/{total} {engine}#{restart} cost={cost:.4}");
            }
            StreamFrame::Report { .. } => {}
        })
    } else {
        match retries {
            Some(attempts) if attempts > 1 => {
                let policy = RetryPolicy { max_attempts: attempts, ..RetryPolicy::default() };
                ServiceClient::place_with_retry(addr.as_str(), &spec, &policy)
            }
            _ => connect().place(&spec),
        }
    }
    .unwrap_or_else(|e| fail(format!("request failed: {e}")));
    match response.status.as_str() {
        "ok" => {
            let attempts_note = if response.attempts > 1 {
                format!(" attempts={}", response.attempts)
            } else {
                String::new()
            };
            println!(
                "job {}: status=ok circuit={} seed={} cache_hit={} queue {:.1} ms, solve {:.1} ms, total {:.1} ms{attempts_note}",
                response.id.unwrap_or(0),
                response.circuit.as_deref().unwrap_or("?"),
                response.seed.unwrap_or(0),
                response.cache_hit,
                response.queue_ms.unwrap_or(0.0),
                response.solve_ms.unwrap_or(0.0),
                response.total_ms.unwrap_or(0.0),
            );
            if let Some(path) = matches.get_one::<String>("json") {
                let report = response.report.as_deref();
                let report = report.unwrap_or_else(|| fail("response carried no report".into()));
                write_output(path, report, "report");
            }
            Ok(())
        }
        "retry" => fail(format!(
            "service busy: {} (resubmit later)",
            response.error.as_deref().unwrap_or("queue full")
        )),
        "timeout" => fail(format!(
            "job timed out: {}",
            response.error.as_deref().unwrap_or("deadline exceeded")
        )),
        _ => {
            fail(format!("service error: {}", response.error.as_deref().unwrap_or("unknown error")))
        }
    }
}

fn run_convert(matches: &ArgMatches) -> Result<(), String> {
    let circuit = match (matches.get_one::<String>("circuit"), matches.get_one::<String>("in")) {
        (Some(_), Some(_)) => return Err("--circuit and --in are mutually exclusive".to_string()),
        (Some(name), None) => benchmarks::by_name(name).ok_or_else(|| {
            format!("unknown circuit '{name}' (available: {})", benchmarks::names().join(", "))
        })?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            parse_circuit(&text).unwrap_or_else(|e| fail(format!("{path}:{e}")))
        }
        (None, None) => {
            return Err("convert needs an input: --circuit NAME or --in FILE.apls".to_string())
        }
    };
    let out = matches.get_one::<String>("out").expect("defaulted");
    write_output(out, &serialize_circuit(&circuit), &format!("circuit '{}'", circuit.name));
    Ok(())
}

fn run_gen(matches: &ArgMatches) -> Result<(), String> {
    let module_count: usize = parse_number(matches.get_one::<String>("modules"), "--modules")?;
    if module_count == 0 {
        return Err("--modules must be at least 1".to_string());
    }
    let config = GeneratorConfig {
        module_count,
        seed: parse_number(matches.get_one::<String>("seed"), "--seed")?,
        symmetry_fraction: parse_number(
            matches.get_one::<String>("sym-fraction"),
            "--sym-fraction",
        )?,
        common_centroid_fraction: parse_number(
            matches.get_one::<String>("cc-fraction"),
            "--cc-fraction",
        )?,
        proximity_fraction: parse_number(
            matches.get_one::<String>("prox-fraction"),
            "--prox-fraction",
        )?,
        min_edge: parse_number(matches.get_one::<String>("min-edge"), "--min-edge")?,
        max_edge: parse_number(matches.get_one::<String>("max-edge"), "--max-edge")?,
    };
    if config.min_edge < 1 || config.max_edge <= config.min_edge {
        return Err("edge lengths must satisfy 1 <= --min-edge < --max-edge".to_string());
    }
    let name = matches.get_one::<String>("name").expect("defaulted");
    let circuit = benchmarks::generate(name, config);
    let out = matches.get_one::<String>("out").expect("defaulted");
    write_output(out, &serialize_circuit(&circuit), &format!("circuit '{name}'"));
    Ok(())
}

fn run_default(matches: &ArgMatches) -> Result<(), String> {
    if matches.get_flag("list") {
        println!("bundled benchmark circuits:");
        for name in benchmarks::names() {
            let circuit = benchmarks::by_name(name).expect("listed names resolve");
            println!(
                "  {name:<20} {:>4} modules, {:>3} nets, {} symmetry group(s)",
                circuit.module_count(),
                circuit.netlist.net_count(),
                circuit.constraints.symmetry_groups().len(),
            );
        }
        return Ok(());
    }

    let circuit_name = matches.get_one::<String>("circuit").expect("defaulted");
    let circuit = benchmarks::by_name(circuit_name).ok_or_else(|| {
        format!("unknown circuit '{circuit_name}' (available: {})", benchmarks::names().join(", "))
    })?;

    let mut spec = job_spec(matches, CircuitSource::Bundled(circuit_name.clone()))?;
    // a local run's own defaults: root seed 1, one thread per core
    spec.threads.get_or_insert(0);
    let config = spec.resolved_config(spec.seed.unwrap_or(1));

    let trace_path = matches.get_one::<String>("trace");
    let recorder = trace_path.map(|_| Arc::new(RecordingCollector::new()));
    let telemetry = match &recorder {
        Some(recorder) => Telemetry::with_collector(Arc::clone(recorder) as _),
        None => Telemetry::disabled(),
    };

    let context = RunContext { telemetry, ..RunContext::default() };
    let report =
        run_portfolio_with(&circuit, &config, &context).expect("an unarmed token never cancels");
    println!("{}", report.summary());
    for engine in &report.engines {
        println!(
            "  {:<14} {} restart(s): best {:.0}, mean {:.0}, worst {:.0}{}{}{}",
            engine.engine.to_string() + ":",
            engine.restarts_run,
            engine.cost.min,
            engine.cost.mean,
            engine.cost.max,
            engine
                .mean_acceptance
                .map(|a| format!(", acceptance {:.0}%", a * 100.0))
                .unwrap_or_default(),
            engine
                .mean_moves_per_second
                .map(|mps| format!(", {} moves/s", human_throughput(mps)))
                .unwrap_or_default(),
            engine
                .enumeration_wins
                .map(|wins| format!(", enum fallback won {wins}/{}", engine.restarts_run))
                .unwrap_or_default(),
        );
    }

    if let Some(path) = matches.get_one::<String>("json") {
        write_output(path, &report.to_json(), "report");
    }
    if let Some(path) = matches.get_one::<String>("svg") {
        let svg =
            analog_layout_synthesis::portfolio::svg::render_svg(&circuit, &report.best().placement);
        std::fs::write(path, svg).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        println!("winning placement written to {path}");
    }
    if let (Some(path), Some(recorder)) = (trace_path, recorder) {
        // `.json` gets the one-object Chrome trace document (drag-and-drop
        // into a trace viewer); anything else gets one event per line.
        let body = if path.ends_with(".json") {
            recorder.to_chrome_trace()
        } else {
            recorder.to_json_lines()
        };
        std::fs::write(path, body).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        println!("trace ({} event(s)) written to {path}", recorder.len());
    }
    Ok(())
}

fn run_trace(matches: &ArgMatches) -> Result<(), String> {
    let path = matches
        .get_one::<String>("file")
        .ok_or("trace needs a file: apls trace --file out.jsonl")?;
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let mut summary = TraceSummary::new();
    let mut events = 0usize;

    let mut feed = |event: &Json| -> Result<(), String> {
        let name = event.get("name").and_then(Json::as_str).unwrap_or("?");
        let cat = event.get("cat").and_then(Json::as_str).unwrap_or("?");
        match event.get("ph").and_then(Json::as_str) {
            Some("X") => {
                let dur = event.get("dur").and_then(Json::as_u64).unwrap_or(0);
                summary.record_complete(cat, name, dur);
            }
            Some("i" | "C") => summary.record_instant(cat, name),
            Some(other) => return Err(format!("unsupported event phase '{other}'")),
            None => return Err("event without a 'ph' field".to_string()),
        }
        if let Some(Json::Obj(args)) = event.get("args") {
            for (key, value) in args {
                if let Some(v) = value.as_f64() {
                    summary.record_arg(cat, name, key, v);
                }
            }
        }
        events += 1;
        Ok(())
    };

    let trimmed = text.trim_start();
    if trimmed.starts_with('{') && !trimmed.contains('\n')
        || trimmed.starts_with("{\"traceEvents\"")
    {
        // One-object form: either a Chrome trace document or a single event.
        let doc = Json::parse(trimmed.trim_end()).unwrap_or_else(|e| fail(format!("{path}: {e}")));
        match doc.get("traceEvents").and_then(Json::as_arr) {
            Some(list) => {
                for event in list {
                    feed(event).unwrap_or_else(|e| fail(format!("{path}: {e}")));
                }
            }
            None => feed(&doc).unwrap_or_else(|e| fail(format!("{path}: {e}"))),
        }
    } else {
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let event =
                Json::parse(line).unwrap_or_else(|e| fail(format!("{path}:{}: {e}", lineno + 1)));
            feed(&event).unwrap_or_else(|e| fail(format!("{path}:{}: {e}", lineno + 1)));
        }
    }

    println!("{path}: {events} event(s)");
    print!("{}", summary.render());
    Ok(())
}

/// One dashboard frame rendered from a parsed `stats` reply.
fn render_top(addr: &str, stats: &Json) -> String {
    use std::fmt::Write as _;
    let metrics = stats.get("metrics");
    let series = |section: &str, name: &str| {
        metrics.and_then(|m| m.get(section)).and_then(|s| s.get(name)).and_then(Json::as_u64)
    };
    let c = |name: &str| series("counters", name).unwrap_or(0);
    let g = |name: &str| series("gauges", name).unwrap_or(0);
    let mut out = format!(
        "apls top — {addr}  workers={} uptime={}s  {}\n\
         jobs {}  queue {}/{}  in-flight {}  connections {}\n\
         cache {}/{} entries  hits {}  misses {}  evictions {}\n\
         requests {}  errors {}  retries {}  timeouts {}  frames {}  stalls {}  dumps {}\n",
        g("workers"),
        g("uptime_seconds"),
        if g("ready") == 1 { "READY" } else { "NOT READY" },
        c("jobs_completed_total"),
        g("queue_depth"),
        g("queue_capacity"),
        g("in_flight_jobs"),
        g("connections_active"),
        g("cache_entries"),
        g("cache_capacity"),
        c("cache_hits_total"),
        c("cache_misses_total"),
        c("cache_evictions_total"),
        c("requests_total"),
        c("errors_total"),
        c("retries_total"),
        c("timeouts_total"),
        c("frames_sent_total"),
        c("reactor_stalls_total"),
        c("flight_dumps_total"),
    );
    if let Some(hists) = metrics.and_then(|m| m.get("histograms")) {
        let _ = writeln!(
            out,
            "{:<14}  {:>8}  {:>9}  {:>9}  {:>9}",
            "stage (ms)", "count", "p50", "p95", "p99"
        );
        for name in
            ["admit_ms", "queue_ms", "solve_ms", "flush_ms", "total_ms", "poll_wait_ms", "loop_ms"]
        {
            let Some(h) = hists.get(name) else { continue };
            let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
            let q = |key: &str| match h.get(key).and_then(Json::as_f64) {
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<14}  {:>8}  {:>9}  {:>9}  {:>9}",
                name.trim_end_matches("_ms"),
                count,
                q("p50"),
                q("p95"),
                q("p99"),
            );
        }
    }
    out
}

fn run_top(matches: &ArgMatches) -> Result<(), String> {
    let addr = matches.get_one::<String>("addr").expect("defaulted");
    let interval_ms: u64 = parse_number(matches.get_one::<String>("interval-ms"), "--interval-ms")?;
    let iterations: u64 = parse_number(matches.get_one::<String>("iterations"), "--iterations")?;
    let clear = !matches.get_flag("no-clear");
    let mut shown: u64 = 0;
    loop {
        // one connection per refresh: the dashboard survives service restarts
        let frame = ServiceClient::connect(addr)
            .and_then(|mut client| client.stats())
            .map_err(|e| format!("cannot poll {addr}: {e}"))
            .and_then(|line| {
                let stats =
                    Json::parse(&line).map_err(|e| format!("bad stats reply from {addr}: {e}"))?;
                Ok(render_top(addr, &stats))
            })
            .unwrap_or_else(|e| fail(e));
        if clear {
            // ANSI clear-screen + home, like watch(1)
            print!("\u{1b}[2J\u{1b}[H");
        }
        print!("{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        shown += 1;
        if iterations != 0 && shown >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
    }
}

fn run() -> Result<(), String> {
    let matches = cli().get_matches();
    match matches.subcommand() {
        Some(("serve", sub)) => run_serve(sub),
        Some(("submit", sub)) => run_submit(sub),
        Some(("top", sub)) => run_top(sub),
        Some(("convert", sub)) => run_convert(sub),
        Some(("gen", sub)) => run_gen(sub),
        Some(("trace", sub)) => run_trace(sub),
        _ => run_default(&matches),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
