//! `placebench`: the repository benchmark of the apls placement service.
//!
//! ```text
//! placebench --workload <hit_floor|small_mix|large_solve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the service in-process through its public API, drives one seeded
//! workload closed-loop over TCP, checks every answer, and prints each
//! metric by name with its unit and sample count. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). See
//! README.md in this directory.

mod affinity;
mod check;
mod layers;
mod plan;
mod stats;
mod trace;
mod workloads;

use plan::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// Gated end-to-end metrics, printed by every untraced run.
const END_TO_END: [&str; 6] = [
    "jobs_per_s",
    "place_us_geomean",
    "ping_us_p50",
    "quality_cost_geomean",
    "setup_s",
    "rss_peak_mb",
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [&str; 46] = [
    "service.wire_us_p50",
    "service.admit_ms_p50",
    "service.flush_ms_p50",
    "service.queue_ms_p50",
    "service.solve_ms_p50",
    "service.solve_overhead_ms",
    "service.frames_per_job",
    "service.wakeups_per_job",
    "cache.hit_ratio",
    "cache.insertions",
    "journal.bytes_per_job",
    "journal.records",
    "journal.recovery_s",
    "journal.replayed_jobs",
    "protocol.parse_us",
    "protocol.config_us",
    "json.quote_us",
    "io.parse_us.small",
    "io.parse_us.large",
    "io.serialize_us.small",
    "io.serialize_us.large",
    "io.hash_us.small",
    "io.hash_us.large",
    "circuit.by_name_us.small",
    "circuit.by_name_us.large",
    "portfolio.plan_us",
    "portfolio.solve_ms",
    "portfolio.report_us",
    "engine.seqpair.restart_ms",
    "engine.seqpair.moves_per_s",
    "engine.seqpair.acceptance",
    "engine.hbtree.restart_ms",
    "engine.hbtree.moves_per_s",
    "engine.hbtree.acceptance",
    "engine.hier.restart_ms",
    "engine.hier.enumeration_win_share",
    "engine.tempering.restart_ms",
    "engine.tempering.moves_per_s",
    "engine.tempering.acceptance",
    "engine.deterministic.restart_ms",
    "seqpair.pack_us",
    "btree.pack_us",
    "circuit.delta_hpwl_ns",
    "kernel.modules",
    "trace.place_us_geomean",
    "trace.spans",
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// Printed for the record but never part of the result line.
    pub log_only: bool,
}

/// Every value a run measured, in the order measured.
#[derive(Debug, Default)]
pub struct Metrics {
    list: Vec<Metric>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.list.push(Metric { name: name.to_string(), value, unit, samples, log_only: false });
    }

    pub fn add_log(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.list.push(Metric { name: name.to_string(), value, unit, samples, log_only: true });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.list.iter().rev().find(|m| m.name == name && !m.log_only)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} needs a whole number"))
    };
    let workload = value("--workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        format!("unknown workload '{workload}' (hit_floor, small_mix, large_solve)")
    })?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds, trace })
}

/// nproc, CPU model, rustc and OS of this run.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "nproc={nproc} cpu={cpu:?} rustc={:?} os={} arch={}",
        env!("PLACEBENCH_RUSTC"),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("placebench: {e}");
            eprintln!("usage: placebench --workload <hit_floor|small_mix|large_solve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".placebench");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("placebench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "# placebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# fingerprint {}", fingerprint());

    let tracer = args.trace.then(trace::Tracer::new);
    let run = workloads::Run {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        tracer: tracer.as_ref(),
        out_dir: out_dir.clone(),
    };
    let mut metrics = Metrics::default();
    let verdict = match workloads::run(&run, &mut metrics) {
        Ok(verdict) => verdict,
        Err(e) => {
            eprintln!("placebench: {} seed {}: {e}", args.workload.name(), args.seed);
            return ExitCode::FAILURE;
        }
    };
    for m in &metrics.list {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    for note in &metrics.notes {
        println!("# {note}");
    }
    if let Some(tracer) = &tracer {
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload.name(), args.seed));
        let written = std::fs::File::create(&path)
            .and_then(|f| tracer.write_jsonl(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("# trace: {} spans written to {}", tracer.len(), path.display()),
            Err(e) => {
                eprintln!("placebench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let declared: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut failures = verdict.failures;
    let mut fields = Vec::new();
    for &name in declared {
        match metrics.get(name) {
            Some(m) if m.value.is_finite() => {
                fields.push(format!("{name:?}:{{\"value\":{},\"unit\":{:?}}}", m.value, m.unit));
            }
            Some(m) => failures.push(format!("metric {name} is not finite ({})", m.value)),
            None => failures.push(format!("metric {name} was not measured")),
        }
    }
    for failure in &failures {
        println!("# FAILED: {failure}");
    }
    let correct = failures.is_empty() && verdict.failed == 0 && verdict.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        verdict.attempted,
        verdict.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
