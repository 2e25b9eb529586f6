//! Per-layer metrics of the traced run.
//!
//! Service-layer numbers come from the service's public protocol (answer
//! envelopes and `stats` deltas). Every other layer is timed in-process
//! around calls into the crate's public functions, each call inside a span
//! of its own, on the workload's own circuits, request lines and reports.

use crate::plan::{Plan, Step, Workload, ALL_CIRCUITS, LARGE_SOLVE_PASS, SMALL_MAX_MODULES};
use crate::stats::{self, histogram_delta_median, ServiceStats};
use crate::trace::Tracer;
use crate::workloads::{example_text, JournalStats, PlaceSample, Reference};
use crate::Metrics;
use apls_btree::{pack_btree_into, BStarTree, PackScratch, PackedBTree};
use apls_circuit::benchmarks::{self, BenchmarkCircuit};
use apls_circuit::{DeltaCost, ModuleId, Placement};
use apls_geometry::{Orientation, Rect};
use apls_portfolio::{run_engine_once, PortfolioEngine, RestartSettings};
use apls_seqpair::pack::pack_lcs;
use apls_seqpair::SequencePair;
use apls_service::json::{quote, Json};
use apls_service::JobSpec;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread id of the layer spans in the trace.
const TID: u64 = 50;
/// Request lines and report bodies timed per workload.
const PROTOCOL_SAMPLE: usize = 512;
/// Calls per circuit of each io/circuit function.
const IO_REPEATS: usize = 20;
/// Calls per kernel span; the kernel metric is the per-call mean.
const KERNEL_CALLS: usize = 2_000;
const KERNEL_SPANS: usize = 10;

/// What the timed phase left for the service-layer metrics.
pub struct ServiceLayer<'a> {
    pub places: &'a [PlaceSample],
    /// Solved (cache-miss) answers: the timed phase's, or `hit_floor`'s
    /// priming.
    pub misses: &'a [PlaceSample],
    pub before: &'a ServiceStats,
    pub after: &'a ServiceStats,
    pub references: &'a [Reference],
    /// Zeros without a journal.
    pub journal: JournalStats,
    pub traced_place_us_geomean: f64,
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        stats::median(samples)
    }
}

/// Metrics read through the service's protocol.
pub fn service(layer: &ServiceLayer<'_>, metrics: &mut Metrics) {
    let places = layer.places.len();
    let per_place = |delta: u64| delta as f64 / places.max(1) as f64;
    let (before, after) = (layer.before, layer.after);
    let wire: Vec<f64> = layer.places.iter().map(|p| p.rtt_us - p.total_ms * 1e3).collect();
    metrics.add("service.wire_us_p50", median_or_zero(&wire), "us", wire.len());
    let admit = histogram_delta_median(&before.admit_ms, &after.admit_ms).unwrap_or(0.0);
    metrics.add("service.admit_ms_p50", admit, "ms", places);
    let flush = histogram_delta_median(&before.flush_ms, &after.flush_ms).unwrap_or(0.0);
    metrics.add("service.flush_ms_p50", flush, "ms", places);
    let queue: Vec<f64> = layer.misses.iter().map(|p| p.queue_ms).collect();
    metrics.add("service.queue_ms_p50", median_or_zero(&queue), "ms", queue.len());
    let solve: Vec<f64> = layer.misses.iter().map(|p| p.solve_ms).collect();
    metrics.add("service.solve_ms_p50", median_or_zero(&solve), "ms", solve.len());
    let envelope_solve: HashMap<usize, f64> =
        layer.misses.iter().map(|p| (p.key, p.solve_ms)).collect();
    let overhead: Vec<f64> = layer
        .references
        .iter()
        .filter(|r| !r.inline)
        .filter_map(|r| envelope_solve.get(&r.key).map(|s| s - r.solve_ms))
        .collect();
    metrics.add("service.solve_overhead_ms", median_or_zero(&overhead), "ms", overhead.len());
    metrics.add(
        "service.frames_per_job",
        per_place(after.frames_sent_total - before.frames_sent_total),
        "count",
        places,
    );
    metrics.add(
        "service.wakeups_per_job",
        per_place(after.readiness_wakeups_total - before.readiness_wakeups_total),
        "count",
        places,
    );
    metrics.add(
        "cache.hit_ratio",
        per_place(after.cache_hits - before.cache_hits),
        "ratio",
        places,
    );
    metrics.add(
        "cache.insertions",
        (after.cache_insertions - before.cache_insertions) as f64,
        "count",
        places,
    );
    let journal = layer.journal;
    metrics.add("journal.bytes_per_job", journal.bytes_per_job, "B", places);
    metrics.add("journal.records", journal.records, "count", 1);
    metrics.add("journal.recovery_s", journal.recovery_s, "s", 1);
    metrics.add("journal.replayed_jobs", journal.replayed, "count", places);
    let references: Vec<&Reference> = layer.references.iter().filter(|r| !r.inline).collect();
    let plan: Vec<f64> = references.iter().map(|r| r.plan_us).collect();
    metrics.add("portfolio.plan_us", stats::mean(&plan), "us", plan.len());
    let solve: Vec<f64> = references.iter().map(|r| r.solve_ms).collect();
    metrics.add("portfolio.solve_ms", median_or_zero(&solve), "ms", solve.len());
    let report: Vec<f64> = references.iter().map(|r| r.report_us).collect();
    metrics.add("portfolio.report_us", median_or_zero(&report), "us", report.len());
    metrics.add("trace.place_us_geomean", layer.traced_place_us_geomean, "us", places);
}

/// Times `f` once inside a span; returns its microseconds.
fn timed<T>(
    tracer: &Tracer,
    cat: &'static str,
    name: &'static str,
    parent: u64,
    job: u64,
    f: impl FnOnce() -> T,
) -> f64 {
    let span = tracer.span(TID, cat, name, parent, job);
    black_box(f());
    span.end().as_secs_f64() * 1e6
}

/// Metrics timed in-process around each crate's public functions.
pub fn in_process(
    workload: Workload,
    plan: &Plan,
    bodies: &HashMap<usize, String>,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let root = tracer.span(TID, "bench", "layers", 0, 0);
    let parent = root.id();

    // protocol + json: the exact place lines connection 0 sent, in order
    let sent: Vec<(usize, &str)> = plan.schedules[0]
        .iter()
        .filter_map(|&step| match step {
            Step::Place { key, .. } => Some((key, plan.line(step))),
            Step::Ping => None,
        })
        .take(PROTOCOL_SAMPLE)
        .collect();
    let (mut parse_us, mut config_us) = (Vec::new(), Vec::new());
    for &(key, line) in &sent {
        let job = key as u64 + 1;
        let mut spec = None;
        parse_us.push(timed(tracer, "protocol", "parse", parent, job, || {
            spec =
                Json::parse(line.trim_end()).ok().and_then(|json| JobSpec::from_json(&json).ok());
        }));
        let spec = spec.ok_or_else(|| format!("a sent line does not parse: {line:.120}"))?;
        config_us.push(timed(tracer, "protocol", "config_canonical", parent, job, || {
            spec.config_canonical()
        }));
    }
    metrics.add("protocol.parse_us", stats::mean(&parse_us), "us", parse_us.len());
    metrics.add("protocol.config_us", stats::mean(&config_us), "us", config_us.len());
    let mut keys: Vec<&usize> = bodies.keys().collect();
    keys.sort_unstable();
    let quote_us: Vec<f64> = keys
        .iter()
        .take(PROTOCOL_SAMPLE)
        .map(|&&key| {
            timed(tracer, "json", "quote", parent, key as u64 + 1, || quote(&bodies[&key]))
        })
        .collect();
    metrics.add("json.quote_us", stats::mean(&quote_us), "us", quote_us.len());

    // io + circuit, split at SMALL_MAX_MODULES
    let mut io: HashMap<(&str, bool), Vec<f64>> = HashMap::new();
    for name in ALL_CIRCUITS {
        let text = example_text(name)?;
        let large = benchmarks::by_name(name).map_or(0, |c| c.module_count()) > SMALL_MAX_MODULES;
        for _ in 0..IO_REPEATS {
            let mut circuit = None;
            let us = timed(tracer, "io", "parse_circuit", parent, 0, || {
                circuit = apls_io::parse_circuit(&text).ok()
            });
            io.entry(("io.parse_us", large)).or_default().push(us);
            let circuit = circuit.ok_or_else(|| format!("{name}.apls does not parse"))?;
            let mut canonical = String::new();
            let us = timed(tracer, "io", "serialize_circuit", parent, 0, || {
                canonical = apls_io::serialize_circuit(&circuit)
            });
            io.entry(("io.serialize_us", large)).or_default().push(us);
            let us = timed(tracer, "io", "canonical_hash", parent, 0, || {
                apls_io::canonical_hash(&canonical)
            });
            io.entry(("io.hash_us", large)).or_default().push(us);
            let us = timed(tracer, "circuit", "by_name", parent, 0, || benchmarks::by_name(name));
            io.entry(("circuit.by_name_us", large)).or_default().push(us);
        }
    }
    for name in ["io.parse_us", "io.serialize_us", "io.hash_us", "circuit.by_name_us"] {
        for (large, size) in [(false, "small"), (true, "large")] {
            let samples = &io[&(name, large)];
            metrics.add(&format!("{name}.{size}"), stats::mean(samples), "us", samples.len());
        }
    }

    engines(workload, plan, tracer, parent, metrics)?;
    kernels(workload, tracer, parent, metrics)?;
    root.end();
    metrics.add("trace.spans", tracer.len() as f64, "count", 1);
    Ok(())
}

/// `run_engine_once` on the workload's own circuits, seeds and settings.
fn engines(
    workload: Workload,
    plan: &Plan,
    tracer: &Tracer,
    parent: u64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    // (circuit, engine, seed, fast schedule)
    let first_seed =
        |circuit: &str| plan.keys.iter().find(|k| k.circuit == circuit).map(|k| k.seed);
    let mut jobs: Vec<(&str, PortfolioEngine, u64, bool)> = Vec::new();
    match workload {
        Workload::HitFloor | Workload::SmallMix => {
            for &circuit in workload.circuits() {
                let seed = first_seed(circuit).ok_or("a workload circuit has no key")?;
                jobs.extend(PortfolioEngine::ALL.iter().map(|&e| (circuit, e, seed, true)));
            }
        }
        // one circuit of the list keeps the traced run short
        Workload::LargeSolve => {
            let seed = first_seed("biasynth").ok_or("biasynth has no key")?;
            jobs.extend(
                LARGE_SOLVE_PASS
                    .iter()
                    .filter(|j| j.0 == "biasynth")
                    .map(|&(c, e, fast)| (c, e, seed, fast)),
            );
        }
    }
    let circuits: HashMap<&str, BenchmarkCircuit> =
        jobs.iter().map(|j| (j.0, benchmarks::by_name(j.0).expect("bundled circuit"))).collect();
    let next = AtomicUsize::new(0);
    // (engine, wall ms, outcome)
    let outcomes: Vec<(PortfolioEngine, f64, apls_portfolio::RestartOutcome)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let (next, jobs, circuits) = (&next, &jobs, &circuits);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        while let Some(&(circuit, engine, seed, fast)) =
                            jobs.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            let settings = RestartSettings {
                                fast_schedule: fast,
                                ..RestartSettings::default()
                            };
                            let span =
                                tracer.span(TID + 1 + t, "engine", engine.name(), parent, seed);
                            let outcome =
                                run_engine_once(&circuits[circuit], engine, seed, &settings);
                            let ms = span.end().as_secs_f64() * 1e3;
                            out.push((engine, ms, outcome));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("engine thread panicked")).collect()
        });
    for engine in PortfolioEngine::ALL {
        let runs: Vec<_> = outcomes.iter().filter(|o| o.0 == engine).collect();
        let name = engine.name();
        let wall: Vec<f64> = runs.iter().map(|o| o.1).collect();
        metrics.add(&format!("engine.{name}.restart_ms"), median_or_zero(&wall), "ms", wall.len());
        if engine == PortfolioEngine::Hier {
            let won = runs.iter().filter(|o| o.2.enumeration_won == Some(true)).count();
            metrics.add(
                "engine.hier.enumeration_win_share",
                won as f64 / runs.len().max(1) as f64,
                "ratio",
                runs.len(),
            );
        }
        // deterministic has no move loop, hier reports none of its sub-solver's
        if matches!(engine, PortfolioEngine::Deterministic | PortfolioEngine::Hier) {
            continue;
        }
        let rate: Vec<f64> = runs.iter().filter_map(|o| o.2.moves_per_second).collect();
        metrics.add(
            &format!("engine.{name}.moves_per_s"),
            median_or_zero(&rate),
            "1/s",
            rate.len(),
        );
        let acceptance: Vec<f64> = runs.iter().filter_map(|o| o.2.acceptance_ratio).collect();
        metrics.add(
            &format!("engine.{name}.acceptance"),
            stats::mean(&acceptance),
            "ratio",
            acceptance.len(),
        );
    }
    Ok(())
}

/// Packing and incremental-wirelength kernels at the size of the workload's
/// largest circuit.
fn kernels(
    workload: Workload,
    tracer: &Tracer,
    parent: u64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let circuit = workload
        .circuits()
        .iter()
        .filter_map(|name| benchmarks::by_name(name))
        .max_by_key(BenchmarkCircuit::module_count)
        .ok_or("workload without circuits")?;
    let netlist = &circuit.netlist;
    let n = netlist.module_count();
    let dims = netlist.default_dims();
    let mut rng = crate::plan::Rng::new(n as u64);
    let mut alpha: Vec<ModuleId> = netlist.module_ids().collect();
    let mut beta = alpha.clone();
    rng.shuffle(&mut alpha);
    rng.shuffle(&mut beta);
    let sp = SequencePair::from_sequences(alpha.clone(), beta).map_err(|e| format!("{e:?}"))?;
    let per_call = |name: &'static str, cat: &'static str, f: &mut dyn FnMut()| -> (f64, usize) {
        let mut spans = Vec::with_capacity(KERNEL_SPANS);
        for _ in 0..KERNEL_SPANS {
            let span = tracer.span(TID, cat, name, parent, 0);
            for _ in 0..KERNEL_CALLS {
                f();
            }
            spans.push(span.end().as_secs_f64() / KERNEL_CALLS as f64);
        }
        (stats::median(&spans), KERNEL_SPANS * KERNEL_CALLS)
    };
    let (s, count) = per_call("pack_lcs", "seqpair", &mut || {
        black_box(pack_lcs(black_box(&sp), &dims));
    });
    metrics.add("seqpair.pack_us", s * 1e6, "us", count);
    let tree = BStarTree::balanced(&alpha);
    let (mut scratch, mut packed) = (PackScratch::new(), PackedBTree::new());
    let (s, count) = per_call("pack_btree_into", "btree", &mut || {
        pack_btree_into(&mut scratch, black_box(&tree), &dims, &mut packed);
        black_box(&packed);
    });
    metrics.add("btree.pack_us", s * 1e6, "us", count);

    // one module walks back and forth on a diagonal placement
    let mut placement = Placement::new(netlist);
    for (i, m) in netlist.module_ids().enumerate() {
        let x = 40 * i as i64;
        placement.place(m, Rect::new(x, x, x + dims[i].w, x + dims[i].h), Orientation::R0, 0);
    }
    let moved = ModuleId::from_index(n / 2);
    let home = placement.get(moved).ok_or("module not placed")?.rect;
    let away = Rect::new(home.x_min + 500, home.y_min + 500, home.x_max + 500, home.y_max + 500);
    let mut delta = DeltaCost::new(netlist.adjacency(), n);
    delta.begin();
    delta.refresh_all(|m| placement.get(m).map(|pm| pm.rect));
    delta.commit();
    let mut there = false;
    let (s, count) = per_call("delta_hpwl", "circuit", &mut || {
        there = !there;
        let rect = if there { away } else { home };
        delta.begin();
        black_box(delta.delta_hpwl(&[moved], |q| {
            if q == moved {
                Some(rect)
            } else {
                placement.get(q).map(|pm| pm.rect)
            }
        }));
        delta.commit();
    });
    metrics.add("circuit.delta_hpwl_ns", s * 1e9, "ns", count);
    metrics.add("kernel.modules", n as f64, "count", 1);
    Ok(())
}
