//! Hot-path micro- and macro-benchmarks: contour placement, B*-tree packing,
//! end-to-end annealing throughput (moves/sec) per engine, the sequence-pair
//! evaluator across circuit sizes, and the service's JSON codec and writers
//! on their largest inputs.
//!
//! The recorded trajectory lives in `BENCH_hotpath.json` at the repository
//! root: every PR that touches the evaluation pipeline re-runs this bench and
//! appends its numbers so regressions are visible in review.

use apls_anneal::Schedule;
use apls_bench::{random_dims, random_permutation};
use apls_btree::{
    pack_btree, pack_btree_into, BStarTree, BTreePlacer, HbTreePlacer, HbTreePlacerConfig,
    PackScratch, PackedBTree,
};
use apls_circuit::benchmarks::{self, GeneratorConfig};
use apls_circuit::{DeltaCost, ModuleId, Placement};
use apls_geometry::{Contour, Orientation, Rect};
use apls_portfolio::{run_portfolio, PortfolioEngine};
use apls_seqpair::{SeqPairPlacer, SeqPairPlacerConfig};
use apls_service::{json, JobSpec};
use apls_telemetry::{RecordingCollector, Telemetry};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

/// Moves budget of the end-to-end engine benches; moves/sec = MOVES / time.
const MOVES: u64 = 2000;

fn bench_contour_place(c: &mut Criterion) {
    let mut group = c.benchmark_group("contour_place");
    for &n in &[20usize, 100, 400] {
        let dims = random_dims(n, 3);
        group.bench_with_input(BenchmarkId::new("modules", n), &n, |b, _| {
            b.iter(|| {
                let mut contour = Contour::new();
                let mut x = 0;
                for (i, d) in dims.iter().enumerate() {
                    // staircase of overlapping spans exercises splits + merges
                    contour.place(x, d.w, d.h);
                    x += if i % 3 == 0 { d.w / 2 } else { d.w };
                }
                contour.max_height()
            });
        });
    }
    group.finish();
}

fn bench_pack_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack_btree");
    for &n in &[10usize, 50, 200] {
        let dims = random_dims(n, 7);
        let tree = BStarTree::balanced(&random_permutation(n, 17));
        group.bench_with_input(BenchmarkId::new("alloc", n), &n, |b, _| {
            b.iter(|| pack_btree(&tree, &dims));
        });
        group.bench_with_input(BenchmarkId::new("scratch", n), &n, |b, _| {
            let mut scratch = PackScratch::new();
            let mut packed = PackedBTree::new();
            b.iter(|| {
                pack_btree_into(&mut scratch, &tree, &dims, &mut packed);
                packed.area()
            });
        });
    }
    group.finish();
}

fn bench_delta_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_eval");
    for &n in &[10usize, 50, 200] {
        let circuit = benchmarks::generate(
            "delta_bench",
            GeneratorConfig { module_count: n, seed: 11, ..GeneratorConfig::default() },
        );
        let netlist = &circuit.netlist;
        let adjacency = netlist.adjacency();
        let dims = netlist.default_dims();

        // A deterministic diagonal placement; the benched move walks one
        // module back and forth so the committed geometry never drifts.
        let mut placement = Placement::new(netlist);
        for (i, m) in netlist.module_ids().enumerate() {
            let d = dims[i];
            let x = 40 * i as i64;
            placement.place(m, Rect::new(x, x, x + d.w, x + d.h), Orientation::R0, 0);
        }
        let moved = ModuleId::from_index(n / 2);
        let home = placement.get(moved).expect("placed").rect;
        let away =
            Rect::new(home.x_min + 500, home.y_min + 500, home.x_max + 500, home.y_max + 500);

        // Incremental: one module moves, only its incident nets re-total.
        group.bench_with_input(BenchmarkId::new("delta_hpwl", n), &n, |b, _| {
            let mut delta = DeltaCost::new(adjacency.clone(), netlist.module_count());
            delta.begin();
            delta.refresh_all(|m| placement.get(m).map(|pm| pm.rect));
            delta.commit();
            let mut there = false;
            b.iter(|| {
                there = !there;
                let rect = if there { away } else { home };
                delta.begin();
                let wl = delta.delta_hpwl(&[moved], |q| {
                    if q == moved {
                        Some(rect)
                    } else {
                        placement.get(q).map(|pm| pm.rect)
                    }
                });
                delta.commit();
                wl
            });
        });

        // Reference: the same move scored by a from-scratch full-net sweep.
        group.bench_with_input(BenchmarkId::new("full_sweep", n), &n, |b, _| {
            let mut there = false;
            b.iter(|| {
                there = !there;
                let rect = if there { away } else { home };
                let mut delta = DeltaCost::new(adjacency.clone(), netlist.module_count());
                delta.begin();
                delta.refresh_all(|q| {
                    if q == moved {
                        Some(rect)
                    } else {
                        placement.get(q).map(|pm| pm.rect)
                    }
                })
            });
        });
    }
    group.finish();
}

fn bench_engine_moves(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_moves");
    group.sample_size(10);
    let schedule = Schedule::geometric(1e6, 1.0, 0.95, 200).with_max_moves(MOVES);
    let circuit = benchmarks::comparator_v2();

    group.bench_with_input(
        BenchmarkId::new("flat_btree_2000", circuit.module_count()),
        &0,
        |b, _| {
            let config = HbTreePlacerConfig { seed: 3, schedule, ..HbTreePlacerConfig::default() };
            let placer = BTreePlacer::new(&circuit.netlist, &circuit.constraints);
            b.iter(|| placer.run(&config));
        },
    );
    group.bench_with_input(BenchmarkId::new("hbtree_2000", circuit.module_count()), &0, |b, _| {
        let config = HbTreePlacerConfig { seed: 3, schedule, ..HbTreePlacerConfig::default() };
        let placer = HbTreePlacer::new(&circuit);
        b.iter(|| placer.run(&config));
    });
    // The largest bundled hierarchy (110 modules, deep sub-circuit nesting):
    // where repacking only the perturbed sub-circuit and its ancestors pays.
    let lna = benchmarks::lnamixbias();
    group.bench_with_input(BenchmarkId::new("hbtree_2000", lna.module_count()), &0, |b, _| {
        let config = HbTreePlacerConfig { seed: 3, schedule, ..HbTreePlacerConfig::default() };
        let placer = HbTreePlacer::new(&lna);
        b.iter(|| placer.run(&config));
    });
    let big = benchmarks::generate(
        "flat50",
        GeneratorConfig { module_count: 50, seed: 5, ..GeneratorConfig::default() },
    );
    group.bench_with_input(BenchmarkId::new("flat_btree_2000", big.module_count()), &0, |b, _| {
        let config = HbTreePlacerConfig { seed: 3, schedule, ..HbTreePlacerConfig::default() };
        let placer = BTreePlacer::new(&big.netlist, &big.constraints);
        b.iter(|| placer.run(&config));
    });
    group.bench_with_input(BenchmarkId::new("seqpair_2000", circuit.module_count()), &0, |b, _| {
        let config = SeqPairPlacerConfig { seed: 3, schedule, ..SeqPairPlacerConfig::default() };
        let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        b.iter(|| placer.run(&config));
    });
    // Same run with a live recording collector: the gap to `seqpair_2000` is
    // the *enabled* telemetry overhead (the disabled overhead is the default
    // `run` path above, which every other datapoint already measures).
    group.bench_with_input(
        BenchmarkId::new("seqpair_2000_traced", circuit.module_count()),
        &0,
        |b, _| {
            let config =
                SeqPairPlacerConfig { seed: 3, schedule, ..SeqPairPlacerConfig::default() };
            let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
            b.iter(|| {
                let telemetry = Telemetry::with_collector(Arc::new(RecordingCollector::new()));
                placer.run_traced(&config, &telemetry)
            });
        },
    );
    group.finish();
}

/// The symmetric-feasible sequence-pair evaluator across circuit sizes: a
/// 2000-move seqpair run on bundled circuits of 22, 46 and 110 modules and
/// on a generated 250-module circuit, spanning both prefix-max structures
/// and the island-shortcut rates of the legalisation.
///
/// Each circuit runs twice: hot (from T = 1e6, where nearly every proposal
/// is accepted) and cold (`<name>_cold`: 4000 moves from T = 2000, the
/// start temperature of the full schedule, where most proposals are
/// rejected). The cold rows show early rejection where it fires this early
/// in a run: with seed 3 it rejects 71% of the folded_cascode proposals on
/// their area bound, 25% on buffer, 20% on lnamixbias and 2% on gen250; the
/// bound tightens only as the placement compacts.
fn bench_seqpair_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("seqpair_eval");
    group.sample_size(10);
    let schedule = Schedule::geometric(1e6, 1.0, 0.95, 200).with_max_moves(MOVES);
    let cold = Schedule::geometric(2000.0, 0.05, 0.93, 200).with_max_moves(2 * MOVES);
    let circuits = [
        benchmarks::folded_cascode(),
        benchmarks::buffer(),
        benchmarks::lnamixbias(),
        benchmarks::generate(
            "gen250",
            GeneratorConfig { module_count: 250, seed: 5, ..GeneratorConfig::default() },
        ),
    ];
    for circuit in &circuits {
        let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        for (suffix, schedule) in [("", schedule), ("_cold", cold)] {
            let config =
                SeqPairPlacerConfig { seed: 3, schedule, ..SeqPairPlacerConfig::default() };
            group.bench_with_input(
                BenchmarkId::new(format!("{}{suffix}", circuit.name), circuit.module_count()),
                &0,
                |b, _| b.iter(|| placer.run(&config)),
            );
        }
    }
    group.finish();
}

/// The JSON codec on the cache-hit path's largest strings: decoding an
/// inline `lnamixbias` place request (its `.apls` text is one escaped JSON
/// string), escaping that text back, escaping an `lnamixbias` report as it
/// enters the cache, and the two writers that produce them: rendering that
/// report and encoding that request.
fn bench_json_codec(c: &mut Criterion) {
    let text = include_str!("../../../examples/circuits/lnamixbias.apls");
    let spec = JobSpec::inline(text)
        .with_seed(7)
        .with_restarts(1)
        .with_engines([PortfolioEngine::SequencePair])
        .with_fast(true);
    let line = spec.to_json_line();
    let circuit = benchmarks::by_name("lnamixbias").expect("bundled");
    let run = run_portfolio(&circuit, &spec.resolved_config(7));
    let report = run.to_json_deterministic();
    let mut group = c.benchmark_group("json_codec");
    group.bench_function("decode_request/lnamixbias", |b| {
        b.iter(|| JobSpec::from_json(&json::Json::parse(&line).expect("parses")).expect("decodes"));
    });
    group.bench_function("quote_apls/lnamixbias", |b| b.iter(|| json::quote(text)));
    group.bench_function("quote_report/lnamixbias", |b| b.iter(|| json::quote(&report)));
    group.bench_function("render_report/lnamixbias", |b| b.iter(|| run.to_json_deterministic()));
    group.bench_function("encode_request/lnamixbias", |b| b.iter(|| spec.to_json_line()));
    group.finish();
}

criterion_group!(
    benches,
    bench_contour_place,
    bench_pack_btree,
    bench_delta_eval,
    bench_engine_moves,
    bench_seqpair_eval,
    bench_json_codec
);
criterion_main!(benches);
