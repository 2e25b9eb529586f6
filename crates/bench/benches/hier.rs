//! Hierarchical pipeline benchmarks: the pure-enumeration configuration
//! (the deterministic placer's engine) against the hybrid configuration, which
//! refines larger hierarchy nodes by B*-tree annealing.
//!
//! The recorded area/runtime comparison lives in `BENCH_hier.json` at the
//! repository root: every PR that touches the hierarchical pipeline re-runs
//! this bench and refreshes the comparison so regressions are visible in
//! review.

use apls_circuit::benchmarks;
use apls_shapefn::hier::{HierOptions, HierPlacer};
use apls_shapefn::{DeterministicPlacer, ShapeModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_hier_configurations(c: &mut Criterion) {
    let mut group = c.benchmark_group("hier");
    group.sample_size(10);
    for name in ["miller_opamp_fig6", "folded_cascode"] {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        group.bench_with_input(BenchmarkId::new("deterministic", name), &0, |b, _| {
            b.iter(|| DeterministicPlacer::new(&circuit).run(ShapeModel::Enhanced));
        });
        group.bench_with_input(BenchmarkId::new("pure", name), &0, |b, _| {
            b.iter(|| HierPlacer::new(&circuit).run());
        });
        group.bench_with_input(BenchmarkId::new("hybrid_fast", name), &0, |b, _| {
            let options = HierOptions::default().with_seed(7).with_fast_schedule(true);
            b.iter(|| HierPlacer::hybrid(&circuit, 7).with_options(options.clone()).run());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hier_configurations);
criterion_main!(benches);
