//! Regenerates the `comparison` rows of `BENCH_hier.json`: the hierarchical
//! cross-engine pipeline (hier engine) against the pure deterministic
//! enumeration engine on every bundled circuit.
//!
//! ```text
//! cargo run --release --example hier_comparison
//! ```

use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::shapefn::hier::HierPlacer;
use analog_layout_synthesis::shapefn::{DeterministicPlacer, ShapeModel};

fn main() {
    println!("  \"comparison\": [");
    let names = benchmarks::names();
    for (i, name) in names.iter().enumerate() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let det = DeterministicPlacer::new(&circuit).run(ShapeModel::Enhanced);
        let hier = HierPlacer::hybrid(&circuit, 7).run();
        let det_area = det.dims.area();
        let hier_area = hier.dims.area();
        println!(
            "    {{\"circuit\": \"{name}\", \"modules\": {}, \"deterministic_dims\": \"{}x{}\", \"deterministic_area\": {}, \"deterministic_ms\": {:.3}, \"hier_dims\": \"{}x{}\", \"hier_area\": {}, \"hier_ms\": {:.3}, \"hier_area_usage\": {:.4}, \"annealed_nodes\": {}, \"enumeration_won\": {}, \"area_improvement_pct\": {:.2}}}{}",
            circuit.module_count(),
            det.dims.w,
            det.dims.h,
            det_area,
            det.runtime.as_secs_f64() * 1e3,
            hier.dims.w,
            hier.dims.h,
            hier_area,
            hier.runtime.as_secs_f64() * 1e3,
            hier.area_usage,
            hier.annealed_nodes,
            hier.enumeration_won,
            (det_area - hier_area) as f64 / det_area as f64 * 100.0,
            if i + 1 < names.len() { "," } else { "" },
        );
        assert!(hier_area <= det_area, "{name}: the hier engine must never lose");
    }
    println!("  ]");
}
