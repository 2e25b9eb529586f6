//! Property-based tests for the shape-function layer and the hierarchical
//! driver: dominance pruning is airtight, and every placement the hier
//! pipeline extracts is legal and symmetry-feasible.

use apls_circuit::benchmarks::{generate, GeneratorConfig};
use apls_circuit::ModuleId;
use apls_geometry::{total_overlap_area, Dims, Rect};
use apls_shapefn::hier::{HierOptions, HierPlacer};
use apls_shapefn::{EnhancedShapeFunction, ShapeFunction};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Dims> {
    (1i64..200, 1i64..200).prop_map(|(w, h)| Dims::new(w, h))
}

/// No shape of `sf` may dominate another (equal or larger in both axes), and
/// the staircase must be strictly monotone.
fn assert_pareto_staircase(sf: &ShapeFunction) {
    for (i, a) in sf.shapes().iter().enumerate() {
        for (j, b) in sf.shapes().iter().enumerate() {
            if i != j {
                assert!(
                    !(a.dims.dominates(b.dims) && a.dims != b.dims),
                    "{:?} dominates {:?}",
                    a.dims,
                    b.dims
                );
            }
        }
    }
    for pair in sf.shapes().windows(2) {
        assert!(pair[0].dims.w < pair[1].dims.w, "widths must strictly increase");
        assert!(pair[0].dims.h > pair[1].dims.h, "heights must strictly decrease");
    }
}

fn assert_pareto_enhanced(esf: &EnhancedShapeFunction) {
    for (i, a) in esf.shapes().iter().enumerate() {
        for (j, b) in esf.shapes().iter().enumerate() {
            if i != j {
                assert!(
                    !(a.dims().dominates(b.dims()) && a.dims() != b.dims()),
                    "{:?} dominates {:?}",
                    a.dims(),
                    b.dims()
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn regular_additions_and_union_never_retain_a_dominated_shape(
        a in vec(arb_dims(), 1..10),
        b in vec(arb_dims(), 1..10),
    ) {
        let sa = ShapeFunction::from_dims(a);
        let sb = ShapeFunction::from_dims(b);
        for sum in [
            sa.add_horizontal(&sb),
            sa.add_vertical(&sb),
            sa.add_both(&sb),
            sa.union(&sb),
        ] {
            assert_pareto_staircase(&sum);
        }
    }

    #[test]
    fn enhanced_addition_union_and_parallel_addition_stay_pareto(
        dims in vec(arb_dims(), 3..6),
        rotatable in vec(0u8..2, 3..6),
    ) {
        let n = dims.len().min(rotatable.len());
        let mut acc = EnhancedShapeFunction::for_module(
            ModuleId::from_index(0),
            &dims,
            rotatable[0] == 1,
        );
        for (i, &rot) in rotatable.iter().enumerate().take(n).skip(1) {
            let m = EnhancedShapeFunction::for_module(ModuleId::from_index(i), &dims, rot == 1);
            let sequential = acc.add(&m, &dims);
            let parallel = acc.add_parallel(&m, &dims);
            prop_assert_eq!(&sequential, &parallel);
            assert_pareto_enhanced(&sequential);
            let union = acc.union(&m);
            assert_pareto_enhanced(&union);
            acc = sequential;
        }
    }

    #[test]
    fn hier_root_placements_are_overlap_free_and_symmetry_feasible(
        seed in 0u64..500,
        module_count in 6usize..14,
    ) {
        let circuit = generate(
            "prop",
            GeneratorConfig { module_count, seed, ..GeneratorConfig::default() },
        );
        let options = HierOptions::default()
            .with_seed(seed)
            .with_fast_schedule(true)
            .with_anneal_threshold(4);
        let result = HierPlacer::hybrid(&circuit, seed).with_options(options).run();
        prop_assert!(result.placement.is_complete());
        let rects: Vec<Rect> = result.placement.rects().collect();
        prop_assert_eq!(total_overlap_area(&rects), 0);
        // symmetry-feasible: every symmetric pair keeps matched footprints
        // (the generators match pair dimensions and the pipeline never
        // rotates constrained modules), so an exact mirror arrangement
        // remains realisable downstream
        for group in circuit.constraints.symmetry_groups() {
            for &(l, r) in group.pairs() {
                let rl = result.placement.rect_of(l);
                let rr = result.placement.rect_of(r);
                prop_assert_eq!(rl.dims(), rr.dims());
            }
        }
        // the paper's area lower bound always holds
        let total = circuit.netlist.total_module_area();
        prop_assert!(result.dims.area() >= total);
    }
}
