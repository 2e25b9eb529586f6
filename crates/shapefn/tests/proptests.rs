//! Property-based tests for the shape-function layer and the hierarchical
//! driver: dominance pruning is airtight, the enhanced addition equals its
//! clone-graft-pack-insert reference exactly, and every placement the hier
//! pipeline extracts is legal and symmetry-feasible.

use apls_btree::{pack_btree, BStarTree};
use apls_circuit::benchmarks::{generate, GeneratorConfig};
use apls_circuit::ModuleId;
use apls_geometry::{total_overlap_area, Dims, Rect};
use apls_shapefn::hier::{HierOptions, HierPlacer};
use apls_shapefn::{EnhancedShape, EnhancedShapeFunction, ShapeFunction};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

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

/// The enhanced addition as it was written before its allocation-free
/// kernel: for every operand pair, pack the left tree in full for the three
/// anchors, check disjointness with a set, graft a fresh copy per anchor,
/// pack it in full and insert it into a plain vector with the original
/// dominance rules. Returns the staircase.
fn reference_add(
    lhs: &EnhancedShapeFunction,
    rhs: &EnhancedShapeFunction,
    dims: &[Dims],
) -> Vec<EnhancedShape> {
    let mut out: Vec<EnhancedShape> = Vec::new();
    let mut insert = |shape: EnhancedShape| {
        let d = shape.dims();
        if out.iter().any(|s| d.dominates(s.dims()) && d != s.dims()) {
            return;
        }
        if out.iter().any(|s| s.dims() == d) {
            return;
        }
        out.retain(|s| !s.dims().dominates(d) || s.dims() == d);
        out.push(shape);
        out.sort_by_key(|s| (s.dims().w, s.dims().h));
    };
    for a in lhs.shapes() {
        for b in rhs.shapes() {
            if a.tree().is_empty() || b.tree().is_empty() {
                let only = if a.tree().is_empty() { b } else { a };
                insert(EnhancedShape::from_tree(only.tree().clone(), dims));
                continue;
            }
            let packed = pack_btree(a.tree(), dims);
            let rects = packed.rects();
            let left_spine_end =
                rects.iter().filter(|(_, r)| r.y_min == 0).max_by_key(|(_, r)| r.x_max).unwrap().0;
            let rightmost = rects.iter().max_by_key(|(_, r)| r.x_max).unwrap().0;
            let top_spine_end =
                rects.iter().filter(|(_, r)| r.x_min == 0).max_by_key(|(_, r)| r.y_max).unwrap().0;
            let own: BTreeSet<ModuleId> = a.tree().modules().into_iter().collect();
            if b.tree().modules().iter().any(|m| own.contains(m)) {
                continue;
            }
            let arena = a.tree().modules();
            for (anchor, as_left) in
                [(left_spine_end, true), (rightmost, true), (top_spine_end, false)]
            {
                let anchor_idx = arena.iter().position(|&m| m == anchor).unwrap();
                let mut combined = BStarTree::default();
                if combined.graft_from(a.tree(), b.tree(), anchor_idx, as_left) {
                    let full = pack_btree(&combined, dims);
                    let shape = EnhancedShape::from_tree(combined, dims);
                    assert_eq!(shape.dims(), full.dims(), "extent pack disagrees with full pack");
                    insert(shape);
                }
            }
        }
    }
    out
}

/// `lhs.add(rhs)`, asserted equal to [`reference_add`] (dimensions and
/// realising trees).
fn checked_add(
    lhs: &EnhancedShapeFunction,
    rhs: &EnhancedShapeFunction,
    dims: &[Dims],
) -> EnhancedShapeFunction {
    let sum = lhs.add(rhs, dims);
    assert_eq!(sum.shapes(), reference_add(lhs, rhs, dims).as_slice());
    sum
}

/// Folds the single-module shape functions of `modules` with checked
/// additions.
fn fold(modules: &[usize], dims: &[Dims], rotatable: &[bool]) -> EnhancedShapeFunction {
    let esf =
        |i: usize| EnhancedShapeFunction::for_module(ModuleId::from_index(i), dims, rotatable[i]);
    let mut acc = esf(modules[0]);
    for &i in &modules[1..] {
        acc = checked_add(&acc, &esf(i), dims);
    }
    acc
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
    fn enhanced_addition_equals_its_reference_and_stays_pareto(
        dims in vec(arb_dims(), 2..9),
        flags in vec(0u8..4, 2..9),
    ) {
        // flag bit 0: rotatable; bit 1: which operand the module joins
        // (module 0 always left, module 1 always right)
        let n = dims.len().min(flags.len());
        let rotatable: Vec<bool> = flags.iter().map(|f| f & 1 == 1).collect();
        let (mut left, mut right) = (vec![0], vec![1]);
        for (i, f) in flags.iter().enumerate().take(n).skip(2) {
            if f & 2 == 0 { left.push(i) } else { right.push(i) }
        }
        let lhs = fold(&left, &dims, &rotatable);
        let rhs = fold(&right, &dims, &rotatable);
        for sum in [checked_add(&lhs, &rhs, &dims), checked_add(&rhs, &lhs, &dims)] {
            prop_assert!(!sum.is_empty());
            assert_pareto_enhanced(&sum);
        }
        assert_pareto_enhanced(&lhs.union(&rhs));
        // operands sharing a module produce no candidate at all
        right.push(left[left.len() - 1]);
        let overlapping = fold(&right, &dims, &rotatable);
        prop_assert!(checked_add(&lhs, &overlapping, &dims).is_empty());
        prop_assert!(checked_add(&overlapping, &lhs, &dims).is_empty());
    }

    #[test]
    fn enhanced_addition_with_zero_width_modules_equals_its_reference(
        sizes in vec((0i64..4, 0i64..40), 2..9),
        sides in vec(any_bool(), 2..9),
    ) {
        // narrow and zero-width modules put contour joints where the
        // addition's sizing shortcuts would not hold; it must pack instead
        let dims: Vec<Dims> = sizes.iter().map(|&(w, h)| Dims::new(w, h)).collect();
        let n = dims.len().min(sides.len());
        let rotatable = vec![true; dims.len()];
        let (mut left, mut right) = (vec![0], vec![1]);
        for (i, &side) in sides.iter().enumerate().take(n).skip(2) {
            if side { left.push(i) } else { right.push(i) }
        }
        let lhs = fold(&left, &dims, &rotatable);
        let rhs = fold(&right, &dims, &rotatable);
        checked_add(&lhs, &rhs, &dims);
        checked_add(&rhs, &lhs, &dims);
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
