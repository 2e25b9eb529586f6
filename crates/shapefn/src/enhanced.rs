//! Enhanced shape functions: shapes that carry their B*-tree.

use apls_btree::{pack_btree_with, pack_extent, pack_extent_on, BStarTree, PackScratch};
use apls_circuit::ModuleId;
use apls_geometry::{Coord, Dims};

/// One realisable placement of a sub-circuit: its bounding box together with
/// the B*-tree that produces it.
///
/// Carrying the tree is what distinguishes the *enhanced* shape function from
/// the regular one: when two enhanced shapes are added, their trees are merged
/// and repacked, so the outlines of the operands can interleave and the result
/// can be strictly smaller than the bounding-box sum (the `w_imp` of Fig. 7 in
/// the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnhancedShape {
    dims: Dims,
    tree: BStarTree,
}

impl EnhancedShape {
    /// Creates an enhanced shape by packing a tree with the given module
    /// dimension table.
    #[must_use]
    pub fn from_tree(tree: BStarTree, module_dims: &[Dims]) -> Self {
        let dims = pack_extent(&mut PackScratch::new(), &tree, module_dims);
        EnhancedShape { dims, tree }
    }

    /// Bounding box of the placement.
    #[must_use]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Bounding-box area.
    #[must_use]
    pub fn area(&self) -> i128 {
        self.dims.area()
    }

    /// The B*-tree realising this shape.
    #[must_use]
    pub fn tree(&self) -> &BStarTree {
        &self.tree
    }
}

/// An enhanced shape function: the non-dominated set of [`EnhancedShape`]s of
/// a sub-circuit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnhancedShapeFunction {
    shapes: Vec<EnhancedShape>,
}

impl EnhancedShapeFunction {
    /// An empty enhanced shape function.
    #[must_use]
    pub fn new() -> Self {
        EnhancedShapeFunction::default()
    }

    /// The enhanced shape function of a single module: its default orientation
    /// plus, when `rotatable`, the 90°-rotated one.
    #[must_use]
    pub fn for_module(module: ModuleId, module_dims: &[Dims], rotatable: bool) -> Self {
        let mut esf = EnhancedShapeFunction::new();
        esf.insert(EnhancedShape::from_tree(BStarTree::left_chain(&[module]), module_dims));
        if rotatable {
            let mut rotated = BStarTree::left_chain(&[module]);
            rotated.rotate_node(module);
            esf.insert(EnhancedShape::from_tree(rotated, module_dims));
        }
        esf
    }

    /// Inserts a candidate shape, pruning dominated entries.
    pub fn insert(&mut self, shape: EnhancedShape) {
        if self.admits(shape.dims) {
            self.push_admitted(shape);
        }
    }

    /// [`EnhancedShapeFunction::insert`] of the shape `tree` realises, given
    /// its packed extent `dims`: the tree is cloned only when the staircase
    /// keeps it.
    pub(crate) fn insert_tree(&mut self, dims: Dims, tree: &BStarTree) {
        if self.admits(dims) {
            self.push_admitted(EnhancedShape { dims, tree: tree.clone() });
        }
    }

    /// Whether [`EnhancedShapeFunction::insert`] keeps a shape of these
    /// dimensions: no kept shape may be dominated by it, or equal to it (one
    /// representative per footprint).
    fn admits(&self, dims: Dims) -> bool {
        !self.shapes.iter().any(|s| dims.dominates(s.dims))
    }

    /// Adds an admitted shape, dropping the shapes it dominates and keeping
    /// the staircase sorted by `(w, h)` (footprints are unique).
    fn push_admitted(&mut self, shape: EnhancedShape) {
        self.shapes.retain(|s| !s.dims.dominates(shape.dims));
        let key = (shape.dims.w, shape.dims.h);
        let at = self.shapes.partition_point(|s| (s.dims.w, s.dims.h) < key);
        self.shapes.insert(at, shape);
    }

    /// The staircase of shapes, sorted by increasing width.
    #[must_use]
    pub fn shapes(&self) -> &[EnhancedShape] {
        &self.shapes
    }

    /// Number of non-dominated shapes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Returns `true` when no shape is realisable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The minimum-area shape.
    #[must_use]
    pub fn min_area_shape(&self) -> Option<&EnhancedShape> {
        self.shapes.iter().min_by_key(|s| s.area())
    }

    /// Enhanced addition of two shape functions.
    ///
    /// For every pair of operand shapes with disjoint module sets, the second
    /// tree is grafted onto the first in three ways, and each candidate is
    /// packed and inserted:
    ///
    /// * *horizontal interleave* — under the bottom-row node with the largest
    ///   right edge, letting the second operand slide into concavities of
    ///   the first (this is the enhanced addition of Fig. 7);
    /// * *horizontal abut* — under the node with the largest right edge,
    ///   which reproduces the plain bounding-box addition exactly and
    ///   guarantees the enhanced result is never worse than the regular one;
    /// * *vertical stack/interleave* — as the right child of the tallest
    ///   node at `x = 0` (placed above, possibly sinking into the skyline).
    ///
    /// Ties go to the node packed last. A pair whose module sets overlap
    /// yields no candidate; an empty operand shape passes the other through.
    ///
    /// Each left operand is packed once, for its anchors, its final contour
    /// and a mark table of its modules. Because a B*-tree's x-coordinates
    /// depend only on its shape, most candidates are sized without packing
    /// the grafted tree:
    ///
    /// * *abut* is exactly `(a.w + b.w, max(a.h, b.h))`: the second operand
    ///   hangs right of the widest node, so no node of the first shares an
    ///   x-span with it;
    /// * *stack*, whose anchor ends the root's right chain, packs only the
    ///   second operand, on the first one's saved contour: hung there, it is
    ///   packed after every node of the first;
    /// * *interleave* has the exact width `max(a.w, x + b.w)` (`x` is the
    ///   anchor's right edge) and a height of at least `max(a.h, b.h)`, since
    ///   packing on a higher contour never lowers a module; a candidate the
    ///   staircase rejects even at that bound is neither grafted nor packed.
    ///
    /// The abut shortcut and the interleave bound need every module to have a
    /// positive width and height (a zero-width module can sit on a contour
    /// joint, and a rotation turns a zero height into a zero width). When
    /// one does not, or the stack anchor is off the right chain, the
    /// candidate is grafted into one reused buffer and sized by an
    /// extent-only pack. Only a candidate the staircase keeps is cloned. The
    /// result is exactly that of cloning, grafting, packing and inserting
    /// every candidate in turn, provided every operand shape's dimensions are
    /// the packed extent of its tree under `module_dims` (true of every shape
    /// built against the same table).
    #[must_use]
    pub fn add(
        &self,
        other: &EnhancedShapeFunction,
        module_dims: &[Dims],
    ) -> EnhancedShapeFunction {
        let mut out = EnhancedShapeFunction::new();
        out.shapes.reserve(self.shapes.len() + other.shapes.len());
        let other_modules: Vec<Vec<ModuleId>> =
            other.shapes.iter().map(|b| b.tree.modules()).collect();
        let shortcuts = module_dims.iter().all(|d| d.w > 0 && d.h > 0);
        let mut left = LeftOperand::default();
        let mut graft =
            Grafter { candidate: BStarTree::default(), scratch: PackScratch::new(), module_dims };
        // marks[m] == stamp  <=>  module m is in the current left operand
        let mut marks = vec![0usize; module_dims.len()];
        for (stamp, a) in (1..).zip(&self.shapes) {
            if a.tree.is_empty() {
                for b in &other.shapes {
                    out.insert_tree(b.dims, &b.tree);
                }
                continue;
            }
            left.pack(&a.tree, module_dims, |m| marks[m.index()] = stamp);
            let [interleave, abut, stack] = left.anchors;
            for (b, b_modules) in other.shapes.iter().zip(&other_modules) {
                if b.tree.is_empty() {
                    out.insert_tree(a.dims, &a.tree);
                    continue;
                }
                if b_modules.iter().any(|m| marks[m.index()] == stamp) {
                    continue;
                }
                if !shortcuts || out.admits(left.interleave_bound(b.dims)) {
                    graft.pack_insert(&mut out, &a.tree, &b.tree, interleave, true);
                }
                // an abut anchor equal to the interleave anchor repeats its
                // candidate, which the staircase would reject
                if abut != interleave {
                    if shortcuts {
                        let dims = left.abut_dims(b.dims);
                        graft.insert_sized(&mut out, dims, &a.tree, &b.tree, abut, true);
                    } else {
                        graft.pack_insert(&mut out, &a.tree, &b.tree, abut, true);
                    }
                }
                match left.stack_dims(&mut graft.scratch, &b.tree, module_dims) {
                    Some(dims) => {
                        graft.insert_sized(&mut out, dims, &a.tree, &b.tree, stack, false)
                    }
                    None => graft.pack_insert(&mut out, &a.tree, &b.tree, stack, false),
                }
            }
        }
        out
    }

    /// Union with another enhanced shape function (alternative realisations of
    /// the same module set).
    #[must_use]
    pub fn union(&self, other: &EnhancedShapeFunction) -> EnhancedShapeFunction {
        let mut out = self.clone();
        out.shapes.reserve(other.shapes.len());
        for s in other.shapes() {
            out.insert(s.clone());
        }
        out
    }

    /// Consuming union: moves `other`'s shapes into `self` instead of cloning
    /// them (the composition hot path of the hierarchical driver unions whole
    /// node-refinement results, whose realising trees can be large).
    pub fn merge_from(&mut self, other: EnhancedShapeFunction) {
        self.shapes.reserve(other.shapes.len());
        for s in other.shapes {
            self.insert(s);
        }
    }

    /// Caps the staircase at `max_shapes` entries (even spread over widths,
    /// the minimum-area shape always kept).
    pub fn truncate(&mut self, max_shapes: usize) {
        if self.shapes.len() <= max_shapes || max_shapes == 0 {
            return;
        }
        let min_area_dims = self.min_area_shape().map(|s| s.dims);
        let n = self.shapes.len();
        let mut keep_indices: Vec<usize> =
            (0..max_shapes).map(|k| k * (n - 1) / (max_shapes - 1).max(1)).collect();
        if let Some(md) = min_area_dims {
            if let Some(idx) = self.shapes.iter().position(|s| s.dims == md) {
                keep_indices.push(idx);
            }
        }
        keep_indices.sort_unstable();
        keep_indices.dedup();
        // drain by moving: the kept shapes (and their realising trees) are
        // reused, not cloned
        let mut kept = Vec::with_capacity(keep_indices.len());
        for (i, shape) in std::mem::take(&mut self.shapes).into_iter().enumerate() {
            if keep_indices.binary_search(&i).is_ok() {
                kept.push(shape);
            }
        }
        self.shapes = kept;
    }
}

/// A non-empty left operand `a` of [`EnhancedShapeFunction::add`], packed
/// once, and the sizes of the candidates grafted onto it.
#[derive(Default)]
struct LeftOperand {
    /// Holds the contour `a`'s pack left behind.
    scratch: PackScratch,
    /// Packed extent.
    dims: Dims,
    /// Arena indices of the interleave, abut and stack anchors.
    anchors: [usize; 3],
    /// Right edge of the interleave anchor, where a graft under it starts.
    interleave_x: Coord,
    /// Arena index of the end of the root's right chain.
    chain_end: usize,
}

impl LeftOperand {
    /// Packs `tree` as the left operand, calling `mark` on every module on
    /// the way.
    fn pack(&mut self, tree: &BStarTree, module_dims: &[Dims], mut mark: impl FnMut(ModuleId)) {
        // (key, arena index) per anchor; `>=` keeps the last of equal keys in
        // packing order, and the root (at the origin) qualifies for all three
        let mut best = [(Coord::MIN, 0usize); 3];
        self.dims = pack_btree_with(&mut self.scratch, tree, module_dims, |idx, module, _, r| {
            mark(module);
            let keys = [
                (r.y_min == 0).then_some(r.x_max),
                Some(r.x_max),
                (r.x_min == 0).then_some(r.y_max),
            ];
            for (slot, key) in best.iter_mut().zip(keys) {
                if let Some(key) = key.filter(|&k| k >= slot.0) {
                    *slot = (key, idx);
                }
            }
        });
        self.anchors = best.map(|(_, idx)| idx);
        self.interleave_x = best[0].0;
        self.chain_end = tree.right_chain_end().expect("the left operand is not empty");
    }

    /// The exact width and a lower bound on the height of the interleave
    /// candidate with a second operand of extent `b`. The second operand's
    /// x-coordinates are its own shifted by `interleave_x` and the first's
    /// are unchanged; packing on a higher contour never lowers a module, so
    /// neither operand ends lower than it packs alone (given positive module
    /// extents).
    fn interleave_bound(&self, b: Dims) -> Dims {
        Dims::new(self.dims.w.max(self.interleave_x + b.w), self.dims.h.max(b.h))
    }

    /// The exact extent of the abut candidate with a second operand of
    /// extent `b`: it starts at `a.w`, right of every node of `a`, so the two
    /// operands share no x-span and each packs as it does alone (given
    /// positive module extents).
    fn abut_dims(&self, b: Dims) -> Dims {
        Dims::new(self.dims.w + b.w, self.dims.h.max(b.h))
    }

    /// The exact extent of the stack candidate with second operand `b`, or
    /// `None` when the stack anchor is not the end of the root's right chain
    /// (with positive module extents it always is: every node at `x = 0` is on
    /// that chain). Hung under the chain's end, `b` is packed after all of
    /// `a`, even the anchor's left subtree, rooted at `x = 0`: on `a`'s final
    /// contour.
    fn stack_dims(
        &self,
        scratch: &mut PackScratch,
        b: &BStarTree,
        module_dims: &[Dims],
    ) -> Option<Dims> {
        (self.anchors[2] == self.chain_end).then(|| {
            let top = pack_extent_on(scratch, &self.scratch, b, module_dims);
            Dims::new(self.dims.w.max(top.w), self.dims.h.max(top.h))
        })
    }
}

/// The buffers every candidate of one addition is grafted into and packed
/// with, reused so sizing a candidate allocates nothing.
struct Grafter<'d> {
    candidate: BStarTree,
    scratch: PackScratch,
    module_dims: &'d [Dims],
}

impl Grafter<'_> {
    /// Grafts `b` under `a`'s arena node `anchor`, sizes the result by an
    /// extent-only pack and inserts it (nothing when the slot is taken).
    fn pack_insert(
        &mut self,
        out: &mut EnhancedShapeFunction,
        a: &BStarTree,
        b: &BStarTree,
        anchor: usize,
        as_left: bool,
    ) {
        if self.candidate.graft_from(a, b, anchor, as_left) {
            let dims = pack_extent(&mut self.scratch, &self.candidate, self.module_dims);
            out.insert_tree(dims, &self.candidate);
        }
    }

    /// Inserts the graft of `b` under `a`'s arena node `anchor`, whose packed
    /// extent is known to be `dims`: it is grafted and cloned only when the
    /// staircase keeps it (nothing when the slot is taken).
    fn insert_sized(
        &mut self,
        out: &mut EnhancedShapeFunction,
        dims: Dims,
        a: &BStarTree,
        b: &BStarTree,
        anchor: usize,
        as_left: bool,
    ) {
        if out.admits(dims) && self.candidate.graft_from(a, b, anchor, as_left) {
            out.push_admitted(EnhancedShape { dims, tree: self.candidate.clone() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_anneal::rng::SeededRng;
    use apls_btree::pack_btree;
    use apls_geometry::total_overlap_area;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn id(i: usize) -> ModuleId {
        ModuleId::from_index(i)
    }

    /// A balanced tree over `modules` after `steps` random perturbations
    /// (rotations, swaps and moves).
    fn random_tree(modules: &[ModuleId], seed: u64, steps: usize) -> BStarTree {
        let mut tree = BStarTree::balanced(modules);
        let mut rng = SeededRng::new(seed);
        for _ in 0..steps {
            tree.perturb(&mut rng, |_| true);
        }
        tree
    }

    proptest! {
        #[test]
        fn shortcuts_size_candidates_like_packing_the_real_graft(
            sizes in vec((0i64..30, 0i64..60), 2..12),
            split in 1usize..11,
            seeds in (0u64..10_000, 0u64..10_000),
            steps in 0usize..30,
        ) {
            // some modules have a zero extent (a rotation can turn it into a
            // zero width), where only the stack shortcut is claimed
            let dims: Vec<Dims> = sizes.iter().map(|&(w, h)| Dims::new(w, h)).collect();
            let positive = dims.iter().all(|d| d.w > 0 && d.h > 0);
            let modules: Vec<ModuleId> = (0..dims.len()).map(id).collect();
            let (a_modules, b_modules) = modules.split_at(split.min(dims.len() - 1));
            let a = random_tree(a_modules, seeds.0, steps);
            let b = random_tree(b_modules, seeds.1, steps);
            let mut scratch = PackScratch::new();
            let b_dims = pack_extent(&mut scratch, &b, &dims);
            let mut left = LeftOperand::default();
            left.pack(&a, &dims, |_| {});
            let real = |anchor, as_left| {
                let mut grafted = BStarTree::default();
                grafted
                    .graft_from(&a, &b, anchor, as_left)
                    .then(|| pack_extent(&mut PackScratch::new(), &grafted, &dims))
            };
            let [interleave, abut, stack] = left.anchors;
            if positive {
                let abut_real = real(abut, true).expect("the widest node has no left child");
                prop_assert_eq!(left.abut_dims(b_dims), abut_real);
                let interleave_real = real(interleave, true).expect("its left slot is free");
                let bound = left.interleave_bound(b_dims);
                prop_assert_eq!(bound.w, interleave_real.w);
                prop_assert!(bound.h <= interleave_real.h, "{bound:?} vs {interleave_real:?}");
            }
            match left.stack_dims(&mut scratch, &b, &dims) {
                Some(stack_dims) => prop_assert_eq!(Some(stack_dims), real(stack, false)),
                None => prop_assert!(!positive, "positive extents put the anchor on the chain"),
            }
        }
    }

    #[test]
    fn zero_width_modules_take_the_packing_path() {
        // a 10x10 module on a 4x5 one, and beside them a zero-width 0x9
        // module stacked on a 5x15 one. Abutted, the right operand's contour
        // joins the left one's at x = 10 at equal height, so the zero-width
        // module lands on top instead of on the floor: the abut candidate is
        // 15x24, not the 15x15 the abut shortcut would claim. A 9x0 module
        // turned by 90 degrees is the same zero-width module.
        for (thin, rotated) in [(Dims::new(0, 9), false), (Dims::new(9, 0), true)] {
            let dims = vec![Dims::new(4, 5), Dims::new(10, 10), Dims::new(5, 15), thin];
            let column = |lower: usize, upper: usize| {
                let mut tree = BStarTree::left_chain(&[id(lower), id(upper)]);
                assert!(tree.move_node(id(upper), id(lower), false));
                if rotated && upper == 3 {
                    tree.rotate_node(id(3));
                }
                let mut esf = EnhancedShapeFunction::new();
                esf.insert(EnhancedShape::from_tree(tree, &dims));
                esf
            };
            let sum = column(0, 1).add(&column(2, 3), &dims);
            let staircase: Vec<Dims> = sum.shapes().iter().map(EnhancedShape::dims).collect();
            assert_eq!(staircase, [Dims::new(10, 25), Dims::new(15, 24)], "rotated: {rotated}");
            for shape in sum.shapes() {
                assert_eq!(pack_btree(shape.tree(), &dims).dims(), shape.dims());
            }
        }
    }

    #[test]
    fn module_esf_has_rotation_variant() {
        let dims = vec![Dims::new(30, 10)];
        let esf = EnhancedShapeFunction::for_module(id(0), &dims, true);
        assert_eq!(esf.len(), 2);
        let fixed = EnhancedShapeFunction::for_module(id(0), &dims, false);
        assert_eq!(fixed.len(), 1);
    }

    #[test]
    fn enhanced_addition_never_beats_total_area_and_never_overlaps() {
        let dims = vec![Dims::new(20, 10), Dims::new(10, 30), Dims::new(15, 15)];
        let a = EnhancedShapeFunction::for_module(id(0), &dims, true);
        let b = EnhancedShapeFunction::for_module(id(1), &dims, true);
        let c = EnhancedShapeFunction::for_module(id(2), &dims, false);
        let ab = a.add(&b, &dims);
        let abc = ab.add(&c, &dims);
        assert!(!abc.is_empty());
        let total: i128 = dims.iter().map(|d| d.area()).sum();
        for shape in abc.shapes() {
            assert!(shape.area() >= total);
            let packed = pack_btree(shape.tree(), &dims);
            assert_eq!(packed.dims(), shape.dims());
            let rects: Vec<_> = packed.rects().iter().map(|(_, r)| *r).collect();
            assert_eq!(rects.len(), 3);
            assert_eq!(total_overlap_area(&rects), 0);
        }
    }

    #[test]
    fn enhanced_addition_matches_or_beats_regular_addition() {
        use crate::ShapeFunction;
        // an L-shaped first operand (tall module next to a short one) leaves a
        // concavity that the enhanced addition can exploit
        let dims = vec![Dims::new(10, 40), Dims::new(30, 10), Dims::new(25, 20)];
        let a01 = {
            let a = EnhancedShapeFunction::for_module(id(0), &dims, false);
            let b = EnhancedShapeFunction::for_module(id(1), &dims, false);
            a.add(&b, &dims)
        };
        let c = EnhancedShapeFunction::for_module(id(2), &dims, false);
        let enhanced = a01.add(&c, &dims);

        let ra01 = ShapeFunction::for_module(dims[0], false)
            .add_both(&ShapeFunction::for_module(dims[1], false));
        let regular = ra01.add_both(&ShapeFunction::for_module(dims[2], false));

        let best_enhanced = enhanced.min_area_shape().unwrap().area();
        let best_regular = regular.min_area_shape().unwrap().dims.area();
        assert!(
            best_enhanced <= best_regular,
            "enhanced {best_enhanced} should not exceed regular {best_regular}"
        );
    }

    #[test]
    fn fig7_interleaving_improves_width() {
        // Fig. 7: the first operand has a notch (a wide low module under a
        // narrow tall one); horizontally adding a short module can slide into
        // the notch, so the combined width improves over the bounding-box sum.
        let dims = vec![
            Dims::new(40, 12), // wide low base
            Dims::new(16, 30), // narrow tall tower (stacked at x = 0)
            Dims::new(20, 14), // the module to add: fits right of the tower, above the base
        ];
        let base = EnhancedShapeFunction::for_module(id(0), &dims, false);
        let tower = EnhancedShapeFunction::for_module(id(1), &dims, false);
        let operand = base.add(&tower, &dims);
        let addend = EnhancedShapeFunction::for_module(id(2), &dims, false);
        let combined = operand.add(&addend, &dims);

        let operand_dims = operand.min_area_shape().unwrap().dims();
        let bbox_sum_width = operand_dims.w + dims[2].w;
        let best_width = combined.shapes().iter().map(|s| s.dims().w).min().unwrap();
        assert!(
            best_width < bbox_sum_width,
            "expected interleaving to beat the bounding-box width {bbox_sum_width}, got {best_width}"
        );
    }

    #[test]
    fn pruning_keeps_the_pareto_front() {
        let dims = vec![Dims::new(20, 10), Dims::new(10, 30)];
        let a = EnhancedShapeFunction::for_module(id(0), &dims, true);
        let b = EnhancedShapeFunction::for_module(id(1), &dims, true);
        let sum = a.add(&b, &dims);
        for (i, x) in sum.shapes().iter().enumerate() {
            for (j, y) in sum.shapes().iter().enumerate() {
                if i != j {
                    assert!(
                        !(x.dims().dominates(y.dims()) && x.dims() != y.dims()),
                        "{:?} dominates {:?}",
                        x.dims(),
                        y.dims()
                    );
                }
            }
        }
    }

    #[test]
    fn truncate_bounds_the_size() {
        let dims: Vec<Dims> = (0..6).map(|i| Dims::new(10 + i, 40 - 3 * i)).collect();
        let mut esf = EnhancedShapeFunction::for_module(id(0), &dims, true);
        for i in 1..6 {
            esf = esf.add(&EnhancedShapeFunction::for_module(id(i), &dims, true), &dims);
        }
        let before = esf.len();
        esf.truncate(4);
        assert!(esf.len() <= 5);
        assert!(esf.len() <= before);
        assert!(esf.min_area_shape().is_some());
    }
}
