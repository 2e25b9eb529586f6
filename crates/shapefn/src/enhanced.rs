//! Enhanced shape functions: shapes that carry their B*-tree.

use apls_btree::{pack_btree_with, pack_extent, BStarTree, PackScratch};
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
    /// Each left operand is packed once, for its anchors and a mark table of
    /// its modules. Every candidate is grafted into one reused buffer and
    /// sized by an extent-only pack; only a candidate the staircase keeps is
    /// cloned. The result is exactly that of cloning, grafting, packing and
    /// inserting every candidate in turn.
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
        let mut scratch = PackScratch::new();
        let mut candidate = BStarTree::default();
        // marks[m] == stamp  <=>  module m is in the current left operand
        let mut marks = vec![0usize; module_dims.len()];
        for (stamp, a) in (1..).zip(&self.shapes) {
            if a.tree.is_empty() {
                for b in &other.shapes {
                    out.insert_tree(b.dims, &b.tree);
                }
                continue;
            }
            let anchors = graft_anchors(&mut scratch, &a.tree, module_dims, |m| {
                marks[m.index()] = stamp;
            });
            for (b, b_modules) in other.shapes.iter().zip(&other_modules) {
                if b.tree.is_empty() {
                    out.insert_tree(a.dims, &a.tree);
                    continue;
                }
                if b_modules.iter().any(|m| marks[m.index()] == stamp) {
                    continue;
                }
                for (i, &(anchor, as_left)) in anchors.iter().enumerate() {
                    // an abut anchor equal to the interleave anchor repeats
                    // its candidate, which the staircase would reject
                    if i == 1 && anchor == anchors[0].0 {
                        continue;
                    }
                    if candidate.graft_from(&a.tree, &b.tree, anchor, as_left) {
                        let dims = pack_extent(&mut scratch, &candidate, module_dims);
                        out.insert_tree(dims, &candidate);
                    }
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

/// Packs a non-empty `tree` once and returns the three graft points of
/// [`EnhancedShapeFunction::add`] as `(arena index, as left child)`, calling
/// `mark` on every module on the way.
fn graft_anchors(
    scratch: &mut PackScratch,
    tree: &BStarTree,
    module_dims: &[Dims],
    mut mark: impl FnMut(ModuleId),
) -> [(usize, bool); 3] {
    // (key, arena index) per anchor; `>=` keeps the last of equal keys in
    // packing order, and the root (at the origin) qualifies for all three
    let mut best = [(Coord::MIN, 0usize); 3];
    pack_btree_with(scratch, tree, module_dims, |idx, module, _, r| {
        mark(module);
        let keys =
            [(r.y_min == 0).then_some(r.x_max), Some(r.x_max), (r.x_min == 0).then_some(r.y_max)];
        for (slot, key) in best.iter_mut().zip(keys) {
            if let Some(key) = key.filter(|&k| k >= slot.0) {
                *slot = (key, idx);
            }
        }
    });
    [(best[0].1, true), (best[1].1, true), (best[2].1, false)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_btree::pack_btree;
    use apls_geometry::total_overlap_area;

    fn id(i: usize) -> ModuleId {
        ModuleId::from_index(i)
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
