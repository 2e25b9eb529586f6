//! Enhanced shape functions: shapes that carry their B*-tree.

use apls_btree::{pack_btree, BStarTree};
use apls_circuit::ModuleId;
use apls_geometry::Dims;
use rayon::prelude::*;

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
        let packed = pack_btree(&tree, module_dims);
        EnhancedShape { dims: packed.dims(), tree }
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
        if self.shapes.iter().any(|s| shape.dims.dominates(s.dims) && shape.dims != s.dims) {
            return;
        }
        if self.shapes.iter().any(|s| s.dims == shape.dims) {
            return; // keep one representative per footprint
        }
        self.shapes.retain(|s| !s.dims.dominates(shape.dims) || s.dims == shape.dims);
        self.shapes.push(shape);
        self.shapes.sort_by_key(|s| (s.dims.w, s.dims.h));
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
    /// For every pair of operand shapes three candidate combinations are
    /// packed and inserted:
    ///
    /// * *horizontal interleave* — the second tree is grafted onto the end of
    ///   the first tree's left-child spine, letting the second operand slide
    ///   into concavities of the first (this is the enhanced addition of
    ///   Fig. 7);
    /// * *horizontal abut* — the second tree is grafted onto the node with the
    ///   largest right edge, which reproduces the plain bounding-box addition
    ///   exactly and guarantees the enhanced result is never worse than the
    ///   regular one;
    /// * *vertical stack/interleave* — the second tree is grafted onto the end
    ///   of the first tree's right-child spine (placed above, possibly sinking
    ///   into the skyline).
    #[must_use]
    pub fn add(
        &self,
        other: &EnhancedShapeFunction,
        module_dims: &[Dims],
    ) -> EnhancedShapeFunction {
        let mut out = EnhancedShapeFunction::new();
        out.shapes.reserve(self.shapes.len() + other.shapes.len());
        for a in &self.shapes {
            for b in &other.shapes {
                for merged in merge_trees(&a.tree, &b.tree, module_dims) {
                    out.insert(merged);
                }
            }
        }
        out
    }

    /// [`EnhancedShapeFunction::add`] with the candidate packings fanned out
    /// over rayon workers.
    ///
    /// Candidates are collected per operand pair and inserted in exactly the
    /// order the sequential `add` produces them, so the two methods return
    /// bit-identical shape functions — parallelism only changes wall time.
    /// Small operands fall through to the sequential path.
    #[must_use]
    pub fn add_parallel(
        &self,
        other: &EnhancedShapeFunction,
        module_dims: &[Dims],
    ) -> EnhancedShapeFunction {
        /// Below this many tree merges the fan-out overhead dominates.
        const MIN_PARALLEL_PAIRS: usize = 32;
        if self.shapes.len() * other.shapes.len() < MIN_PARALLEL_PAIRS {
            return self.add(other, module_dims);
        }
        let pairs: Vec<(usize, usize)> = (0..self.shapes.len())
            .flat_map(|i| (0..other.shapes.len()).map(move |j| (i, j)))
            .collect();
        let merged: Vec<Vec<EnhancedShape>> = pairs
            .into_par_iter()
            .map(|(i, j)| merge_trees(&self.shapes[i].tree, &other.shapes[j].tree, module_dims))
            .collect();
        let mut out = EnhancedShapeFunction::new();
        out.shapes.reserve(self.shapes.len() + other.shapes.len());
        for batch in merged {
            for shape in batch {
                out.insert(shape);
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

/// Grafts `b` onto `a` in the three ways described in
/// [`EnhancedShapeFunction::add`] and packs each candidate.
fn merge_trees(a: &BStarTree, b: &BStarTree, module_dims: &[Dims]) -> Vec<EnhancedShape> {
    if a.is_empty() {
        return vec![EnhancedShape::from_tree(b.clone(), module_dims)];
    }
    if b.is_empty() {
        return vec![EnhancedShape::from_tree(a.clone(), module_dims)];
    }
    let packed_a = pack_btree(a, module_dims);
    // anchor modules in `a` for the three graft points
    let left_spine_end = {
        // the node reached by following left children from the root has the
        // largest x of the bottom row; equivalently the module whose rect ends
        // the first (pre-order) left chain. We identify it as the module whose
        // rectangle has the maximal x_max among those with y_min == 0 on the
        // left spine; walking the preorder is simpler: the left spine is the
        // maximal prefix of the preorder reachable through left children.
        // `BStarTree` does not expose child pointers, so use geometry instead:
        // the module with the largest x_max among those at y_min == 0.
        packed_a
            .rects()
            .iter()
            .filter(|(_, r)| r.y_min == 0)
            .max_by_key(|(_, r)| r.x_max)
            .map(|(m, _)| *m)
            .expect("non-empty packing")
    };
    let rightmost = packed_a
        .rects()
        .iter()
        .max_by_key(|(_, r)| r.x_max)
        .map(|(m, _)| *m)
        .expect("non-empty packing");
    let top_spine_end = packed_a
        .rects()
        .iter()
        .filter(|(_, r)| r.x_min == 0)
        .max_by_key(|(_, r)| r.y_max)
        .map(|(m, _)| *m)
        .expect("non-empty packing");

    let mut out = Vec::with_capacity(3);
    let grafts = [
        (left_spine_end, true), // horizontal interleave: left child slot
        (rightmost, true),      // horizontal abut: left child of the widest node
        (top_spine_end, false), // vertical: right child slot of the tallest x=0 node
    ];
    for (anchor, as_left) in grafts {
        if let Some(shape) = graft(a, b, anchor, as_left, module_dims) {
            out.push(shape);
        }
    }
    out
}

/// Builds a combined tree by grafting a copy of `b` (structure and rotation
/// flags preserved) under `anchor` in a copy of `a`, then packing it.
fn graft(
    a: &BStarTree,
    b: &BStarTree,
    anchor: ModuleId,
    as_left: bool,
    module_dims: &[Dims],
) -> Option<EnhancedShape> {
    let mut combined = a.clone();
    if !combined.graft(b, anchor, as_left) {
        return None;
    }
    Some(EnhancedShape::from_tree(combined, module_dims))
}

#[cfg(test)]
mod tests {
    use super::*;
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
