//! Contour-based B*-tree packing.

use crate::tree::Slot;
use crate::BStarTree;
use apls_circuit::ModuleId;
use apls_geometry::{Contour, Coord, Dims, Rect};

/// The packed form of a B*-tree: one rectangle per module plus the floorplan
/// extents.
///
/// Besides the pre-order rectangle list, the packing keeps a dense
/// by-module-index table so [`PackedBTree::rect_of`] is a direct lookup
/// instead of a linear scan, and a parallel rotation-flag list so consumers
/// can recover orientations without re-querying the tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBTree {
    rects: Vec<(ModuleId, Rect)>,
    /// Rotation flag of `rects[i]`, aligned with `rects`.
    rotated: Vec<bool>,
    /// Direct lookup table indexed by [`ModuleId::index`].
    by_module: Vec<Option<Rect>>,
    width: Coord,
    height: Coord,
}

impl PackedBTree {
    /// Creates an empty packing, ready to be filled by [`pack_btree_into`]
    /// (and reused across calls without reallocating).
    #[must_use]
    pub fn new() -> Self {
        PackedBTree::default()
    }

    /// Rectangles in packing (pre-order) order.
    #[must_use]
    pub fn rects(&self) -> &[(ModuleId, Rect)] {
        &self.rects
    }

    /// Rotation flags aligned with [`PackedBTree::rects`]: `rotated()[i]` is
    /// `true` when `rects()[i]` was packed with the transposed footprint.
    #[must_use]
    pub fn rotated(&self) -> &[bool] {
        &self.rotated
    }

    /// Rectangle of one module, if it was packed. Direct index lookup, O(1).
    #[must_use]
    pub fn rect_of(&self, module: ModuleId) -> Option<Rect> {
        self.by_module.get(module.index()).copied().flatten()
    }

    /// Floorplan width.
    #[must_use]
    pub fn width(&self) -> Coord {
        self.width
    }

    /// Floorplan height.
    #[must_use]
    pub fn height(&self) -> Coord {
        self.height
    }

    /// Bounding-box area of the floorplan.
    #[must_use]
    pub fn area(&self) -> i128 {
        i128::from(self.width) * i128::from(self.height)
    }

    /// Footprint of the floorplan.
    #[must_use]
    pub fn dims(&self) -> Dims {
        Dims::new(self.width, self.height)
    }
}

/// Reusable working storage for [`pack_btree_into`].
///
/// Packing needs a contour and an x-interval table sized to the tree; both
/// grow to their steady-state capacity on the first pack and are reused
/// untouched afterwards, so repeated packing — the annealing hot loop —
/// performs no heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    contour: Contour,
    /// `(x_min, x_max)` assigned so far, by arena index (parents are always
    /// packed before their children in pre-order).
    x_of: Vec<(Coord, Coord)>,
}

impl PackScratch {
    /// Creates an empty scratch; buffers are sized lazily by the first pack.
    #[must_use]
    pub fn new() -> Self {
        PackScratch::default()
    }
}

/// Packs a B*-tree against the contour.
///
/// Pre-order traversal: the root is placed at the origin; a left child is
/// placed immediately to the right of its parent (`x = parent.x_max`); a right
/// child is placed at the parent's own x. In both cases the module drops onto
/// the current contour (the lowest y that clears everything already placed in
/// its horizontal span), which is what makes B*-tree packings bottom-left
/// compacted and overlap-free.
///
/// `dims` is indexed by [`ModuleId::index`]; rotated nodes use the transposed
/// footprint.
///
/// Convenience wrapper over [`pack_btree_into`] that allocates fresh scratch
/// and output; hot loops should hold both and call `pack_btree_into` instead.
#[must_use]
pub fn pack_btree(tree: &BStarTree, dims: &[Dims]) -> PackedBTree {
    let mut scratch = PackScratch::new();
    let mut out = PackedBTree::new();
    pack_btree_into(&mut scratch, tree, dims, &mut out);
    out
}

/// Packs a B*-tree into a reusable [`PackedBTree`] using reusable scratch
/// buffers — the allocation-free form of [`pack_btree`] (identical output).
pub fn pack_btree_into(
    scratch: &mut PackScratch,
    tree: &BStarTree,
    dims: &[Dims],
    out: &mut PackedBTree,
) {
    out.rects.clear();
    out.rotated.clear();
    out.by_module.clear();
    out.by_module.resize(dims.len(), None);
    let extent = pack_btree_with(scratch, tree, dims, |_, module, rotated, rect| {
        out.rects.push((module, rect));
        out.rotated.push(rotated);
        out.by_module[module.index()] = Some(rect);
    });
    out.width = extent.w;
    out.height = extent.h;
}

/// Packs a B*-tree for its floorplan extent alone: the contour walk of
/// [`pack_btree_into`] without recording any rectangle, so sizing a
/// candidate tree costs no allocation once `scratch` has grown.
#[must_use]
pub fn pack_extent(scratch: &mut PackScratch, tree: &BStarTree, dims: &[Dims]) -> Dims {
    pack_btree_with(scratch, tree, dims, |_, _, _, _| {})
}

/// Packs `tree` on top of everything the last pack into `base` placed,
/// instead of on the empty skyline (root at the origin), and returns the
/// extent of `tree`'s own nodes.
///
/// When that last pack was of a tree `a`, this places `tree`'s nodes
/// exactly where they land once `tree` hangs as the right child of the end
/// of `a`'s right chain ([`BStarTree::right_chain_end`]): that child is
/// packed after all of `a`, at `x = 0`. The cost is O(|tree|) plus one copy
/// of `base`'s contour.
#[must_use]
pub fn pack_extent_on(
    scratch: &mut PackScratch,
    base: &PackScratch,
    tree: &BStarTree,
    dims: &[Dims],
) -> Dims {
    scratch.contour.clone_from(&base.contour);
    pack_on_contour(scratch, tree, dims, |_, _, _, _| {})
}

/// The one packing loop: places every node against the contour in pre-order
/// and calls `visit(arena_index, module, rotated, rect)` for each, then
/// returns the floorplan extent. The arena index is the one
/// [`BStarTree::graft_from`] takes as its anchor.
pub fn pack_btree_with<F: FnMut(usize, ModuleId, bool, Rect)>(
    scratch: &mut PackScratch,
    tree: &BStarTree,
    dims: &[Dims],
    visit: F,
) -> Dims {
    scratch.contour.clear();
    pack_on_contour(scratch, tree, dims, visit)
}

/// [`pack_btree_with`] on whatever skyline `scratch` holds.
fn pack_on_contour<F: FnMut(usize, ModuleId, bool, Rect)>(
    scratch: &mut PackScratch,
    tree: &BStarTree,
    dims: &[Dims],
    mut visit: F,
) -> Dims {
    scratch.x_of.clear();
    scratch.x_of.resize(tree.len(), (0, 0));
    let (mut width, mut height) = (0, 0);
    let contour = &mut scratch.contour;
    let x_of = &mut scratch.x_of;
    tree.walk_preorder(&mut |arena_idx, module, rotated, slot| {
        let base = dims[module.index()];
        let d = if rotated { base.rotated() } else { base };
        let x = match slot {
            Slot::Root => 0,
            Slot::LeftChildOf(p) => x_of[p].1,
            Slot::RightChildOf(p) => x_of[p].0,
        };
        let y = contour.place(x, d.w, d.h);
        let rect = Rect::new(x, y, x + d.w, y + d.h);
        x_of[arena_idx] = (x, x + d.w);
        width = width.max(rect.x_max);
        height = height.max(rect.y_max);
        visit(arena_idx, module, rotated, rect);
    });
    Dims::new(width, height)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_anneal::rng::SeededRng;
    use apls_geometry::total_overlap_area;

    fn ids(n: usize) -> Vec<ModuleId> {
        (0..n).map(ModuleId::from_index).collect()
    }

    #[test]
    fn left_chain_packs_into_a_row() {
        let tree = BStarTree::left_chain(&ids(3));
        let dims = vec![Dims::new(10, 5), Dims::new(20, 8), Dims::new(5, 3)];
        let packed = pack_btree(&tree, &dims);
        assert_eq!(packed.width(), 35);
        assert_eq!(packed.height(), 8);
        assert_eq!(packed.rect_of(ModuleId::from_index(2)).unwrap().x_min, 30);
        let rects: Vec<Rect> = packed.rects().iter().map(|(_, r)| *r).collect();
        assert_eq!(total_overlap_area(&rects), 0);
    }

    #[test]
    fn right_chain_packs_into_a_column() {
        // build manually: root with a chain of right children
        let mut tree = BStarTree::left_chain(&ids(3));
        // turn the left chain into a right chain by moving nodes
        assert!(tree.move_node(ModuleId::from_index(1), ModuleId::from_index(0), false));
        assert!(tree.move_node(ModuleId::from_index(2), ModuleId::from_index(1), false));
        let dims = vec![Dims::new(10, 5), Dims::new(10, 5), Dims::new(10, 5)];
        let packed = pack_btree(&tree, &dims);
        assert_eq!(packed.width(), 10);
        assert_eq!(packed.height(), 15);
    }

    #[test]
    fn rotation_changes_footprint() {
        let mut tree = BStarTree::left_chain(&ids(1));
        let dims = vec![Dims::new(30, 10)];
        assert_eq!(pack_btree(&tree, &dims).dims(), Dims::new(30, 10));
        tree.rotate_node(ModuleId::from_index(0));
        assert_eq!(pack_btree(&tree, &dims).dims(), Dims::new(10, 30));
    }

    #[test]
    fn random_trees_always_pack_legally() {
        let n = 15;
        let modules = ids(n);
        let dims: Vec<Dims> =
            (0..n).map(|i| Dims::new(5 + (i as i64 * 7) % 40, 5 + (i as i64 * 13) % 30)).collect();
        let mut tree = BStarTree::balanced(&modules);
        let mut rng = SeededRng::new(31);
        let total_area: i128 = dims.iter().map(|d| d.area()).sum();
        for _ in 0..300 {
            tree.perturb(&mut rng, |_| true);
            let packed = pack_btree(&tree, &dims);
            let rects: Vec<Rect> = packed.rects().iter().map(|(_, r)| *r).collect();
            assert_eq!(rects.len(), n);
            assert_eq!(total_overlap_area(&rects), 0);
            assert!(packed.area() >= total_area);
            for (_, r) in packed.rects() {
                assert!(r.x_min >= 0 && r.y_min >= 0);
                assert!(r.x_max <= packed.width() && r.y_max <= packed.height());
            }
        }
    }

    #[test]
    fn reused_scratch_packs_identically_to_the_allocating_path() {
        let n = 12;
        let modules = ids(n);
        let dims: Vec<Dims> =
            (0..n).map(|i| Dims::new(4 + (i as i64 * 5) % 25, 4 + (i as i64 * 11) % 20)).collect();
        let mut tree = BStarTree::balanced(&modules);
        let mut rng = SeededRng::new(77);
        let mut scratch = PackScratch::new();
        let mut reused = PackedBTree::new();
        for _ in 0..200 {
            tree.perturb(&mut rng, |_| true);
            let fresh = pack_btree(&tree, &dims);
            pack_btree_into(&mut scratch, &tree, &dims, &mut reused);
            assert_eq!(fresh, reused);
            assert_eq!(pack_extent(&mut scratch, &tree, &dims), fresh.dims());
            // the by-module index agrees with the linear list
            for (i, &(m, r)) in fresh.rects().iter().enumerate() {
                assert_eq!(reused.rect_of(m), Some(r));
                assert_eq!(reused.rotated()[i], fresh.rotated()[i]);
            }
            assert_eq!(reused.rect_of(ModuleId::from_index(n + 5)), None);
        }
    }

    #[test]
    fn empty_tree_packs_to_nothing() {
        let tree = BStarTree::left_chain(&[]);
        let packed = pack_btree(&tree, &[]);
        assert_eq!(packed.width(), 0);
        assert_eq!(packed.height(), 0);
    }
}
