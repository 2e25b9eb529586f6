//! Automatically symmetric-feasible (ASF) B*-trees: symmetry islands.
//!
//! Reference \[16\] of the survey formulates the placement of a symmetry group
//! as a *symmetry island*: the group is placed as one connected block that is
//! internally mirror-symmetric about its axis, and the island as a whole is a
//! single node in the surrounding (hierarchical) B*-tree.
//!
//! This module implements the island construction used by the HB*-tree placer:
//!
//! * one **half-tree** — an ordinary [`BStarTree`] over the *representative*
//!   (left) member of every symmetric pair — encodes the right half of the
//!   island; packing it and mirroring every rectangle about the axis yields
//!   the left half, so symmetry holds by construction for any half-tree
//!   (which is what makes the encoding "automatically symmetric-feasible");
//! * self-symmetric modules are stacked in a centre column straddling the
//!   axis.
//!
//! Compared to the full ASF-B*-tree of \[16\] this keeps the centre column
//! rectangular (self-symmetric modules do not interleave with the halves),
//! a simplification documented in DESIGN.md; pair halves still take arbitrary
//! B*-tree shapes, which is where almost all of the packing freedom lies.

use crate::pack::{pack_btree_into, PackScratch, PackedBTree};
use crate::BStarTree;
use apls_circuit::{ModuleId, SymmetryGroup};
use apls_geometry::{Coord, Dims, Rect};

/// A packed symmetry island: module rectangles (island-relative) plus the
/// island footprint and axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryIsland {
    rects: Vec<(ModuleId, Rect)>,
    dims: Dims,
    /// Doubled x coordinate of the symmetry axis (island-relative).
    axis_x2: Coord,
}

impl Default for SymmetryIsland {
    /// An empty island, ready to be filled by [`AsfBTree::pack_into`].
    fn default() -> Self {
        SymmetryIsland { rects: Vec::new(), dims: Dims::ZERO, axis_x2: 0 }
    }
}

impl SymmetryIsland {
    /// Module rectangles in island-relative coordinates.
    #[must_use]
    pub fn rects(&self) -> &[(ModuleId, Rect)] {
        &self.rects
    }

    /// Island footprint.
    #[must_use]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Doubled x coordinate of the island's symmetry axis.
    #[must_use]
    pub fn axis_x2(&self) -> Coord {
        self.axis_x2
    }
}

/// The ASF encoding of one symmetry group: a half-tree over the pair
/// representatives. Self-symmetric modules need no encoding (their column
/// arrangement is deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsfBTree {
    group: SymmetryGroup,
    half_tree: BStarTree,
}

impl AsfBTree {
    /// Creates the canonical ASF encoding for a group: the half-tree is a left
    /// chain over the pairs' first members.
    #[must_use]
    pub fn new(group: SymmetryGroup) -> Self {
        let representatives: Vec<ModuleId> = group.pairs().iter().map(|&(l, _)| l).collect();
        let half_tree = BStarTree::left_chain(&representatives);
        AsfBTree { group, half_tree }
    }

    /// The symmetry group this encoding places.
    #[must_use]
    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// Immutable access to the half-tree (e.g. for inspection in tests).
    #[must_use]
    pub fn half_tree(&self) -> &BStarTree {
        &self.half_tree
    }

    /// Mutable access to the half-tree for perturbation by the annealer.
    ///
    /// Any half-tree shape yields a symmetric island, so perturbing it freely
    /// is safe — this is exactly the "automatically symmetric-feasible"
    /// property.
    pub fn half_tree_mut(&mut self) -> &mut BStarTree {
        &mut self.half_tree
    }

    /// Packs the island for the given module dimension table.
    ///
    /// Geometry: the half-tree packs the pair representatives into the right
    /// half, which is mirrored about the island axis to produce the left half;
    /// self-symmetric modules are stacked *above* the mirrored halves, centred
    /// on the axis, so they do not widen the island.
    ///
    /// Convenience wrapper over [`AsfBTree::pack_into`] that allocates fresh
    /// scratch and output; hot loops should reuse both.
    ///
    /// # Panics
    ///
    /// Panics if a group member's dimensions are missing from `dims`.
    #[must_use]
    pub fn pack(&self, dims: &[Dims]) -> SymmetryIsland {
        let mut scratch = PackScratch::new();
        let mut half = PackedBTree::new();
        let mut out = SymmetryIsland::default();
        self.pack_into(dims, &mut scratch, &mut half, &mut out);
        out
    }

    /// Packs the island into reusable buffers — the allocation-free form of
    /// [`AsfBTree::pack`] (identical output). `scratch` and `half` hold the
    /// half-tree packing state; `out` receives the island.
    ///
    /// # Panics
    ///
    /// Panics if a group member's dimensions are missing from `dims`.
    pub fn pack_into(
        &self,
        dims: &[Dims],
        scratch: &mut PackScratch,
        half: &mut PackedBTree,
        out: &mut SymmetryIsland,
    ) {
        // --- right half: pack the representatives --------------------------
        pack_btree_into(scratch, &self.half_tree, dims, half);
        let half_width = half.width();
        let pair_height = half.height();

        let mut max_self_width: Coord = 0;
        let mut first_self_width: Option<Coord> = None;
        for &s in self.group.self_symmetric() {
            let w = dims[s.index()].w;
            if first_self_width.is_none() {
                first_self_width = Some(w);
            }
            max_self_width = max_self_width.max(w);
        }

        // island width: wide enough for both mirrored halves and the widest
        // self-symmetric module; parity chosen so the axis centres every
        // self-symmetric module exactly ((width - w_s) must be even).
        let mut width = (2 * half_width).max(max_self_width).max(1);
        if let Some(w0) = first_self_width {
            if (width - w0).rem_euclid(2) != 0 {
                width += 1;
            }
        }
        // doubled axis coordinate: the centre line of the island
        let axis_x2 = width;

        out.rects.clear();
        // right half starts at the axis; left half is its mirror image
        let right_offset = width / 2 + (width % 2); // ceil(width / 2)
        for &(l, r) in self.group.pairs() {
            let half_rect = half.rect_of(l).expect("representative is in the half-tree");
            let right_rect = half_rect.translated(apls_geometry::Point::new(right_offset, 0));
            let left_rect = right_rect.mirror_about_vertical_x2(axis_x2);
            out.rects.push((r, right_rect));
            out.rects.push((l, left_rect));
        }
        // self-symmetric modules stacked above the pair region, centred on the
        // axis
        let mut self_y = if self.group.pairs().is_empty() { 0 } else { pair_height };
        for &s in self.group.self_symmetric() {
            let d = dims[s.index()];
            let x = (width - d.w) / 2;
            out.rects.push((s, Rect::new(x, self_y, x + d.w, self_y + d.h)));
            self_y += d.h;
        }

        let height = pair_height.max(self_y).max(1);
        out.dims = Dims::new(width, height);
        out.axis_x2 = axis_x2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_anneal::rng::SeededRng;
    use apls_circuit::{Module, Netlist, Placement};
    use apls_geometry::{total_overlap_area, Orientation};

    fn matched_group(pairs: usize, selfs: usize) -> (Netlist, SymmetryGroup) {
        let mut nl = Netlist::new("asf");
        let mut group = SymmetryGroup::new("g");
        for i in 0..pairs {
            let d = Dims::new(20 + 4 * i as i64, 10 + 2 * i as i64);
            let l = nl.add_module(Module::new(format!("L{i}"), d));
            let r = nl.add_module(Module::new(format!("R{i}"), d));
            group = group.with_pair(l, r);
        }
        for i in 0..selfs {
            let m = nl.add_module(Module::new(format!("S{i}"), Dims::new(30, 14 + 2 * i as i64)));
            group = group.with_self_symmetric(m);
        }
        (nl, group)
    }

    fn island_placement(nl: &Netlist, island: &SymmetryIsland) -> Placement {
        let mut p = Placement::new(nl);
        for &(m, r) in island.rects() {
            p.place(m, r, Orientation::R0, 0);
        }
        p
    }

    #[test]
    fn canonical_island_is_exactly_symmetric_and_legal() {
        let (nl, group) = matched_group(3, 2);
        let asf = AsfBTree::new(group.clone());
        let island = asf.pack(&nl.default_dims());
        let placement = island_placement(&nl, &island);
        assert_eq!(group.axis_error(&placement), 0);
        let rects: Vec<Rect> = island.rects().iter().map(|(_, r)| *r).collect();
        assert_eq!(total_overlap_area(&rects), 0);
        assert_eq!(rects.len(), 8);
    }

    #[test]
    fn every_half_tree_perturbation_stays_symmetric() {
        let (nl, group) = matched_group(4, 1);
        let mut asf = AsfBTree::new(group.clone());
        let dims = nl.default_dims();
        let mut rng = SeededRng::new(77);
        for step in 0..300 {
            asf.half_tree_mut().perturb(&mut rng, |_| true);
            let island = asf.pack(&dims);
            let placement = island_placement(&nl, &island);
            assert_eq!(group.axis_error(&placement), 0, "asymmetric island at step {step}");
            let rects: Vec<Rect> = island.rects().iter().map(|(_, r)| *r).collect();
            assert_eq!(total_overlap_area(&rects), 0, "overlap at step {step}");
        }
    }

    #[test]
    fn island_footprint_covers_all_members() {
        let (nl, group) = matched_group(2, 1);
        let asf = AsfBTree::new(group);
        let island = asf.pack(&nl.default_dims());
        for (_, r) in island.rects() {
            assert!(r.x_min >= 0 && r.y_min >= 0);
            assert!(r.x_max <= island.dims().w);
            assert!(r.y_max <= island.dims().h);
        }
    }

    #[test]
    fn axis_sits_in_the_middle_of_the_island() {
        let (nl, group) = matched_group(2, 0);
        let asf = AsfBTree::new(group);
        let island = asf.pack(&nl.default_dims());
        assert_eq!(island.axis_x2(), island.dims().w);
    }

    #[test]
    fn group_without_pairs_is_a_plain_stack() {
        let (nl, group) = matched_group(0, 3);
        let asf = AsfBTree::new(group.clone());
        let island = asf.pack(&nl.default_dims());
        assert_eq!(island.rects().len(), 3);
        let placement = island_placement(&nl, &island);
        assert_eq!(group.axis_error(&placement), 0);
    }
}
