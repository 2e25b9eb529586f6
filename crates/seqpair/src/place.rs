//! Building symmetric placements from symmetric-feasible sequence-pairs.
//!
//! Packing an S-F sequence-pair with the plain longest-path evaluation yields
//! a legal placement, but not yet an exactly mirror-symmetric one: the paper
//! (references \[2\], \[13\]) constructs the symmetric placement during
//! evaluation. [`SymmetricPlacer`] implements that construction as an
//! iterative legalisation:
//!
//! 1. pack the sequence-pair (respecting any lower bounds accumulated so far);
//! 2. for every symmetry group, derive the smallest axis position compatible
//!    with the current coordinates, then raise per-module lower bounds so that
//!    every pair mirrors exactly about that axis and pair partners share a
//!    vertical centre;
//! 3. repeat until no bound changes.
//!
//! Because bounds only ever push modules right/up and the repacking step keeps
//! every sequence-pair ordering constraint satisfied, the intermediate and
//! final placements are always overlap-free; for symmetric-feasible encodings
//! with matched pair dimensions the iteration reaches an exactly symmetric
//! fixpoint (symmetry error 0).

use crate::pack::{pack_with_bounds_constraint_graph, LowerBounds, PackedFloorplan};
use crate::SequencePair;
use apls_circuit::{ConstraintSet, ModuleId, Netlist, Placement, SymmetryGroup};
use apls_geometry::{Coord, Dims, Orientation, Point, Rect};

/// Builds exactly symmetric placements from sequence-pairs.
#[derive(Debug, Clone)]
pub struct SymmetricPlacer<'a> {
    netlist: &'a Netlist,
    constraints: &'a ConstraintSet,
    dims: Vec<Dims>,
    max_iterations: usize,
}

impl<'a> SymmetricPlacer<'a> {
    /// Creates a placer for a netlist and its constraints.
    #[must_use]
    pub fn new(netlist: &'a Netlist, constraints: &'a ConstraintSet) -> Self {
        let dims = netlist.default_dims();
        let max_iterations = 3 * netlist.module_count() + 20;
        SymmetricPlacer { netlist, constraints, dims, max_iterations }
    }

    /// Overrides the module dimension table (e.g. to account for rotations or
    /// alternative shape variants chosen by the annealer).
    #[must_use]
    pub fn with_dims(mut self, dims: Vec<Dims>) -> Self {
        assert_eq!(
            dims.len(),
            self.netlist.module_count(),
            "dimension table must cover every module"
        );
        self.dims = dims;
        self
    }

    /// The dimension table currently in use.
    #[must_use]
    pub fn dims(&self) -> &[Dims] {
        &self.dims
    }

    /// Packs the sequence-pair *without* symmetry legalisation.
    ///
    /// Used by the penalty-based ablation mode (experiment E9): the resulting
    /// placement is legal but generally not symmetric.
    #[must_use]
    pub fn place_unconstrained(&self, sp: &SequencePair) -> Placement {
        let fp =
            pack_with_bounds_constraint_graph(sp, &self.dims, &LowerBounds::empty(self.dims.len()));
        self.floorplan_to_placement(&fp)
    }

    /// Packs the sequence-pair and legalises every symmetry group to an exact
    /// mirror placement.
    ///
    /// Two constructions are combined:
    ///
    /// 1. the *iterative legalisation* described in the module docs, which
    ///    keeps the compactness of the plain packing and converges to an exact
    ///    mirror placement for the common (non-crossed) encodings;
    /// 2. an always-exact *symmetry-island* construction (in the spirit of the
    ///    symmetry islands of reference \[16\] of the survey) used as a fallback
    ///    when the iteration does not reach an exact fixpoint, e.g. for
    ///    encodings where two pairs of the same group appear "crossed" so that
    ///    mirroring one pair keeps pushing the other.
    ///
    /// The returned placement is always overlap-free; its symmetry error is
    /// zero whenever pair partners have matched dimensions and the
    /// self-symmetric cells of each group share a width parity (exact axes do
    /// not exist on the integer grid otherwise).
    #[must_use]
    pub fn place(&self, sp: &SequencePair) -> Placement {
        let mut bounds = LowerBounds::empty(self.dims.len());
        let mut fp = pack_with_bounds_constraint_graph(sp, &self.dims, &bounds);
        let plain_width = fp.width();
        let mut converged = false;
        for _ in 0..self.max_iterations {
            let changed = self.tighten_bounds(&fp, &mut bounds);
            if !changed {
                converged = true;
                break;
            }
            fp = pack_with_bounds_constraint_graph(sp, &self.dims, &bounds);
            // Divergence guard: crossed-pair encodings can keep pushing each
            // other's mirror targets; once the floorplan has blown up well past
            // the unconstrained width the iteration will not recover.
            if fp.width() > 3 * plain_width.max(1) {
                converged = false;
                break;
            }
        }
        let islands = self.place_symmetry_islands(sp);
        let iterative = self.floorplan_to_placement(&fp);
        if converged && iterative.symmetry_error(self.constraints) == 0 {
            // both constructions are exact; keep the more compact one
            let area_iterative = iterative.bounding_rect().map_or(i128::MAX, |r| r.area());
            let area_islands = islands.bounding_rect().map_or(i128::MAX, |r| r.area());
            if area_iterative <= area_islands {
                return iterative;
            }
        }
        islands
    }

    /// Always-exact construction: every symmetry group becomes a rigid,
    /// internally mirrored island; islands and free cells are then packed with
    /// the sequence-pair restricted to one representative per island.
    #[must_use]
    pub fn place_symmetry_islands(&self, sp: &SequencePair) -> Placement {
        use std::collections::BTreeMap;

        // --- build each island's internal geometry --------------------------
        // island key = index of the symmetry group in the constraint set
        let groups = self.constraints.symmetry_groups();
        let mut islands: Vec<(ModuleId, IslandGeometry)> = Vec::new();
        let mut module_to_island: BTreeMap<ModuleId, usize> = BTreeMap::new();

        for group in groups {
            let Some(geometry) = island_geometry(group, &self.dims, |m| sp.contains(m)) else {
                continue;
            };
            // The representative is the member that appears first in alpha.
            let representative = geometry
                .members
                .iter()
                .copied()
                .min_by_key(|m| sp.alpha_position(*m))
                .expect("non-empty island");
            let island_index = islands.len();
            for &m in &geometry.members {
                module_to_island.insert(m, island_index);
            }
            islands.push((representative, geometry));
        }

        // --- outer sequence-pair over islands (keyed by their representative)
        // and free modules ---------------------------------------------------
        let reduce = |seq: &[ModuleId]| -> Vec<ModuleId> {
            let mut out = Vec::new();
            let mut seen_island = vec![false; islands.len()];
            for &m in seq {
                match module_to_island.get(&m) {
                    Some(&gi) => {
                        if !seen_island[gi] {
                            seen_island[gi] = true;
                            out.push(islands[gi].0);
                        }
                    }
                    None => out.push(m),
                }
            }
            out
        };
        let outer_alpha = reduce(sp.alpha());
        let outer_beta = reduce(sp.beta());
        let outer_sp = SequencePair::from_sequences(outer_alpha, outer_beta)
            .expect("reduction keeps both sequences over the same set");
        let mut outer_dims = self.dims.clone();
        for (representative, geometry) in &islands {
            outer_dims[representative.index()] = geometry.dims;
        }
        let outer_fp = pack_with_bounds_constraint_graph(
            &outer_sp,
            &outer_dims,
            &LowerBounds::empty(outer_dims.len()),
        );

        // --- assemble the final placement -----------------------------------
        let mut placement = Placement::new(self.netlist);
        for &(m, r) in outer_fp.rects() {
            match module_to_island.get(&m) {
                Some(&gi) => {
                    let (_, geometry) = &islands[gi];
                    let origin = r.origin();
                    for &(member, local) in &geometry.rects {
                        let orientation = self.orientation_for(member);
                        placement.place(member, local.translated(origin), orientation, 0);
                    }
                }
                None => {
                    placement.place(m, r, Orientation::R0, 0);
                }
            }
        }
        placement
    }

    fn orientation_for(&self, m: apls_circuit::ModuleId) -> Orientation {
        match self.constraints.symmetry_group_of(m) {
            Some(g) if g.pairs().iter().any(|&(_, right)| right == m) => Orientation::MY,
            _ => Orientation::R0,
        }
    }

    /// Raises the lower bounds needed to make every symmetry group exact given
    /// the current floorplan. Returns `true` when any bound increased beyond a
    /// module's current coordinate.
    fn tighten_bounds(&self, fp: &PackedFloorplan, bounds: &mut LowerBounds) -> bool {
        let mut changed = false;
        for group in self.constraints.symmetry_groups() {
            changed |= self.tighten_group(group, fp, bounds);
        }
        changed
    }

    fn tighten_group(
        &self,
        group: &SymmetryGroup,
        fp: &PackedFloorplan,
        bounds: &mut LowerBounds,
    ) -> bool {
        tighten_group_with(group, &self.dims, |m| fp.rect_of(m), bounds)
    }

    fn floorplan_to_placement(&self, fp: &PackedFloorplan) -> Placement {
        let mut placement = Placement::new(self.netlist);
        for &(m, r) in fp.rects() {
            // Right partners of symmetric pairs are conventionally mirrored so
            // that their internal geometry reflects about the axis.
            let orientation = match self.constraints.symmetry_group_of(m) {
                Some(g) => {
                    let is_right_partner = g.pairs().iter().any(|&(_, right)| right == m);
                    if is_right_partner {
                        Orientation::MY
                    } else {
                        Orientation::R0
                    }
                }
                None => Orientation::R0,
            };
            placement.place(m, r, orientation, 0);
        }
        placement
    }
}

/// The internal geometry of one symmetry island: a rigid, exactly mirrored
/// sub-floorplan shared by the cold placer and the incremental hot evaluator
/// (which caches it per run — it depends only on the group, the dimension
/// table, and which members are present, never on the sequence-pair order).
#[derive(Debug, Clone)]
pub(crate) struct IslandGeometry {
    /// Present members, pairs first (left then right), then self-symmetric.
    pub(crate) members: Vec<ModuleId>,
    /// Footprint of the island in the outer packing.
    pub(crate) dims: Dims,
    /// Island-relative rectangles of the members.
    pub(crate) rects: Vec<(ModuleId, Rect)>,
}

/// Builds the mirrored internal geometry of one symmetry group, or `None`
/// when no member is present under `contains`.
pub(crate) fn island_geometry(
    group: &SymmetryGroup,
    dims: &[Dims],
    contains: impl Fn(ModuleId) -> bool,
) -> Option<IslandGeometry> {
    let members: Vec<_> = group.members().into_iter().filter(|m| contains(*m)).collect();
    if members.is_empty() {
        return None;
    }
    let max_pair_width = group
        .pairs()
        .iter()
        .flat_map(|&(l, r)| [l, r])
        .filter(|m| contains(*m))
        .map(|m| dims[m.index()].w)
        .max()
        .unwrap_or(0);
    let self_widths: Vec<Coord> = group
        .self_symmetric()
        .iter()
        .filter(|m| contains(**m))
        .map(|m| dims[m.index()].w)
        .collect();
    let max_self_width = self_widths.iter().copied().max().unwrap_or(0);

    // island width: two pair columns or the widest self-symmetric cell, with
    // the parity chosen so self-symmetric cells centre exactly on the axis
    let mut width = (2 * max_pair_width).max(max_self_width).max(1);
    if let Some(&w0) = self_widths.first() {
        if (width - w0).rem_euclid(2) != 0 {
            width += 1;
        }
    }
    let axis_x2 = width; // doubled axis coordinate
    let right_start = width / 2 + width % 2; // ceil(width / 2)

    let mut rects: Vec<(ModuleId, Rect)> = Vec::new();
    let mut pair_y: Coord = 0;
    for &(l, r) in group.pairs() {
        if !contains(l) || !contains(r) {
            continue;
        }
        let dl = dims[l.index()];
        let dr = dims[r.index()];
        let row_h = dl.h.max(dr.h);
        // right member left-aligned at the axis, left member its mirror
        let ry = pair_y + (row_h - dr.h) / 2;
        let right_rect = Rect::from_dims(Point::new(right_start, ry), dr);
        let ly = pair_y + (row_h - dl.h) / 2;
        let left_rect = Rect::from_dims(Point::new(axis_x2 - right_start - dl.w, ly), dl);
        rects.push((r, right_rect));
        rects.push((l, left_rect));
        pair_y += row_h;
    }
    // self-symmetric cells stacked above the pair rows, centred on the axis
    let mut self_y: Coord = pair_y;
    for &s in group.self_symmetric() {
        if !contains(s) {
            continue;
        }
        let ds = dims[s.index()];
        let sx = (width - ds.w) / 2;
        rects.push((s, Rect::from_dims(Point::new(sx, self_y), ds)));
        self_y += ds.h;
    }
    let height = self_y.max(pair_y);
    Some(IslandGeometry { members, dims: Dims::new(width, height.max(1)), rects })
}

/// Raises the lower bounds one symmetry group needs to become exactly
/// mirrored, reading current coordinates through `rect_of`. Shared by the
/// clone-free cold path ([`SymmetricPlacer`]) and the SoA hot evaluator so
/// the two legalisations cannot diverge.
pub(crate) fn tighten_group_with(
    group: &SymmetryGroup,
    dims: &[Dims],
    rect_of: impl Fn(ModuleId) -> Option<Rect>,
    bounds: &mut LowerBounds,
) -> bool {
    let mut changed = false;

    // --- vertical alignment of pair partners -------------------------
    for &(a, b) in group.pairs() {
        let (Some(ra), Some(rb)) = (rect_of(a), rect_of(b)) else { continue };
        let target_c2y = ra.center_x2().1.max(rb.center_x2().1);
        for (m, r) in [(a, ra), (b, rb)] {
            let h = r.height();
            // smallest y with 2y + h >= target, i.e. mirror-aligned centres
            let required_y = div_ceil(target_c2y - h, 2);
            if required_y > r.y_min {
                bounds.min_y[m.index()] = bounds.min_y[m.index()].max(required_y);
                changed = true;
            }
        }
    }

    // --- horizontal mirroring about a common axis --------------------
    // A is the doubled axis coordinate: pairs need c2x(p) + c2x(q) = 2A,
    // self-symmetric cells need c2x(s) = A.
    let mut required_a: Coord = 0;
    let mut have_any = false;
    for &(a, b) in group.pairs() {
        let (Some(ra), Some(rb)) = (rect_of(a), rect_of(b)) else { continue };
        required_a = required_a.max(div_ceil(ra.center_x2().0 + rb.center_x2().0, 2));
        have_any = true;
    }
    for &s in group.self_symmetric() {
        let Some(rs) = rect_of(s) else { continue };
        required_a = required_a.max(rs.center_x2().0);
        have_any = true;
    }
    if !have_any {
        return changed;
    }
    // Parity adjustment: self-symmetric cells need A ≡ w_s (mod 2); take
    // the first self-symmetric cell as the reference (mixed parities
    // cannot be exact on an integer grid and fall back to rounding).
    if let Some(&s) = group.self_symmetric().first() {
        let w = dims[s.index()].w;
        if (required_a - w).rem_euclid(2) != 0 {
            required_a += 1;
        }
    }

    for &(a, b) in group.pairs() {
        let (Some(ra), Some(rb)) = (rect_of(a), rect_of(b)) else { continue };
        // p is the left partner, q the right partner.
        let (p, rp, q, rq) =
            if ra.center_x2().0 <= rb.center_x2().0 { (a, ra, b, rb) } else { (b, rb, a, ra) };
        let _ = p;
        let wq = rq.width();
        let required_xq = div_ceil(2 * required_a - rp.center_x2().0 - wq, 2);
        if required_xq > rq.x_min {
            bounds.min_x[q.index()] = bounds.min_x[q.index()].max(required_xq);
            changed = true;
        }
    }
    for &s in group.self_symmetric() {
        let Some(rs) = rect_of(s) else { continue };
        let required_xs = div_ceil(required_a - rs.width(), 2);
        if required_xs > rs.x_min {
            bounds.min_x[s.index()] = bounds.min_x[s.index()].max(required_xs);
            changed = true;
        }
    }
    changed
}

/// Ceiling division for possibly-negative numerators with positive divisors.
pub(crate) fn div_ceil(value: Coord, divisor: Coord) -> Coord {
    debug_assert!(divisor > 0);
    value.div_euclid(divisor) + if value.rem_euclid(divisor) != 0 { 1 } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetry::{
        canonical_symmetric_feasible, is_symmetric_feasible_for_all, SymmetricMoveSet,
    };
    use apls_anneal::rng::SeededRng;
    use apls_circuit::benchmarks::{self, fig1_circuit};
    use apls_circuit::ModuleId;

    #[test]
    fn fig1_sequence_pair_builds_an_exact_symmetric_placement() {
        let (circuit, ids) = fig1_circuit();
        let alpha = vec![ids[4], ids[1], ids[0], ids[5], ids[2], ids[3], ids[6]];
        let beta = vec![ids[4], ids[1], ids[2], ids[3], ids[5], ids[0], ids[6]];
        let sp = SequencePair::from_sequences(alpha, beta).unwrap();
        let placer = SymmetricPlacer::new(&circuit.netlist, &circuit.constraints);
        let placement = placer.place(&sp);
        assert!(placement.is_complete());
        let metrics = placement.metrics(&circuit.netlist);
        assert_eq!(metrics.overlap_area, 0);
        assert_eq!(placement.symmetry_error(&circuit.constraints), 0);
    }

    #[test]
    fn canonical_encoding_of_fig1_is_symmetric_too() {
        let (circuit, ids) = fig1_circuit();
        let sp = canonical_symmetric_feasible(&ids, &circuit.constraints);
        let placer = SymmetricPlacer::new(&circuit.netlist, &circuit.constraints);
        let placement = placer.place(&sp);
        assert_eq!(placement.metrics(&circuit.netlist).overlap_area, 0);
        assert_eq!(placement.symmetry_error(&circuit.constraints), 0);
    }

    #[test]
    fn random_sf_encodings_stay_legal_and_symmetric() {
        let (circuit, ids) = fig1_circuit();
        let moves = SymmetricMoveSet::new(circuit.constraints.clone());
        let mut sp = canonical_symmetric_feasible(&ids, &circuit.constraints);
        let mut rng = SeededRng::new(2024);
        let placer = SymmetricPlacer::new(&circuit.netlist, &circuit.constraints);
        for step in 0..200 {
            moves.perturb(&mut sp, &mut rng);
            assert!(is_symmetric_feasible_for_all(&sp, &circuit.constraints));
            let placement = placer.place(&sp);
            let metrics = placement.metrics(&circuit.netlist);
            assert_eq!(metrics.overlap_area, 0, "overlap at step {step}: {sp}");
            assert_eq!(
                placement.symmetry_error(&circuit.constraints),
                0,
                "asymmetric at step {step}: {sp}"
            );
        }
    }

    #[test]
    fn benchmark_circuits_with_symmetry_groups_legalise_exactly() {
        let circuit = benchmarks::miller_v2();
        let ids: Vec<ModuleId> = circuit.netlist.module_ids().collect();
        let sp = canonical_symmetric_feasible(&ids, &circuit.constraints);
        let placer = SymmetricPlacer::new(&circuit.netlist, &circuit.constraints);
        let placement = placer.place(&sp);
        assert_eq!(placement.metrics(&circuit.netlist).overlap_area, 0);
        assert_eq!(placement.symmetry_error(&circuit.constraints), 0);
    }

    #[test]
    fn unconstrained_placement_is_legal_but_not_necessarily_symmetric() {
        let (circuit, ids) = fig1_circuit();
        let sp = canonical_symmetric_feasible(&ids, &circuit.constraints);
        let placer = SymmetricPlacer::new(&circuit.netlist, &circuit.constraints);
        let placement = placer.place_unconstrained(&sp);
        assert_eq!(placement.metrics(&circuit.netlist).overlap_area, 0);
    }

    #[test]
    fn symmetric_construction_stays_above_the_module_area_lower_bound() {
        let (circuit, ids) = fig1_circuit();
        let sp = canonical_symmetric_feasible(&ids, &circuit.constraints);
        let placer = SymmetricPlacer::new(&circuit.netlist, &circuit.constraints);
        let plain = placer.place_unconstrained(&sp).metrics(&circuit.netlist);
        let symmetric = placer.place(&sp).metrics(&circuit.netlist);
        let total = circuit.netlist.total_module_area();
        assert!(plain.bounding_area >= total);
        assert!(symmetric.bounding_area >= total);
        // the symmetric construction may rearrange the floorplan (symmetry
        // islands), but it must never blow up past a loose multiple of the
        // unconstrained packing
        assert!(symmetric.bounding_area <= 4 * plain.bounding_area);
    }

    #[test]
    fn island_construction_is_exact_even_for_crossed_encodings() {
        // the crossed-pair encoding that defeats the iterative legalisation
        // (two pairs of one group interleaved with free cells) must still come
        // out exactly symmetric via the island construction
        let mut netlist = Netlist::new("crossed");
        let mut ids = Vec::new();
        for i in 0..7 {
            ids.push(netlist.add_module(apls_circuit::Module::new(
                format!("M{i}"),
                apls_geometry::Dims::new(5, 5),
            )));
        }
        let mut constraints = ConstraintSet::new();
        constraints.add_symmetry_group(
            apls_circuit::SymmetryGroup::new("g")
                .with_pair(ids[0], ids[1])
                .with_pair(ids[2], ids[3]),
        );
        let order = vec![ids[1], ids[3], ids[2], ids[5], ids[4], ids[0], ids[6]];
        let sp = SequencePair::from_sequences(order.clone(), order).unwrap();
        let placer = SymmetricPlacer::new(&netlist, &constraints);
        let placement = placer.place(&sp);
        assert_eq!(placement.metrics(&netlist).overlap_area, 0);
        assert_eq!(placement.symmetry_error(&constraints), 0);
    }

    #[test]
    fn div_ceil_handles_negatives() {
        assert_eq!(div_ceil(5, 2), 3);
        assert_eq!(div_ceil(4, 2), 2);
        assert_eq!(div_ceil(-3, 2), -1);
        assert_eq!(div_ceil(-4, 2), -2);
        assert_eq!(div_ceil(0, 2), 0);
    }
}
