//! Packing a sequence-pair into coordinates.
//!
//! Two algorithms are provided:
//!
//! * [`pack_constraint_graph`] — the textbook O(n²) evaluation: build the
//!   horizontal and vertical constraint relations implied by the sequence-pair
//!   and compute longest paths;
//! * [`pack_lcs`] — the FAST-SP-style evaluation (Tang & Wong, reference \[26\]
//!   of the survey): x coordinates are a weighted longest-common-subsequence
//!   computation between α and β, y coordinates between reverse(α) and β. A
//!   Fenwick tree over β positions gives O(n log n).
//!
//! Both produce identical coordinates; the property tests in this crate assert
//! it and the `packing` Criterion bench compares their scaling (experiment E8
//! of DESIGN.md).

use crate::SequencePair;
use apls_circuit::ModuleId;
use apls_geometry::{Coord, Dims, Rect};

/// The result of packing a sequence-pair: one rectangle per module plus the
/// floorplan extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedFloorplan {
    rects: Vec<(ModuleId, Rect)>,
    /// Slot of each module id in `rects` (`u32::MAX` = not in the floorplan),
    /// so [`PackedFloorplan::rect_of`] is an O(1) table lookup instead of a
    /// linear scan.
    slots: Vec<u32>,
    width: Coord,
    height: Coord,
}

impl PackedFloorplan {
    /// Rectangles of all modules, in α order.
    #[must_use]
    pub fn rects(&self) -> &[(ModuleId, Rect)] {
        &self.rects
    }

    /// Rectangle of one module (O(1), indexed by [`ModuleId::index`]).
    #[must_use]
    pub fn rect_of(&self, module: ModuleId) -> Option<Rect> {
        match self.slots.get(module.index()) {
            Some(&s) if s != u32::MAX => Some(self.rects[s as usize].1),
            _ => None,
        }
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

    /// Floorplan bounding-box area.
    #[must_use]
    pub fn area(&self) -> i128 {
        i128::from(self.width) * i128::from(self.height)
    }
}

/// Looks up the footprint of a module by id.
///
/// The dimension table is indexed by [`ModuleId::index`]; the sequence-pair
/// packers require every module of the encoding to have an entry.
fn dims_of(dims: &[Dims], module: ModuleId) -> Dims {
    dims[module.index()]
}

/// O(n²) constraint-graph packing.
///
/// `x(b) = max over a left-of b of x(a) + w(a)`, evaluated in α order (which
/// is a topological order of the horizontal constraint graph); symmetrically
/// for y with the below relation, evaluated in reverse-α order.
#[must_use]
pub fn pack_constraint_graph(sp: &SequencePair, dims: &[Dims]) -> PackedFloorplan {
    pack_with_bounds_constraint_graph(sp, dims, &LowerBounds::empty(sp.len()))
}

/// O(n log n) weighted-LCS packing (FAST-SP).
#[must_use]
pub fn pack_lcs(sp: &SequencePair, dims: &[Dims]) -> PackedFloorplan {
    let n = sp.len();
    if n == 0 {
        return PackedFloorplan { rects: Vec::new(), slots: Vec::new(), width: 0, height: 0 };
    }
    // X coordinates: process modules in alpha order. x(m) = prefix maximum of
    // (x(a) + w(a)) over already-processed modules a with beta_pos(a) <
    // beta_pos(m). A Fenwick tree over beta positions stores the running
    // maxima.
    let mut x = vec![0 as Coord; dims.len()];
    let mut fenwick = MaxFenwick::new(n);
    for &m in sp.alpha() {
        let bp = sp.beta_position(m);
        let start = fenwick.prefix_max(bp); // strictly-before positions
        x[m.index()] = start;
        fenwick.update(bp, start + dims_of(dims, m).w);
    }
    // Y coordinates: process modules in reverse alpha order; a is below b iff
    // a follows b in alpha and precedes it in beta, so among already-processed
    // modules (those after m in alpha) the ones with smaller beta position are
    // below m... (they are below m ⇒ m sits on top of them).
    let mut y = vec![0 as Coord; dims.len()];
    let mut fenwick_y = MaxFenwick::new(n);
    for &m in sp.alpha().iter().rev() {
        let bp = sp.beta_position(m);
        let start = fenwick_y.prefix_max(bp);
        y[m.index()] = start;
        fenwick_y.update(bp, start + dims_of(dims, m).h);
    }

    build_floorplan(sp, dims, &x, &y)
}

/// Per-module lower bounds on the packed coordinates.
///
/// The symmetric placement construction (see [`crate::place`]) repacks a
/// sequence-pair while forcing some modules to the right/up so that symmetry
/// constraints are met; lower bounds express that without changing the
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerBounds {
    /// Minimum x of each module (indexed by module id index).
    pub min_x: Vec<Coord>,
    /// Minimum y of each module (indexed by module id index).
    pub min_y: Vec<Coord>,
}

impl LowerBounds {
    /// No additional bounds for `n` module-id slots.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        LowerBounds { min_x: vec![0; n], min_y: vec![0; n] }
    }

    /// Resizes the tables to cover at least `n` slots.
    pub fn ensure_len(&mut self, n: usize) {
        if self.min_x.len() < n {
            self.min_x.resize(n, 0);
            self.min_y.resize(n, 0);
        }
    }
}

/// Constraint-graph packing with per-module lower bounds.
#[must_use]
pub fn pack_with_bounds_constraint_graph(
    sp: &SequencePair,
    dims: &[Dims],
    bounds: &LowerBounds,
) -> PackedFloorplan {
    let n = sp.len();
    if n == 0 {
        return PackedFloorplan { rects: Vec::new(), slots: Vec::new(), width: 0, height: 0 };
    }
    let mut x = vec![0 as Coord; dims.len()];
    let mut y = vec![0 as Coord; dims.len()];

    // Horizontal: alpha order is a topological order of the left-of DAG.
    let alpha = sp.alpha();
    for (i, &b) in alpha.iter().enumerate() {
        let mut best = bounds.min_x.get(b.index()).copied().unwrap_or(0);
        for &a in &alpha[..i] {
            if sp.is_left_of(a, b) {
                best = best.max(x[a.index()] + dims_of(dims, a).w);
            }
        }
        x[b.index()] = best;
    }
    // Vertical: reverse alpha order is a topological order of the below DAG
    // (a below b ⇒ a after b in alpha).
    for (i, &b) in alpha.iter().enumerate().rev() {
        let mut best = bounds.min_y.get(b.index()).copied().unwrap_or(0);
        for &a in &alpha[i + 1..] {
            if sp.is_below(a, b) {
                best = best.max(y[a.index()] + dims_of(dims, a).h);
            }
        }
        y[b.index()] = best;
    }

    build_floorplan(sp, dims, &x, &y)
}

/// Weighted-LCS packing with per-module lower bounds.
///
/// Identical recurrence to [`pack_with_bounds_constraint_graph`]: the Fenwick
/// prefix maximum equals the maximum of `x(a) + w(a)` over all left-of
/// predecessors (modules earlier in both α and β), and the lower bound enters
/// the same `max`. Coordinates are therefore equal module-by-module; the
/// property tests assert it.
#[must_use]
pub fn pack_with_bounds_lcs(
    sp: &SequencePair,
    dims: &[Dims],
    bounds: &LowerBounds,
) -> PackedFloorplan {
    let n = sp.len();
    if n == 0 {
        return PackedFloorplan { rects: Vec::new(), slots: Vec::new(), width: 0, height: 0 };
    }
    let mut x = vec![0 as Coord; dims.len()];
    let mut fenwick = MaxFenwick::new(n);
    for &m in sp.alpha() {
        let bp = sp.beta_position(m);
        let bound = bounds.min_x.get(m.index()).copied().unwrap_or(0);
        let start = bound.max(fenwick.prefix_max(bp));
        x[m.index()] = start;
        fenwick.update(bp, start + dims_of(dims, m).w);
    }
    let mut y = vec![0 as Coord; dims.len()];
    let mut fenwick_y = MaxFenwick::new(n);
    for &m in sp.alpha().iter().rev() {
        let bp = sp.beta_position(m);
        let bound = bounds.min_y.get(m.index()).copied().unwrap_or(0);
        let start = bound.max(fenwick_y.prefix_max(bp));
        y[m.index()] = start;
        fenwick_y.update(bp, start + dims_of(dims, m).h);
    }

    build_floorplan(sp, dims, &x, &y)
}

fn build_floorplan(sp: &SequencePair, dims: &[Dims], x: &[Coord], y: &[Coord]) -> PackedFloorplan {
    let mut rects = Vec::with_capacity(sp.len());
    let mut slots = vec![u32::MAX; dims.len()];
    let mut width = 0;
    let mut height = 0;
    for &m in sp.alpha() {
        let d = dims_of(dims, m);
        let r = Rect::new(x[m.index()], y[m.index()], x[m.index()] + d.w, y[m.index()] + d.h);
        width = width.max(r.x_max);
        height = height.max(r.y_max);
        slots[m.index()] = u32::try_from(rects.len()).expect("module count fits in u32");
        rects.push((m, r));
    }
    PackedFloorplan { rects, slots, width, height }
}

/// Fenwick (binary indexed) tree over sequence positions storing prefix
/// maxima. Supports "maximum over positions strictly smaller than p" queries
/// and point updates that only ever increase values, which is exactly what the
/// weighted-LCS packing needs.
#[derive(Debug, Clone)]
pub(crate) struct MaxFenwick {
    tree: Vec<Coord>,
}

impl MaxFenwick {
    pub(crate) fn new(n: usize) -> Self {
        MaxFenwick { tree: vec![0; n + 1] }
    }

    /// Maximum over positions `0..p` (strictly before `p`), 0 when empty.
    pub(crate) fn prefix_max(&self, p: usize) -> Coord {
        let mut i = p; // 1-based internal indexing: positions 1..=p map to prefix of length p
        let mut best = 0;
        while i > 0 {
            best = best.max(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        best
    }

    /// Raises the value stored at position `p` (0-based) to at least `value`.
    pub(crate) fn update(&mut self, p: usize, value: Coord) {
        let mut i = p + 1;
        while i < self.tree.len() {
            if self.tree[i] < value {
                self.tree[i] = value;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Rebuilds the tree from one value per 0-based position (0 = no entry)
    /// in O(n), reusing the allocation. Equivalent to `new(n)` followed by
    /// `update(p, values[p])` for every position.
    pub(crate) fn rebuild_from(&mut self, values: &[Coord]) {
        let n = values.len();
        self.tree.clear();
        self.tree.resize(n + 1, 0);
        for (p, &v) in values.iter().enumerate() {
            if self.tree[p + 1] < v {
                self.tree[p + 1] = v;
            }
        }
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n && self.tree[parent] < self.tree[i] {
                self.tree[parent] = self.tree[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_geometry::total_overlap_area;

    fn id(i: usize) -> ModuleId {
        ModuleId::from_index(i)
    }

    fn square_dims(n: usize, side: Coord) -> Vec<Dims> {
        vec![Dims::new(side, side); n]
    }

    /// Both packers, named for assertion messages.
    type Packer = fn(&SequencePair, &[Dims]) -> PackedFloorplan;
    const PACKERS: [(&str, Packer); 2] =
        [("constraint graph", pack_constraint_graph), ("weighted LCS", pack_lcs)];

    #[test]
    fn identity_packs_into_a_row() {
        let sp = SequencePair::identity((0..3).map(id).collect());
        let dims = vec![Dims::new(10, 5), Dims::new(20, 8), Dims::new(5, 3)];
        for (_, pack) in PACKERS {
            let fp = pack(&sp, &dims);
            assert_eq!(fp.width(), 35);
            assert_eq!(fp.height(), 8);
            assert_eq!(fp.rect_of(id(0)).unwrap().origin().x, 0);
            assert_eq!(fp.rect_of(id(1)).unwrap().origin().x, 10);
            assert_eq!(fp.rect_of(id(2)).unwrap().origin().x, 30);
        }
    }

    #[test]
    fn reversed_alpha_packs_into_a_column() {
        // alpha: 2 1 0, beta: 0 1 2 => 0 below 1 below 2
        let sp = SequencePair::from_sequences(vec![id(2), id(1), id(0)], vec![id(0), id(1), id(2)])
            .unwrap();
        let dims = square_dims(3, 10);
        let fp = pack_lcs(&sp, &dims);
        assert_eq!(fp.width(), 10);
        assert_eq!(fp.height(), 30);
    }

    #[test]
    fn packing_is_overlap_free() {
        let sp = SequencePair::from_sequences(
            vec![id(4), id(1), id(0), id(5), id(2), id(3), id(6)],
            vec![id(4), id(1), id(2), id(3), id(5), id(0), id(6)],
        )
        .unwrap();
        let dims = vec![
            Dims::new(40, 30),
            Dims::new(30, 50),
            Dims::new(35, 25),
            Dims::new(35, 25),
            Dims::new(45, 70),
            Dims::new(50, 20),
            Dims::new(30, 50),
        ];
        for (name, pack) in PACKERS {
            let fp = pack(&sp, &dims);
            let rects: Vec<Rect> = fp.rects().iter().map(|(_, r)| *r).collect();
            assert_eq!(total_overlap_area(&rects), 0, "{name}");
        }
    }

    #[test]
    fn both_algorithms_agree() {
        // a small pseudo-random stress over fixed permutations
        let perms: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![0, 1, 2, 3, 4], vec![4, 3, 2, 1, 0]),
            (vec![2, 0, 4, 1, 3], vec![0, 1, 2, 3, 4]),
            (vec![3, 1, 4, 0, 2], vec![1, 3, 0, 2, 4]),
        ];
        let dims = vec![
            Dims::new(12, 7),
            Dims::new(5, 20),
            Dims::new(9, 9),
            Dims::new(16, 4),
            Dims::new(3, 14),
        ];
        for (a, b) in perms {
            let sp = SequencePair::from_sequences(
                a.into_iter().map(id).collect(),
                b.into_iter().map(id).collect(),
            )
            .unwrap();
            let cg = pack_constraint_graph(&sp, &dims);
            let lcs = pack_lcs(&sp, &dims);
            assert_eq!(cg, lcs, "{sp}");
        }
    }

    #[test]
    fn lower_bounds_push_modules_right() {
        let sp = SequencePair::identity((0..2).map(id).collect());
        let dims = square_dims(2, 10);
        let mut bounds = LowerBounds::empty(2);
        bounds.min_x[1] = 50;
        let fp = pack_with_bounds_constraint_graph(&sp, &dims, &bounds);
        assert_eq!(fp.rect_of(id(1)).unwrap().origin().x, 50);
        assert_eq!(fp.width(), 60);
    }

    #[test]
    fn empty_pair_packs_to_nothing() {
        let sp = SequencePair::identity(vec![]);
        let fp = pack_lcs(&sp, &[]);
        assert_eq!(fp.width(), 0);
        assert_eq!(fp.height(), 0);
        assert!(fp.rects().is_empty());
    }

    #[test]
    fn area_is_width_times_height() {
        let sp = SequencePair::identity((0..4).map(id).collect());
        let dims = square_dims(4, 25);
        let fp = pack_lcs(&sp, &dims);
        assert_eq!(fp.area(), i128::from(fp.width()) * i128::from(fp.height()));
    }

    #[test]
    fn bounded_lcs_matches_bounded_constraint_graph() {
        let perms: Vec<(Vec<usize>, Vec<usize>)> = vec![
            (vec![0, 1, 2, 3, 4], vec![4, 3, 2, 1, 0]),
            (vec![2, 0, 4, 1, 3], vec![0, 1, 2, 3, 4]),
            (vec![3, 1, 4, 0, 2], vec![1, 3, 0, 2, 4]),
        ];
        let dims = vec![
            Dims::new(12, 7),
            Dims::new(5, 20),
            Dims::new(9, 9),
            Dims::new(16, 4),
            Dims::new(3, 14),
        ];
        let mut bounds = LowerBounds::empty(5);
        bounds.min_x[1] = 40;
        bounds.min_x[3] = 7;
        bounds.min_y[0] = 13;
        bounds.min_y[4] = 22;
        for (a, b) in perms {
            let sp = SequencePair::from_sequences(
                a.into_iter().map(id).collect(),
                b.into_iter().map(id).collect(),
            )
            .unwrap();
            let cg = pack_with_bounds_constraint_graph(&sp, &dims, &bounds);
            let lcs = pack_with_bounds_lcs(&sp, &dims, &bounds);
            assert_eq!(cg, lcs, "{sp}");
        }
    }

    #[test]
    fn fenwick_rebuild_matches_incremental_updates() {
        let values = [0, 5, 0, 12, 3, 0, 7, 9];
        let mut incremental = MaxFenwick::new(values.len());
        for (p, &v) in values.iter().enumerate() {
            incremental.update(p, v);
        }
        let mut rebuilt = MaxFenwick::new(0);
        rebuilt.rebuild_from(&values);
        for p in 0..=values.len() {
            assert_eq!(rebuilt.prefix_max(p), incremental.prefix_max(p), "prefix {p}");
        }
    }

    #[test]
    fn fenwick_prefix_max_behaviour() {
        let mut f = MaxFenwick::new(8);
        assert_eq!(f.prefix_max(8), 0);
        f.update(3, 10);
        assert_eq!(f.prefix_max(3), 0); // strictly before position 3
        assert_eq!(f.prefix_max(4), 10);
        f.update(0, 4);
        assert_eq!(f.prefix_max(1), 4);
        f.update(7, 99);
        assert_eq!(f.prefix_max(8), 99);
        assert_eq!(f.prefix_max(7), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    type BoundedCase = (Vec<Dims>, Vec<ModuleId>, Vec<ModuleId>, Vec<(Coord, Coord)>);

    fn arb_bounded_case() -> impl Strategy<Value = BoundedCase> {
        (1usize..40).prop_flat_map(|n| {
            let perm = || {
                Just((0..n).collect::<Vec<usize>>())
                    .prop_shuffle()
                    .prop_map(|v| v.into_iter().map(ModuleId::from_index).collect::<Vec<_>>())
            };
            (
                proptest::collection::vec((1i64..50, 1i64..50), n)
                    .prop_map(|v| v.into_iter().map(|(w, h)| Dims::new(w, h)).collect()),
                perm(),
                perm(),
                proptest::collection::vec((0i64..4, 0i64..120, 0i64..120), n).prop_map(|v| {
                    // most modules keep a zero bound, as in the symmetric
                    // legalisation, where only group members are raised
                    v.into_iter()
                        .map(|(raise, x, y)| if raise == 0 { (x, y) } else { (0, 0) })
                        .collect()
                }),
            )
        })
    }

    proptest! {
        /// Lower bounds only push modules right and up while every left-of
        /// and below constraint of the encoding is still enforced, so a
        /// bounded pack is never narrower nor shorter than the plain pack.
        /// The hot evaluator's islands-first shortcut rests on this.
        #[test]
        fn bounded_pack_is_never_narrower_or_shorter_than_the_plain_pack(
            (dims, alpha, beta, raised) in arb_bounded_case()
        ) {
            let sp = SequencePair::from_sequences(alpha, beta).expect("same module set");
            let mut bounds = LowerBounds::empty(dims.len());
            for (i, &(x, y)) in raised.iter().enumerate() {
                bounds.min_x[i] = x;
                bounds.min_y[i] = y;
            }
            let plain = pack_lcs(&sp, &dims);
            let bounded = pack_with_bounds_lcs(&sp, &dims, &bounds);
            prop_assert!(bounded.width() >= plain.width(), "{} vs {} for {}", bounded.width(), plain.width(), sp);
            prop_assert!(bounded.height() >= plain.height(), "{} vs {} for {}", bounded.height(), plain.height(), sp);
        }
    }
}
