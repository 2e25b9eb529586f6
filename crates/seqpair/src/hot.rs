//! The incremental sequence-pair evaluation hot path.
//!
//! [`HotSpEval`] reproduces the cost that [`crate::place::SymmetricPlacer`]
//! plus [`apls_circuit::Placement::hot_cost`] compute for a sequence-pair
//! — bit-identically — without building a [`apls_circuit::Placement`], a
//! [`crate::pack::PackedFloorplan`], or any other per-move allocation:
//!
//! * coordinates live in flat SoA `Vec<Coord>` arrays (one per axis, indexed
//!   by module), so the full legalisation sweeps are simple linear loops over
//!   primitive arrays that the optimiser can vectorise;
//! * the *base pack* (weighted-LCS, FAST-SP) is evaluated **incrementally**:
//!   a local move (swap / position swap) touches at most a handful of α
//!   positions, so the x sweep is replayed only from the smallest touched α
//!   position and the y sweep only up to the largest one, with the prefix
//!   state rebuilt in O(n) from the cached per-step insertions of the
//!   committed evaluation. A move with no undo record (or an invalidated
//!   cache) falls back to the full sweep — the same code path with the
//!   resweep window widened to the whole sequence;
//! * the symmetry legalisation replays the exact iterative-tightening /
//!   symmetry-island decision of `SymmetricPlacer::place`, sharing its
//!   kernels ([`crate::place::tighten_group_with`],
//!   [`crate::place::island_geometry`]) so the two code paths cannot drift;
//!   island internal geometry (and its local bounding box) is computed once
//!   per run and cached, the island area is computed first and skips the
//!   iterative tightening whenever that construction cannot win, bounded
//!   repacks replay only the α window a tightening pass can change, and the
//!   per-member island assembly is deferred until a move actually selects
//!   the island construction;
//! * wirelength is evaluated through [`DeltaCost`], which recomputes only
//!   the nets incident to modules whose final coordinates actually changed.
//!
//! The committed/proposal sweep caches are double-buffered: `commit` is a
//! buffer swap, rejection simply discards the proposal buffer (plus a
//! [`DeltaCost::undo`]), so rollback is O(touched nets).

use crate::anneal::SymmetryMode;
use crate::pack::{LowerBounds, MaxFenwick};
use crate::place::{island_geometry, tighten_group_with, IslandGeometry};
use crate::SequencePair;
use apls_circuit::{ConstraintSet, DeltaCost, ModuleId, NetAdjacency};
use apls_geometry::{Coord, Dims, Rect};
use apls_telemetry::{event, Telemetry};

/// Per-step state of the committed (or proposed) weighted-LCS sweeps, cached
/// so the next move can replay only the affected window.
#[derive(Debug, Clone, Default)]
struct SweepCache {
    /// β position of the module at α position `k` (at sweep time).
    bp: Vec<usize>,
    /// Value inserted into the x prefix structure at step `k` (`x + w`).
    vx: Vec<Coord>,
    /// Value inserted into the y prefix structure at step `k` of the reverse
    /// sweep (`y + h`).
    vy: Vec<Coord>,
    /// Base-pack coordinates, by module index.
    x0: Vec<Coord>,
    y0: Vec<Coord>,
}

impl SweepCache {
    fn ensure_len(&mut self, n: usize) {
        self.bp.resize(n, 0);
        self.vx.resize(n, 0);
        self.vy.resize(n, 0);
        self.x0.resize(n, 0);
        self.y0.resize(n, 0);
    }

    fn copy_from(&mut self, other: &SweepCache) {
        self.bp.clear();
        self.bp.extend_from_slice(&other.bp);
        self.vx.clear();
        self.vx.extend_from_slice(&other.vx);
        self.vy.clear();
        self.vy.extend_from_slice(&other.vy);
        self.x0.clear();
        self.x0.extend_from_slice(&other.x0);
        self.y0.clear();
        self.y0.extend_from_slice(&other.y0);
    }
}

/// Prefix-max structure for the weighted-LCS sweeps.
///
/// Coordinates are defined by the recurrence alone, so the structure is free
/// to pick whichever implementation is fastest: a flat array with linear
/// prefix scans for small sequences, and a [`MaxFenwick`] above
/// [`SweepMax::LINEAR_MAX`] for the O(n log n) asymptotics. With a Fenwick
/// tree behind the sweep, `vals` only stages the seeded prefix for the O(n)
/// rebuild; updates go to the tree alone.
#[derive(Debug, Clone)]
struct SweepMax {
    vals: Vec<Coord>,
    fenwick: Option<MaxFenwick>,
}

impl SweepMax {
    /// Largest sequence length packed with linear prefix scans.
    ///
    /// The linear `i64` max scan does not vectorise at the baseline x86-64
    /// target (SSE2 has no 64-bit compare), so the Fenwick tree wins early.
    /// Full-schedule seqpair restarts (seed 7, medians of interleaved runs on
    /// a 2-vCPU x86-64 host), this crossover against 64: buffer (46 modules)
    /// 25% faster, folded_cascode (22) 6% faster; against a Fenwick-only
    /// sweep the linear scan was as fast or faster at 9–13 modules
    /// (miller_v2 7% faster).
    const LINEAR_MAX: usize = 16;

    fn new(n: usize) -> Self {
        SweepMax { vals: vec![0; n], fenwick: (n > Self::LINEAR_MAX).then(|| MaxFenwick::new(n)) }
    }

    /// Starts a sweep over `n` positions with every prefix value zero.
    /// Positions may then be seeded via [`SweepMax::seed`]; call
    /// [`SweepMax::finish_seeding`] before the first query.
    fn begin(&mut self, n: usize) {
        self.vals.clear();
        self.vals.resize(n, 0);
    }

    /// Restores the cached insertion `v` at position `p` (bulk prefix replay).
    fn seed(&mut self, p: usize, v: Coord) {
        self.vals[p] = v;
    }

    fn finish_seeding(&mut self) {
        if let Some(f) = &mut self.fenwick {
            f.rebuild_from(&self.vals);
        }
    }

    /// Max over positions `[0, p)`, 0 when empty.
    fn prefix_max(&self, p: usize) -> Coord {
        match &self.fenwick {
            Some(f) => f.prefix_max(p),
            None => self.vals[..p].iter().copied().max().unwrap_or(0),
        }
    }

    fn update(&mut self, p: usize, v: Coord) {
        match &mut self.fenwick {
            Some(f) => f.update(p, v),
            None => {
                let slot = &mut self.vals[p];
                if v > *slot {
                    *slot = v;
                }
            }
        }
    }
}

/// Observe-only tallies of the symmetric legalisation, reported as one
/// `seqpair/legalise` telemetry event per run. They never feed back into an
/// evaluation.
#[derive(Debug, Clone, Default)]
pub(crate) struct LegaliseCounters {
    /// [`HotSpEval::bound`] calls: the initial state plus one per proposal,
    /// early-rejected proposals included (they stop after the bound).
    pub(crate) evaluations: u64,
    /// Evaluations settled by the island area alone, before any tightening.
    pub(crate) island_shortcuts: u64,
    /// Bounded repacks run by the iterative tightening.
    pub(crate) bounded_repacks: u64,
    /// α steps those repacks replayed (both axes).
    pub(crate) replayed_steps: u64,
    /// α steps whole-sequence repacks would have swept (`2n` per repack).
    pub(crate) full_steps: u64,
}

impl LegaliseCounters {
    /// Reads the counters back from the one `seqpair/legalise` event of a
    /// recorded run.
    #[cfg(test)]
    pub(crate) fn from_trace(events: &[apls_telemetry::TraceEvent]) -> Self {
        let found: Vec<_> =
            events.iter().filter(|e| e.cat == "seqpair" && e.name == "legalise").collect();
        assert_eq!(found.len(), 1, "exactly one seqpair/legalise event per run");
        let arg = |key: &str| match found[0].args.iter().find(|(k, _)| k == key) {
            Some((_, apls_telemetry::Value::U64(v))) => *v,
            other => panic!("legalise event argument {key}: {other:?}"),
        };
        LegaliseCounters {
            evaluations: arg("evaluations"),
            island_shortcuts: arg("island_shortcuts"),
            bounded_repacks: arg("bounded_repacks"),
            replayed_steps: arg("replayed_steps"),
            full_steps: arg("full_steps"),
        }
    }

    /// Adds another evaluator's tallies (the replicas of a tempering run).
    pub(crate) fn add(&mut self, other: &LegaliseCounters) {
        self.evaluations += other.evaluations;
        self.island_shortcuts += other.island_shortcuts;
        self.bounded_repacks += other.bounded_repacks;
        self.replayed_steps += other.replayed_steps;
        self.full_steps += other.full_steps;
    }

    /// Emits the `seqpair/legalise` instant event (nothing when disabled).
    pub(crate) fn emit(&self, telemetry: &Telemetry) {
        event!(
            telemetry,
            "seqpair",
            "legalise",
            evaluations = self.evaluations,
            island_shortcuts = self.island_shortcuts,
            bounded_repacks = self.bounded_repacks,
            replayed_steps = self.replayed_steps,
            full_steps = self.full_steps,
        );
    }
}

/// Allocation-free, incrementally updated evaluator for the sequence-pair
/// annealing loop.
#[derive(Debug, Clone)]
pub(crate) struct HotSpEval<'a> {
    constraints: &'a ConstraintSet,
    dims: Vec<Dims>,
    n: usize,
    max_iterations: usize,
    mode: SymmetryMode,
    wirelength_weight: f64,
    delta: DeltaCost,

    cur: SweepCache,
    prop: SweepCache,
    cache_valid: bool,

    sweep: SweepMax,

    // iterative-legalisation scratch: coordinates by module, and the value
    // each α step of the latest bounded repack inserted into the prefix
    // structure (`x + w`, and `y + h` for the reverse sweep)
    bounds: LowerBounds,
    xi: Vec<Coord>,
    yi: Vec<Coord>,
    rx: Vec<Coord>,
    ry: Vec<Coord>,
    /// Legalisation tallies accumulated so far.
    pub(crate) counters: LegaliseCounters,

    // symmetry islands: geometry cached per run (it only depends on the
    // groups, the dims and the member set, never on the encoding order)
    islands: Vec<IslandGeometry>,
    /// Local bounding box of each island's member rectangles.
    island_bbox: Vec<Rect>,
    module_to_island: Vec<Option<u32>>,
    reps: Vec<ModuleId>,
    outer_alpha: Vec<ModuleId>,
    outer_beta: Vec<ModuleId>,
    outer_beta_pos: Vec<usize>,
    outer_dims: Vec<Dims>,
    seen: Vec<bool>,
    ox: Vec<Coord>,
    oy: Vec<Coord>,
    // final (post-decision) coordinates of the open proposal
    fx: Vec<Coord>,
    fy: Vec<Coord>,
    /// What [`HotSpEval::bound`] computed for the open proposal, until
    /// [`HotSpEval::finish`] or `rollback` consumes it.
    pending: Option<Bounded>,
}

/// The base-pack extent of the open proposal and, in exact mode with
/// islands, the area of its island construction (whose outer pack then
/// sits in `ox`/`oy`).
#[derive(Debug, Clone, Copy)]
struct Bounded {
    plain_width: Coord,
    plain_height: Coord,
    islands_area: Option<i128>,
}

impl<'a> HotSpEval<'a> {
    pub(crate) fn new(
        constraints: &'a ConstraintSet,
        dims: Vec<Dims>,
        adjacency: NetAdjacency,
        initial_sp: &SequencePair,
        mode: SymmetryMode,
        wirelength_weight: f64,
    ) -> Self {
        let n = dims.len();
        let max_iterations = 3 * n + 20;
        let mut islands = Vec::new();
        let mut island_bbox = Vec::new();
        let mut module_to_island: Vec<Option<u32>> = vec![None; n];
        for group in constraints.symmetry_groups() {
            let Some(geometry) = island_geometry(group, &dims, |m| initial_sp.contains(m)) else {
                continue;
            };
            let gi = u32::try_from(islands.len()).expect("island count fits in u32");
            for &m in &geometry.members {
                module_to_island[m.index()] = Some(gi);
            }
            let mut bbox = geometry.rects[0].1;
            for &(_, r) in &geometry.rects[1..] {
                bbox = bbox.union(&r);
            }
            island_bbox.push(bbox);
            islands.push(geometry);
        }
        let island_count = islands.len();
        HotSpEval {
            constraints,
            delta: DeltaCost::new(adjacency, n),
            n,
            max_iterations,
            mode,
            wirelength_weight,
            cur: SweepCache::default(),
            prop: SweepCache::default(),
            cache_valid: false,
            sweep: SweepMax::new(n),
            bounds: LowerBounds::empty(n),
            xi: vec![0; n],
            yi: vec![0; n],
            rx: vec![0; n],
            ry: vec![0; n],
            counters: LegaliseCounters::default(),
            islands,
            island_bbox,
            module_to_island,
            reps: vec![ModuleId::from_index(0); island_count],
            outer_alpha: Vec::with_capacity(n),
            outer_beta: Vec::with_capacity(n),
            outer_beta_pos: vec![usize::MAX; n],
            outer_dims: dims.clone(),
            seen: vec![false; island_count],
            ox: vec![0; n],
            oy: vec![0; n],
            fx: vec![0; n],
            fy: vec![0; n],
            pending: None,
            dims,
        }
    }

    /// Evaluates one proposal: [`HotSpEval::bound`], then
    /// [`HotSpEval::finish`]. `touched` lists the modules whose α/β
    /// positions may have changed since the last *committed* evaluation
    /// (duplicates allowed); pass `None` to force a full resweep.
    pub(crate) fn evaluate(&mut self, sp: &SequencePair, touched: Option<&[ModuleId]>) -> f64 {
        self.bound(sp, touched);
        self.finish(sp)
    }

    /// Whether [`HotSpEval::bound`] ran for the open proposal and
    /// [`HotSpEval::finish`] has not yet consumed it.
    pub(crate) fn has_bound(&self) -> bool {
        self.pending.is_some()
    }

    /// First half of an evaluation: the base pack (incrementally resweeped,
    /// see [`HotSpEval::evaluate`] for `touched`) and, in exact mode with
    /// islands, the island construction's outer pack. Returns a lower bound
    /// on the cost [`HotSpEval::finish`] will compute, for early rejection:
    /// `min(base area, island area)`, or `-inf` in penalty mode, with a
    /// negative wirelength weight, or for an empty circuit.
    ///
    /// The bound is exact: the final area is either the island area or an
    /// iterative area, and a bounded repack still enforces every left-of and
    /// below relation, so the iterative area is at least the base area (see
    /// [`HotSpEval::legalise`]). The cost adds `w * wirelength` with
    /// `w >= 0` to that area, and f64 rounding is monotone.
    pub(crate) fn bound(&mut self, sp: &SequencePair, touched: Option<&[ModuleId]>) -> f64 {
        let n = self.n;
        debug_assert_eq!(sp.len(), n);
        self.counters.evaluations += 1;
        if n == 0 {
            self.pending = Some(Bounded { plain_width: 0, plain_height: 0, islands_area: None });
            return f64::NEG_INFINITY;
        }
        self.cur.ensure_len(n);
        self.prop.copy_from(&self.cur);

        // --- 1. base pack, incrementally resweeped --------------------------
        let window = match touched {
            Some(t) if self.cache_valid => {
                let mut lo = n;
                let mut hi = 0usize;
                for &m in t {
                    let p = sp.alpha_position(m);
                    lo = lo.min(p);
                    hi = hi.max(p);
                }
                if lo == n {
                    None // no-op move: the committed sweeps are still exact
                } else {
                    Some((lo, hi))
                }
            }
            _ => Some((0, n - 1)),
        };
        if let Some((s_min, s_max)) = window {
            let alpha = sp.alpha();
            // x sweep, replayed from s_min: restore the prefix state from the
            // cached insertions of steps 0..s_min in O(n).
            self.sweep.begin(n);
            for k in 0..s_min {
                self.sweep.seed(self.prop.bp[k], self.prop.vx[k]);
            }
            self.sweep.finish_seeding();
            for (k, &m) in alpha.iter().enumerate().skip(s_min) {
                let i = m.index();
                let bp = sp.beta_position(m);
                let start = self.sweep.prefix_max(bp);
                self.prop.x0[i] = start;
                self.prop.bp[k] = bp;
                self.prop.vx[k] = start + self.dims[i].w;
                self.sweep.update(bp, self.prop.vx[k]);
            }
            // y sweep runs in reverse α order, so its unchanged prefix is the
            // suffix s_max+1..n; replay down from s_max.
            self.sweep.begin(n);
            for k in (s_max + 1)..n {
                self.sweep.seed(self.prop.bp[k], self.prop.vy[k]);
            }
            self.sweep.finish_seeding();
            for k in (0..=s_max).rev() {
                let m = alpha[k];
                let i = m.index();
                let bp = self.prop.bp[k];
                let start = self.sweep.prefix_max(bp);
                self.prop.y0[i] = start;
                self.prop.vy[k] = start + self.dims[i].h;
                self.sweep.update(bp, self.prop.vy[k]);
            }
        }

        let mut plain_width: Coord = 0;
        let mut plain_height: Coord = 0;
        for &m in sp.alpha() {
            let i = m.index();
            plain_width = plain_width.max(self.prop.x0[i] + self.dims[i].w);
            plain_height = plain_height.max(self.prop.y0[i] + self.dims[i].h);
        }

        let islands_area = (matches!(self.mode, SymmetryMode::Exact) && !self.islands.is_empty())
            .then(|| {
                self.build_outer(sp);
                self.islands_bbox_area()
            });
        self.pending = Some(Bounded { plain_width, plain_height, islands_area });
        if matches!(self.mode, SymmetryMode::Exact) && self.wirelength_weight >= 0.0 {
            let base_area = i128::from(plain_width) * i128::from(plain_height);
            islands_area.map_or(base_area, |islands| islands.min(base_area)) as f64
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Second half of an evaluation: symmetry legalisation, the decision and
    /// the wirelength, reusing what [`HotSpEval::bound`] computed for the
    /// same proposal. Returns the cost.
    ///
    /// # Panics
    ///
    /// Panics unless `bound` ran for the open proposal.
    pub(crate) fn finish(&mut self, sp: &SequencePair) -> f64 {
        let Bounded { plain_width, plain_height, islands_area } =
            self.pending.take().expect("finish follows bound");
        if self.n == 0 {
            self.delta.begin();
            let wl = self.delta.total();
            self.finish_initial_if_needed();
            return self.wirelength_weight * wl;
        }
        let cost = match (self.mode, islands_area) {
            (SymmetryMode::Penalty { weight }, _) => {
                self.fx.copy_from_slice(&self.prop.x0);
                self.fy.copy_from_slice(&self.prop.y0);
                let err = self.symmetry_error_of(sp, SymmetrySource::Final);
                self.hot_cost(sp) + weight * err as f64
            }
            (SymmetryMode::Exact, None) => {
                // No populated symmetry group: the first tightening pass
                // changes nothing, and the island construction reduces to
                // the identical plain packing, so the decision always keeps
                // the base coordinates.
                self.fx.copy_from_slice(&self.prop.x0);
                self.fy.copy_from_slice(&self.prop.y0);
                self.hot_cost(sp)
            }
            (SymmetryMode::Exact, Some(islands_area)) => {
                self.legalise(sp, plain_width, plain_height, islands_area);
                self.hot_cost(sp)
            }
        };
        self.finish_initial_if_needed();
        cost
    }

    /// Accepts the open proposal: the proposal sweep cache becomes the
    /// committed one and the wirelength journal is dropped.
    pub(crate) fn commit(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.prop);
        self.delta.commit();
    }

    /// Rejects the open proposal: the wirelength caches roll back from the
    /// journal; the proposal sweep buffer is simply abandoned.
    pub(crate) fn rollback(&mut self) {
        self.pending = None;
        self.delta.undo();
    }

    /// The very first evaluation scores the *current* state, not a proposal:
    /// promote it to committed immediately (the annealing driver only calls
    /// `commit`/`rollback` for proposals).
    fn finish_initial_if_needed(&mut self) {
        if !self.cache_valid {
            std::mem::swap(&mut self.cur, &mut self.prop);
            self.delta.commit();
            self.cache_valid = true;
        }
    }

    /// Replays `SymmetricPlacer::place` exactly: iterative tightening with
    /// bounded repacks, divergence guard, island fallback, compactness
    /// decision. Leaves the chosen coordinates in `fx`/`fy`.
    ///
    /// The island construction ran first, in [`HotSpEval::bound`], because
    /// its area (`islands_area`, with the outer pack in `ox`/`oy`) alone often
    /// settles the decision: the base pack spans `[0, plain_width] ×
    /// [0, plain_height]` (its first α module sits at x = 0, its last at
    /// y = 0), and every bounded repack still enforces each left-of and below
    /// relation, so along the base pack's longest chains any iterative result
    /// spans at least that width and height. When the islands are strictly
    /// smaller than the base pack, the iterative construction cannot win and
    /// is skipped.
    fn legalise(
        &mut self,
        sp: &SequencePair,
        plain_width: Coord,
        plain_height: Coord,
        islands_area: i128,
    ) {
        let n = self.n;
        let base_area = i128::from(plain_width) * i128::from(plain_height);
        if islands_area < base_area {
            self.counters.island_shortcuts += 1;
            self.assemble_islands();
            return;
        }

        // iterative legalisation from the base pack, whose per-step
        // insertions seed the first bounded repack
        self.bounds.min_x.clear();
        self.bounds.min_x.resize(self.dims.len(), 0);
        self.bounds.min_y.clear();
        self.bounds.min_y.resize(self.dims.len(), 0);
        self.xi.copy_from_slice(&self.prop.x0[..n]);
        self.yi.copy_from_slice(&self.prop.y0[..n]);
        self.rx.copy_from_slice(&self.prop.vx[..n]);
        self.ry.copy_from_slice(&self.prop.vy[..n]);
        let mut converged = false;
        for it in 0..self.max_iterations {
            let mut changed = false;
            for group in self.constraints.symmetry_groups() {
                let xi = &self.xi;
                let yi = &self.yi;
                let dims = &self.dims;
                changed |= tighten_group_with(
                    group,
                    &self.dims,
                    |m| {
                        if sp.contains(m) {
                            let i = m.index();
                            Some(Rect::new(xi[i], yi[i], xi[i] + dims[i].w, yi[i] + dims[i].h))
                        } else {
                            None
                        }
                    },
                    &mut self.bounds,
                );
            }
            if !changed {
                converged = true;
                break;
            }
            let (width, moved) = self.repack(sp);
            // Divergence guard: crossed-pair encodings can keep pushing each
            // other's mirror targets (see `SymmetricPlacer::place`).
            if width > 3 * plain_width.max(1) {
                converged = false;
                break;
            }
            // Tightening targets are a function of the coordinates alone, so a
            // repack that reproduced the current coordinates cannot raise any
            // bound on the next pass: it is guaranteed to report "unchanged".
            // Skipping that verification pass is exact as long as the cold
            // loop would still have had an iteration left to run it in.
            if !moved && it + 1 < self.max_iterations {
                converged = true;
                break;
            }
        }

        let use_iterative =
            converged && self.symmetry_error_of(sp, SymmetrySource::Iterative) == 0 && {
                let iterative_area = self.bbox_area(sp, &self.xi, &self.yi);
                debug_assert!(iterative_area >= base_area, "a bounded repack shrank the base pack");
                iterative_area <= islands_area
            };
        if use_iterative {
            self.fx.copy_from_slice(&self.xi);
            self.fy.copy_from_slice(&self.yi);
        } else {
            self.assemble_islands();
        }
    }

    /// Bounded weighted-LCS repack of `xi`/`yi` after a tightening pass;
    /// returns the packed width and whether any coordinate moved. Identical
    /// coordinates to `pack_with_bounds_lcs` (same recurrence).
    ///
    /// Only symmetry-group members can carry a raised bound, and a member was
    /// raised exactly when its bound now exceeds its coordinate. Every α step
    /// before the first member with a raised `min_x` inserts what it inserted
    /// in the previous repack, so the x sweep replays from that step with the
    /// prefix seeded from `rx`; the reverse y sweep likewise replays down
    /// from the last member with a raised `min_y`, seeded from `ry`. An axis
    /// without a raised bound is skipped. The whole-sequence repack is the
    /// window that starts at step 0.
    fn repack(&mut self, sp: &SequencePair) -> (Coord, bool) {
        let n = self.n;
        // x replays steps x_from..n, y replays steps y_end-1 down to 0
        let mut x_from = n;
        let mut y_end = 0usize;
        for geometry in &self.islands {
            for &m in &geometry.members {
                let i = m.index();
                if self.bounds.min_x[i] > self.xi[i] {
                    x_from = x_from.min(sp.alpha_position(m));
                }
                if self.bounds.min_y[i] > self.yi[i] {
                    y_end = y_end.max(sp.alpha_position(m) + 1);
                }
            }
        }
        // `prop.bp` already holds every module's β-position for this proposal
        // (written by the base-pack resweep, prefix copied from the committed
        // buffer), so the per-module β lookups can be plain array reads.
        let alpha = sp.alpha();
        let mut moved = false;
        if x_from < n {
            self.sweep.begin(n);
            for k in 0..x_from {
                self.sweep.seed(self.prop.bp[k], self.rx[k]);
            }
            self.sweep.finish_seeding();
            for (k, &m) in alpha.iter().enumerate().skip(x_from) {
                let i = m.index();
                let bp = self.prop.bp[k];
                let start = self.bounds.min_x[i].max(self.sweep.prefix_max(bp));
                moved |= self.xi[i] != start;
                self.xi[i] = start;
                self.rx[k] = start + self.dims[i].w;
                self.sweep.update(bp, self.rx[k]);
            }
        }
        if y_end > 0 {
            self.sweep.begin(n);
            for k in y_end..n {
                self.sweep.seed(self.prop.bp[k], self.ry[k]);
            }
            self.sweep.finish_seeding();
            for (k, &m) in alpha.iter().enumerate().take(y_end).rev() {
                let i = m.index();
                let bp = self.prop.bp[k];
                let start = self.bounds.min_y[i].max(self.sweep.prefix_max(bp));
                moved |= self.yi[i] != start;
                self.yi[i] = start;
                self.ry[k] = start + self.dims[i].h;
                self.sweep.update(bp, self.ry[k]);
            }
        }
        self.counters.bounded_repacks += 1;
        self.counters.replayed_steps += (n - x_from + y_end) as u64;
        self.counters.full_steps += 2 * n as u64;
        let width = self.rx.iter().copied().max().unwrap_or(0);
        (width, moved)
    }

    /// The reduction + outer pack of the symmetry-island construction over
    /// the cached island geometry: representative choice, outer sequence
    /// reduction, and one outer LCS pack into `ox`/`oy`.
    fn build_outer(&mut self, sp: &SequencePair) {
        // representative of each island = its member first in α
        for (gi, geometry) in self.islands.iter().enumerate() {
            self.reps[gi] = geometry
                .members
                .iter()
                .copied()
                .min_by_key(|m| sp.alpha_position(*m))
                .expect("non-empty island");
        }
        // outer sequences: islands collapse onto their representative
        self.outer_alpha.clear();
        self.seen.fill(false);
        for &m in sp.alpha() {
            match self.module_to_island[m.index()] {
                Some(gi) => {
                    if !self.seen[gi as usize] {
                        self.seen[gi as usize] = true;
                        self.outer_alpha.push(self.reps[gi as usize]);
                    }
                }
                None => self.outer_alpha.push(m),
            }
        }
        self.outer_beta.clear();
        self.seen.fill(false);
        for &m in sp.beta() {
            match self.module_to_island[m.index()] {
                Some(gi) => {
                    if !self.seen[gi as usize] {
                        self.seen[gi as usize] = true;
                        self.outer_beta.push(self.reps[gi as usize]);
                    }
                }
                None => self.outer_beta.push(m),
            }
        }
        // outer dims: the representative slot carries the island footprint
        self.outer_dims.clear();
        self.outer_dims.extend_from_slice(&self.dims);
        for (gi, geometry) in self.islands.iter().enumerate() {
            self.outer_dims[self.reps[gi].index()] = geometry.dims;
        }
        // outer pack (plain LCS over the reduced sequences)
        let outer_n = self.outer_alpha.len();
        for (p, &m) in self.outer_beta.iter().enumerate() {
            self.outer_beta_pos[m.index()] = p;
        }
        self.sweep.begin(outer_n);
        self.sweep.finish_seeding();
        for &m in &self.outer_alpha {
            let i = m.index();
            let bp = self.outer_beta_pos[i];
            let start = self.sweep.prefix_max(bp);
            self.ox[i] = start;
            self.sweep.update(bp, start + self.outer_dims[i].w);
        }
        self.sweep.begin(outer_n);
        self.sweep.finish_seeding();
        for &m in self.outer_alpha.iter().rev() {
            let i = m.index();
            let bp = self.outer_beta_pos[i];
            let start = self.sweep.prefix_max(bp);
            self.oy[i] = start;
            self.sweep.update(bp, start + self.outer_dims[i].h);
        }
    }

    /// Writes the island construction into the final coordinates `fx`/`fy`:
    /// the cached island-local rectangles translate to their island origins,
    /// free modules take their outer coordinates directly. Requires
    /// [`HotSpEval::build_outer`] for the current proposal.
    fn assemble_islands(&mut self) {
        for &m in &self.outer_alpha {
            match self.module_to_island[m.index()] {
                Some(gi) => {
                    let geometry = &self.islands[gi as usize];
                    let (gx, gy) = (self.ox[m.index()], self.oy[m.index()]);
                    for &(member, local) in &geometry.rects {
                        self.fx[member.index()] = gx + local.x_min;
                        self.fy[member.index()] = gy + local.y_min;
                    }
                }
                None => {
                    self.fx[m.index()] = self.ox[m.index()];
                    self.fy[m.index()] = self.oy[m.index()];
                }
            }
        }
    }

    /// Bounding-box area the island construction would produce, from the
    /// outer pack and the cached per-island local bounding boxes — without
    /// materialising the per-member coordinates.
    fn islands_bbox_area(&self) -> i128 {
        let mut any = false;
        let mut min_x = Coord::MAX;
        let mut min_y = Coord::MAX;
        let mut max_x = Coord::MIN;
        let mut max_y = Coord::MIN;
        for &m in &self.outer_alpha {
            let i = m.index();
            let (lo_x, lo_y, hi_x, hi_y) = match self.module_to_island[i] {
                Some(gi) => {
                    let b = self.island_bbox[gi as usize];
                    (
                        self.ox[i] + b.x_min,
                        self.oy[i] + b.y_min,
                        self.ox[i] + b.x_max,
                        self.oy[i] + b.y_max,
                    )
                }
                None => (
                    self.ox[i],
                    self.oy[i],
                    self.ox[i] + self.dims[i].w,
                    self.oy[i] + self.dims[i].h,
                ),
            };
            min_x = min_x.min(lo_x);
            min_y = min_y.min(lo_y);
            max_x = max_x.max(hi_x);
            max_y = max_y.max(hi_y);
            any = true;
        }
        if !any {
            return i128::MAX;
        }
        i128::from(max_x - min_x) * i128::from(max_y - min_y)
    }

    /// Bounding-box area of the modules of `sp` at the given coordinates
    /// (matches `Placement::bounding_rect().area()`).
    fn bbox_area(&self, sp: &SequencePair, x: &[Coord], y: &[Coord]) -> i128 {
        let mut any = false;
        let mut min_x = Coord::MAX;
        let mut min_y = Coord::MAX;
        let mut max_x = Coord::MIN;
        let mut max_y = Coord::MIN;
        for &m in sp.alpha() {
            let i = m.index();
            min_x = min_x.min(x[i]);
            min_y = min_y.min(y[i]);
            max_x = max_x.max(x[i] + self.dims[i].w);
            max_y = max_y.max(y[i] + self.dims[i].h);
            any = true;
        }
        if !any {
            return i128::MAX;
        }
        i128::from(max_x - min_x) * i128::from(max_y - min_y)
    }

    /// `Placement::symmetry_error` over one of the coordinate sets.
    fn symmetry_error_of(&self, sp: &SequencePair, source: SymmetrySource) -> Coord {
        let (x, y) = match source {
            SymmetrySource::Iterative => (&self.xi, &self.yi),
            SymmetrySource::Final => (&self.fx, &self.fy),
        };
        self.constraints
            .symmetry_groups()
            .iter()
            .map(|g| {
                g.axis_error_with(|m| {
                    if sp.contains(m) {
                        let i = m.index();
                        Some((2 * x[i] + self.dims[i].w, 2 * y[i] + self.dims[i].h))
                    } else {
                        None
                    }
                })
            })
            .max()
            .unwrap_or(0)
    }

    /// `Placement::hot_cost` over the final coordinates, with the wirelength
    /// evaluated incrementally through [`DeltaCost`].
    fn hot_cost(&mut self, sp: &SequencePair) -> f64 {
        self.delta.begin();
        let mut min_x = Coord::MAX;
        let mut min_y = Coord::MAX;
        let mut max_x = Coord::MIN;
        let mut max_y = Coord::MIN;
        let mut any = false;
        for &m in sp.alpha() {
            let i = m.index();
            let rect = Rect::new(
                self.fx[i],
                self.fy[i],
                self.fx[i] + self.dims[i].w,
                self.fy[i] + self.dims[i].h,
            );
            min_x = min_x.min(rect.x_min);
            min_y = min_y.min(rect.y_min);
            max_x = max_x.max(rect.x_max);
            max_y = max_y.max(rect.y_max);
            any = true;
            self.delta.update(m, Some(rect));
        }
        let wirelength = self.delta.total();
        let area: i128 =
            if any { i128::from(max_x - min_x) * i128::from(max_y - min_y) } else { 0 };
        area as f64 + self.wirelength_weight * wirelength
    }
}

/// Which coordinate set a symmetry-error query reads.
#[derive(Debug, Clone, Copy)]
enum SymmetrySource {
    Iterative,
    Final,
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pack::pack_lcs;
    use apls_circuit::{Module, Netlist};
    use proptest::prelude::*;

    fn id(i: usize) -> ModuleId {
        ModuleId::from_index(i)
    }

    /// A circuit whose nets give every module a wirelength stake: a chain of
    /// two-pin nets plus one net spanning everything.
    fn chain_netlist(dims: &[Dims]) -> Netlist {
        let mut nl = Netlist::new("prop");
        let ids: Vec<ModuleId> = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| nl.add_module(Module::new(format!("m{i}"), d)))
            .collect();
        for w in ids.windows(2) {
            nl.add_net(format!("c{}", w[0].index()), [w[0], w[1]]);
        }
        if ids.len() >= 2 {
            nl.add_net("all", ids.clone());
        }
        nl
    }

    /// One scripted perturbation of the encoding (or the geometry).
    #[derive(Debug, Clone)]
    enum Step {
        /// Swap two α positions.
        SwapAlpha(usize, usize),
        /// Swap two β positions.
        SwapBeta(usize, usize),
        /// Swap two modules in both sequences.
        SwapBoth(usize, usize),
        /// Rotate one module (swap its width and height). Changes the dims
        /// the sweep caches were built over, so the evaluator must take the
        /// full-resweep fallback (`touched = None`).
        Rotate(usize),
    }

    type ArbCase = (Vec<Dims>, Vec<ModuleId>, Vec<ModuleId>, Vec<(Step, bool)>);

    fn arb_case() -> impl Strategy<Value = ArbCase> {
        (2usize..12).prop_flat_map(|n| {
            let perm = || {
                Just((0..n).collect::<Vec<usize>>())
                    .prop_shuffle()
                    .prop_map(|v| v.into_iter().map(id).collect::<Vec<ModuleId>>())
            };
            let step = (0u8..4, 0usize..n, 0usize..n, 0u8..2).prop_map(|(kind, i, j, acc)| {
                let step = match kind {
                    0 => Step::SwapAlpha(i, j),
                    1 => Step::SwapBeta(i, j),
                    2 => Step::SwapBoth(i, j),
                    _ => Step::Rotate(i),
                };
                (step, acc == 1)
            });
            (
                proptest::collection::vec((5i64..60, 5i64..60), n)
                    .prop_map(|v| v.into_iter().map(|(w, h)| Dims::new(w, h)).collect()),
                perm(),
                perm(),
                proptest::collection::vec(step, 1..30),
            )
        })
    }

    proptest! {
        /// The incremental evaluator's base pack equals `pack_lcs` — exact
        /// coordinates, exact cost — after arbitrary accepted/rejected
        /// swap/rotate sequences, including the full-resweep fallback that a
        /// dims change (rotation) forces.
        #[test]
        fn incremental_pack_matches_pack_lcs_under_swaps_and_rotations(
            (dims, alpha, beta, script) in arb_case()
        ) {
            let n = dims.len();
            let netlist = chain_netlist(&dims);
            let adjacency = NetAdjacency::new(&netlist);
            let constraints = ConstraintSet::new();
            let mut sp = SequencePair::from_sequences(alpha, beta).expect("same module set");
            let mut dims = dims;

            let mut eval = HotSpEval::new(
                &constraints,
                dims.clone(),
                adjacency.clone(),
                &sp,
                SymmetryMode::Exact,
                0.5,
            );

            // Reference cost of the current encoding: a fresh `pack_lcs` and a
            // fresh full wirelength sweep every time.
            let reference = |sp: &SequencePair, dims: &[Dims], adj: &NetAdjacency| -> (Vec<Option<Rect>>, f64) {
                let fp = pack_lcs(sp, dims);
                let mut delta = DeltaCost::new(adj.clone(), dims.len());
                delta.begin();
                let wl = delta.refresh_all(|m| fp.rect_of(m));
                let mut bbox: Option<Rect> = None;
                for &(_, r) in fp.rects() {
                    bbox = Some(match bbox {
                        Some(b) => b.union(&r),
                        None => r,
                    });
                }
                let area = bbox.map_or(0i128, |b| b.area());
                let rects = (0..dims.len()).map(|i| fp.rect_of(id(i))).collect();
                (rects, area as f64 + 0.5 * wl)
            };

            // Initial evaluation (auto-commits inside the evaluator).
            let cost = eval.evaluate(&sp, None);
            let (rects, want) = reference(&sp, &dims, &adjacency);
            prop_assert_eq!(cost, want);
            for (i, r) in rects.iter().enumerate() {
                let r = r.expect("packed");
                prop_assert_eq!((eval.fx[i], eval.fy[i]), (r.x_min, r.y_min));
            }

            for (step, accept) in script {
                // Apply the proposal, remembering how to revert it.
                let touched: Option<Vec<ModuleId>> = match step {
                    Step::SwapAlpha(i, j) => {
                        let (a, b) = (sp.alpha()[i], sp.alpha()[j]);
                        sp.swap_in_alpha(i, j);
                        Some(vec![a, b])
                    }
                    Step::SwapBeta(i, j) => {
                        let (a, b) = (sp.beta()[i], sp.beta()[j]);
                        sp.swap_in_beta(i, j);
                        Some(vec![a, b])
                    }
                    Step::SwapBoth(i, j) => {
                        let (a, b) = (sp.alpha()[i], sp.alpha()[j]);
                        sp.swap_in_alpha(i, j);
                        let (bi, bj) = (sp.beta_position(a), sp.beta_position(b));
                        sp.swap_in_beta(bi, bj);
                        Some(vec![a, b])
                    }
                    Step::Rotate(i) => {
                        dims[i] = Dims::new(dims[i].h, dims[i].w);
                        eval.dims[i] = dims[i];
                        None // dims changed: the incremental window is invalid
                    }
                };

                let cost = eval.evaluate(&sp, touched.as_deref());
                let (rects, want) = reference(&sp, &dims, &adjacency);
                prop_assert_eq!(cost, want);
                for (i, r) in rects.iter().enumerate() {
                    let r = r.expect("packed");
                    prop_assert_eq!((eval.fx[i], eval.fy[i]), (r.x_min, r.y_min));
                }

                if accept {
                    eval.commit();
                } else {
                    eval.rollback();
                    // Revert the proposal (every step is an involution).
                    match step {
                        Step::SwapAlpha(i, j) => sp.swap_in_alpha(i, j),
                        Step::SwapBeta(i, j) => sp.swap_in_beta(i, j),
                        Step::SwapBoth(i, j) => {
                            let (a, b) = (sp.alpha()[i], sp.alpha()[j]);
                            sp.swap_in_alpha(i, j);
                            let (bi, bj) = (sp.beta_position(a), sp.beta_position(b));
                            sp.swap_in_beta(bi, bj);
                        }
                        Step::Rotate(i) => {
                            dims[i] = Dims::new(dims[i].h, dims[i].w);
                            eval.dims[i] = dims[i];
                        }
                    }
                }
            }
        }
    }

    /// One scripted move of the symmetric-legalisation oracle.
    #[derive(Debug, Clone)]
    enum SymStep {
        /// Swap two α positions (may break symmetric feasibility).
        SwapAlpha(usize, usize),
        /// Swap two β positions (may break symmetric feasibility).
        SwapBeta(usize, usize),
        /// One S-F-preserving move drawn from an RNG with this seed (a no-op
        /// once the encoding is no longer symmetric-feasible).
        Symmetric(u64),
    }

    /// What the script does with one proposal after it is made.
    #[derive(Debug, Clone, Copy)]
    enum Verdict {
        /// Evaluate in full, then commit.
        Accept,
        /// Evaluate in full, then roll back.
        Reject,
        /// Roll back right after the bound, as an early rejection does.
        RejectOnBound,
    }

    /// Dims, groups as `(pairs, self-symmetric)` member lists, whether the
    /// encoding stays symmetric-feasible, the script, and the index of the
    /// one step evaluated with `touched = None`.
    type SymCase = (
        Vec<Dims>,
        Vec<(Vec<(ModuleId, ModuleId)>, Vec<ModuleId>)>,
        bool,
        Vec<(SymStep, Verdict)>,
        usize,
    );

    /// Circuits with 1–3 symmetry groups (matched pairs plus self-symmetric
    /// cells; group 0 holds two self-symmetric cells of different width
    /// parity when `mixed`), sized on both sides of `SweepMax::LINEAR_MAX`.
    fn arb_sym_case() -> impl Strategy<Value = SymCase> {
        (0u8..2, 4usize..=16, 17usize..=40)
            .prop_map(|(large, small, big)| if large == 1 { big } else { small })
            .prop_flat_map(|n| {
                let groups = proptest::collection::vec((0usize..4, 0usize..3), 1..4);
                let step = (0u8..4, 0usize..n, 0usize..n, 0u64..u64::MAX, 0u8..3).prop_map(
                    |(kind, i, j, seed, verdict)| {
                        let step = match kind {
                            0 => SymStep::SwapAlpha(i, j),
                            1 => SymStep::SwapBeta(i, j),
                            _ => SymStep::Symmetric(seed),
                        };
                        let verdict = match verdict {
                            0 => Verdict::Reject,
                            1 => Verdict::Accept,
                            _ => Verdict::RejectOnBound,
                        };
                        (step, verdict)
                    },
                );
                (
                    proptest::collection::vec((2i64..40, 2i64..40), n),
                    Just((0..n).collect::<Vec<usize>>()).prop_shuffle(),
                    groups,
                    0u8..4,
                    proptest::collection::vec(step, 1..30),
                    0usize..30,
                )
                    .prop_map(|(wh, order, specs, flags, script, full_at)| {
                        let (mixed, sf_only) = (flags & 1 == 1, flags & 2 == 2);
                        let mut dims: Vec<Dims> =
                            wh.into_iter().map(|(w, h)| Dims::new(w, h)).collect();
                        let mut free = order.into_iter().map(id);
                        let mut groups = Vec::new();
                        for (gi, (pair_count, self_count)) in specs.into_iter().enumerate() {
                            let mixed = gi == 0 && mixed;
                            let self_count = if mixed { 2 } else { self_count.max(1) };
                            let mut pairs = Vec::new();
                            for _ in 0..pair_count {
                                let (Some(l), Some(r)) = (free.next(), free.next()) else { break };
                                dims[r.index()] = dims[l.index()];
                                pairs.push((l, r));
                            }
                            let selfs: Vec<ModuleId> = free.by_ref().take(self_count).collect();
                            if mixed && selfs.len() == 2 {
                                let (a, b) = (selfs[0].index(), selfs[1].index());
                                if (dims[a].w - dims[b].w).rem_euclid(2) == 0 {
                                    dims[b] = Dims::new(dims[b].w + 1, dims[b].h);
                                }
                            }
                            if pairs.is_empty() && selfs.is_empty() {
                                break;
                            }
                            groups.push((pairs, selfs));
                        }
                        (dims, groups, sf_only, script, full_at)
                    })
            })
    }

    proptest! {
        /// Move by move, the evaluator's symmetric legalisation — tightening,
        /// bounded repacks, the island construction and the decision between
        /// them — reproduces `SymmetricPlacer::place` plus
        /// `Placement::hot_cost`: identical cost and identical coordinates
        /// after every accepted or rejected proposal, including one
        /// full-resweep (`touched = None`) evaluation. The bound never
        /// exceeds the cost, and a proposal rolled back right after its
        /// bound leaves the evaluator exact for the next one.
        #[test]
        fn legalise_matches_symmetric_placer_move_by_move(
            (dims, groups, sf_only, script, full_at) in arb_sym_case()
        ) {
            use crate::symmetry::{canonical_symmetric_feasible, SymmetricMoveSet};
            use crate::SpUndoLog;
            use apls_anneal::rng::SeededRng;
            use apls_circuit::SymmetryGroup;

            let n = dims.len();
            let netlist = chain_netlist(&dims);
            let adjacency = NetAdjacency::new(&netlist);
            let mut constraints = ConstraintSet::new();
            for (gi, (pairs, selfs)) in groups.iter().enumerate() {
                let mut group = SymmetryGroup::new(format!("g{gi}"));
                for &(l, r) in pairs {
                    group = group.with_pair(l, r);
                }
                for &s in selfs {
                    group = group.with_self_symmetric(s);
                }
                constraints.add_symmetry_group(group);
            }
            let placer = crate::place::SymmetricPlacer::new(&netlist, &constraints);
            let moves = SymmetricMoveSet::new(constraints.clone());
            let ids: Vec<ModuleId> = (0..n).map(id).collect();
            let mut sp = canonical_symmetric_feasible(&ids, &constraints);
            let mut eval =
                HotSpEval::new(&constraints, dims.clone(), adjacency.clone(), &sp, SymmetryMode::Exact, 0.5);

            let check = |eval: &HotSpEval<'_>, sp: &SequencePair, cost: f64| {
                let placement = placer.place(sp);
                prop_assert_eq!(cost, placement.hot_cost(&adjacency, 0.5), "cost of {}", sp);
                for i in 0..n {
                    let r = placement.get(id(i)).expect("placed").rect;
                    prop_assert_eq!((eval.fx[i], eval.fy[i]), (r.x_min, r.y_min), "module {} of {}", i, sp);
                }
            };

            let cost = eval.evaluate(&sp, None);
            check(&eval, &sp, cost);

            let mut log = SpUndoLog::default();
            let mut touched = Vec::new();
            for (k, (step, verdict)) in script.into_iter().enumerate() {
                let step = match step {
                    SymStep::SwapAlpha(i, j) | SymStep::SwapBeta(i, j) if sf_only => {
                        SymStep::Symmetric((i * n + j) as u64)
                    }
                    step => step,
                };
                log.clear();
                match step {
                    SymStep::SwapAlpha(i, j) => sp.swap_in_alpha_logged(i, j, &mut log),
                    SymStep::SwapBeta(i, j) => sp.swap_in_beta_logged(i, j, &mut log),
                    SymStep::Symmetric(seed) => {
                        let mut rng = SeededRng::new(seed);
                        for _ in 0..8 {
                            if moves.perturb_logged(&mut sp, &mut rng, &mut log) {
                                break;
                            }
                        }
                    }
                }
                touched.clear();
                log.touched_modules(&sp, &mut touched);

                let bound = eval.bound(&sp, if k == full_at { None } else { Some(&touched) });
                if let Verdict::RejectOnBound = verdict {
                    eval.rollback();
                    sp.undo(&mut log);
                    continue;
                }
                let cost = eval.finish(&sp);
                check(&eval, &sp, cost);
                prop_assert!(bound <= cost, "bound {} above cost {} of {}", bound, cost, sp);

                if let Verdict::Accept = verdict {
                    eval.commit();
                } else {
                    eval.rollback();
                    sp.undo(&mut log);
                }
            }
        }
    }
}
