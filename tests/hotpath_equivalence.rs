//! Pinned-seed equivalence of the zero-allocation hot path.
//!
//! The annealing evaluation pipeline was rearchitected (single evaluation per
//! proposal, undo-log rollback, scratch-buffer packing, CSR wirelength); the
//! refactor must not change a single trajectory. These tests re-implement the
//! *pre-refactor* evaluator — clone-per-move backup, full `Placement::metrics`
//! per evaluation, re-evaluating `commit` — drive it with the exact RNG
//! discipline of the old driver, and assert that every engine produces a
//! placement identical to the reference on every named benchmark circuit.
//!
//! The HB*-tree packing cache is pinned twice more: a cached `pack_into`
//! must equal a fresh `pack()` after every perturb, accept and undo step
//! (clones and cross-circuit scratch reuse included), and bounded-budget
//! `HbTreePlacer` restarts must reproduce golden values captured from the
//! packer that repacked every node on every move.
//!
//! The parallel-tempering lane is pinned the same way: fast-schedule runs of
//! `TemperingSeqPairPlacer` on every bundled circuit must reproduce golden
//! placements, costs, winners and swap and move counts.

use analog_layout_synthesis::anneal::rng::SeededRng;
use analog_layout_synthesis::anneal::Schedule;
use analog_layout_synthesis::btree::{
    pack_btree, BStarTree, BTreePlacer, HbPackScratch, HbTree, HbTreePlacer, HbTreePlacerConfig,
    HbUndoLog,
};
use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::circuit::{ModuleId, Netlist, Placement};
use analog_layout_synthesis::geometry::Orientation;
use analog_layout_synthesis::seqpair::place::SymmetricPlacer;
use analog_layout_synthesis::seqpair::symmetry::{canonical_symmetric_feasible, SymmetricMoveSet};
use analog_layout_synthesis::seqpair::tempering::{TemperingPlacerConfig, TemperingSeqPairPlacer};
use analog_layout_synthesis::seqpair::{SeqPairPlacer, SeqPairPlacerConfig, SequencePair};
use rand::Rng;

const SEED: u64 = 0xC0FFEE;
const WIRELENGTH_WEIGHT: f64 = 0.5;

/// The pre-refactor `AnnealState` shape: `cost` on `&self`, clone-based
/// rollback, and a `commit` that re-evaluates from scratch.
trait RefState {
    fn cost(&self) -> f64;
    fn propose(&mut self, rng: &mut SeededRng);
    fn rollback(&mut self);
    fn commit(&mut self);
}

/// The pre-refactor annealing loop: identical Metropolis discipline and RNG
/// consumption to `Annealer::run`, with the old double-evaluating protocol.
fn reference_anneal<S: RefState>(seed: u64, state: &mut S, schedule: &Schedule) {
    let mut rng = SeededRng::new(seed);
    let mut current = state.cost();
    let mut temperature = schedule.t_start();
    let mut attempted = 0u64;
    'outer: while temperature >= schedule.t_end() {
        for _ in 0..schedule.moves_per_step() {
            if let Some(cap) = schedule.max_moves() {
                if attempted >= cap {
                    break 'outer;
                }
            }
            attempted += 1;
            state.propose(&mut rng);
            let new_cost = state.cost();
            let delta = new_cost - current;
            let accept =
                if delta <= 0.0 { true } else { rng.gen::<f64>() < (-delta / temperature).exp() };
            if accept {
                current = new_cost;
                state.commit();
            } else {
                state.rollback();
            }
        }
        temperature *= schedule.alpha();
    }
}

/// A schedule sized so the whole matrix (3 engines × 7 circuits × 2 runs)
/// stays fast while still exercising thousands of accept/reject decisions.
fn schedule_for(module_count: usize) -> Schedule {
    let moves = if module_count > 40 { 120 } else { 400 };
    Schedule::geometric(1e6, 1.0, 0.92, 50).with_max_moves(moves)
}

// --- flat B*-tree reference ------------------------------------------------

fn old_flat_placement(netlist: &Netlist, tree: &BStarTree) -> Placement {
    let packed = pack_btree(tree, &netlist.default_dims());
    let mut placement = Placement::new(netlist);
    for &(m, r) in packed.rects() {
        let orientation = if tree.is_rotated(m) { Orientation::R90 } else { Orientation::R0 };
        placement.place(m, r, orientation, 0);
    }
    placement
}

struct RefFlat<'a> {
    tree: BStarTree,
    backup: Option<BStarTree>,
    best: Option<(BStarTree, f64)>,
    netlist: &'a Netlist,
    rotatable: Vec<bool>,
}

impl RefFlat<'_> {
    fn evaluate(&self, tree: &BStarTree) -> f64 {
        let metrics = old_flat_placement(self.netlist, tree).metrics(self.netlist);
        metrics.bounding_area as f64 + WIRELENGTH_WEIGHT * metrics.wirelength
    }
}

impl RefState for RefFlat<'_> {
    fn cost(&self) -> f64 {
        self.evaluate(&self.tree)
    }
    fn propose(&mut self, rng: &mut SeededRng) {
        self.backup = Some(self.tree.clone());
        let rotatable = self.rotatable.clone();
        self.tree.perturb(rng, |m| rotatable[m.index()]);
    }
    fn rollback(&mut self) {
        if let Some(prev) = self.backup.take() {
            self.tree = prev;
        }
    }
    fn commit(&mut self) {
        let cost = self.evaluate(&self.tree);
        if self.best.as_ref().is_none_or(|(_, c)| cost < *c) {
            self.best = Some((self.tree.clone(), cost));
        }
    }
}

// --- HB*-tree reference ----------------------------------------------------

struct RefHb<'a> {
    tree: HbTree,
    backup: Option<HbTree>,
    best: Option<(HbTree, f64)>,
    netlist: &'a Netlist,
}

impl RefHb<'_> {
    fn evaluate(&self, tree: &HbTree) -> f64 {
        let metrics = tree.pack().metrics(self.netlist);
        metrics.bounding_area as f64 + WIRELENGTH_WEIGHT * metrics.wirelength
    }
}

impl RefState for RefHb<'_> {
    fn cost(&self) -> f64 {
        self.evaluate(&self.tree)
    }
    fn propose(&mut self, rng: &mut SeededRng) {
        self.backup = Some(self.tree.clone());
        self.tree.perturb(rng);
    }
    fn rollback(&mut self) {
        if let Some(prev) = self.backup.take() {
            self.tree = prev;
        }
    }
    fn commit(&mut self) {
        let cost = self.evaluate(&self.tree);
        if self.best.as_ref().is_none_or(|(_, c)| cost < *c) {
            self.best = Some((self.tree.clone(), cost));
        }
    }
}

// --- sequence-pair reference (exact symmetry mode) -------------------------

struct RefSp<'a> {
    sp: SequencePair,
    backup: Option<SequencePair>,
    best: Option<(SequencePair, f64)>,
    placer: SymmetricPlacer<'a>,
    netlist: &'a Netlist,
    moves: SymmetricMoveSet,
}

impl RefSp<'_> {
    fn evaluate(&self, sp: &SequencePair) -> f64 {
        let metrics = self.placer.place(sp).metrics(self.netlist);
        metrics.bounding_area as f64 + WIRELENGTH_WEIGHT * metrics.wirelength
    }
}

impl RefState for RefSp<'_> {
    fn cost(&self) -> f64 {
        self.evaluate(&self.sp)
    }
    fn propose(&mut self, rng: &mut SeededRng) {
        self.backup = Some(self.sp.clone());
        for _ in 0..8 {
            if self.moves.perturb(&mut self.sp, rng) {
                break;
            }
        }
    }
    fn rollback(&mut self) {
        if let Some(prev) = self.backup.take() {
            self.sp = prev;
        }
    }
    fn commit(&mut self) {
        let cost = self.evaluate(&self.sp);
        if self.best.as_ref().is_none_or(|(_, c)| cost < *c) {
            self.best = Some((self.sp.clone(), cost));
        }
    }
}

// --- the equivalence matrix ------------------------------------------------

#[test]
fn flat_btree_hot_path_matches_pre_refactor_evaluator_on_all_benchmarks() {
    for name in benchmarks::names() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let schedule = schedule_for(circuit.module_count());

        let config =
            HbTreePlacerConfig { seed: SEED, schedule, wirelength_weight: WIRELENGTH_WEIGHT };
        let new = BTreePlacer::new(&circuit.netlist, &circuit.constraints).run(&config);

        let modules: Vec<ModuleId> = circuit.netlist.module_ids().collect();
        let rotatable: Vec<bool> =
            circuit.netlist.modules().map(|(_, m)| m.rotation_allowed()).collect();
        let mut reference = RefFlat {
            tree: BStarTree::balanced(&modules),
            backup: None,
            best: None,
            netlist: &circuit.netlist,
            rotatable,
        };
        reference_anneal(SEED, &mut reference, &schedule);
        let best_tree = reference.best.map(|(t, _)| t).unwrap_or(reference.tree);
        let expected = old_flat_placement(&circuit.netlist, &best_tree);

        assert_eq!(new.placement, expected, "flat B*-tree diverged on {name}");
        assert_eq!(new.metrics, expected.metrics(&circuit.netlist), "{name}");
    }
}

#[test]
fn hbtree_hot_path_matches_pre_refactor_evaluator_on_all_benchmarks() {
    for name in benchmarks::names() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let schedule = schedule_for(circuit.module_count());

        let config =
            HbTreePlacerConfig { seed: SEED, schedule, wirelength_weight: WIRELENGTH_WEIGHT };
        let new = HbTreePlacer::new(&circuit).run(&config);

        let mut reference = RefHb {
            tree: HbTree::new(&circuit.netlist, &circuit.hierarchy, &circuit.constraints),
            backup: None,
            best: None,
            netlist: &circuit.netlist,
        };
        reference_anneal(SEED, &mut reference, &schedule);
        let best_tree = reference.best.map(|(t, _)| t).unwrap_or(reference.tree);
        let expected = best_tree.pack();

        assert_eq!(new.placement, expected, "HB*-tree diverged on {name}");
        assert_eq!(new.metrics, expected.metrics(&circuit.netlist), "{name}");
    }
}

/// Runs `SeqPairPlacer` and the pre-refactor reference on every bundled
/// circuit under the schedule `schedule_of(module_count)` and asserts
/// identical encodings, placements and metrics.
fn assert_seqpair_matches_reference(schedule_of: impl Fn(usize) -> Schedule) {
    for name in benchmarks::names() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let schedule = schedule_of(circuit.module_count());

        let config = SeqPairPlacerConfig {
            seed: SEED,
            schedule,
            wirelength_weight: WIRELENGTH_WEIGHT,
            ..SeqPairPlacerConfig::default()
        };
        let new = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints).run(&config);

        let modules: Vec<ModuleId> = circuit.netlist.module_ids().collect();
        let mut reference = RefSp {
            sp: canonical_symmetric_feasible(&modules, &circuit.constraints),
            backup: None,
            best: None,
            placer: SymmetricPlacer::new(&circuit.netlist, &circuit.constraints),
            netlist: &circuit.netlist,
            moves: SymmetricMoveSet::new(circuit.constraints.clone()),
        };
        reference_anneal(SEED, &mut reference, &schedule);
        let (best_sp, _) = reference.best.clone().unwrap_or((reference.sp.clone(), f64::MAX));
        let expected = reference.placer.place(&best_sp);

        assert_eq!(new.sequence_pair, best_sp, "sequence-pair encoding diverged on {name}");
        assert_eq!(new.placement, expected, "sequence-pair placement diverged on {name}");
        assert_eq!(new.metrics, expected.metrics(&circuit.netlist), "{name}");
    }
}

#[test]
fn seqpair_hot_path_matches_pre_refactor_evaluator_on_all_benchmarks() {
    assert_seqpair_matches_reference(schedule_for);
}

/// The same equivalence on a cold schedule, where most uphill proposals are
/// rejected: at T = 1e6 almost every move is accepted, so the matrix above
/// never exercises a run dominated by rejections.
#[test]
fn seqpair_cold_schedule_matches_reference_anneal() {
    assert_seqpair_matches_reference(|_| {
        Schedule::geometric(100.0, 0.05, 0.85, 100).with_max_moves(1500)
    });
}

// --- HB*-tree packing cache --------------------------------------------------

/// Asserts that `cached` places every module exactly where a fresh
/// `HbTree::pack()` of `tree` does.
fn assert_matches_fresh_pack(tree: &HbTree, cached: &Placement, netlist: &Netlist, at: &str) {
    let fresh = tree.pack();
    assert_eq!(cached.placed_count(), fresh.placed_count(), "{at}: placed count");
    for m in netlist.module_ids() {
        let (got, want) = (cached.get(m), fresh.get(m));
        assert_eq!(got.map(|p| p.rect), want.map(|p| p.rect), "{at}: rect of {m:?}");
        assert_eq!(
            got.map(|p| p.orientation),
            want.map(|p| p.orientation),
            "{at}: orientation of {m:?}"
        );
    }
}

#[test]
fn hbtree_cached_pack_matches_fresh_pack_through_perturb_accept_and_undo() {
    // One scratch for every circuit: each circuit's first pack reuses slots
    // last filled from another circuit's tree.
    let mut scratch = HbPackScratch::new();
    let mut rng = SeededRng::new(SEED);
    let mut previous: Option<(HbTree, Netlist)> = None;
    for name in benchmarks::names() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let netlist = &circuit.netlist;
        let mut tree = HbTree::new(netlist, &circuit.hierarchy, &circuit.constraints);
        let mut placement = Placement::with_capacity(circuit.module_count());
        tree.pack_into(&mut scratch, &mut placement);
        assert_matches_fresh_pack(&tree, &placement, netlist, &format!("{name} initial"));

        // the `best` snapshot of the annealer: a clone that stays behind
        // while the live tree moves on, packed through the same scratch
        let mut best = tree.clone();
        let mut log = HbUndoLog::default();
        for step in 0..150 {
            tree.perturb_logged(&mut rng, &mut log);
            tree.pack_into(&mut scratch, &mut placement);
            assert_matches_fresh_pack(&tree, &placement, netlist, &format!("{name} step {step}"));
            if rng.gen_bool(0.5) {
                tree.undo(&mut log);
                tree.pack_into(&mut scratch, &mut placement);
                let at = format!("{name} undo {step}");
                assert_matches_fresh_pack(&tree, &placement, netlist, &at);
            } else if rng.gen_bool(0.2) {
                best = tree.clone();
            }
            if step % 25 == 0 {
                best.pack_into(&mut scratch, &mut placement);
                let at = format!("{name} best {step}");
                assert_matches_fresh_pack(&best, &placement, netlist, &at);
            }
        }

        // and back to the previous circuit's tree with this circuit's slots
        if let Some((prev_tree, prev_netlist)) = &previous {
            let mut prev_placement = Placement::with_capacity(prev_tree.module_count());
            prev_tree.pack_into(&mut scratch, &mut prev_placement);
            let at = format!("previous circuit after {name}");
            assert_matches_fresh_pack(prev_tree, &prev_placement, prev_netlist, &at);
        }
        previous = Some((tree, circuit.netlist.clone()));
    }
}

/// FNV-1a over every placed module's index, rectangle and orientation.
fn placement_fingerprint(placement: &Placement) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: i64| {
        for byte in v.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (m, placed) in placement.iter() {
        let r = placed.rect;
        eat(m.index() as i64);
        for v in [r.x_min, r.y_min, r.x_max, r.y_max] {
            eat(v);
        }
        eat(placed.orientation as i64);
    }
    hash
}

/// `HbTreePlacer` restarts under a bounded move budget, pinned as
/// `(circuit, seed, bounding area, wirelength, placement fingerprint)`. The
/// values were captured before the packing cache was keyed by node stamps,
/// so they pin bit-identity with the code that repacked every node per move.
fn hbtree_golden() -> Vec<(&'static str, u64, i128, f64, u64)> {
    vec![
        ("buffer", 1, 1828218, 26363.0, 9578907403543170795),
        ("buffer", 2, 1305033, 26332.0, 3668916464486105829),
        ("biasynth", 1, 2514023, 65402.0, 17030933006804330275),
        ("biasynth", 2, 2386818, 76257.0, 6878571690504086217),
        ("lnamixbias", 1, 4601628, 158262.0, 16625859463067882699),
        ("lnamixbias", 2, 3460968, 122253.0, 17004145865972761584),
    ]
}

#[test]
fn hbtree_placer_reproduces_pinned_restarts_bit_identically() {
    let schedule = Schedule::geometric(1e6, 1.0, 0.9, 40).with_max_moves(600);
    for (name, seed, area, wirelength, fingerprint) in hbtree_golden() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let config = HbTreePlacerConfig { seed, schedule, wirelength_weight: WIRELENGTH_WEIGHT };
        let result = HbTreePlacer::new(&circuit).run(&config);
        assert_eq!(result.metrics.bounding_area, area, "{name} seed {seed}: bounding area");
        assert_eq!(result.metrics.wirelength, wirelength, "{name} seed {seed}: wirelength");
        let got = placement_fingerprint(&result.placement);
        assert_eq!(got, fingerprint, "{name} seed {seed}: placement fingerprint");
    }
}

/// `TemperingSeqPairPlacer` runs on the fast schedule, pinned as
/// `(circuit, seed, placement fingerprint, bounding area, best-cost bits,
/// best replica, swaps accepted, moves accepted)` for every bundled circuit.
/// Together the values pin the replica trajectories, the swap schedule, the
/// winner choice and the snapshot the placer extracts from it.
#[allow(clippy::type_complexity)]
fn tempering_golden() -> Vec<(&'static str, u64, u64, i128, u64, usize, u64, u64)> {
    vec![
        ("miller_opamp_fig6", 3, 17482971607726529069, 23124, 4672246775287906304, 1, 13, 2898),
        ("miller_v2", 4, 8126174211804515436, 322025, 4689324587459018752, 1, 3, 928),
        ("comparator_v2", 5, 14066314832587951535, 598780, 4693411678337892352, 0, 40, 2212),
        ("folded_cascode", 6, 6292242814318009807, 403572, 4690750542371094528, 1, 11, 1571),
        ("buffer", 7, 17985103433931076246, 1119032, 4697653179733508096, 2, 11, 1473),
        ("biasynth", 8, 16367700167047416168, 2519895, 4702751145926328320, 3, 8, 989),
        ("lnamixbias", 9, 7556755836658030162, 3346815, 4704647730469797888, 2, 10, 1081),
    ]
}

#[test]
fn tempering_placer_reproduces_pinned_runs_bit_identically() {
    let golden = tempering_golden();
    for (i, name) in benchmarks::names().into_iter().enumerate() {
        let seed = 3 + i as u64;
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let result = TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints)
            .run(&TemperingPlacerConfig::fast(seed));
        let got = (
            name,
            seed,
            placement_fingerprint(&result.placement),
            result.metrics.bounding_area,
            result.stats.best_cost.to_bits(),
            result.stats.best_replica,
            result.stats.swaps_accepted,
            result.stats.moves.accepted,
        );
        assert_eq!(Some(&got), golden.get(i), "{name} seed {seed}");
    }
}
