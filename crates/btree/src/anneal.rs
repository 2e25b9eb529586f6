//! Simulated-annealing B*-tree placers.
//!
//! Two placers are provided:
//!
//! * [`HbTreePlacer`] — the hierarchical placer of Section III: the annealer
//!   perturbs the HB*-tree (one sub-circuit at a time) and every candidate is
//!   packed bottom-up with symmetry islands and common-centroid patterns, so
//!   the constraints hold exactly at every step;
//! * [`BTreePlacer`] — a flat B*-tree placer without hierarchy or constraint
//!   handling (symmetry enters the cost only as a penalty). It serves as the
//!   baseline of the hierarchy ablation (experiment E10).

use crate::hbtree::{HbPackScratch, HbUndoLog};
use crate::pack::{pack_btree_into, PackScratch, PackedBTree};
use crate::tree::TreeUndoLog;
use crate::{pack_btree, BStarTree, HbTree};
use apls_anneal::{AnnealState, AnnealStats, Annealer, Schedule};
use apls_circuit::benchmarks::BenchmarkCircuit;
use apls_circuit::{ConstraintSet, DeltaCost, ModuleId, Netlist, Placement, PlacementMetrics};
use apls_geometry::{BoundingBox, Orientation};
use apls_telemetry::Telemetry;
use rand::RngCore;

/// Configuration shared by the B*-tree placers.
#[derive(Debug, Clone)]
pub struct HbTreePlacerConfig {
    /// RNG seed; identical seeds reproduce identical runs.
    pub seed: u64,
    /// Cooling schedule.
    pub schedule: Schedule,
    /// Weight of the wirelength term relative to the area term.
    pub wirelength_weight: f64,
}

impl Default for HbTreePlacerConfig {
    fn default() -> Self {
        HbTreePlacerConfig {
            seed: 1,
            schedule: Schedule::for_problem_size(32),
            wirelength_weight: 0.5,
        }
    }
}

impl HbTreePlacerConfig {
    /// A configuration scaled to the circuit size.
    #[must_use]
    pub fn for_circuit(circuit: &BenchmarkCircuit) -> Self {
        HbTreePlacerConfig {
            schedule: Schedule::for_problem_size(circuit.module_count()),
            ..HbTreePlacerConfig::default()
        }
    }

    /// A fast configuration for tests and smoke runs.
    #[must_use]
    pub fn fast(seed: u64) -> Self {
        HbTreePlacerConfig { seed, schedule: Schedule::fast(), ..HbTreePlacerConfig::default() }
    }
}

/// Alias: the flat placer shares the configuration type.
pub type BTreePlacerConfig = HbTreePlacerConfig;

/// Result of a B*-tree placement run.
#[derive(Debug, Clone)]
pub struct HbTreeResult {
    /// The best placement found.
    pub placement: Placement,
    /// Metrics of that placement.
    pub metrics: PlacementMetrics,
    /// Largest symmetry deviation of the placement (doubled dbu; 0 for the
    /// hierarchical placer).
    pub symmetry_error: i64,
    /// Annealing statistics.
    pub stats: AnnealStats,
}

/// Hierarchical HB*-tree annealing placer.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct HbTreePlacer<'a> {
    circuit: &'a BenchmarkCircuit,
}

impl<'a> HbTreePlacer<'a> {
    /// Creates a placer for a benchmark circuit.
    #[must_use]
    pub fn new(circuit: &'a BenchmarkCircuit) -> Self {
        HbTreePlacer { circuit }
    }

    /// Runs the annealing placement.
    #[must_use]
    pub fn run(&self, config: &HbTreePlacerConfig) -> HbTreeResult {
        self.run_traced(config, &Telemetry::disabled())
    }

    /// [`HbTreePlacer::run`] with telemetry (observe-only; results are
    /// bit-identical whatever collector is installed).
    #[must_use]
    pub fn run_traced(&self, config: &HbTreePlacerConfig, telemetry: &Telemetry) -> HbTreeResult {
        let initial =
            HbTree::new(&self.circuit.netlist, &self.circuit.hierarchy, &self.circuit.constraints);
        let module_count = initial.module_count();
        let mut state = HbState {
            tree: initial,
            undo: HbUndoLog::default(),
            delta: DeltaCost::new(self.circuit.netlist.adjacency(), module_count),
            scratch: HbPackScratch::new(),
            placement: Placement::with_capacity(module_count),
            wirelength_weight: config.wirelength_weight,
        };
        let (stats, best) =
            Annealer::with_seed(config.seed).run_traced(&mut state, &config.schedule, telemetry);
        let best_tree = best.unwrap_or(state.tree);
        let placement = best_tree.pack();
        let metrics = placement.metrics(&self.circuit.netlist);
        let symmetry_error = placement.symmetry_error(&self.circuit.constraints);
        HbTreeResult { placement, metrics, symmetry_error, stats }
    }
}

/// The HB*-tree annealing state on the zero-allocation hot path: packing goes
/// through reusable scratch buffers, the cost skips the O(n²) overlap scan
/// (HB*-tree packings are overlap-free by construction; `debug_assertions`
/// builds still verify it), rejected moves are undone via the undo log instead
/// of restoring a deep clone, and accepted moves never pack twice.
struct HbState {
    tree: HbTree,
    undo: HbUndoLog,
    delta: DeltaCost,
    scratch: HbPackScratch,
    placement: Placement,
    wirelength_weight: f64,
}

impl AnnealState for HbState {
    type Snapshot = HbTree;

    fn cost(&mut self) -> f64 {
        self.tree.pack_into(&mut self.scratch, &mut self.placement);
        debug_assert!(self.placement.is_complete());
        #[cfg(debug_assertions)]
        {
            let rects: Vec<apls_geometry::Rect> = self.placement.rects().collect();
            debug_assert_eq!(
                apls_geometry::total_overlap_area(&rects),
                0,
                "HB*-tree packing produced overlapping modules"
            );
        }
        // `Placement::hot_cost` semantics with the wirelength term evaluated
        // through `DeltaCost::sweep_hpwl`: identical per-net fold, so the
        // cost is bit-identical to `wirelength_with`. A repack shifts most
        // coordinates, so the cache-diffing `resync` path loses to the plain
        // sweep here (~1.43 ms vs ~1.09 ms per 2000 moves at 10 modules,
        // 7.2 ms vs 6.0 ms at 50) — the sweep is the measured winner.
        let mut bb = BoundingBox::new();
        for r in self.placement.rects() {
            bb.include_rect(&r);
        }
        let placement = &self.placement;
        let wirelength = self.delta.sweep_hpwl(|m| placement.get(m).map(|pm| pm.rect));
        bb.area() as f64 + self.wirelength_weight * wirelength
    }

    fn propose(&mut self, rng: &mut dyn RngCore) {
        self.tree.perturb_logged(rng, &mut self.undo);
    }

    fn rollback(&mut self) {
        self.tree.undo(&mut self.undo);
    }

    fn snapshot(&self) -> HbTree {
        self.tree.clone()
    }

    fn move_kind(&self) -> &'static str {
        self.undo.move_kind()
    }
}

/// Flat (non-hierarchical) B*-tree placer used as the ablation baseline.
///
/// Symmetry constraints are *not* enforced structurally; the reported
/// [`HbTreeResult::symmetry_error`] shows how asymmetric the unconstrained
/// optimum is, which is the point of experiment E10.
#[derive(Debug, Clone)]
pub struct BTreePlacer<'a> {
    netlist: &'a Netlist,
    constraints: &'a ConstraintSet,
}

impl<'a> BTreePlacer<'a> {
    /// Creates a flat placer for a netlist (constraints are only used for
    /// reporting the symmetry error).
    #[must_use]
    pub fn new(netlist: &'a Netlist, constraints: &'a ConstraintSet) -> Self {
        BTreePlacer { netlist, constraints }
    }

    /// Runs the annealing placement.
    #[must_use]
    pub fn run(&self, config: &BTreePlacerConfig) -> HbTreeResult {
        self.run_traced(config, &Telemetry::disabled())
    }

    /// [`BTreePlacer::run`] with telemetry (observe-only; results are
    /// bit-identical whatever collector is installed).
    #[must_use]
    pub fn run_traced(&self, config: &BTreePlacerConfig, telemetry: &Telemetry) -> HbTreeResult {
        let modules: Vec<ModuleId> = self.netlist.module_ids().collect();
        let rotatable: Vec<bool> =
            self.netlist.modules().map(|(_, m)| m.rotation_allowed()).collect();
        let mut state = FlatState {
            tree: BStarTree::balanced(&modules),
            undo: TreeUndoLog::default(),
            dims: self.netlist.default_dims(),
            delta: DeltaCost::new(self.netlist.adjacency(), modules.len()),
            rotatable,
            scratch: PackScratch::new(),
            packed: PackedBTree::new(),
            wirelength_weight: config.wirelength_weight,
        };
        let (stats, best) =
            Annealer::with_seed(config.seed).run_traced(&mut state, &config.schedule, telemetry);
        let best_tree = best.unwrap_or(state.tree);
        let placement = flat_placement(self.netlist, &best_tree);
        let metrics = placement.metrics(self.netlist);
        let symmetry_error = placement.symmetry_error(self.constraints);
        HbTreeResult { placement, metrics, symmetry_error, stats }
    }
}

fn flat_placement(netlist: &Netlist, tree: &BStarTree) -> Placement {
    let packed = pack_btree(tree, &netlist.default_dims());
    let mut placement = Placement::new(netlist);
    for (i, &(m, r)) in packed.rects().iter().enumerate() {
        let orientation = if packed.rotated()[i] { Orientation::R90 } else { Orientation::R0 };
        placement.place(m, r, orientation, 0);
    }
    placement
}

/// The flat B*-tree annealing state on the zero-allocation hot path: one
/// `pack_btree_into` per proposal straight into reusable buffers, wirelength
/// over the CSR pin adjacency with no intermediate placement, O(1) undo-log
/// rollback, and no second pack on acceptance. The B*-tree packing anchors its bounding box at the origin, so the packed
/// width/height are exactly the metrics bounding box of the equivalent
/// placement.
struct FlatState {
    tree: BStarTree,
    undo: TreeUndoLog,
    dims: Vec<apls_geometry::Dims>,
    delta: DeltaCost,
    rotatable: Vec<bool>,
    scratch: PackScratch,
    packed: PackedBTree,
    wirelength_weight: f64,
}

impl AnnealState for FlatState {
    type Snapshot = BStarTree;

    fn cost(&mut self) -> f64 {
        pack_btree_into(&mut self.scratch, &self.tree, &self.dims, &mut self.packed);
        // Wirelength through `DeltaCost::sweep_hpwl`: a B*-tree repack shifts
        // most downstream coordinates, so the per-module diff of `resync`
        // costs more than it saves (measured ~1.43 ms vs ~1.09 ms per 2000
        // moves at 10 modules and 7.2 ms vs 6.0 ms at 50). The sweep folds
        // the same per-net terms in the same order, so the cost stays
        // bit-identical either way — only the speed differs.
        let packed = &self.packed;
        let wirelength = self.delta.sweep_hpwl(|m| packed.rect_of(m));
        self.packed.area() as f64 + self.wirelength_weight * wirelength
    }

    fn propose(&mut self, rng: &mut dyn RngCore) {
        let rotatable = &self.rotatable;
        self.tree.perturb_logged(rng, |m| rotatable[m.index()], &mut self.undo);
    }

    fn rollback(&mut self) {
        self.tree.undo(&mut self.undo);
    }

    fn snapshot(&self) -> BStarTree {
        self.tree.clone()
    }

    fn move_kind(&self) -> &'static str {
        self.undo.move_kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks::{self, miller_opamp_fig6};

    #[test]
    fn hierarchical_placer_is_legal_and_exactly_constrained() {
        let circuit = miller_opamp_fig6();
        let result = HbTreePlacer::new(&circuit).run(&HbTreePlacerConfig::fast(2));
        assert!(result.placement.is_complete());
        assert_eq!(result.metrics.overlap_area, 0);
        assert_eq!(result.symmetry_error, 0);
        assert!(result.stats.moves.attempted > 0);
    }

    #[test]
    fn hierarchical_placer_improves_over_the_initial_tree() {
        let circuit = benchmarks::comparator_v2();
        let result = HbTreePlacer::new(&circuit).run(&HbTreePlacerConfig::fast(3));
        assert!(result.stats.best_cost <= result.stats.initial_cost);
    }

    #[test]
    fn flat_placer_is_legal_but_not_symmetric_in_general() {
        let circuit = miller_opamp_fig6();
        let result = BTreePlacer::new(&circuit.netlist, &circuit.constraints)
            .run(&BTreePlacerConfig::fast(4));
        assert!(result.placement.is_complete());
        assert_eq!(result.metrics.overlap_area, 0);
        // no structural guarantee; just check the error is reported
        assert!(result.symmetry_error >= 0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let circuit = benchmarks::comparator_v2();
        let a = HbTreePlacer::new(&circuit).run(&HbTreePlacerConfig::fast(11));
        let b = HbTreePlacer::new(&circuit).run(&HbTreePlacerConfig::fast(11));
        assert_eq!(a.metrics.bounding_area, b.metrics.bounding_area);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn miller_v2_benchmark_places_with_exact_constraints() {
        let circuit = benchmarks::miller_v2();
        let result = HbTreePlacer::new(&circuit).run(&HbTreePlacerConfig::fast(5));
        assert_eq!(result.metrics.overlap_area, 0);
        assert_eq!(result.symmetry_error, 0);
        assert!(result.metrics.area_usage >= 1.0);
    }
}
