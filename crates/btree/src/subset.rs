//! Flat B*-tree annealing over a module subset.
//!
//! The hierarchical placement pipeline ([`apls-shapefn`'s hier driver])
//! abstracts every hierarchy node as a shape function. Nodes too large to
//! enumerate exhaustively are refined by pinned-seed annealing instead; this
//! module is that refiner: it anneals a flat
//! B*-tree over *just* the subset modules, using the parent design's global
//! module ids and dimension table directly, so the best tree can be grafted
//! into enclosing shape functions without any id translation.
//!
//! The cost is the packed bounding-box area, optionally biased towards a
//! target aspect ratio — running the annealer once per target produces the
//! width/height spread a shape-function staircase needs.

use crate::pack::{pack_btree_into, PackScratch, PackedBTree};
use crate::tree::TreeUndoLog;
use crate::BStarTree;
use apls_anneal::{AnnealState, AnnealStats, Annealer, Schedule};
use apls_circuit::ModuleId;
use apls_geometry::Dims;
use rand::RngCore;

/// Configuration of one subset annealing run.
#[derive(Debug, Clone)]
pub struct SubsetAnnealConfig {
    /// RNG seed; identical seeds reproduce identical runs.
    pub seed: u64,
    /// Cooling schedule.
    pub schedule: Schedule,
    /// Target aspect ratio `w / h` of the packed subset; `None` optimises
    /// pure area.
    pub aspect_target: Option<f64>,
    /// Cost weight of the aspect-ratio deviation term (scales the area, so
    /// the two terms stay commensurable across subset sizes).
    pub aspect_weight: f64,
}

impl SubsetAnnealConfig {
    /// A pure-area configuration with a schedule scaled to the subset size.
    #[must_use]
    pub fn for_subset_size(seed: u64, n: usize) -> Self {
        SubsetAnnealConfig {
            seed,
            schedule: Schedule::for_problem_size(n),
            aspect_target: None,
            aspect_weight: 0.3,
        }
    }

    /// Selects the short smoke-test schedule (builder style).
    #[must_use]
    pub fn with_fast_schedule(mut self, fast: bool) -> Self {
        if fast {
            self.schedule = Schedule::fast();
        }
        self
    }

    /// Sets the aspect-ratio target (builder style).
    #[must_use]
    pub fn with_aspect_target(mut self, target: f64) -> Self {
        self.aspect_target = Some(target);
        self
    }
}

/// Result of one subset annealing run.
#[derive(Debug, Clone)]
pub struct SubsetAnnealResult {
    /// The best tree found (over the subset modules, global ids).
    pub tree: BStarTree,
    /// Packed footprint of that tree.
    pub dims: Dims,
    /// Annealing statistics.
    pub stats: AnnealStats,
}

/// Anneals a flat B*-tree over `modules`.
///
/// `module_dims` and `rotatable` are indexed by *global* module id (they
/// cover the whole parent design; only the subset entries are read), which is
/// what lets the returned tree feed straight into enhanced shape functions.
///
/// # Panics
///
/// Panics if `modules` is empty or references an id outside the tables.
#[must_use]
pub fn anneal_subset(
    modules: &[ModuleId],
    module_dims: &[Dims],
    rotatable: &[bool],
    config: &SubsetAnnealConfig,
) -> SubsetAnnealResult {
    assert!(!modules.is_empty(), "cannot anneal an empty module subset");
    for &m in modules {
        assert!(m.index() < module_dims.len(), "subset module {m} outside the dimension table");
        assert!(m.index() < rotatable.len(), "subset module {m} outside the rotation table");
    }
    let mut state = SubsetState {
        tree: BStarTree::balanced(modules),
        undo: TreeUndoLog::default(),
        best: None,
        dims: module_dims,
        rotatable,
        scratch: PackScratch::new(),
        packed: PackedBTree::new(),
        aspect_target: config.aspect_target,
        aspect_weight: config.aspect_weight,
    };
    let stats = Annealer::with_seed(config.seed).run(&mut state, &config.schedule);
    let tree = state.best.map(|(t, _)| t).unwrap_or(state.tree);
    pack_btree_into(&mut state.scratch, &tree, module_dims, &mut state.packed);
    SubsetAnnealResult { dims: state.packed.dims(), tree, stats }
}

/// The subset annealing state: same zero-allocation hot path as the flat
/// placer (scratch-buffer packing, undo-log rollback, driver-supplied cost in
/// `commit`), but with an area + aspect-deviation cost instead of
/// area + wirelength.
struct SubsetState<'a> {
    tree: BStarTree,
    undo: TreeUndoLog,
    best: Option<(BStarTree, f64)>,
    dims: &'a [Dims],
    rotatable: &'a [bool],
    scratch: PackScratch,
    packed: PackedBTree,
    aspect_target: Option<f64>,
    aspect_weight: f64,
}

impl AnnealState for SubsetState<'_> {
    fn cost(&mut self) -> f64 {
        pack_btree_into(&mut self.scratch, &self.tree, self.dims, &mut self.packed);
        let area = self.packed.area() as f64;
        match self.aspect_target {
            None => area,
            Some(target) => {
                let ratio = self.packed.width() as f64 / self.packed.height().max(1) as f64;
                area * (1.0 + self.aspect_weight * (ratio / target).ln().abs())
            }
        }
    }

    fn propose(&mut self, rng: &mut dyn RngCore) {
        let rotatable = self.rotatable;
        self.tree.perturb_logged(rng, |m| rotatable[m.index()], &mut self.undo);
    }

    fn rollback(&mut self) {
        self.tree.undo(&mut self.undo);
    }

    fn commit(&mut self, accepted_cost: f64) {
        let better = match &self.best {
            Some((_, c)) => accepted_cost < *c,
            None => true,
        };
        if better {
            self.best = Some((self.tree.clone(), accepted_cost));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_btree;
    use apls_circuit::benchmarks;
    use apls_geometry::total_overlap_area;

    fn setup() -> (Vec<ModuleId>, Vec<Dims>, Vec<bool>) {
        let circuit = benchmarks::folded_cascode();
        let dims = circuit.netlist.default_dims();
        let rotatable = circuit.rotatable_modules();
        let modules: Vec<ModuleId> = (3..11).map(ModuleId::from_index).collect();
        (modules, dims, rotatable)
    }

    #[test]
    fn subset_tree_covers_exactly_the_subset_without_overlap() {
        let (modules, dims, rotatable) = setup();
        let config = SubsetAnnealConfig::for_subset_size(5, modules.len()).with_fast_schedule(true);
        let result = anneal_subset(&modules, &dims, &rotatable, &config);
        let mut tree_modules = result.tree.modules();
        tree_modules.sort_unstable();
        let mut expected = modules.clone();
        expected.sort_unstable();
        assert_eq!(tree_modules, expected);
        let packed = pack_btree(&result.tree, &dims);
        assert_eq!(packed.dims(), result.dims);
        let rects: Vec<_> = packed.rects().iter().map(|(_, r)| *r).collect();
        assert_eq!(total_overlap_area(&rects), 0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_trees() {
        let (modules, dims, rotatable) = setup();
        let config = SubsetAnnealConfig::for_subset_size(9, modules.len()).with_fast_schedule(true);
        let a = anneal_subset(&modules, &dims, &rotatable, &config);
        let b = anneal_subset(&modules, &dims, &rotatable, &config);
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.dims, b.dims);
    }

    #[test]
    fn aspect_targets_pull_the_footprint() {
        let (modules, dims, rotatable) = setup();
        let base = SubsetAnnealConfig::for_subset_size(3, modules.len()).with_fast_schedule(true);
        let wide =
            anneal_subset(&modules, &dims, &rotatable, &base.clone().with_aspect_target(4.0));
        let tall = anneal_subset(&modules, &dims, &rotatable, &base.with_aspect_target(0.25));
        let ar = |d: Dims| d.w as f64 / d.h.max(1) as f64;
        assert!(
            ar(wide.dims) > ar(tall.dims),
            "wide target {:?} should beat tall target {:?}",
            wide.dims,
            tall.dims
        );
    }

    #[test]
    #[should_panic(expected = "empty module subset")]
    fn empty_subset_panics() {
        let _ = anneal_subset(&[], &[], &[], &SubsetAnnealConfig::for_subset_size(1, 1));
    }
}
