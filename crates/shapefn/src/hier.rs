//! The hierarchical cross-engine placement pipeline.
//!
//! Section IV of the paper bounds B*-tree enumeration with the layout design
//! hierarchy; this module promotes that idea from a single-engine detail into
//! a shared execution substrate. It walks the hierarchy bottom-up twice:
//!
//! * the *pure walk* ([`PureWalk`]) solves every node by enumeration and
//!   composition alone: *basic module sets* small enough to enumerate are
//!   solved exactly (every B*-tree and rotation assignment), and every other
//!   node folds its children's [`EnhancedShapeFunction`]s in schematic order
//!   by [`EnhancedShapeFunction::add`] with dominance pruning. Children are
//!   solved on rayon workers, so the walk is parallel but its result never
//!   depends on the thread count. The walk keeps every node's shape function;
//! * the *hybrid walk* ([`HierPlacer::hybrid`]) additionally refines nodes
//!   past the annealing threshold by a flat B*-tree annealer over the node's
//!   modules ([`apls_btree::anneal_subset`]), with seeds derived per node
//!   from one root seed, so runs are reproducible and independent of the
//!   worker thread count. It recomposes only the nodes at or above an
//!   annealed node; every subtree annealing never touches takes its shape
//!   function from the pure walk.
//!
//! The pure configuration of this driver ([`HierPlacer::new`]) **is** the
//! deterministic placer of Section IV: [`crate::DeterministicPlacer`]
//! delegates to it, and the equivalence is pinned bit-for-bit by the
//! `hier_equivalence` integration tests. The hybrid configuration can only
//! improve on it: the pure walk's root is its never-lose anchor, and it
//! returns whichever root shape has the smaller area, mirroring the
//! portfolio's restart-0 guarantee. One [`PureWalk`] can serve many placers
//! ([`HierPlacer::with_pure_walk`]); a portfolio run computes it once for its
//! deterministic lane and every hier restart.

use crate::{EnhancedShape, EnhancedShapeFunction};
use apls_anneal::rng::SeedStream;
use apls_anneal::Schedule;
use apls_btree::{
    anneal_subset, pack_btree, pack_extent, BStarTree, PackScratch, SubsetAnnealConfig,
};
use apls_circuit::benchmarks::BenchmarkCircuit;
use apls_circuit::{HierarchyNode, HierarchyNodeId, ModuleId, Placement};
use apls_geometry::{Dims, Orientation};
use apls_telemetry::Telemetry;
use rayon::prelude::*;
use std::borrow::Cow;
use std::time::Instant;

/// Nodes with more than this many modules are composed from their children
/// only; annealing a flat sub-problem that large would dominate the runtime
/// without improving on composition.
const ANNEAL_CAP: usize = 24;

/// Aspect-ratio targets (`w / h`) the node refiner sweeps, one run each; one
/// extra pure-area run is always added. More targets widen the staircase a
/// node contributes upward.
const ASPECT_TARGETS: [f64; 3] = [0.5, 1.0, 2.0];

/// Tuning options of the hierarchical pipeline.
#[derive(Debug, Clone)]
pub struct HierOptions {
    /// Maximum number of shapes kept per shape function after every addition.
    pub max_shapes: usize,
    /// Basic module sets larger than this are not exhaustively enumerated.
    pub max_enumerated_set: usize,
    /// Hierarchy nodes with more than this many modules (and at most 24) are
    /// refined by annealing in the hybrid configuration. Exhaustively
    /// enumerated nodes are never annealed — enumeration is already exact.
    pub anneal_threshold: usize,
    /// Root seed of the per-node annealing seed derivation.
    pub seed: u64,
    /// Use the short smoke-test schedule when annealing nodes.
    pub fast_schedule: bool,
}

impl Default for HierOptions {
    fn default() -> Self {
        HierOptions {
            max_shapes: 24,
            max_enumerated_set: 5,
            anneal_threshold: 5,
            seed: 1,
            fast_schedule: false,
        }
    }
}

impl HierOptions {
    /// The options of the pure-enumeration configuration behind
    /// [`crate::DeterministicPlacer`].
    #[must_use]
    pub fn pure(options: crate::PlacerOptions) -> Self {
        HierOptions {
            max_shapes: options.max_shapes,
            max_enumerated_set: options.max_enumerated_set,
            ..HierOptions::default()
        }
    }

    /// Sets the root seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the short annealing schedule (builder style).
    #[must_use]
    pub fn with_fast_schedule(mut self, fast: bool) -> Self {
        self.fast_schedule = fast;
        self
    }

    /// Sets the annealing threshold (builder style).
    #[must_use]
    pub fn with_anneal_threshold(mut self, threshold: usize) -> Self {
        self.anneal_threshold = threshold;
        self
    }
}

/// Result of one hierarchical pipeline run.
#[derive(Debug, Clone)]
pub struct HierResult {
    /// Footprint of the minimum-area root shape.
    pub dims: Dims,
    /// Bounding-box area of the root shape divided by the total module area.
    pub area_usage: f64,
    /// Wall-clock runtime of the run.
    pub runtime: std::time::Duration,
    /// Number of shapes in the root shape function.
    pub root_shapes: usize,
    /// The root shape-function staircase as `(width, height)` pairs.
    pub staircase: Vec<(i64, i64)>,
    /// The final placement, extracted from the minimum-area root shape's
    /// realising B*-tree.
    pub placement: Placement,
    /// Hierarchy nodes annealing was *applied* to during the hybrid walk.
    /// When [`HierResult::enumeration_won`] is `true` the refinements were
    /// attempted but discarded — the returned shapes owe them nothing.
    pub annealed_nodes: usize,
    /// `true` when the pure-enumeration fallback beat the hybrid root shape
    /// (the driver then returns the enumeration result, so the hybrid can
    /// never lose to the deterministic placer).
    pub enumeration_won: bool,
}

/// The pure-enumeration walk of a circuit's hierarchy: the enhanced shape
/// function of every node, exactly as the deterministic placer computes it.
///
/// It depends on the circuit and on [`HierOptions::max_shapes`] and
/// [`HierOptions::max_enumerated_set`] only, so one walk serves every placer
/// of the circuit under those two options: the pure placer's result, and
/// each hybrid run's never-lose anchor and untouched subtrees.
#[derive(Debug, Clone)]
pub struct PureWalk {
    /// Shape function of every hierarchy node, by node index.
    nodes: Vec<EnhancedShapeFunction>,
    root: HierarchyNodeId,
    max_shapes: usize,
    max_enumerated_set: usize,
}

impl PureWalk {
    /// Walks `circuit`'s hierarchy under `options`' shape cap and enumeration
    /// bound, inside one `hier/pure_walk` span on `telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's hierarchy tree has no root.
    #[must_use]
    pub fn new(circuit: &BenchmarkCircuit, options: &HierOptions, telemetry: &Telemetry) -> Self {
        let _span = apls_telemetry::span!(
            telemetry,
            "hier",
            "pure_walk",
            modules = circuit.netlist.module_count()
        );
        let root = circuit.hierarchy.root().expect("hierarchy has a root");
        let dims = circuit.netlist.default_dims();
        let rotatable = circuit.rotatable_modules();
        let ctx = Ctx { circuit, dims: &dims, rotatable: &rotatable, options, telemetry };
        let mut nodes = vec![EnhancedShapeFunction::new(); circuit.hierarchy.node_count()];
        for (node, esf) in walk_pure(&ctx, root) {
            nodes[node.index()] = esf;
        }
        PureWalk {
            nodes,
            root,
            max_shapes: options.max_shapes,
            max_enumerated_set: options.max_enumerated_set,
        }
    }

    /// The root's shape function.
    #[must_use]
    pub fn root(&self) -> &EnhancedShapeFunction {
        self.node(self.root)
    }

    fn node(&self, node: HierarchyNodeId) -> &EnhancedShapeFunction {
        &self.nodes[node.index()]
    }
}

/// The hierarchical cross-engine placer.
///
/// # Example
///
/// ```
/// use apls_circuit::benchmarks::miller_opamp_fig6;
/// use apls_shapefn::hier::HierPlacer;
///
/// let circuit = miller_opamp_fig6();
/// let result = HierPlacer::hybrid(&circuit, 7).run();
/// assert!(result.placement.is_complete());
/// assert_eq!(result.placement.metrics(&circuit.netlist).overlap_area, 0);
/// ```
pub struct HierPlacer<'a> {
    circuit: &'a BenchmarkCircuit,
    options: HierOptions,
    /// `true` for the hybrid configuration: nodes past the annealing
    /// threshold are refined by a flat B*-tree anneal.
    anneal: bool,
    telemetry: Telemetry,
    /// A pure walk computed elsewhere; `None` computes one per run.
    pure_walk: Option<&'a PureWalk>,
}

impl<'a> HierPlacer<'a> {
    /// Creates a pure-enumeration placer (no annealing): the configuration
    /// behind [`crate::DeterministicPlacer`].
    #[must_use]
    pub fn new(circuit: &'a BenchmarkCircuit) -> Self {
        HierPlacer {
            circuit,
            options: HierOptions::default(),
            anneal: false,
            telemetry: Telemetry::disabled(),
            pure_walk: None,
        }
    }

    /// Creates the hybrid placer: nodes past the annealing threshold are
    /// refined by B*-tree annealing seeded from the given root seed.
    #[must_use]
    pub fn hybrid(circuit: &'a BenchmarkCircuit, seed: u64) -> Self {
        HierPlacer {
            anneal: true,
            ..HierPlacer::new(circuit).with_options(HierOptions::default().with_seed(seed))
        }
    }

    /// Overrides the tuning options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: HierOptions) -> Self {
        self.options = options;
        self
    }

    /// Installs a telemetry handle (builder style). Observe-only: the result
    /// is bit-identical whatever collector is installed.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Uses a pure walk of this circuit computed elsewhere instead of
    /// computing one per run (builder style). The result is bit-identical.
    #[must_use]
    pub fn with_pure_walk(mut self, walk: &'a PureWalk) -> Self {
        self.pure_walk = Some(walk);
        self
    }

    /// Runs the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's hierarchy tree has no root, or if a shared
    /// pure walk was computed under a different shape cap or enumeration
    /// bound.
    #[must_use]
    pub fn run(&self) -> HierResult {
        let start = Instant::now();
        let mut run_span = apls_telemetry::span!(
            self.telemetry,
            "hier",
            "hier_run",
            seed = self.options.seed,
            modules = self.circuit.netlist.module_count()
        );
        let own_walk;
        let walk = match self.pure_walk {
            Some(walk) => {
                assert_eq!(
                    (walk.max_shapes, walk.max_enumerated_set),
                    (self.options.max_shapes, self.options.max_enumerated_set),
                    "the shared pure walk was computed under different options"
                );
                walk
            }
            None => {
                own_walk = PureWalk::new(self.circuit, &self.options, &self.telemetry);
                &own_walk
            }
        };
        let dims = self.circuit.netlist.default_dims();
        let rotatable = self.circuit.rotatable_modules();
        let ctx = Ctx {
            circuit: self.circuit,
            dims: &dims,
            rotatable: &rotatable,
            options: &self.options,
            telemetry: &self.telemetry,
        };
        let refined = if self.anneal { refine(&ctx, walk, walk.root) } else { None };

        // The never-lose anchor: the pure walk's root competes with the
        // hybrid one, and the better root shape wins. This mirrors the
        // portfolio's restart-0 guarantee — the hybrid engine can match the
        // deterministic engine in the worst case, never trail it. A walk
        // annealing never touched is the pure walk.
        let (esf, annealed_nodes, enumeration_won) = match refined {
            Some(hybrid) => {
                let area = |esf: &EnhancedShapeFunction| {
                    esf.min_area_shape().map_or(i128::MAX, EnhancedShape::area)
                };
                if area(walk.root()) < area(&hybrid.esf) {
                    (Cow::Borrowed(walk.root()), hybrid.annealed, true)
                } else {
                    (Cow::Owned(hybrid.esf), hybrid.annealed, false)
                }
            }
            None => (Cow::Borrowed(walk.root()), 0, false),
        };

        let best = esf.min_area_shape().expect("root shape function is non-empty");
        let placement = placement_from_tree(self.circuit, best.tree(), &dims);
        let dims = best.dims();
        if run_span.is_recording() {
            run_span.arg("annealed_nodes", annealed_nodes as u64);
            run_span.arg("root_shapes", esf.len() as u64);
            run_span.arg("enumeration_won", enumeration_won);
        }
        HierResult {
            dims,
            area_usage: dims.area() as f64 / self.circuit.netlist.total_module_area() as f64,
            runtime: start.elapsed(),
            root_shapes: esf.len(),
            staircase: esf.shapes().iter().map(|s| (s.dims().w, s.dims().h)).collect(),
            placement,
            annealed_nodes,
            enumeration_won,
        }
    }
}

/// Shared per-walk context: the hoisted dimension and rotation tables.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    circuit: &'a BenchmarkCircuit,
    dims: &'a [Dims],
    rotatable: &'a [bool],
    options: &'a HierOptions,
    telemetry: &'a Telemetry,
}

/// Solves the subtree of `node` by enumeration and composition alone and
/// returns the shape function of each of its nodes, `node`'s last.
fn walk_pure(
    ctx: &Ctx<'_>,
    node: HierarchyNodeId,
) -> Vec<(HierarchyNodeId, EnhancedShapeFunction)> {
    let children = match ctx.circuit.hierarchy.node(node) {
        HierarchyNode::Leaf { module } => {
            let esf =
                EnhancedShapeFunction::for_module(*module, ctx.dims, ctx.rotatable[module.index()]);
            return vec![(node, esf)];
        }
        HierarchyNode::Internal { .. } => ctx.circuit.hierarchy.children(node),
    };
    let modules = ctx.circuit.hierarchy.leaves_under(node);
    if ctx.circuit.hierarchy.is_basic_module_set(node)
        && modules.len() <= ctx.options.max_enumerated_set
    {
        let _span = apls_telemetry::span!(
            ctx.telemetry,
            "hier",
            "enumerate_basic_set",
            node = node.index() as u64,
            modules = modules.len()
        );
        let mut esf = enumerate_basic_set(ctx, &modules);
        esf.truncate(ctx.options.max_shapes);
        return vec![(node, esf)];
    }
    // solve the children in parallel (each is a pure function of its
    // subtree), then compose in schematic order — the fold order fixes the
    // result, so thread count never matters
    let solved: Vec<_> = children.to_vec().into_par_iter().map(|c| walk_pure(ctx, c)).collect();
    let mut esf = fold(solved.iter().map(|sub| Cow::Borrowed(&sub[sub.len() - 1].1)), ctx.dims);
    esf.truncate(ctx.options.max_shapes);
    let mut out: Vec<_> = solved.into_iter().flatten().collect();
    out.push((node, esf));
    out
}

/// A node's shape function in the hybrid walk, where annealing touched its
/// subtree.
struct Refined {
    esf: EnhancedShapeFunction,
    /// Annealing refinements in the subtree.
    annealed: usize,
}

/// Solves `node` in the hybrid walk; `None` when annealing touches nothing
/// in its subtree, whose shape function is then the pure walk's.
fn refine(ctx: &Ctx<'_>, walk: &PureWalk, node: HierarchyNodeId) -> Option<Refined> {
    let HierarchyNode::Internal { .. } = ctx.circuit.hierarchy.node(node) else {
        return None;
    };
    let modules = ctx.circuit.hierarchy.leaves_under(node);
    if ctx.circuit.hierarchy.is_basic_module_set(node)
        && modules.len() <= ctx.options.max_enumerated_set
    {
        // exact — annealing could only rediscover a subset
        return None;
    }
    let children = ctx.circuit.hierarchy.children(node);
    let refined: Vec<Option<Refined>> =
        children.to_vec().into_par_iter().map(|c| refine(ctx, walk, c)).collect();
    let anneals_here = modules.len() > ctx.options.anneal_threshold && modules.len() <= ANNEAL_CAP;
    if !anneals_here && refined.iter().all(Option::is_none) {
        return None;
    }
    let mut annealed = 0;
    let operands = children.iter().zip(refined).map(|(&child, refined)| match refined {
        Some(r) => {
            annealed += r.annealed;
            Cow::Owned(r.esf)
        }
        None => Cow::Borrowed(walk.node(child)),
    });
    let mut esf = fold(operands, ctx.dims);
    if anneals_here {
        let _span = apls_telemetry::span!(
            ctx.telemetry,
            "hier",
            "sub_solve",
            node = node.index() as u64,
            modules = modules.len(),
            solver = "btree-anneal"
        );
        esf.merge_from(anneal_node(ctx, node, &modules));
        annealed += 1;
    }
    esf.truncate(ctx.options.max_shapes);
    Some(Refined { esf, annealed })
}

/// Adds the children's shape functions in schematic order.
fn fold<'e>(
    children: impl Iterator<Item = Cow<'e, EnhancedShapeFunction>>,
    dims: &[Dims],
) -> EnhancedShapeFunction {
    children
        .reduce(|sum, child| Cow::Owned(sum.add(&child, dims)))
        .map(Cow::into_owned)
        .unwrap_or_default()
}

/// Flat B*-tree annealing over a node's modules (global ids, so the best
/// trees feed straight into the enhanced shape functions): one run per
/// aspect-ratio target plus one pure-area run, each seeded by the node id
/// and run index from the root seed, so the result is a pure function of the
/// node whatever the thread count.
fn anneal_node(
    ctx: &Ctx<'_>,
    node: HierarchyNodeId,
    modules: &[ModuleId],
) -> EnhancedShapeFunction {
    let seeds = SeedStream::new(ctx.options.seed);
    let schedule = if ctx.options.fast_schedule {
        Schedule::fast()
    } else {
        Schedule::for_problem_size(modules.len())
    };
    let mut esf = EnhancedShapeFunction::new();
    let targets = ASPECT_TARGETS.iter().copied().map(Some).chain([None]);
    for (run, aspect_target) in targets.enumerate() {
        let config = SubsetAnnealConfig {
            seed: seeds.seed_for(node.index() as u64, run as u64),
            schedule,
            aspect_target,
            aspect_weight: 0.3,
        };
        let result = anneal_subset(modules, ctx.dims, ctx.rotatable, &config);
        esf.insert(EnhancedShape::from_tree(result.tree, ctx.dims));
    }
    esf
}

/// Exhaustive enumeration of every B*-tree (and rotation assignment) of a
/// basic module set. Each variant is sized by an extent-only pack and cloned
/// only when the staircase keeps it.
fn enumerate_basic_set(ctx: &Ctx<'_>, modules: &[ModuleId]) -> EnhancedShapeFunction {
    use apls_btree::counting::enumerate_trees;
    let mut esf = EnhancedShapeFunction::new();
    let mut scratch = PackScratch::new();
    // bit `i` of a rotation mask rotates the `i`-th rotatable module
    let rotatable: Vec<ModuleId> =
        modules.iter().copied().filter(|m| ctx.rotatable[m.index()]).collect();
    for mut tree in enumerate_trees(modules) {
        let mut applied = 0usize;
        for rot_mask in 0..1usize << rotatable.len() {
            for (bit, &m) in rotatable.iter().enumerate() {
                if ((rot_mask ^ applied) >> bit) & 1 == 1 {
                    tree.rotate_node(m);
                }
            }
            applied = rot_mask;
            esf.insert_tree(pack_extent(&mut scratch, &tree, ctx.dims), &tree);
        }
    }
    esf
}

/// Extracts the full placement realised by a root-shape B*-tree.
pub(crate) fn placement_from_tree(
    circuit: &BenchmarkCircuit,
    tree: &BStarTree,
    module_dims: &[Dims],
) -> Placement {
    let packed = pack_btree(tree, module_dims);
    let mut placement = Placement::new(&circuit.netlist);
    for &(m, r) in packed.rects() {
        let orientation = if tree.is_rotated(m) { Orientation::R90 } else { Orientation::R0 };
        placement.place(m, r, orientation, 0);
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks::{self, miller_opamp_fig6};

    #[test]
    fn hybrid_run_produces_a_legal_complete_placement() {
        let circuit = miller_opamp_fig6();
        let mut options = HierOptions::default().with_seed(7).with_fast_schedule(true);
        options.anneal_threshold = 4;
        let result = HierPlacer::hybrid(&circuit, 7).with_options(options).run();
        assert!(result.placement.is_complete());
        let metrics = result.placement.metrics(&circuit.netlist);
        assert_eq!(metrics.overlap_area, 0);
        assert_eq!(metrics.bounding_area, result.dims.area());
        assert!(result.annealed_nodes > 0, "the miller root must qualify for annealing");
    }

    #[test]
    fn hybrid_never_loses_to_pure_enumeration() {
        for circuit in [miller_opamp_fig6(), benchmarks::comparator_v2()] {
            let pure = HierPlacer::new(&circuit).run();
            let hybrid = HierPlacer::hybrid(&circuit, 3)
                .with_options(HierOptions::default().with_seed(3).with_fast_schedule(true))
                .run();
            assert!(
                hybrid.dims.area() <= pure.dims.area(),
                "{}: hybrid {:?} lost to pure {:?}",
                circuit.name,
                hybrid.dims,
                pure.dims
            );
        }
    }

    #[test]
    fn hybrid_runs_are_seed_reproducible() {
        let circuit = benchmarks::miller_v2();
        let run = || {
            HierPlacer::hybrid(&circuit, 11)
                .with_options(HierOptions::default().with_seed(11).with_fast_schedule(true))
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.dims, b.dims);
        assert_eq!(a.staircase, b.staircase);
        assert_eq!(a.placement, b.placement);
    }
}
