//! The hierarchical cross-engine placement pipeline.
//!
//! Section IV of the paper bounds B*-tree enumeration with the layout design
//! hierarchy; this module promotes that idea from a single-engine detail into
//! a shared execution substrate. [`HierPlacer`] walks the hierarchy bottom-up:
//!
//! * *basic module sets* small enough to enumerate exhaustively are solved
//!   exactly (every B*-tree and rotation assignment, as in the deterministic
//!   placer);
//! * in the hybrid configuration, larger nodes are additionally refined by a
//!   flat B*-tree annealer over the node's modules
//!   ([`apls_btree::anneal_subset`]), with seeds derived per node from one
//!   root seed, so runs are reproducible and independent of the worker
//!   thread count;
//! * every sub-result is abstracted as an [`EnhancedShapeFunction`] and
//!   siblings are composed bottom-up with rayon-parallel candidate packing
//!   and dominance pruning.
//!
//! The pure-enumeration configuration of this driver ([`HierPlacer::new`])
//! **is** the deterministic placer of Section IV:
//! [`crate::DeterministicPlacer`] delegates to it, and the equivalence is
//! pinned bit-for-bit by the `hier_equivalence` integration tests. The hybrid
//! configuration ([`HierPlacer::hybrid`]) can only improve on it: the driver
//! keeps the pure enumeration result as a fallback and returns whichever
//! root shape has the smaller area, mirroring the portfolio's restart-0
//! guarantee.

use crate::{EnhancedShape, EnhancedShapeFunction};
use apls_anneal::rng::SeedStream;
use apls_anneal::Schedule;
use apls_btree::{anneal_subset, pack_btree, BStarTree, SubsetAnnealConfig};
use apls_circuit::benchmarks::BenchmarkCircuit;
use apls_circuit::{HierarchyNode, HierarchyNodeId, ModuleId, Placement};
use apls_geometry::{Dims, Orientation};
use apls_telemetry::Telemetry;
use rayon::prelude::*;
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

    /// Runs the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's hierarchy tree has no root.
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
        let root = self.circuit.hierarchy.root().expect("hierarchy has a root");
        // hoisted once per run; the old deterministic placer rebuilt the
        // dimension table on every recursive node visit
        let dims = self.circuit.netlist.default_dims();
        let rotatable = self.circuit.rotatable_modules();
        let ctx = Ctx {
            circuit: self.circuit,
            dims: &dims,
            rotatable: &rotatable,
            options: &self.options,
            anneal: self.anneal,
            telemetry: &self.telemetry,
        };
        let solution = solve_node(&ctx, root);
        let annealed_nodes = solution.annealed;

        // The never-lose anchor: the walk carries the pure-enumeration shape
        // function alongside the hybrid one (sharing every subtree annealing
        // never touched), and the better root shape wins. This mirrors the
        // portfolio's restart-0 guarantee — the hybrid engine can match the
        // deterministic engine in the worst case, never trail it.
        let (esf, enumeration_won) = match solution.pure {
            Some(pure_esf) => {
                let hybrid_area =
                    solution.hybrid.min_area_shape().map_or(i128::MAX, EnhancedShape::area);
                let pure_area = pure_esf.min_area_shape().map_or(i128::MAX, EnhancedShape::area);
                if pure_area < hybrid_area {
                    (pure_esf, true)
                } else {
                    (solution.hybrid, false)
                }
            }
            None => (solution.hybrid, false),
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

/// Shared per-run context of the recursive solve: the hoisted dimension and
/// rotation tables plus the pure/hybrid choice.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    circuit: &'a BenchmarkCircuit,
    dims: &'a [Dims],
    rotatable: &'a [bool],
    options: &'a HierOptions,
    anneal: bool,
    telemetry: &'a Telemetry,
}

/// The result of solving one hierarchy node.
struct NodeSolution {
    /// Shape function of the hybrid walk (annealing refinements included).
    hybrid: EnhancedShapeFunction,
    /// The pure-enumeration shape function of the same subtree, materialised
    /// only once annealing has touched the subtree — `None` means "equal
    /// to `hybrid`", which lets untouched subtrees (leaves, enumerated basic
    /// sets, and everything below the first annealed node) be computed and
    /// stored exactly once instead of re-running the whole pure pipeline for
    /// the never-lose anchor.
    pure: Option<EnhancedShapeFunction>,
    /// Annealing refinements in the subtree.
    annealed: usize,
}

impl NodeSolution {
    fn shared(esf: EnhancedShapeFunction) -> Self {
        NodeSolution { hybrid: esf, pure: None, annealed: 0 }
    }

    /// The pure-enumeration side (falls back to `hybrid` when shared).
    fn pure_esf(&self) -> &EnhancedShapeFunction {
        self.pure.as_ref().unwrap_or(&self.hybrid)
    }
}

/// Solves one hierarchy node bottom-up.
fn solve_node(ctx: &Ctx<'_>, node: HierarchyNodeId) -> NodeSolution {
    match ctx.circuit.hierarchy.node(node) {
        HierarchyNode::Leaf { module } => NodeSolution::shared(EnhancedShapeFunction::for_module(
            *module,
            ctx.dims,
            ctx.rotatable[module.index()],
        )),
        HierarchyNode::Internal { .. } => {
            let modules = ctx.circuit.hierarchy.leaves_under(node);
            let is_basic = ctx.circuit.hierarchy.is_basic_module_set(node);
            let enumerated = is_basic && modules.len() <= ctx.options.max_enumerated_set;
            if enumerated {
                // exact — annealing could only rediscover a subset
                let _span = apls_telemetry::span!(
                    ctx.telemetry,
                    "hier",
                    "enumerate_basic_set",
                    node = node.index() as u64,
                    modules = modules.len()
                );
                let mut esf = enumerate_basic_set(ctx, &modules);
                esf.truncate(ctx.options.max_shapes);
                return NodeSolution::shared(esf);
            }

            // solve the children in parallel (each is a pure function of its
            // subtree), then compose in schematic order — the fold order
            // fixes the result, so thread count never matters
            let children = ctx.circuit.hierarchy.children(node).to_vec();
            let solved: Vec<NodeSolution> =
                children.into_par_iter().map(|child| solve_node(ctx, child)).collect();
            let mut annealed: usize = solved.iter().map(|s| s.annealed).sum();
            let anneals_here = ctx.anneal
                && modules.len() > ctx.options.anneal_threshold
                && modules.len() <= ANNEAL_CAP;

            // the pure side diverges from the hybrid side only above annealed
            // nodes; below them it is the same object and costs nothing
            let (mut hybrid, mut pure) = if annealed > 0 {
                let mut h: Option<EnhancedShapeFunction> = None;
                let mut p: Option<EnhancedShapeFunction> = None;
                for child in solved {
                    match h {
                        None => {
                            // first child: move both sides out; a shared pure
                            // side needs one clone to materialise
                            p = Some(match child.pure {
                                Some(child_pure) => child_pure,
                                None => child.hybrid.clone(),
                            });
                            h = Some(child.hybrid);
                        }
                        Some(prev_h) => {
                            let prev_p = p.take().expect("pure fold tracks hybrid fold");
                            p = Some(prev_p.add_parallel(child.pure_esf(), ctx.dims));
                            h = Some(prev_h.add_parallel(&child.hybrid, ctx.dims));
                        }
                    }
                }
                (h.unwrap_or_default(), p)
            } else {
                let mut h: Option<EnhancedShapeFunction> = None;
                for child in solved {
                    h = Some(match h {
                        None => child.hybrid,
                        Some(prev) => prev.add_parallel(&child.hybrid, ctx.dims),
                    });
                }
                let h = h.unwrap_or_default();
                let p = if anneals_here { Some(h.clone()) } else { None };
                (h, p)
            };

            if anneals_here {
                let _span = apls_telemetry::span!(
                    ctx.telemetry,
                    "hier",
                    "sub_solve",
                    node = node.index() as u64,
                    modules = modules.len(),
                    solver = "btree-anneal"
                );
                hybrid.merge_from(anneal_node(ctx, node, &modules));
                annealed += 1;
            }
            hybrid.truncate(ctx.options.max_shapes);
            if let Some(p) = &mut pure {
                p.truncate(ctx.options.max_shapes);
            }
            NodeSolution { hybrid, pure, annealed }
        }
    }
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
/// basic module set.
fn enumerate_basic_set(ctx: &Ctx<'_>, modules: &[ModuleId]) -> EnhancedShapeFunction {
    use apls_btree::counting::enumerate_trees;
    let mut esf = EnhancedShapeFunction::new();
    let rotatable: Vec<bool> = modules.iter().map(|&m| ctx.rotatable[m.index()]).collect();
    let rot_count = 1usize << rotatable.iter().filter(|&&r| r).count();
    for tree in enumerate_trees(modules) {
        for rot_mask in 0..rot_count {
            let mut t: BStarTree = tree.clone();
            let mut bit = 0;
            for (i, &m) in modules.iter().enumerate() {
                if rotatable[i] {
                    if (rot_mask >> bit) & 1 == 1 {
                        t.rotate_node(m);
                    }
                    bit += 1;
                }
            }
            esf.insert(EnhancedShape::from_tree(t, ctx.dims));
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
