//! Hierarchically bounded enumeration: the deterministic placer.
//!
//! Section IV of the paper bounds the intractable B*-tree enumeration
//! (57,657,600 placements for just 8 modules) with the circuit hierarchy:
//!
//! 1. every *basic module set* — a hierarchy node whose children are all
//!    modules — is small (a differential pair, a current mirror, …), so **all**
//!    of its placements can be enumerated and stored as a shape function;
//! 2. the hierarchy tree then guides the combination of those partial
//!    solutions bottom-up: the shape functions of a node's children are added
//!    (in both directions), pruned, and passed upward;
//! 3. the minimum-area shape at the root is the final placement.
//!
//! Running the flow once with [`ShapeModel::Enhanced`] and once with
//! [`ShapeModel::Regular`] reproduces the ESF-vs-RSF comparison of Table I and
//! the staircase comparison of Fig. 8.

use crate::hier::{HierOptions, HierPlacer};
use crate::ShapeFunction;
use apls_circuit::benchmarks::BenchmarkCircuit;
use apls_circuit::{HierarchyNode, HierarchyNodeId, ModuleId, Placement};
use apls_geometry::Dims;
use std::time::Instant;

/// Which shape model the deterministic placer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeModel {
    /// Enhanced shape functions (shapes carry B*-trees; additions interleave).
    Enhanced,
    /// Regular shape functions (bounding boxes only).
    Regular,
}

/// Tuning options of the deterministic placer.
#[derive(Debug, Clone, Copy)]
pub struct PlacerOptions {
    /// Maximum number of shapes kept per shape function after every addition.
    pub max_shapes: usize,
    /// Basic module sets larger than this are not exhaustively enumerated;
    /// their modules are combined pairwise instead (the generators keep basic
    /// sets at ≤ 4 modules, so this is a safety valve, not the common path).
    pub max_enumerated_set: usize,
}

impl Default for PlacerOptions {
    fn default() -> Self {
        PlacerOptions { max_shapes: 24, max_enumerated_set: 5 }
    }
}

/// Result of one deterministic placement run.
#[derive(Debug, Clone)]
pub struct DeterministicResult {
    /// Shape model used.
    pub model: ShapeModel,
    /// Footprint of the minimum-area root shape.
    pub dims: Dims,
    /// Bounding-box area of the root shape divided by the total module area —
    /// the "area usage" column of Table I.
    pub area_usage: f64,
    /// Wall-clock runtime of the run.
    pub runtime: std::time::Duration,
    /// Number of shapes in the root shape function.
    pub root_shapes: usize,
    /// The root shape-function staircase as `(width, height)` pairs (Fig. 8).
    pub staircase: Vec<(i64, i64)>,
    /// The final placement (only available for the enhanced model, whose root
    /// shape carries the realising B*-tree).
    pub placement: Option<Placement>,
}

/// The deterministic, enumeration-based placer of Section IV.
///
/// Since the hierarchical pipeline landed, this placer is a thin adapter: the
/// enhanced model runs [`HierPlacer`](crate::hier::HierPlacer) in its
/// pure-enumeration configuration (no annealing), whose results
/// are bit-identical to the original recursive implementation (pinned by the
/// `hier_equivalence` integration tests). The regular bounding-box model
/// stays local because regular shape functions carry no realising trees.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct DeterministicPlacer<'a> {
    circuit: &'a BenchmarkCircuit,
    options: PlacerOptions,
}

impl<'a> DeterministicPlacer<'a> {
    /// Creates a placer for a benchmark circuit with default options.
    #[must_use]
    pub fn new(circuit: &'a BenchmarkCircuit) -> Self {
        DeterministicPlacer { circuit, options: PlacerOptions::default() }
    }

    /// Overrides the tuning options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: PlacerOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the deterministic placement with the chosen shape model.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's hierarchy tree has no root.
    #[must_use]
    pub fn run(&self, model: ShapeModel) -> DeterministicResult {
        let start = Instant::now();
        let total_area = self.circuit.netlist.total_module_area();

        let (dims, root_shapes, staircase, placement) = match model {
            ShapeModel::Enhanced => {
                // the pure-enumeration configuration of the hierarchical
                // pipeline (no annealing)
                let result = HierPlacer::new(self.circuit)
                    .with_options(HierOptions::pure(self.options))
                    .run();
                (result.dims, result.root_shapes, result.staircase, Some(result.placement))
            }
            ShapeModel::Regular => {
                let root = self.circuit.hierarchy.root().expect("hierarchy has a root");
                // hoisted once per run (the rotation check walks every
                // constraint group, so per-node rebuilds were O(nodes·groups))
                let rotatable = self.circuit.rotatable_modules();
                let dims = self.circuit.netlist.default_dims();
                let sf = self.regular_of(root, &dims, &rotatable);
                let best = sf.min_area_shape().expect("root shape function is non-empty");
                (
                    best.dims,
                    sf.len(),
                    sf.shapes().iter().map(|s| (s.dims.w, s.dims.h)).collect(),
                    None,
                )
            }
        };

        DeterministicResult {
            model,
            dims,
            area_usage: dims.area() as f64 / total_area as f64,
            runtime: start.elapsed(),
            root_shapes,
            staircase,
            placement,
        }
    }

    // ---------------------------------------------------------------- regular

    fn regular_of(
        &self,
        node: HierarchyNodeId,
        dims: &[Dims],
        rotatable: &[bool],
    ) -> ShapeFunction {
        match self.circuit.hierarchy.node(node) {
            HierarchyNode::Leaf { module } => {
                ShapeFunction::for_module(dims[module.index()], rotatable[module.index()])
            }
            HierarchyNode::Internal { .. } => {
                let modules = self.circuit.hierarchy.leaves_under(node);
                let is_basic = self.circuit.hierarchy.is_basic_module_set(node);
                let mut sf = if is_basic && modules.len() <= self.options.max_enumerated_set {
                    self.enumerate_basic_set_regular(&modules, dims, rotatable)
                } else {
                    let mut acc: Option<ShapeFunction> = None;
                    for &child in self.circuit.hierarchy.children(node) {
                        let child_sf = self.regular_of(child, dims, rotatable);
                        acc = Some(match acc {
                            None => child_sf,
                            Some(prev) => prev.add_both(&child_sf),
                        });
                    }
                    acc.unwrap_or_default()
                };
                sf.truncate(self.options.max_shapes);
                sf
            }
        }
    }

    /// For regular shape functions the basic-set enumeration degenerates to
    /// folding the module shape functions with bounding-box additions in both
    /// directions (bounding boxes cannot express anything richer).
    fn enumerate_basic_set_regular(
        &self,
        modules: &[ModuleId],
        dims: &[Dims],
        rotatable: &[bool],
    ) -> ShapeFunction {
        let mut acc: Option<ShapeFunction> = None;
        for &m in modules {
            let sf = ShapeFunction::for_module(dims[m.index()], rotatable[m.index()]);
            acc = Some(match acc {
                None => sf,
                Some(prev) => prev.add_both(&sf),
            });
        }
        acc.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks::{self, miller_opamp_fig6};

    #[test]
    fn enhanced_run_produces_a_legal_complete_placement() {
        let circuit = miller_opamp_fig6();
        let result = DeterministicPlacer::new(&circuit).run(ShapeModel::Enhanced);
        let placement = result.placement.expect("enhanced model returns a placement");
        assert!(placement.is_complete());
        let metrics = placement.metrics(&circuit.netlist);
        assert_eq!(metrics.overlap_area, 0);
        assert_eq!(metrics.bounding_area, result.dims.area());
        assert!((metrics.area_usage - result.area_usage).abs() < 1e-9);
    }

    #[test]
    fn enhanced_never_loses_to_regular() {
        for circuit in [miller_opamp_fig6(), benchmarks::comparator_v2()] {
            let placer = DeterministicPlacer::new(&circuit);
            let enhanced = placer.run(ShapeModel::Enhanced);
            let regular = placer.run(ShapeModel::Regular);
            assert!(
                enhanced.area_usage <= regular.area_usage + 1e-9,
                "{}: ESF {} vs RSF {}",
                circuit.name,
                enhanced.area_usage,
                regular.area_usage
            );
            assert!(enhanced.area_usage >= 1.0);
            assert!(regular.area_usage >= 1.0);
        }
    }

    #[test]
    fn staircases_are_pareto_fronts() {
        let circuit = benchmarks::comparator_v2();
        let placer = DeterministicPlacer::new(&circuit);
        for model in [ShapeModel::Enhanced, ShapeModel::Regular] {
            let result = placer.run(model);
            assert!(!result.staircase.is_empty());
            for pair in result.staircase.windows(2) {
                assert!(pair[0].0 < pair[1].0, "{model:?}: widths must increase");
                assert!(pair[0].1 > pair[1].1, "{model:?}: heights must decrease");
            }
        }
    }

    #[test]
    fn results_are_deterministic() {
        let circuit = benchmarks::miller_v2();
        let placer = DeterministicPlacer::new(&circuit);
        let a = placer.run(ShapeModel::Enhanced);
        let b = placer.run(ShapeModel::Enhanced);
        assert_eq!(a.dims, b.dims);
        assert_eq!(a.staircase, b.staircase);
    }

    #[test]
    fn tighter_shape_budget_is_never_better() {
        let circuit = benchmarks::comparator_v2();
        let generous = DeterministicPlacer::new(&circuit)
            .with_options(PlacerOptions { max_shapes: 32, ..PlacerOptions::default() })
            .run(ShapeModel::Enhanced);
        let tight = DeterministicPlacer::new(&circuit)
            .with_options(PlacerOptions { max_shapes: 2, ..PlacerOptions::default() })
            .run(ShapeModel::Enhanced);
        assert!(generous.area_usage <= tight.area_usage + 1e-9);
    }
}
