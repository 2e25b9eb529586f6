//! Hierarchical B*-trees (HB*-trees).
//!
//! The HB*-tree of reference [17] models each sub-circuit of the layout design
//! hierarchy with its own floorplan representation and links them through
//! hierarchy nodes: perturbations pick one sub-circuit's tree, and packing
//! proceeds bottom-up, abstracting every packed sub-circuit as a block in its
//! parent.
//!
//! [`HbTree`] follows that structure:
//!
//! * hierarchy nodes tagged with a **symmetry** constraint whose leaves form a
//!   symmetry group are placed as ASF symmetry islands ([`crate::asf`]);
//! * nodes tagged **common-centroid** use the interdigitated pattern generator
//!   ([`crate::common_centroid`]);
//! * all other internal nodes own an ordinary [`BStarTree`] over their
//!   children (modules or sub-circuit blocks).
//!
//! Simplification vs. [17] (documented in DESIGN.md): a packed sub-circuit is
//! abstracted by its bounding rectangle during parent packing, i.e. the
//! rectilinear top contour of a cluster is not exploited. Experiment E10
//! quantifies the impact by comparing against flat (non-hierarchical) B*-tree
//! placement.

use crate::asf::{AsfBTree, SymmetryIsland};
use crate::common_centroid::generate_pattern;
use crate::pack::{pack_btree_into, PackScratch, PackedBTree};
use crate::tree::TreeUndoLog;
use crate::BStarTree;
use apls_circuit::{
    ConstraintKind, ConstraintSet, HierarchyNode, HierarchyNodeId, HierarchyTree, ModuleId,
    Netlist, Placement,
};
use apls_geometry::{Dims, Orientation, Point, Rect};
use rand::{Rng, RngCore};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of node change stamps. Process-wide, so no two trees ever hand out
/// the same stamp: a stamp identifies one version of one node's contents.
/// Starts at 1; 0 marks a scratch slot that was never packed.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Reserves `n` fresh stamps and returns the first. `Relaxed` suffices: the
/// counter publishes no other data, and `fetch_add` is atomic at any ordering.
fn fresh_stamps(n: usize) -> u64 {
    NEXT_STAMP.fetch_add(n as u64, Ordering::Relaxed)
}

/// How one hierarchy node is placed.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeKind {
    /// A single module.
    Leaf(ModuleId),
    /// An internal node packed with its own B*-tree over child blocks.
    Tree(BStarTree),
    /// A symmetry island over the node's symmetry group.
    SymmetryIsland(AsfBTree),
    /// A common-centroid pattern over the node's group.
    CommonCentroid(apls_circuit::CommonCentroidGroup),
}

/// The hierarchical B*-tree state explored by the annealing placer.
///
/// # Example
///
/// ```
/// use apls_circuit::benchmarks::miller_opamp_fig6;
/// use apls_btree::HbTree;
///
/// let circuit = miller_opamp_fig6();
/// let hb = HbTree::new(&circuit.netlist, &circuit.hierarchy, &circuit.constraints);
/// let placement = hb.pack();
/// assert!(placement.is_complete());
/// assert_eq!(placement.metrics(&circuit.netlist).overlap_area, 0);
/// ```
///
/// Equality is structural: it compares node contents, not change stamps.
#[derive(Debug, Clone)]
pub struct HbTree {
    /// One entry per hierarchy node, indexed by `HierarchyNodeId::index`.
    kinds: Vec<NodeKind>,
    /// Children of each hierarchy node (hierarchy node indices).
    children: Vec<Vec<usize>>,
    root: usize,
    /// Default module dimensions, indexed by module id.
    module_dims: Vec<Dims>,
    module_count: usize,
    /// Whether a module may be rotated by the perturbation operators.
    rotatable: Vec<bool>,
    /// Right-pair members per module index (for mirrored orientations).
    mirrored: Vec<bool>,
    /// Hierarchy nodes that own a perturbable tree (ordinary sub-circuit or
    /// symmetry-island half-tree). Node kinds never change during annealing,
    /// so this is computed once instead of per move.
    perturb_candidates: Vec<usize>,
    /// Whether the packing *token* of a hierarchy node may be rotated: only
    /// leaf tokens whose module allows rotation (rotating a sub-circuit block
    /// would transpose its footprint without transposing its contents).
    token_rotatable: Vec<bool>,
    /// Change stamp of each hierarchy node: fresh in [`HbTree::new`], fresh
    /// again for the node [`HbTree::perturb_logged`] picks, and put back by
    /// [`HbTree::undo`]. Equal stamps mean equal contents, clones included.
    stamps: Vec<u64>,
}

impl PartialEq for HbTree {
    fn eq(&self, other: &Self) -> bool {
        // every field but `stamps`, which only keys the packing cache
        self.kinds == other.kinds
            && self.children == other.children
            && self.root == other.root
            && self.module_dims == other.module_dims
            && self.module_count == other.module_count
            && self.rotatable == other.rotatable
            && self.mirrored == other.mirrored
            && self.perturb_candidates == other.perturb_candidates
            && self.token_rotatable == other.token_rotatable
    }
}

/// The inverse record of one [`HbTree::perturb_logged`] call: which hierarchy
/// node was perturbed plus the undo log of its tree. Replayed by
/// [`HbTree::undo`] in O(1) instead of deep-cloning the whole hierarchy.
#[derive(Debug, Clone, Default)]
pub struct HbUndoLog {
    node: Option<usize>,
    /// The perturbed node's stamp before the perturbation.
    stamp: u64,
    tree: TreeUndoLog,
}

impl HbUndoLog {
    /// Telemetry label of the recorded perturbation's move type.
    #[must_use]
    pub fn move_kind(&self) -> &'static str {
        if self.node.is_none() {
            "noop"
        } else {
            self.tree.move_kind()
        }
    }
}

/// Reusable working storage for [`HbTree::pack_into`]: per-node sub-placement
/// buffers, the shared token-dimension table and contour/packing scratch.
///
/// The per-node buffers double as a cache keyed by node change stamps, so a
/// pack redoes only the nodes that changed since this scratch last packed
/// them, plus their ancestors. Any scratch may pack any tree.
#[derive(Debug, Clone, Default)]
pub struct HbPackScratch {
    /// `(module, rect, rotated)` triples per hierarchy node, block-relative.
    node_rects: Vec<Vec<(ModuleId, Rect, bool)>>,
    /// Footprint of each packed hierarchy node.
    node_dims: Vec<Dims>,
    /// Token dimension table shared by every `pack_btree_into` call (only the
    /// current node's child entries are read, so no clearing is needed).
    token_dims: Vec<Dims>,
    pack: PackScratch,
    packed: PackedBTree,
    island: SymmetryIsland,
    /// Stamp of the node contents each slot of `node_rects`/`node_dims` was
    /// packed from (0: never packed).
    packed_at: Vec<u64>,
}

impl HbPackScratch {
    /// Creates an empty scratch; buffers are sized lazily on the first pack.
    #[must_use]
    pub fn new() -> Self {
        HbPackScratch::default()
    }

    fn ensure(&mut self, node_count: usize) {
        if self.node_rects.len() < node_count {
            self.node_rects.resize_with(node_count, Vec::new);
            self.node_dims.resize(node_count, Dims::ZERO);
            self.token_dims.resize(node_count, Dims::ZERO);
            self.packed_at.resize(node_count, 0);
        }
    }
}

impl HbTree {
    /// Builds the initial HB*-tree for a circuit.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy tree has no root or does not validate against
    /// the netlist.
    #[must_use]
    pub fn new(netlist: &Netlist, hierarchy: &HierarchyTree, constraints: &ConstraintSet) -> Self {
        hierarchy.validate(netlist).expect("hierarchy tree must cover the netlist");
        let root = hierarchy.root().expect("hierarchy has a root").index();
        let module_dims = netlist.default_dims();
        let module_count = netlist.module_count();

        let mut rotatable = vec![false; module_count];
        for (id, module) in netlist.modules() {
            let constrained = !constraints.kinds_for(id).is_empty();
            rotatable[id.index()] = module.rotation_allowed() && !constrained;
        }
        let mut mirrored = vec![false; module_count];
        for g in constraints.symmetry_groups() {
            for &(_, r) in g.pairs() {
                mirrored[r.index()] = true;
            }
        }

        let mut kinds: Vec<NodeKind> = Vec::with_capacity(hierarchy.node_count());
        let mut children: Vec<Vec<usize>> = Vec::with_capacity(hierarchy.node_count());
        for i in 0..hierarchy.node_count() {
            let id = node_id(i);
            children.push(hierarchy.children(id).iter().map(|c| c.index()).collect());
            kinds.push(Self::classify(netlist, hierarchy, constraints, id));
        }

        let perturb_candidates: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, NodeKind::Tree(_) | NodeKind::SymmetryIsland(_)))
            .map(|(i, _)| i)
            .collect();
        let token_rotatable: Vec<bool> = kinds
            .iter()
            .map(|k| match k {
                NodeKind::Leaf(m) => rotatable[m.index()],
                _ => false,
            })
            .collect();
        let first = fresh_stamps(kinds.len());
        let stamps = (first..).take(kinds.len()).collect();

        HbTree {
            kinds,
            children,
            root,
            module_dims,
            module_count,
            rotatable,
            mirrored,
            perturb_candidates,
            token_rotatable,
            stamps,
        }
    }

    fn classify(
        _netlist: &Netlist,
        hierarchy: &HierarchyTree,
        constraints: &ConstraintSet,
        id: HierarchyNodeId,
    ) -> NodeKind {
        match hierarchy.node(id) {
            HierarchyNode::Leaf { module } => NodeKind::Leaf(*module),
            HierarchyNode::Internal { constraint, .. } => {
                let leaves = hierarchy.leaves_under(id);
                let mut sorted_leaves = leaves.clone();
                sorted_leaves.sort();
                if *constraint == Some(ConstraintKind::Symmetry) {
                    if let Some(group) = constraints.symmetry_groups().iter().find(|g| {
                        let mut members = g.members();
                        members.sort();
                        members == sorted_leaves
                    }) {
                        return NodeKind::SymmetryIsland(AsfBTree::new(group.clone()));
                    }
                }
                if *constraint == Some(ConstraintKind::CommonCentroid) {
                    if let Some(group) = constraints.common_centroid_groups().iter().find(|g| {
                        let mut members = g.members();
                        members.sort();
                        members == sorted_leaves
                    }) {
                        return NodeKind::CommonCentroid(group.clone());
                    }
                }
                // ordinary sub-circuit: B*-tree over the child tokens
                let tokens: Vec<ModuleId> = hierarchy
                    .children(id)
                    .iter()
                    .map(|c| ModuleId::from_index(c.index()))
                    .collect();
                NodeKind::Tree(BStarTree::left_chain(&tokens))
            }
        }
    }

    /// Number of placeable modules covered by the tree.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.module_count
    }

    /// Applies one random perturbation: pick a sub-circuit that owns a tree
    /// (ordinary node or symmetry-island half-tree) and perturb it.
    pub fn perturb(&mut self, rng: &mut dyn RngCore) {
        let mut log = HbUndoLog::default();
        self.perturb_logged(rng, &mut log);
    }

    /// [`HbTree::perturb`] with an undo record for [`HbTree::undo`]. The RNG
    /// consumption is identical to `perturb`, so logged and unlogged runs with
    /// the same seed follow the same trajectory. Zero allocation: the
    /// candidate list and token-rotatability table are precomputed at
    /// construction (node kinds never change during annealing).
    pub fn perturb_logged(&mut self, rng: &mut dyn RngCore, log: &mut HbUndoLog) {
        log.node = None;
        log.tree.reset();
        if self.perturb_candidates.is_empty() {
            return;
        }
        let pick = self.perturb_candidates[rng.gen_range(0..self.perturb_candidates.len())];
        log.node = Some(pick);
        log.stamp = std::mem::replace(&mut self.stamps[pick], fresh_stamps(1));
        let token_rotatable = &self.token_rotatable;
        match &mut self.kinds[pick] {
            NodeKind::Tree(tree) => {
                tree.perturb_logged(
                    rng,
                    |token| token_rotatable.get(token.index()).copied().unwrap_or(false),
                    &mut log.tree,
                );
            }
            NodeKind::SymmetryIsland(asf) => {
                asf.half_tree_mut().perturb_logged(rng, |_| false, &mut log.tree);
            }
            _ => {}
        }
    }

    /// Replays the inverse of the perturbation recorded in `log`, restoring
    /// the tree exactly. Consumes the log: a second call is a no-op.
    pub fn undo(&mut self, log: &mut HbUndoLog) {
        let Some(node) = log.node.take() else { return };
        self.stamps[node] = log.stamp;
        match &mut self.kinds[node] {
            NodeKind::Tree(tree) => tree.undo(&mut log.tree),
            NodeKind::SymmetryIsland(asf) => asf.half_tree_mut().undo(&mut log.tree),
            _ => {}
        }
    }

    /// Packs the hierarchy bottom-up into a placement.
    ///
    /// Convenience wrapper over [`HbTree::pack_into`] that allocates fresh
    /// scratch and a fresh placement; hot loops should hold both and call
    /// `pack_into` instead.
    #[must_use]
    pub fn pack(&self) -> Placement {
        let mut scratch = HbPackScratch::new();
        let mut placement = Placement::with_capacity(self.module_count);
        self.pack_into(&mut scratch, &mut placement);
        placement
    }

    /// Packs the hierarchy bottom-up into a reusable placement using reusable
    /// scratch buffers — the allocation-free form of [`HbTree::pack`]
    /// (identical output for any scratch). Only nodes whose stamp differs
    /// from the one `scratch` packed them at, and their ancestors, are
    /// repacked; every other node reuses its cached sub-placement.
    ///
    /// # Panics
    ///
    /// Panics if `placement` has fewer slots than this tree's module count.
    pub fn pack_into(&self, scratch: &mut HbPackScratch, placement: &mut Placement) {
        scratch.ensure(self.kinds.len());
        self.pack_node_into(self.root, scratch);
        placement.clear();
        for &(module, rect, rotated) in &scratch.node_rects[self.root] {
            let orientation = if self.mirrored[module.index()] {
                Orientation::MY
            } else if rotated {
                Orientation::R90
            } else {
                Orientation::R0
            };
            placement.place(module, rect, orientation, 0);
        }
    }

    /// Packs `node` into its scratch slot unless the slot already holds the
    /// node's current stamp and no child had to be repacked. Returns whether
    /// the node was repacked.
    fn pack_node_into(&self, node: usize, scratch: &mut HbPackScratch) -> bool {
        let mut stale = scratch.packed_at[node] != self.stamps[node];
        if let NodeKind::Tree(_) = &self.kinds[node] {
            for &c in &self.children[node] {
                stale |= self.pack_node_into(c, scratch);
            }
        }
        if !stale {
            return false;
        }
        match &self.kinds[node] {
            NodeKind::Leaf(module) => {
                let d = self.module_dims[module.index()];
                scratch.node_dims[node] = d;
                let out = &mut scratch.node_rects[node];
                out.clear();
                out.push((*module, Rect::from_dims(Point::ORIGIN, d), false));
            }
            NodeKind::CommonCentroid(group) => {
                let pattern = generate_pattern(group, &self.module_dims);
                scratch.node_dims[node] = pattern.dims();
                let out = &mut scratch.node_rects[node];
                out.clear();
                out.extend(pattern.rects().iter().map(|&(m, r)| (m, r, false)));
            }
            NodeKind::SymmetryIsland(asf) => {
                let HbPackScratch { node_rects, node_dims, pack, packed, island, .. } = scratch;
                asf.pack_into(&self.module_dims, pack, packed, island);
                node_dims[node] = island.dims();
                let out = &mut node_rects[node];
                out.clear();
                out.extend(island.rects().iter().map(|&(m, r)| (m, r, false)));
            }
            NodeKind::Tree(tree) => {
                let HbPackScratch { node_rects, node_dims, token_dims, pack, packed, .. } = scratch;
                for &c in &self.children[node] {
                    token_dims[c] = node_dims[c];
                }
                pack_btree_into(pack, tree, token_dims, packed);
                // `node_rects[node]` is taken out so the child buffers can be
                // read while the parent buffer is filled (no re-allocation:
                // the taken Vec keeps its capacity and is put back)
                let mut out = std::mem::take(&mut node_rects[node]);
                out.clear();
                for (i, (token, rect)) in packed.rects().iter().enumerate() {
                    let child = token.index();
                    if let NodeKind::Leaf(module) = &self.kinds[child] {
                        // leaf tokens may be rotated: the packed rect already
                        // has the transposed footprint
                        out.push((*module, *rect, packed.rotated()[i]));
                    } else {
                        for &(module, local, rot) in &node_rects[child] {
                            out.push((module, local.translated(rect.origin()), rot));
                        }
                    }
                }
                node_rects[node] = out;
                node_dims[node] = packed.dims();
            }
        }
        scratch.packed_at[node] = self.stamps[node];
        true
    }
}

fn node_id(index: usize) -> HierarchyNodeId {
    HierarchyNodeId::from_index(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_anneal::rng::SeededRng;
    use apls_circuit::benchmarks::{self, miller_opamp_fig6};

    #[test]
    fn miller_fig6_packs_legally_with_exact_constraints() {
        let circuit = miller_opamp_fig6();
        let hb = HbTree::new(&circuit.netlist, &circuit.hierarchy, &circuit.constraints);
        let placement = hb.pack();
        assert!(placement.is_complete());
        let metrics = placement.metrics(&circuit.netlist);
        assert_eq!(metrics.overlap_area, 0);
        assert_eq!(placement.symmetry_error(&circuit.constraints), 0);
        for g in circuit.constraints.proximity_groups() {
            assert!(g.is_connected(&placement), "proximity group {} split", g.name());
        }
    }

    #[test]
    fn perturbations_keep_placements_legal() {
        let circuit = miller_opamp_fig6();
        let mut hb = HbTree::new(&circuit.netlist, &circuit.hierarchy, &circuit.constraints);
        let mut rng = SeededRng::new(41);
        for step in 0..300 {
            hb.perturb(&mut rng);
            let placement = hb.pack();
            assert!(placement.is_complete(), "incomplete at step {step}");
            assert_eq!(
                placement.metrics(&circuit.netlist).overlap_area,
                0,
                "overlap at step {step}"
            );
            assert_eq!(
                placement.symmetry_error(&circuit.constraints),
                0,
                "asymmetric at step {step}"
            );
        }
    }

    #[test]
    fn benchmark_circuits_pack_completely() {
        for circuit in [benchmarks::comparator_v2(), benchmarks::miller_v2()] {
            let hb = HbTree::new(&circuit.netlist, &circuit.hierarchy, &circuit.constraints);
            let placement = hb.pack();
            assert!(placement.is_complete(), "{}", circuit.name);
            assert_eq!(placement.metrics(&circuit.netlist).overlap_area, 0, "{}", circuit.name);
            assert_eq!(placement.symmetry_error(&circuit.constraints), 0, "{}", circuit.name);
        }
    }

    #[test]
    fn area_is_at_least_total_module_area() {
        let circuit = benchmarks::miller_v2();
        let hb = HbTree::new(&circuit.netlist, &circuit.hierarchy, &circuit.constraints);
        let metrics = hb.pack().metrics(&circuit.netlist);
        assert!(metrics.bounding_area >= circuit.netlist.total_module_area());
    }
}
