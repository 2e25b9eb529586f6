//! The B*-tree floorplan representation.

use apls_circuit::ModuleId;
use rand::{Rng, RngCore};

/// One node of a [`BStarTree`], stored in an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    module: ModuleId,
    /// Whether the module is rotated by 90° in this placement.
    rotated: bool,
    left: Option<usize>,
    right: Option<usize>,
    parent: Option<usize>,
}

/// A B*-tree: an ordered binary tree whose pre-order traversal packs modules
/// left-to-right against a contour.
///
/// The left child of a node is the module placed immediately to its right
/// (`x = parent.x + parent.width`); the right child shares the parent's x
/// coordinate and is placed above it. Any binary tree over the module set maps
/// to a legal (overlap-free), left- and bottom-compacted placement, and any
/// such placement admits a B*-tree — this is the representation's key
/// property.
///
/// The tree is stored as an arena of nodes (index-based links), which keeps
/// the perturbation operations — [`BStarTree::rotate_node`],
/// [`BStarTree::swap_modules`], [`BStarTree::move_node`] — simple and avoids
/// fighting the borrow checker with parent pointers.
///
/// # Example
///
/// ```
/// use apls_btree::BStarTree;
/// use apls_circuit::ModuleId;
///
/// let modules: Vec<ModuleId> = (0..4).map(ModuleId::from_index).collect();
/// let tree = BStarTree::left_chain(&modules);
/// assert_eq!(tree.len(), 4);
/// assert!(tree.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BStarTree {
    nodes: Vec<Node>,
    root: Option<usize>,
}

/// The inverse record of one perturbation, replayed by [`BStarTree::undo`].
///
/// One log undoes exactly one perturbation (the annealing engine guarantees
/// rollbacks only target the most recent proposal), so a state owns a single
/// reusable log: recording overwrites it, undoing consumes it. The embedded
/// swap buffer is reused across moves, which is what makes rollback
/// allocation-free in steady state — O(1) structural work plus the sink-swap
/// chain, instead of a full deep clone of the tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeUndoLog {
    kind: UndoKind,
    /// The module/rotation swaps `move_node` performed while sinking the moved
    /// node to a leaf, in application order (each swap is its own inverse).
    swaps: Vec<(usize, usize)>,
}

impl TreeUndoLog {
    /// Returns `true` when the log holds nothing to undo (the last recorded
    /// perturbation was a no-op, or the log was already consumed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kind == UndoKind::None
    }

    /// Telemetry label of the recorded perturbation's move type.
    #[must_use]
    pub fn move_kind(&self) -> &'static str {
        match self.kind {
            UndoKind::None => "noop",
            UndoKind::Rotate(_) => "rotate",
            UndoKind::Swap(..) => "swap",
            UndoKind::Move { .. } => "move_node",
        }
    }

    pub(crate) fn reset(&mut self) {
        self.kind = UndoKind::None;
        self.swaps.clear();
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum UndoKind {
    /// Nothing to undo.
    #[default]
    None,
    /// The rotation flag of this arena node was toggled.
    Rotate(usize),
    /// The payloads of these two arena nodes were swapped.
    Swap(usize, usize),
    /// A `move_node`: after the sink swaps, the node at arena index `leaf`
    /// was detached from `old_parent` and reattached under `target`,
    /// displacing `displaced` into the leaf's left slot.
    Move {
        leaf: usize,
        old_parent: usize,
        old_as_left: bool,
        target: usize,
        new_as_left: bool,
        displaced: Option<usize>,
    },
}

impl BStarTree {
    /// Builds a degenerate tree where every module is the left child of the
    /// previous one: the packing is a single row.
    #[must_use]
    pub fn left_chain(modules: &[ModuleId]) -> Self {
        let mut tree = BStarTree { nodes: Vec::with_capacity(modules.len()), root: None };
        let mut prev: Option<usize> = None;
        for &m in modules {
            let idx = tree.nodes.len();
            tree.nodes.push(Node {
                module: m,
                rotated: false,
                left: None,
                right: None,
                parent: prev,
            });
            match prev {
                None => tree.root = Some(idx),
                Some(p) => tree.nodes[p].left = Some(idx),
            }
            prev = Some(idx);
        }
        tree
    }

    /// Builds a roughly balanced tree (alternating left/right children), which
    /// packs into a more square-ish initial floorplan than
    /// [`BStarTree::left_chain`].
    #[must_use]
    pub fn balanced(modules: &[ModuleId]) -> Self {
        let mut tree = BStarTree { nodes: Vec::with_capacity(modules.len()), root: None };
        for &m in modules {
            tree.nodes.push(Node {
                module: m,
                rotated: false,
                left: None,
                right: None,
                parent: None,
            });
        }
        if modules.is_empty() {
            return tree;
        }
        tree.root = Some(0);
        for i in 1..modules.len() {
            let parent = (i - 1) / 2;
            tree.nodes[i].parent = Some(parent);
            if i % 2 == 1 {
                tree.nodes[parent].left = Some(i);
            } else {
                tree.nodes[parent].right = Some(i);
            }
        }
        tree
    }

    /// Number of modules in the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the tree holds no modules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The modules in pre-order (the packing order).
    #[must_use]
    pub fn preorder(&self) -> Vec<ModuleId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.preorder_visit(self.root, &mut |tree, idx| out.push(tree.nodes[idx].module));
        out
    }

    /// Arena index of the last node on the root's right chain (`None` for
    /// an empty tree). A right child hung under it is packed after every
    /// other node, at `x = 0`.
    #[must_use]
    pub fn right_chain_end(&self) -> Option<usize> {
        let mut idx = self.root?;
        while let Some(right) = self.nodes[idx].right {
            idx = right;
        }
        Some(idx)
    }

    /// All modules in arena order (insertion order, not packing order).
    #[must_use]
    pub fn modules(&self) -> Vec<ModuleId> {
        self.nodes.iter().map(|n| n.module).collect()
    }

    /// Whether the node holding `module` is rotated.
    #[must_use]
    pub fn is_rotated(&self, module: ModuleId) -> bool {
        self.nodes.iter().find(|n| n.module == module).is_some_and(|n| n.rotated)
    }

    fn preorder_visit<F: FnMut(&BStarTree, usize)>(&self, node: Option<usize>, f: &mut F) {
        let Some(idx) = node else { return };
        f(self, idx);
        self.preorder_visit(self.nodes[idx].left, f);
        self.preorder_visit(self.nodes[idx].right, f);
    }

    /// Internal iteration used by the packer: calls `f(module, rotated,
    /// parent_slot)` in pre-order, where `parent_slot` identifies whether the
    /// node is the root, a left child or a right child, together with the
    /// parent's arena index.
    pub(crate) fn walk_preorder<F: FnMut(usize, ModuleId, bool, Slot)>(&self, f: &mut F) {
        self.walk(self.root, Slot::Root, f);
    }

    fn walk<F: FnMut(usize, ModuleId, bool, Slot)>(
        &self,
        node: Option<usize>,
        slot: Slot,
        f: &mut F,
    ) {
        let Some(idx) = node else { return };
        let n = self.nodes[idx];
        f(idx, n.module, n.rotated, slot);
        self.walk(n.left, Slot::LeftChildOf(idx), f);
        self.walk(n.right, Slot::RightChildOf(idx), f);
    }

    /// Toggles the rotation flag of the node holding `module`.
    ///
    /// Returns `false` when the module is not in the tree.
    pub fn rotate_node(&mut self, module: ModuleId) -> bool {
        for n in &mut self.nodes {
            if n.module == module {
                n.rotated = !n.rotated;
                return true;
            }
        }
        false
    }

    /// Swaps the modules held by two arena nodes (the tree shape is
    /// unchanged).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_modules(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (ma, ra) = (self.nodes[a].module, self.nodes[a].rotated);
        let (mb, rb) = (self.nodes[b].module, self.nodes[b].rotated);
        self.nodes[a].module = mb;
        self.nodes[a].rotated = rb;
        self.nodes[b].module = ma;
        self.nodes[b].rotated = ra;
    }

    /// Removes the node holding `module` from the tree and re-inserts it as a
    /// child of the node currently holding `target_module` (left child if
    /// `as_left_child`, right child otherwise). The moved module is first
    /// sunk to a leaf position by swapping it with a child repeatedly (the
    /// standard B*-tree delete), so the tree shape changes only locally; an
    /// existing child at the insertion point becomes the left child of the
    /// moved node.
    ///
    /// Returns `false` (leaving the tree valid) when either module is missing,
    /// when the two modules are the same, or when the tree has fewer than two
    /// nodes.
    pub fn move_node(
        &mut self,
        module: ModuleId,
        target_module: ModuleId,
        as_left_child: bool,
    ) -> bool {
        let mut log = TreeUndoLog::default();
        self.move_node_logged(module, target_module, as_left_child, &mut log)
    }

    /// [`BStarTree::move_node`] with an undo record: on success `log` holds
    /// the exact inverse of the move for [`BStarTree::undo`]; on failure the
    /// log is left empty.
    pub fn move_node_logged(
        &mut self,
        module: ModuleId,
        target_module: ModuleId,
        as_left_child: bool,
        log: &mut TreeUndoLog,
    ) -> bool {
        log.reset();
        if module == target_module || self.nodes.len() < 2 {
            return false;
        }
        if !self.nodes.iter().any(|n| n.module == module)
            || !self.nodes.iter().any(|n| n.module == target_module)
        {
            return false;
        }
        // 1. sink the module to a leaf by swapping with children
        let mut idx = self.nodes.iter().position(|n| n.module == module).expect("checked above");
        while let Some(child) = self.nodes[idx].left.or(self.nodes[idx].right) {
            self.swap_modules(idx, child);
            log.swaps.push((idx, child));
            idx = child;
        }
        // 2. detach the leaf (it always has a parent: a childless root would
        //    mean a single-node tree, excluded above)
        let parent = self.nodes[idx].parent.expect("leaf of a multi-node tree has a parent");
        let old_as_left = self.nodes[parent].left == Some(idx);
        if old_as_left {
            self.nodes[parent].left = None;
        } else {
            self.nodes[parent].right = None;
        }
        self.nodes[idx].parent = None;
        // 3. attach under the target
        let target =
            self.nodes.iter().position(|n| n.module == target_module).expect("checked above");
        debug_assert_ne!(target, idx, "target module cannot sit on the detached leaf");
        let displaced = if as_left_child {
            self.nodes[target].left.replace(idx)
        } else {
            self.nodes[target].right.replace(idx)
        };
        self.nodes[idx].parent = Some(target);
        if let Some(d) = displaced {
            debug_assert!(self.nodes[idx].left.is_none());
            self.nodes[idx].left = Some(d);
            self.nodes[d].parent = Some(idx);
        }
        log.kind = UndoKind::Move {
            leaf: idx,
            old_parent: parent,
            old_as_left,
            target,
            new_as_left: as_left_child,
            displaced,
        };
        debug_assert!(self.validate().is_ok());
        true
    }

    /// Replays the inverse of the perturbation recorded in `log`, restoring
    /// the tree to its exact pre-perturbation state in O(1) structural work
    /// (plus the sink-swap chain of a move). Consumes the log: a second call
    /// is a no-op.
    pub fn undo(&mut self, log: &mut TreeUndoLog) {
        match log.kind {
            UndoKind::None => {}
            UndoKind::Rotate(idx) => {
                self.nodes[idx].rotated = !self.nodes[idx].rotated;
            }
            UndoKind::Swap(a, b) => {
                self.swap_modules(a, b);
            }
            UndoKind::Move { leaf, old_parent, old_as_left, target, new_as_left, displaced } => {
                // detach the leaf from its new position under `target`
                if new_as_left {
                    self.nodes[target].left = None;
                } else {
                    self.nodes[target].right = None;
                }
                self.nodes[leaf].parent = None;
                // restore the displaced child to its old slot under `target`
                if let Some(d) = displaced {
                    self.nodes[leaf].left = None;
                    if new_as_left {
                        self.nodes[target].left = Some(d);
                    } else {
                        self.nodes[target].right = Some(d);
                    }
                    self.nodes[d].parent = Some(target);
                }
                // reattach the leaf under its old parent
                if old_as_left {
                    self.nodes[old_parent].left = Some(leaf);
                } else {
                    self.nodes[old_parent].right = Some(leaf);
                }
                self.nodes[leaf].parent = Some(old_parent);
                // unwind the sink swaps (each is its own inverse)
                for &(a, b) in log.swaps.iter().rev() {
                    self.swap_modules(a, b);
                }
                debug_assert!(self.validate().is_ok());
            }
        }
        log.reset();
    }

    /// Overwrites this tree with a copy of `base` in which a copy of `other`
    /// (structure and rotation flags preserved) hangs as the left (or right)
    /// child of `base`'s arena node `anchor`; `other`'s nodes follow `base`'s
    /// in the arena. The tree's storage is reused, so a buffer grafted into
    /// over and over stops allocating once it has grown.
    ///
    /// Returns `false` (leaving the tree untouched) when `other` is empty or
    /// the requested child slot of `anchor` is occupied. The two module sets
    /// must be disjoint; the caller checks that (a module in both trees would
    /// be packed twice).
    ///
    /// # Panics
    ///
    /// Panics if `anchor` is not an arena index of `base`.
    pub fn graft_from(
        &mut self,
        base: &BStarTree,
        other: &BStarTree,
        anchor: usize,
        as_left_child: bool,
    ) -> bool {
        let Some(other_root) = other.root else {
            return false;
        };
        let node = &base.nodes[anchor];
        if (if as_left_child { node.left } else { node.right }).is_some() {
            return false;
        }
        let offset = base.nodes.len();
        self.nodes.clear();
        self.nodes.extend_from_slice(&base.nodes);
        self.nodes.extend(other.nodes.iter().map(|n| Node {
            left: n.left.map(|i| i + offset),
            right: n.right.map(|i| i + offset),
            parent: n.parent.map(|i| i + offset),
            ..*n
        }));
        self.root = base.root;
        let new_root = other_root + offset;
        self.nodes[new_root].parent = Some(anchor);
        if as_left_child {
            self.nodes[anchor].left = Some(new_root);
        } else {
            self.nodes[anchor].right = Some(new_root);
        }
        debug_assert!(self.validate().is_ok());
        true
    }

    /// Applies one random perturbation: rotate a module, swap two modules, or
    /// move a module elsewhere in the tree.
    ///
    /// `rotatable` decides whether a module may be rotated (modules under
    /// matching constraints usually may not).
    pub fn perturb<F: Fn(ModuleId) -> bool>(&mut self, rng: &mut dyn RngCore, rotatable: F) {
        let mut log = TreeUndoLog::default();
        self.perturb_logged(rng, rotatable, &mut log);
    }

    /// [`BStarTree::perturb`] with an undo record: after the call `log` holds
    /// the exact inverse of whatever was applied (possibly nothing), ready for
    /// [`BStarTree::undo`]. The RNG consumption is identical to `perturb`, so
    /// logged and unlogged runs with the same seed follow the same trajectory.
    pub fn perturb_logged<F: Fn(ModuleId) -> bool>(
        &mut self,
        rng: &mut dyn RngCore,
        rotatable: F,
        log: &mut TreeUndoLog,
    ) {
        log.reset();
        let n = self.nodes.len();
        if n == 0 {
            return;
        }
        match rng.gen_range(0..3u32) {
            0 => {
                let idx = rng.gen_range(0..n);
                let module = self.nodes[idx].module;
                if rotatable(module) {
                    self.nodes[idx].rotated = !self.nodes[idx].rotated;
                    log.kind = UndoKind::Rotate(idx);
                } else if n >= 2 {
                    let j = (idx + 1 + rng.gen_range(0..n - 1)) % n;
                    self.swap_modules(idx, j);
                    log.kind = UndoKind::Swap(idx, j);
                }
            }
            1 => {
                if n >= 2 {
                    let a = rng.gen_range(0..n);
                    let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                    self.swap_modules(a, b);
                    log.kind = UndoKind::Swap(a, b);
                }
            }
            _ => {
                if n >= 2 {
                    let idx = rng.gen_range(0..n);
                    let other = (idx + 1 + rng.gen_range(0..n - 1)) % n;
                    let module = self.nodes[idx].module;
                    let target_module = self.nodes[other].module;
                    let as_left = rng.gen_bool(0.5);
                    self.move_node_logged(module, target_module, as_left, log);
                }
            }
        }
    }

    /// Structural validation: every node reachable exactly once from the root,
    /// parent pointers consistent with child pointers.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return if self.root.is_none() {
                Ok(())
            } else {
                Err("empty arena but a root is set".to_string())
            };
        }
        let Some(root) = self.root else {
            return Err("non-empty arena but no root".to_string());
        };
        let mut visits = vec![0usize; self.nodes.len()];
        self.preorder_visit(Some(root), &mut |_, idx| visits[idx] += 1);
        for (idx, &count) in visits.iter().enumerate() {
            if count == 0 {
                return Err(format!("node {idx} is unreachable from the root"));
            }
            if count > 1 {
                return Err(format!("node {idx} is reachable more than once (cycle)"));
            }
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            for child in [node.left, node.right].into_iter().flatten() {
                if self.nodes[child].parent != Some(idx) {
                    return Err(format!("node {child} has a stale parent pointer"));
                }
            }
        }
        if self.nodes[root].parent.is_some() {
            return Err("root has a parent".to_string());
        }
        Ok(())
    }
}

/// Where a node sits relative to its parent during packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// The tree root (placed at the origin).
    Root,
    /// Left child: placed immediately to the right of the parent.
    LeftChildOf(usize),
    /// Right child: placed directly above the parent (same x).
    RightChildOf(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_anneal::rng::SeededRng;

    fn ids(n: usize) -> Vec<ModuleId> {
        (0..n).map(ModuleId::from_index).collect()
    }

    #[test]
    fn left_chain_preorder_is_insertion_order() {
        let tree = BStarTree::left_chain(&ids(5));
        assert_eq!(tree.preorder(), ids(5));
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn balanced_tree_is_valid_and_complete() {
        let tree = BStarTree::balanced(&ids(10));
        assert!(tree.validate().is_ok());
        let mut pre = tree.preorder();
        pre.sort();
        assert_eq!(pre, ids(10));
    }

    #[test]
    fn empty_tree_is_valid() {
        let tree = BStarTree::left_chain(&[]);
        assert!(tree.is_empty());
        assert!(tree.validate().is_ok());
        assert!(tree.preorder().is_empty());
    }

    #[test]
    fn rotate_toggles_flag() {
        let mut tree = BStarTree::left_chain(&ids(3));
        let m = ModuleId::from_index(1);
        assert!(!tree.is_rotated(m));
        assert!(tree.rotate_node(m));
        assert!(tree.is_rotated(m));
        assert!(tree.rotate_node(m));
        assert!(!tree.is_rotated(m));
        assert!(!tree.rotate_node(ModuleId::from_index(99)));
    }

    #[test]
    fn swap_preserves_structure() {
        let mut tree = BStarTree::balanced(&ids(6));
        tree.swap_modules(0, 5);
        assert!(tree.validate().is_ok());
        let mut pre = tree.preorder();
        pre.sort();
        assert_eq!(pre, ids(6));
    }

    #[test]
    fn move_node_keeps_tree_valid() {
        let mut tree = BStarTree::balanced(&ids(8));
        assert!(tree.move_node(ModuleId::from_index(7), ModuleId::from_index(0), false));
        assert!(tree.validate().is_ok());
        let mut pre = tree.preorder();
        pre.sort();
        assert_eq!(pre, ids(8), "moving a node must not lose modules");
    }

    #[test]
    fn move_node_rejects_degenerate_requests() {
        let mut tree = BStarTree::left_chain(&ids(3));
        assert!(!tree.move_node(ModuleId::from_index(1), ModuleId::from_index(1), true));
        assert!(!tree.move_node(ModuleId::from_index(9), ModuleId::from_index(0), true));
        let mut single = BStarTree::left_chain(&ids(1));
        assert!(!single.move_node(ModuleId::from_index(0), ModuleId::from_index(0), true));
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn graft_from_hangs_a_copy_of_other_under_the_anchor() {
        let id = ModuleId::from_index;
        // arena 0 is the root, 1 its left child, 2 its right child
        let base = BStarTree::balanced(&ids(3));
        let mut other = BStarTree::left_chain(&[id(3), id(4)]);
        other.rotate_node(id(4));
        let mut buffer = BStarTree::default();
        assert!(buffer.graft_from(&base, &other, 1, true));
        assert!(buffer.validate().is_ok());
        assert_eq!(buffer.preorder(), [0, 1, 3, 4, 2].map(id));
        assert!(buffer.is_rotated(id(4)));
        // an occupied slot or an empty `other` leaves the buffer untouched
        let before = buffer.clone();
        assert!(!buffer.graft_from(&base, &other, 0, true));
        assert!(!buffer.graft_from(&base, &BStarTree::default(), 2, true));
        assert_eq!(buffer, before);
        // a reused buffer grafts exactly like a fresh one
        assert!(buffer.graft_from(&base, &other, 2, false));
        let mut fresh = BStarTree::default();
        assert!(fresh.graft_from(&base, &other, 2, false));
        assert_eq!(buffer, fresh);
        assert_eq!(fresh.preorder(), [0, 1, 2, 3, 4].map(id));
    }

    #[test]
    fn right_chain_end_follows_right_children_from_the_root() {
        let id = ModuleId::from_index;
        assert_eq!(BStarTree::default().right_chain_end(), None);
        // arena 0 is the root, 1 its left child, 2 its right child
        let mut tree = BStarTree::balanced(&ids(3));
        assert_eq!(tree.right_chain_end(), Some(2));
        assert!(tree.move_node(id(1), id(2), true));
        assert_eq!(tree.right_chain_end(), Some(2), "a left child does not extend the chain");
        assert_eq!(BStarTree::left_chain(&ids(4)).right_chain_end(), Some(0));
    }

    #[test]
    fn random_perturbations_never_corrupt_the_tree() {
        let mut tree = BStarTree::balanced(&ids(12));
        let mut rng = SeededRng::new(99);
        for step in 0..2000 {
            tree.perturb(&mut rng, |_| true);
            assert!(tree.validate().is_ok(), "corrupt tree after step {step}");
            let mut pre = tree.preorder();
            pre.sort();
            assert_eq!(pre, ids(12), "lost module after step {step}");
        }
    }

    #[test]
    fn undo_restores_the_exact_tree_after_any_perturbation() {
        let mut tree = BStarTree::balanced(&ids(12));
        let mut rng = SeededRng::new(123);
        let mut log = TreeUndoLog::default();
        for step in 0..2000 {
            let before = tree.clone();
            tree.perturb_logged(&mut rng, |m| m.index() % 2 == 0, &mut log);
            tree.undo(&mut log);
            assert_eq!(tree, before, "undo mismatch at step {step}");
            assert!(log.is_empty());
            // drift so the next iteration starts from a new shape
            tree.perturb(&mut rng, |_| true);
        }
    }

    #[test]
    fn undo_of_an_explicit_move_restores_structure() {
        let mut tree = BStarTree::balanced(&ids(8));
        let before = tree.clone();
        let mut log = TreeUndoLog::default();
        assert!(tree.move_node_logged(
            ModuleId::from_index(1),
            ModuleId::from_index(6),
            true,
            &mut log
        ));
        assert_ne!(tree, before);
        tree.undo(&mut log);
        assert_eq!(tree, before);
        // a consumed log is a no-op
        tree.undo(&mut log);
        assert_eq!(tree, before);
    }

    #[test]
    fn logged_and_unlogged_perturbations_share_the_rng_trajectory() {
        let mut plain = BStarTree::balanced(&ids(9));
        let mut logged = BStarTree::balanced(&ids(9));
        let mut rng_a = SeededRng::new(7);
        let mut rng_b = SeededRng::new(7);
        let mut log = TreeUndoLog::default();
        for _ in 0..500 {
            plain.perturb(&mut rng_a, |m| m.index() != 3);
            logged.perturb_logged(&mut rng_b, |m| m.index() != 3, &mut log);
        }
        assert_eq!(plain, logged);
    }

    #[test]
    fn perturbations_respect_rotation_predicate() {
        let mut tree = BStarTree::balanced(&ids(6));
        let mut rng = SeededRng::new(5);
        for _ in 0..500 {
            tree.perturb(&mut rng, |_| false);
        }
        for m in ids(6) {
            assert!(!tree.is_rotated(m), "module {m} was rotated despite the predicate");
        }
    }
}
