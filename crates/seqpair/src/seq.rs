//! The sequence-pair encoding.

use apls_circuit::ModuleId;
use std::collections::BTreeSet;
use std::fmt;

/// A sequence-pair (α, β): two permutations of the same module set.
///
/// The sequence-pair encodes a packed floorplan topologically (Murata et al.,
/// reference \[22\] of the survey): module `a` is left of `b` iff `a` precedes
/// `b` in *both* sequences, and `a` is below `b` iff `a` follows `b` in α but
/// precedes it in β. Every pair of modules is therefore related horizontally
/// or vertically and any sequence-pair corresponds to a legal (overlap-free)
/// placement.
///
/// The struct maintains the inverse permutations so that the position lookups
/// `α⁻¹`/`β⁻¹` used by the symmetric-feasible predicate are O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencePair {
    alpha: Vec<ModuleId>,
    beta: Vec<ModuleId>,
    /// alpha_pos[m.index()] = position of m in alpha
    alpha_pos: Vec<usize>,
    /// beta_pos[m.index()] = position of m in beta
    beta_pos: Vec<usize>,
}

/// One primitive, self-inverse edit of a [`SequencePair`]: every move of the
/// annealing placer decomposes into at most four of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpOp {
    /// Positions `i` and `j` of α were swapped.
    AlphaPos(usize, usize),
    /// Positions `i` and `j` of β were swapped.
    BetaPos(usize, usize),
    /// Modules `a` and `b` were swapped in α.
    AlphaModules(ModuleId, ModuleId),
    /// Modules `a` and `b` were swapped in β.
    BetaModules(ModuleId, ModuleId),
}

/// The inverse record of one perturbation, replayed by [`SequencePair::undo`].
///
/// Every primitive edit of a sequence-pair is an involution (a swap undoes
/// itself), so undoing a move is replaying its recorded ops in reverse order —
/// O(move size) instead of restoring a full clone of both sequences and both
/// position caches. The op buffer (at most four entries per move) is reused
/// across moves, so steady-state recording allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpUndoLog {
    ops: Vec<SpOp>,
}

impl SpUndoLog {
    /// Discards any recorded ops (the start of recording a new move).
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Returns `true` when the log holds nothing to undo.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends the modules whose α or β position may have changed under the
    /// recorded ops to `out` (duplicates possible; `out` is not cleared).
    ///
    /// Positional swaps resolve through the *current* sequences — the set of
    /// occupied positions is invariant under a swap, so post-move resolution
    /// names exactly the modules that moved.
    pub(crate) fn touched_modules(&self, sp: &SequencePair, out: &mut Vec<ModuleId>) {
        for op in &self.ops {
            match *op {
                SpOp::AlphaPos(i, j) => {
                    out.push(sp.alpha[i]);
                    out.push(sp.alpha[j]);
                }
                SpOp::BetaPos(i, j) => {
                    out.push(sp.beta[i]);
                    out.push(sp.beta[j]);
                }
                SpOp::AlphaModules(a, b) | SpOp::BetaModules(a, b) => {
                    out.push(a);
                    out.push(b);
                }
            }
        }
    }
}

/// Error returned when the two sequences are not permutations of the same set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidSequencePairError {
    reason: String,
}

impl fmt::Display for InvalidSequencePairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid sequence-pair: {}", self.reason)
    }
}

impl std::error::Error for InvalidSequencePairError {}

impl SequencePair {
    /// Builds the identity sequence-pair (α = β = the given order).
    ///
    /// The identity encoding packs all modules in one horizontal row.
    ///
    /// # Panics
    ///
    /// Panics if `modules` contains duplicates.
    #[must_use]
    pub fn identity(modules: Vec<ModuleId>) -> Self {
        SequencePair::from_sequences(modules.clone(), modules)
            .expect("identity sequences are always consistent")
    }

    /// Builds a sequence-pair from explicit α and β sequences.
    ///
    /// # Errors
    ///
    /// Returns an error if the sequences differ in length, contain duplicates,
    /// or are not permutations of the same module set.
    pub fn from_sequences(
        alpha: Vec<ModuleId>,
        beta: Vec<ModuleId>,
    ) -> Result<Self, InvalidSequencePairError> {
        if alpha.len() != beta.len() {
            return Err(InvalidSequencePairError {
                reason: format!("lengths differ: {} vs {}", alpha.len(), beta.len()),
            });
        }
        let set_a: BTreeSet<ModuleId> = alpha.iter().copied().collect();
        let set_b: BTreeSet<ModuleId> = beta.iter().copied().collect();
        if set_a.len() != alpha.len() {
            return Err(InvalidSequencePairError { reason: "alpha contains duplicates".into() });
        }
        if set_b.len() != beta.len() {
            return Err(InvalidSequencePairError { reason: "beta contains duplicates".into() });
        }
        if set_a != set_b {
            return Err(InvalidSequencePairError {
                reason: "alpha and beta are not permutations of the same module set".into(),
            });
        }
        let max_index = alpha.iter().map(|m| m.index()).max().unwrap_or(0);
        let mut alpha_pos = vec![usize::MAX; max_index + 1];
        let mut beta_pos = vec![usize::MAX; max_index + 1];
        for (i, m) in alpha.iter().enumerate() {
            alpha_pos[m.index()] = i;
        }
        for (i, m) in beta.iter().enumerate() {
            beta_pos[m.index()] = i;
        }
        Ok(SequencePair { alpha, beta, alpha_pos, beta_pos })
    }

    /// Number of modules in the encoding.
    #[must_use]
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// Returns `true` for the empty encoding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// The α sequence.
    #[must_use]
    pub fn alpha(&self) -> &[ModuleId] {
        &self.alpha
    }

    /// The β sequence.
    #[must_use]
    pub fn beta(&self) -> &[ModuleId] {
        &self.beta
    }

    /// Position of a module in α (the `α⁻¹` map of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the module is not part of the encoding.
    #[must_use]
    pub fn alpha_position(&self, module: ModuleId) -> usize {
        let pos = self.alpha_pos.get(module.index()).copied().unwrap_or(usize::MAX);
        assert!(pos != usize::MAX, "module {module} not in sequence-pair");
        pos
    }

    /// Position of a module in β (the `β⁻¹` map of the paper).
    ///
    /// # Panics
    ///
    /// Panics if the module is not part of the encoding.
    #[must_use]
    pub fn beta_position(&self, module: ModuleId) -> usize {
        let pos = self.beta_pos.get(module.index()).copied().unwrap_or(usize::MAX);
        assert!(pos != usize::MAX, "module {module} not in sequence-pair");
        pos
    }

    /// Returns `true` when the encoding contains the module.
    #[must_use]
    pub fn contains(&self, module: ModuleId) -> bool {
        module.index() < self.alpha_pos.len() && self.alpha_pos[module.index()] != usize::MAX
    }

    /// Returns `true` when `a` is left of `b`: `a` precedes `b` in both
    /// sequences.
    #[must_use]
    pub fn is_left_of(&self, a: ModuleId, b: ModuleId) -> bool {
        self.alpha_position(a) < self.alpha_position(b)
            && self.beta_position(a) < self.beta_position(b)
    }

    /// Returns `true` when `a` is below `b`: `a` follows `b` in α but precedes
    /// it in β.
    #[must_use]
    pub fn is_below(&self, a: ModuleId, b: ModuleId) -> bool {
        self.alpha_position(a) > self.alpha_position(b)
            && self.beta_position(a) < self.beta_position(b)
    }

    /// Swaps the modules at two positions of α.
    pub fn swap_in_alpha(&mut self, i: usize, j: usize) {
        self.alpha.swap(i, j);
        self.alpha_pos[self.alpha[i].index()] = i;
        self.alpha_pos[self.alpha[j].index()] = j;
    }

    /// Swaps the modules at two positions of β.
    pub fn swap_in_beta(&mut self, i: usize, j: usize) {
        self.beta.swap(i, j);
        self.beta_pos[self.beta[i].index()] = i;
        self.beta_pos[self.beta[j].index()] = j;
    }

    /// Swaps two modules (given by id) in α.
    pub fn swap_modules_in_alpha(&mut self, a: ModuleId, b: ModuleId) {
        let (i, j) = (self.alpha_position(a), self.alpha_position(b));
        self.swap_in_alpha(i, j);
    }

    /// Swaps two modules (given by id) in β.
    pub fn swap_modules_in_beta(&mut self, a: ModuleId, b: ModuleId) {
        let (i, j) = (self.beta_position(a), self.beta_position(b));
        self.swap_in_beta(i, j);
    }

    /// [`SequencePair::swap_in_alpha`] with an undo record appended to `log`.
    pub fn swap_in_alpha_logged(&mut self, i: usize, j: usize, log: &mut SpUndoLog) {
        self.swap_in_alpha(i, j);
        log.ops.push(SpOp::AlphaPos(i, j));
    }

    /// [`SequencePair::swap_in_beta`] with an undo record appended to `log`.
    pub fn swap_in_beta_logged(&mut self, i: usize, j: usize, log: &mut SpUndoLog) {
        self.swap_in_beta(i, j);
        log.ops.push(SpOp::BetaPos(i, j));
    }

    /// [`SequencePair::swap_modules_in_alpha`] with an undo record appended to
    /// `log`.
    pub fn swap_modules_in_alpha_logged(&mut self, a: ModuleId, b: ModuleId, log: &mut SpUndoLog) {
        self.swap_modules_in_alpha(a, b);
        log.ops.push(SpOp::AlphaModules(a, b));
    }

    /// [`SequencePair::swap_modules_in_beta`] with an undo record appended to
    /// `log`.
    pub fn swap_modules_in_beta_logged(&mut self, a: ModuleId, b: ModuleId, log: &mut SpUndoLog) {
        self.swap_modules_in_beta(a, b);
        log.ops.push(SpOp::BetaModules(a, b));
    }

    /// Replays the inverse of the ops recorded in `log` (reverse order; each
    /// op is its own inverse), restoring the encoding to its exact state
    /// before the move. Consumes the log: a second call is a no-op.
    pub fn undo(&mut self, log: &mut SpUndoLog) {
        while let Some(op) = log.ops.pop() {
            match op {
                SpOp::AlphaPos(i, j) => self.swap_in_alpha(i, j),
                SpOp::BetaPos(i, j) => self.swap_in_beta(i, j),
                SpOp::AlphaModules(a, b) => self.swap_modules_in_alpha(a, b),
                SpOp::BetaModules(a, b) => self.swap_modules_in_beta(a, b),
            }
        }
    }

    /// Checks the internal position caches (used by debug assertions and the
    /// property tests).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.alpha.len() == self.beta.len()
            && self.alpha.iter().enumerate().all(|(i, m)| self.alpha_pos[m.index()] == i)
            && self.beta.iter().enumerate().all(|(i, m)| self.beta_pos[m.index()] == i)
    }
}

impl fmt::Display for SequencePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_seq = |seq: &[ModuleId]| -> String {
            seq.iter().map(|m| m.to_string()).collect::<Vec<_>>().join(" ")
        };
        write!(f, "alpha: [{}], beta: [{}]", fmt_seq(&self.alpha), fmt_seq(&self.beta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> ModuleId {
        ModuleId::from_index(i)
    }

    #[test]
    fn identity_relations_are_all_left_of() {
        let sp = SequencePair::identity(vec![id(0), id(1), id(2)]);
        assert!(sp.is_left_of(id(0), id(1)));
        assert!(sp.is_left_of(id(1), id(2)));
        assert!(!sp.is_below(id(0), id(1)));
        assert!(sp.is_consistent());
    }

    #[test]
    fn below_relation() {
        // alpha: 1 0, beta: 0 1 => 0 below 1
        let sp = SequencePair::from_sequences(vec![id(1), id(0)], vec![id(0), id(1)]).unwrap();
        assert!(sp.is_below(id(0), id(1)));
        assert!(!sp.is_left_of(id(0), id(1)));
        assert!(!sp.is_left_of(id(1), id(0)));
    }

    #[test]
    fn every_pair_is_related_exactly_one_way() {
        let sp = SequencePair::from_sequences(
            vec![id(2), id(0), id(3), id(1)],
            vec![id(0), id(1), id(2), id(3)],
        )
        .unwrap();
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                let relations = [
                    sp.is_left_of(id(a), id(b)),
                    sp.is_left_of(id(b), id(a)),
                    sp.is_below(id(a), id(b)),
                    sp.is_below(id(b), id(a)),
                ];
                assert_eq!(relations.iter().filter(|&&r| r).count(), 1, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn invalid_pairs_are_rejected() {
        assert!(SequencePair::from_sequences(vec![id(0)], vec![id(0), id(1)]).is_err());
        assert!(SequencePair::from_sequences(vec![id(0), id(0)], vec![id(0), id(1)]).is_err());
        assert!(SequencePair::from_sequences(vec![id(0), id(1)], vec![id(0), id(2)]).is_err());
    }

    #[test]
    fn swaps_update_position_caches() {
        let mut sp = SequencePair::identity(vec![id(0), id(1), id(2), id(3)]);
        sp.swap_in_alpha(0, 3);
        assert_eq!(sp.alpha_position(id(3)), 0);
        assert_eq!(sp.alpha_position(id(0)), 3);
        sp.swap_modules_in_beta(id(1), id(2));
        assert_eq!(sp.beta_position(id(1)), 2);
        assert!(sp.is_consistent());
    }

    #[test]
    fn undo_replays_logged_swaps_in_reverse() {
        let mut sp = SequencePair::identity(vec![id(0), id(1), id(2), id(3)]);
        let before = sp.clone();
        let mut log = SpUndoLog::default();
        sp.swap_in_alpha_logged(0, 3, &mut log);
        sp.swap_modules_in_beta_logged(id(1), id(2), &mut log);
        sp.swap_in_beta_logged(0, 1, &mut log);
        sp.swap_modules_in_alpha_logged(id(0), id(2), &mut log);
        assert_ne!(sp, before);
        sp.undo(&mut log);
        assert_eq!(sp, before);
        assert!(sp.is_consistent());
        assert!(log.is_empty());
        // a consumed log is a no-op
        sp.undo(&mut log);
        assert_eq!(sp, before);
    }

    #[test]
    fn display_is_readable() {
        let sp = SequencePair::identity(vec![id(0), id(1)]);
        let s = sp.to_string();
        assert!(s.contains("alpha"));
        assert!(s.contains("m0"));
    }

    #[test]
    #[should_panic(expected = "not in sequence-pair")]
    fn position_of_unknown_module_panics() {
        let sp = SequencePair::identity(vec![id(0), id(1)]);
        let _ = sp.alpha_position(id(5));
    }
}
