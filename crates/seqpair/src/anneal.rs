//! Simulated-annealing sequence-pair placer.
//!
//! The placer explores sequence-pair encodings with the shared annealing
//! engine of [`apls_anneal`]. Two symmetry-handling modes are provided so that
//! experiment E9 (ablation) can compare them:
//!
//! * [`SymmetryMode::Exact`] — the exploration is restricted to
//!   symmetric-feasible encodings (the paper's approach): the move set of
//!   [`crate::symmetry::SymmetricMoveSet`] preserves property (1) and every
//!   candidate is legalised into an exactly symmetric placement;
//! * [`SymmetryMode::Penalty`] — unrestricted moves over all sequence-pairs
//!   with the symmetry error added to the cost function, the classical
//!   alternative the paper argues against.

use crate::hot::HotSpEval;
use crate::place::SymmetricPlacer;
use crate::seq::SpUndoLog;
use crate::symmetry::{canonical_symmetric_feasible, SymmetricMoveSet};
use crate::SequencePair;
use apls_anneal::{AnnealState, AnnealStats, Annealer, Schedule};
use apls_circuit::{ConstraintSet, ModuleId, Netlist, Placement, PlacementMetrics};
use apls_telemetry::Telemetry;
use rand::{Rng, RngCore};

/// How symmetry constraints are handled during annealing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SymmetryMode {
    /// Explore only symmetric-feasible encodings and legalise exactly.
    Exact,
    /// Explore all encodings; add `weight · symmetry_error` to the cost.
    Penalty {
        /// Cost weight of one doubled-dbu of symmetry error.
        weight: f64,
    },
}

/// Configuration of the sequence-pair placer.
#[derive(Debug, Clone)]
pub struct SeqPairPlacerConfig {
    /// RNG seed; identical seeds reproduce identical runs.
    pub seed: u64,
    /// Cooling schedule.
    pub schedule: Schedule,
    /// Weight of the wirelength term relative to the area term.
    pub wirelength_weight: f64,
    /// Symmetry handling mode.
    pub symmetry_mode: SymmetryMode,
}

impl Default for SeqPairPlacerConfig {
    fn default() -> Self {
        SeqPairPlacerConfig {
            seed: 1,
            schedule: Schedule::for_problem_size(32),
            wirelength_weight: 0.5,
            symmetry_mode: SymmetryMode::Exact,
        }
    }
}

impl SeqPairPlacerConfig {
    /// A configuration scaled to the circuit size (schedule length grows with
    /// the module count).
    #[must_use]
    pub fn for_netlist(netlist: &Netlist) -> Self {
        SeqPairPlacerConfig {
            schedule: Schedule::for_problem_size(netlist.module_count()),
            ..SeqPairPlacerConfig::default()
        }
    }

    /// A fast configuration for tests and smoke runs.
    #[must_use]
    pub fn fast(seed: u64) -> Self {
        SeqPairPlacerConfig { seed, schedule: Schedule::fast(), ..SeqPairPlacerConfig::default() }
    }
}

/// Result of a placement run.
#[derive(Debug, Clone)]
pub struct SeqPairResult {
    /// The best placement found.
    pub placement: Placement,
    /// Metrics of that placement.
    pub metrics: PlacementMetrics,
    /// Largest symmetry deviation of the placement (doubled dbu).
    pub symmetry_error: i64,
    /// Final sequence-pair encoding.
    pub sequence_pair: SequencePair,
    /// Annealing statistics.
    pub stats: AnnealStats,
}

/// The simulated-annealing sequence-pair placer (Section II of the survey).
///
/// # Example
///
/// ```
/// use apls_circuit::benchmarks::fig1_circuit;
/// use apls_seqpair::{SeqPairPlacer, SeqPairPlacerConfig};
///
/// let (circuit, _) = fig1_circuit();
/// let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
/// let result = placer.run(&SeqPairPlacerConfig::fast(7));
/// assert_eq!(result.metrics.overlap_area, 0);
/// assert_eq!(result.symmetry_error, 0);
/// ```
#[derive(Debug, Clone)]
pub struct SeqPairPlacer<'a> {
    netlist: &'a Netlist,
    constraints: &'a ConstraintSet,
}

impl<'a> SeqPairPlacer<'a> {
    /// Creates a placer for a netlist and its constraints.
    #[must_use]
    pub fn new(netlist: &'a Netlist, constraints: &'a ConstraintSet) -> Self {
        SeqPairPlacer { netlist, constraints }
    }

    /// Builds a fresh annealing state (canonical initial encoding, hot
    /// evaluator, move set) for `config`. Shared with the parallel-tempering
    /// lane, which runs several of these states as temperature replicas.
    pub(crate) fn make_state(&self, config: &SeqPairPlacerConfig) -> SpState<'a> {
        let modules: Vec<ModuleId> = self.netlist.module_ids().collect();
        let initial = canonical_symmetric_feasible(&modules, self.constraints);
        let placer = SymmetricPlacer::new(self.netlist, self.constraints);
        let hot = HotSpEval::new(
            self.constraints,
            placer.dims().to_vec(),
            self.netlist.adjacency(),
            &initial,
            config.symmetry_mode,
            config.wirelength_weight,
        );
        SpState {
            sp: initial,
            undo: SpUndoLog::default(),
            placer,
            hot,
            touched: Vec::new(),
            moves: SymmetricMoveSet::new(self.constraints.clone()),
            config: config.clone(),
            last_kind: "none",
        }
    }

    /// Runs the annealing placement.
    #[must_use]
    pub fn run(&self, config: &SeqPairPlacerConfig) -> SeqPairResult {
        self.run_traced(config, &Telemetry::disabled())
    }

    /// [`SeqPairPlacer::run`] with telemetry (observe-only; results are
    /// bit-identical whatever collector is installed). Besides the annealer's
    /// events, an enabled handle receives one `seqpair/legalise` event with
    /// the evaluator's legalisation counters.
    #[must_use]
    pub fn run_traced(&self, config: &SeqPairPlacerConfig, telemetry: &Telemetry) -> SeqPairResult {
        let mut state = self.make_state(config);
        let (stats, best) =
            Annealer::with_seed(config.seed).run_traced(&mut state, &config.schedule, telemetry);
        state.hot.counters.emit(telemetry);

        // Prefer the best snapshot over the final accepted state.
        let best_sp = best.unwrap_or_else(|| state.sp.clone());
        let placement = state.build_placement(&best_sp);
        let metrics = placement.metrics(self.netlist);
        let symmetry_error = placement.symmetry_error(self.constraints);
        SeqPairResult { placement, metrics, symmetry_error, sequence_pair: best_sp, stats }
    }
}

/// The sequence-pair annealing state on the single-evaluation hot path: each
/// proposal is legalised and scored exactly once, the cost skips the O(n²) overlap scan
/// (sequence-pair packings are overlap-free by construction), rejected moves
/// are undone by replaying the undo log instead of restoring a clone of the
/// whole encoding, and scoring goes through the incremental [`HotSpEval`]
/// evaluator (suffix-resweep packing + delta-HPWL) instead of building a full
/// [`Placement`] per move. The cold [`SymmetricPlacer`] is kept only to build
/// the final reported placement; [`HotSpEval`] reproduces its coordinates
/// bit-for-bit (see `tests/hotpath_equivalence.rs`).
pub(crate) struct SpState<'a> {
    pub(crate) sp: SequencePair,
    undo: SpUndoLog,
    placer: SymmetricPlacer<'a>,
    pub(crate) hot: HotSpEval<'a>,
    /// Modules whose α/β positions the open proposal may have changed.
    touched: Vec<ModuleId>,
    moves: SymmetricMoveSet,
    config: SeqPairPlacerConfig,
    /// Telemetry label of the most recent proposal's move type.
    last_kind: &'static str,
}

impl SpState<'_> {
    pub(crate) fn build_placement(&self, sp: &SequencePair) -> Placement {
        match self.config.symmetry_mode {
            SymmetryMode::Exact => self.placer.place(sp),
            SymmetryMode::Penalty { .. } => self.placer.place_unconstrained(sp),
        }
    }
}

impl AnnealState for SpState<'_> {
    type Snapshot = SequencePair;

    fn cost(&mut self) -> f64 {
        // the chain bounds every proposal first; only the initial cost
        // arrives without a bound
        if self.hot.has_bound() {
            self.hot.finish(&self.sp)
        } else {
            self.hot.evaluate(&self.sp, Some(&self.touched))
        }
    }

    fn lower_bound(&mut self) -> f64 {
        self.hot.bound(&self.sp, Some(&self.touched))
    }

    fn propose(&mut self, rng: &mut dyn RngCore) {
        match self.config.symmetry_mode {
            SymmetryMode::Exact => {
                // the S-F move set may occasionally reject a structural move
                // (already undone internally via the log); retry a few times
                // so proposals almost always change the state
                self.last_kind = "rejected";
                for _ in 0..8 {
                    if let Some(kind) =
                        self.moves.perturb_logged_kind(&mut self.sp, rng, &mut self.undo)
                    {
                        self.last_kind = kind;
                        break;
                    }
                }
            }
            SymmetryMode::Penalty { .. } => {
                self.undo.clear();
                let n = self.sp.len();
                if n < 2 {
                    self.touched.clear();
                    self.last_kind = "rejected";
                    return;
                }
                let i = rng.gen_range(0..n);
                let mut j = rng.gen_range(0..n);
                if i == j {
                    j = (j + 1) % n;
                }
                self.last_kind = match rng.gen_range(0..3u32) {
                    0 => {
                        self.sp.swap_in_alpha_logged(i, j, &mut self.undo);
                        "swap_alpha"
                    }
                    1 => {
                        self.sp.swap_in_beta_logged(i, j, &mut self.undo);
                        "swap_beta"
                    }
                    _ => {
                        self.sp.swap_in_alpha_logged(i, j, &mut self.undo);
                        self.sp.swap_in_beta_logged(i, j, &mut self.undo);
                        "swap_both"
                    }
                };
            }
        }
        self.touched.clear();
        self.undo.touched_modules(&self.sp, &mut self.touched);
    }

    fn rollback(&mut self) {
        self.sp.undo(&mut self.undo);
        self.hot.rollback();
    }

    fn snapshot(&self) -> SequencePair {
        self.sp.clone()
    }

    fn commit(&mut self) {
        self.hot.commit();
    }

    fn move_kind(&self) -> &'static str {
        self.last_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks::{self, fig1_circuit};

    #[test]
    fn exact_mode_produces_legal_symmetric_placements() {
        let (circuit, _) = fig1_circuit();
        let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let result = placer.run(&SeqPairPlacerConfig::fast(3));
        assert!(result.placement.is_complete());
        assert_eq!(result.metrics.overlap_area, 0);
        assert_eq!(result.symmetry_error, 0);
        assert!(result.stats.moves.attempted > 0);
    }

    #[test]
    fn annealing_does_not_worsen_the_initial_cost() {
        let (circuit, _) = fig1_circuit();
        let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let result = placer.run(&SeqPairPlacerConfig::fast(4));
        assert!(result.stats.best_cost <= result.stats.initial_cost);
    }

    #[test]
    fn penalty_mode_runs_and_reports_error() {
        let (circuit, _) = fig1_circuit();
        let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let config = SeqPairPlacerConfig {
            symmetry_mode: SymmetryMode::Penalty { weight: 10.0 },
            ..SeqPairPlacerConfig::fast(5)
        };
        let result = placer.run(&config);
        assert_eq!(result.metrics.overlap_area, 0);
        // penalty mode gives no exactness guarantee; the error is just reported
        assert!(result.symmetry_error >= 0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let (circuit, _) = fig1_circuit();
        let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let a = placer.run(&SeqPairPlacerConfig::fast(9));
        let b = placer.run(&SeqPairPlacerConfig::fast(9));
        assert_eq!(a.metrics.bounding_area, b.metrics.bounding_area);
        assert_eq!(a.sequence_pair, b.sequence_pair);
    }

    #[test]
    fn legalise_counters_are_observe_only_and_count_every_evaluation() {
        use crate::hot::LegaliseCounters;
        use apls_telemetry::RecordingCollector;
        use std::sync::Arc;

        let circuit = benchmarks::folded_cascode();
        let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let config = SeqPairPlacerConfig::fast(12);
        let plain = placer.run(&config);
        let collector = Arc::new(RecordingCollector::new());
        let traced = placer.run_traced(&config, &Telemetry::with_collector(collector.clone()));
        assert_eq!(plain.placement, traced.placement);
        assert_eq!(plain.sequence_pair, traced.sequence_pair);
        assert_eq!(plain.stats.best_cost.to_bits(), traced.stats.best_cost.to_bits());
        assert_eq!(plain.stats.moves.accepted, traced.stats.moves.accepted);

        let counters = LegaliseCounters::from_trace(&collector.events());
        // the initial state plus one evaluation per proposal
        assert_eq!(counters.evaluations, traced.stats.moves.attempted + 1);
        assert!(counters.island_shortcuts > 0);
        assert!(counters.island_shortcuts < counters.evaluations);
        assert!(counters.bounded_repacks > 0);
        assert!(counters.replayed_steps < counters.full_steps);
        assert_eq!(counters.full_steps, 2 * 22 * counters.bounded_repacks);
    }

    #[test]
    fn miller_benchmark_places_legally_with_symmetry() {
        let circuit = benchmarks::miller_v2();
        let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let result = placer.run(&SeqPairPlacerConfig::fast(1));
        assert_eq!(result.metrics.overlap_area, 0);
        assert_eq!(result.symmetry_error, 0);
        // area usage should be somewhere sane (< 3x of the module area)
        assert!(result.metrics.area_usage < 3.0, "area usage {}", result.metrics.area_usage);
    }
}
