//! Parallel-tempering sequence-pair placer.
//!
//! The fifth portfolio lane: `K` replicas of the symmetric-feasible
//! sequence-pair annealer run at a geometric ladder of temperatures and
//! exchange configurations between rounds (see
//! [`apls_anneal::tempering`]). Every replica scores proposals through the
//! incremental [`crate::anneal`] hot path, so the lane inherits the
//! delta-HPWL and suffix-resweep packing machinery unchanged.
//!
//! Determinism: replica RNGs derive from `SeedStream::seed_for(lane, k)` and
//! the swap schedule from one serial pinned-seed RNG, so a run is a pure
//! function of its configuration — bit-identical at any worker thread count.

use crate::anneal::{SeqPairPlacer, SeqPairPlacerConfig, SymmetryMode};
use crate::hot::LegaliseCounters;
use crate::SequencePair;
use apls_anneal::tempering::{run_tempering_traced, TemperingConfig, TemperingStats};
use apls_anneal::Schedule;
use apls_circuit::{ConstraintSet, Netlist, Placement, PlacementMetrics};
use apls_telemetry::Telemetry;

/// The seed-stream lane of the tempering engine (lanes 1–4 belong to the
/// portfolio's other engines; see `apls-portfolio`'s `PortfolioEngine::lane`).
pub const TEMPERING_LANE: u64 = 5;

/// Configuration of the parallel-tempering sequence-pair placer.
#[derive(Debug, Clone)]
pub struct TemperingPlacerConfig {
    /// Root seed; replica and swap RNGs derive from it deterministically.
    pub seed: u64,
    /// Base cooling schedule (slot 0 of the ladder follows it exactly).
    pub schedule: Schedule,
    /// Weight of the wirelength term relative to the area term.
    pub wirelength_weight: f64,
    /// Symmetry handling mode of every replica.
    pub symmetry_mode: SymmetryMode,
    /// Number of temperature replicas.
    pub replicas: usize,
    /// Geometric spacing between adjacent ladder slots.
    pub ladder_ratio: f64,
}

impl Default for TemperingPlacerConfig {
    fn default() -> Self {
        TemperingPlacerConfig {
            seed: 1,
            schedule: Schedule::for_problem_size(32),
            wirelength_weight: 0.5,
            symmetry_mode: SymmetryMode::Exact,
            replicas: 4,
            ladder_ratio: 2.0,
        }
    }
}

impl TemperingPlacerConfig {
    /// A configuration scaled to the circuit size.
    #[must_use]
    pub fn for_netlist(netlist: &Netlist) -> Self {
        TemperingPlacerConfig {
            schedule: Schedule::for_problem_size(netlist.module_count()),
            ..TemperingPlacerConfig::default()
        }
    }

    /// A fast configuration for tests and smoke runs.
    #[must_use]
    pub fn fast(seed: u64) -> Self {
        TemperingPlacerConfig {
            seed,
            schedule: Schedule::fast(),
            ..TemperingPlacerConfig::default()
        }
    }
}

/// Result of a parallel-tempering placement run.
#[derive(Debug, Clone)]
pub struct TemperingResult {
    /// The best placement found across all replicas.
    pub placement: Placement,
    /// Metrics of that placement.
    pub metrics: PlacementMetrics,
    /// Largest symmetry deviation of the placement (doubled dbu).
    pub symmetry_error: i64,
    /// Best sequence-pair encoding.
    pub sequence_pair: SequencePair,
    /// Tempering statistics (aggregated over all replicas).
    pub stats: TemperingStats,
}

/// The parallel-tempering sequence-pair placer.
///
/// # Example
///
/// ```
/// use apls_circuit::benchmarks::fig1_circuit;
/// use apls_seqpair::tempering::{TemperingPlacerConfig, TemperingSeqPairPlacer};
///
/// let (circuit, _) = fig1_circuit();
/// let placer = TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
/// let result = placer.run(&TemperingPlacerConfig::fast(7));
/// assert_eq!(result.metrics.overlap_area, 0);
/// assert_eq!(result.symmetry_error, 0);
/// ```
#[derive(Debug, Clone)]
pub struct TemperingSeqPairPlacer<'a> {
    netlist: &'a Netlist,
    constraints: &'a ConstraintSet,
}

impl<'a> TemperingSeqPairPlacer<'a> {
    /// Creates a placer for a netlist and its constraints.
    #[must_use]
    pub fn new(netlist: &'a Netlist, constraints: &'a ConstraintSet) -> Self {
        TemperingSeqPairPlacer { netlist, constraints }
    }

    /// Runs the parallel-tempering placement.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (no replicas or a ladder
    /// ratio below 1).
    #[must_use]
    pub fn run(&self, config: &TemperingPlacerConfig) -> TemperingResult {
        self.run_traced(config, &Telemetry::disabled())
    }

    /// [`TemperingSeqPairPlacer::run`] with telemetry (observe-only; results
    /// are bit-identical whatever collector is installed). Besides the
    /// tempering events, an enabled handle receives one `seqpair/legalise`
    /// event with the legalisation counters summed over all replicas.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (no replicas or a ladder
    /// ratio below 1).
    #[must_use]
    pub fn run_traced(
        &self,
        config: &TemperingPlacerConfig,
        telemetry: &Telemetry,
    ) -> TemperingResult {
        let base = SeqPairPlacerConfig {
            seed: config.seed,
            schedule: config.schedule,
            wirelength_weight: config.wirelength_weight,
            symmetry_mode: config.symmetry_mode,
        };
        let placer = SeqPairPlacer::new(self.netlist, self.constraints);
        // Every replica starts from the same canonical symmetric-feasible
        // encoding; their private RNG streams diverge from move 1.
        let states: Vec<_> = (0..config.replicas).map(|_| placer.make_state(&base)).collect();
        let tempering = TemperingConfig {
            seed: config.seed,
            lane: TEMPERING_LANE,
            replicas: config.replicas,
            ladder_ratio: config.ladder_ratio,
            schedule: config.schedule,
        };
        let (states, stats, best) = run_tempering_traced(states, &tempering, telemetry);
        if telemetry.is_enabled() {
            let mut counters = LegaliseCounters::default();
            for state in &states {
                counters.add(&state.hot.counters);
            }
            counters.emit(telemetry);
        }

        let winner = &states[stats.best_replica];
        let best_sp = best.unwrap_or_else(|| winner.sp.clone());
        let placement = winner.build_placement(&best_sp);
        let metrics = placement.metrics(self.netlist);
        let symmetry_error = placement.symmetry_error(self.constraints);
        TemperingResult { placement, metrics, symmetry_error, sequence_pair: best_sp, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks::{self, fig1_circuit};

    #[test]
    fn tempering_produces_legal_symmetric_placements() {
        let (circuit, _) = fig1_circuit();
        let placer = TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let result = placer.run(&TemperingPlacerConfig::fast(3));
        assert!(result.placement.is_complete());
        assert_eq!(result.metrics.overlap_area, 0);
        assert_eq!(result.symmetry_error, 0);
        assert!(result.stats.moves.attempted > 0);
        assert!(result.stats.rounds > 0);
    }

    #[test]
    fn tempering_does_not_worsen_the_initial_cost() {
        let circuit = benchmarks::comparator_v2();
        let placer = TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let result = placer.run(&TemperingPlacerConfig::fast(4));
        assert!(result.stats.best_cost <= result.stats.initial_cost);
    }

    #[test]
    fn identical_seeds_reproduce_identical_results() {
        let (circuit, _) = fig1_circuit();
        let placer = TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let a = placer.run(&TemperingPlacerConfig::fast(9));
        let b = placer.run(&TemperingPlacerConfig::fast(9));
        assert_eq!(a.sequence_pair, b.sequence_pair);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.stats.moves.accepted, b.stats.moves.accepted);
        assert_eq!(a.stats.swaps_accepted, b.stats.swaps_accepted);
    }

    #[test]
    fn legalise_counters_sum_over_replicas_and_are_observe_only() {
        use apls_telemetry::RecordingCollector;
        use std::sync::Arc;

        let circuit = benchmarks::miller_v2();
        let placer = TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
        let config = TemperingPlacerConfig::fast(13);
        let plain = placer.run(&config);
        let collector = Arc::new(RecordingCollector::new());
        let traced = placer.run_traced(&config, &Telemetry::with_collector(collector.clone()));
        assert_eq!(plain.placement, traced.placement);
        assert_eq!(plain.sequence_pair, traced.sequence_pair);
        assert_eq!(plain.stats.best_cost.to_bits(), traced.stats.best_cost.to_bits());
        assert_eq!(plain.stats.swaps_accepted, traced.stats.swaps_accepted);

        let counters = LegaliseCounters::from_trace(&collector.events());
        // each replica scores its initial state once, then one per proposal
        assert_eq!(counters.evaluations, traced.stats.moves.attempted + config.replicas as u64);
        assert!(counters.island_shortcuts > 0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let circuit = benchmarks::comparator_v2();
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints)
                    .run(&TemperingPlacerConfig::fast(11))
            })
        };
        let a = run_with(1);
        let b = run_with(4);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.sequence_pair, b.sequence_pair);
        assert_eq!(a.stats.best_cost, b.stats.best_cost);
        assert_eq!(a.stats.swaps_accepted, b.stats.swaps_accepted);
    }
}
