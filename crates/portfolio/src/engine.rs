//! Uniform adapters over the five placement engines.
//!
//! [`run_engine_once`] is the single restart primitive of the portfolio: it
//! builds the engine's native configuration exactly the way the facade's
//! single-engine path does, runs it, and reduces the engine-specific result
//! to one [`RestartOutcome`]. Because the construction is identical, restart
//! 0 of a portfolio (which reuses the root seed verbatim) replays the
//! corresponding single-engine run bit for bit.

use apls_anneal::Schedule;
use apls_btree::{HbTreePlacer, HbTreePlacerConfig};
use apls_circuit::benchmarks::BenchmarkCircuit;
use apls_circuit::{Placement, PlacementMetrics};
use apls_seqpair::tempering::TEMPERING_LANE;
use apls_seqpair::{
    SeqPairPlacer, SeqPairPlacerConfig, TemperingPlacerConfig, TemperingSeqPairPlacer,
};
use apls_shapefn::{DeterministicPlacer, HierOptions, HierPlacer, ShapeModel};
use apls_telemetry::Telemetry;
use std::fmt;

/// One of the five placement approaches the portfolio races: the three
/// engines of the DATE 2009 survey, the hierarchical cross-engine hybrid,
/// and the parallel-tempering sequence-pair lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortfolioEngine {
    /// Symmetric-feasible sequence-pair annealing (Section II).
    SequencePair,
    /// Hierarchical B*-tree annealing (Section III).
    HbTree,
    /// Deterministic enumeration with enhanced shape functions (Section IV).
    Deterministic,
    /// Hierarchical cross-engine pipeline: enumeration for small basic sets,
    /// pinned-seed B*-tree annealing for larger hierarchy nodes, composed
    /// bottom-up as enhanced shape functions (never loses to
    /// [`PortfolioEngine::Deterministic`] by construction).
    Hier,
    /// Parallel-tempering sequence-pair annealing: K temperature replicas
    /// exchanging configurations on a deterministic pinned-seed swap
    /// schedule, bit-identical at any worker thread count.
    Tempering,
}

impl PortfolioEngine {
    /// All engines, in canonical portfolio order.
    pub const ALL: [PortfolioEngine; 5] = [
        PortfolioEngine::SequencePair,
        PortfolioEngine::HbTree,
        PortfolioEngine::Deterministic,
        PortfolioEngine::Hier,
        PortfolioEngine::Tempering,
    ];

    /// The seed-stream lane of this engine (see
    /// [`apls_anneal::rng::SeedStream`]).
    #[must_use]
    pub fn lane(self) -> u64 {
        match self {
            PortfolioEngine::SequencePair => 1,
            PortfolioEngine::HbTree => 2,
            PortfolioEngine::Deterministic => 3,
            PortfolioEngine::Hier => 4,
            PortfolioEngine::Tempering => TEMPERING_LANE,
        }
    }

    /// Whether restarts with different seeds can produce different results.
    /// The deterministic enumeration engine ignores seeds entirely, so the
    /// portfolio schedules it exactly once.
    #[must_use]
    pub fn is_stochastic(self) -> bool {
        !matches!(self, PortfolioEngine::Deterministic)
    }

    /// Whether the engine exposes a single annealing loop whose acceptance
    /// ratio and moves/sec are meaningful restart-level statistics. The hier
    /// engine is seeded (stochastic) but runs many small node-level anneals
    /// inside an enumeration pipeline, so — like the deterministic engine —
    /// it reports no loop statistics.
    #[must_use]
    pub fn reports_annealing_stats(self) -> bool {
        matches!(
            self,
            PortfolioEngine::SequencePair | PortfolioEngine::HbTree | PortfolioEngine::Tempering
        )
    }

    /// Stable lowercase name used in reports, JSON and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PortfolioEngine::SequencePair => "seqpair",
            PortfolioEngine::HbTree => "hbtree",
            PortfolioEngine::Deterministic => "deterministic",
            PortfolioEngine::Hier => "hier",
            PortfolioEngine::Tempering => "tempering",
        }
    }

    /// Parses a CLI engine name (the inverse of [`PortfolioEngine::name`]).
    #[must_use]
    pub fn from_name(name: &str) -> Option<PortfolioEngine> {
        match name {
            "seqpair" => Some(PortfolioEngine::SequencePair),
            "hbtree" => Some(PortfolioEngine::HbTree),
            "deterministic" => Some(PortfolioEngine::Deterministic),
            "hier" => Some(PortfolioEngine::Hier),
            "tempering" => Some(PortfolioEngine::Tempering),
            _ => None,
        }
    }
}

impl fmt::Display for PortfolioEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Settings shared by every restart of a portfolio run.
#[derive(Debug, Clone, Copy)]
pub struct RestartSettings {
    /// Use the short test/smoke schedule instead of the size-scaled one.
    pub fast_schedule: bool,
    /// Weight of the wirelength term in the annealing cost functions.
    pub wirelength_weight: f64,
    /// Hierarchy nodes with more than this many modules are refined by the
    /// hier engine's B*-tree annealing (hier engine only).
    pub hier_anneal_threshold: usize,
}

impl Default for RestartSettings {
    fn default() -> Self {
        RestartSettings { fast_schedule: false, wirelength_weight: 0.5, hier_anneal_threshold: 5 }
    }
}

/// The engine-independent result of one restart.
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// The placement the restart produced.
    pub placement: Placement,
    /// Its metrics against the circuit's netlist.
    pub metrics: PlacementMetrics,
    /// Largest symmetry deviation (doubled dbu).
    pub symmetry_error: i64,
    /// Move acceptance ratio (`None` for the deterministic engine).
    pub acceptance_ratio: Option<f64>,
    /// Proposals evaluated (0 for the deterministic engine).
    pub moves_attempted: u64,
    /// Annealing throughput in proposals per second, measured over the
    /// annealing loop only (`None` for the deterministic engine).
    pub moves_per_second: Option<f64>,
    /// Whether the hier engine's pure-enumeration fallback beat its hybrid
    /// pipeline and was returned instead (`None` for every other engine).
    pub enumeration_won: Option<bool>,
}

/// Runs `engine` once on `circuit` with the given seed and settings.
///
/// # Panics
///
/// Panics if the circuit's hierarchy or constraints are inconsistent with its
/// netlist (the same contract as the facade's single-engine path).
#[must_use]
pub fn run_engine_once(
    circuit: &BenchmarkCircuit,
    engine: PortfolioEngine,
    seed: u64,
    settings: &RestartSettings,
) -> RestartOutcome {
    run_engine_once_traced(circuit, engine, seed, settings, &Telemetry::disabled())
}

/// [`run_engine_once`] with telemetry threaded into the engine's annealing
/// loop / hier node refinement (observe-only; the outcome is bit-identical
/// whatever collector is installed).
///
/// # Panics
///
/// Panics if the circuit's hierarchy or constraints are inconsistent with its
/// netlist (the same contract as the facade's single-engine path).
#[must_use]
pub(crate) fn run_engine_once_traced(
    circuit: &BenchmarkCircuit,
    engine: PortfolioEngine,
    seed: u64,
    settings: &RestartSettings,
    telemetry: &Telemetry,
) -> RestartOutcome {
    match engine {
        PortfolioEngine::SequencePair => {
            let mut config = SeqPairPlacerConfig {
                seed,
                wirelength_weight: settings.wirelength_weight,
                ..SeqPairPlacerConfig::for_netlist(&circuit.netlist)
            };
            if settings.fast_schedule {
                config.schedule = Schedule::fast();
            }
            let result = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints)
                .run_traced(&config, telemetry);
            RestartOutcome {
                placement: result.placement,
                metrics: result.metrics,
                symmetry_error: result.symmetry_error,
                acceptance_ratio: Some(result.stats.acceptance_ratio()),
                moves_attempted: result.stats.moves.attempted,
                moves_per_second: result.stats.moves_per_second(),
                enumeration_won: None,
            }
        }
        PortfolioEngine::HbTree => {
            let mut config = HbTreePlacerConfig {
                seed,
                wirelength_weight: settings.wirelength_weight,
                ..HbTreePlacerConfig::for_circuit(circuit)
            };
            if settings.fast_schedule {
                config.schedule = Schedule::fast();
            }
            let result = HbTreePlacer::new(circuit).run_traced(&config, telemetry);
            RestartOutcome {
                placement: result.placement,
                metrics: result.metrics,
                symmetry_error: result.symmetry_error,
                acceptance_ratio: Some(result.stats.acceptance_ratio()),
                moves_attempted: result.stats.moves.attempted,
                moves_per_second: result.stats.moves_per_second(),
                enumeration_won: None,
            }
        }
        PortfolioEngine::Deterministic => {
            let result = DeterministicPlacer::new(circuit).run(ShapeModel::Enhanced);
            let placement =
                result.placement.expect("the enhanced model always returns a placement");
            let metrics = placement.metrics(&circuit.netlist);
            let symmetry_error = placement.symmetry_error(&circuit.constraints);
            RestartOutcome {
                placement,
                metrics,
                symmetry_error,
                acceptance_ratio: None,
                moves_attempted: 0,
                moves_per_second: None,
                enumeration_won: None,
            }
        }
        PortfolioEngine::Tempering => {
            let mut config = TemperingPlacerConfig {
                seed,
                wirelength_weight: settings.wirelength_weight,
                ..TemperingPlacerConfig::for_netlist(&circuit.netlist)
            };
            if settings.fast_schedule {
                config.schedule = Schedule::fast();
            }
            let result = TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints)
                .run_traced(&config, telemetry);
            RestartOutcome {
                placement: result.placement,
                metrics: result.metrics,
                symmetry_error: result.symmetry_error,
                acceptance_ratio: Some(result.stats.acceptance_ratio()),
                moves_attempted: result.stats.moves.attempted,
                moves_per_second: result.stats.moves_per_second(),
                enumeration_won: None,
            }
        }
        PortfolioEngine::Hier => {
            let options = HierOptions::default()
                .with_seed(seed)
                .with_fast_schedule(settings.fast_schedule)
                .with_anneal_threshold(settings.hier_anneal_threshold);
            let result = HierPlacer::hybrid(circuit, seed)
                .with_options(options)
                .with_telemetry(telemetry.clone())
                .run();
            let metrics = result.placement.metrics(&circuit.netlist);
            let symmetry_error = result.placement.symmetry_error(&circuit.constraints);
            RestartOutcome {
                placement: result.placement,
                metrics,
                symmetry_error,
                acceptance_ratio: None,
                moves_attempted: 0,
                moves_per_second: None,
                enumeration_won: Some(result.enumeration_won),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks;

    #[test]
    fn names_round_trip() {
        for engine in PortfolioEngine::ALL {
            assert_eq!(PortfolioEngine::from_name(engine.name()), Some(engine));
        }
        assert_eq!(PortfolioEngine::from_name("portfolio"), None);
    }

    #[test]
    fn every_engine_produces_a_legal_outcome() {
        let circuit = benchmarks::miller_opamp_fig6();
        let settings = RestartSettings { fast_schedule: true, ..RestartSettings::default() };
        for engine in PortfolioEngine::ALL {
            let outcome = run_engine_once(&circuit, engine, 11, &settings);
            assert!(outcome.placement.is_complete(), "{engine}");
            assert_eq!(outcome.metrics.overlap_area, 0, "{engine}");
            assert_eq!(outcome.acceptance_ratio.is_some(), engine.reports_annealing_stats());
        }
    }

    #[test]
    fn restarts_are_seed_reproducible() {
        let circuit = benchmarks::miller_opamp_fig6();
        let settings = RestartSettings { fast_schedule: true, ..RestartSettings::default() };
        let a = run_engine_once(&circuit, PortfolioEngine::SequencePair, 21, &settings);
        let b = run_engine_once(&circuit, PortfolioEngine::SequencePair, 21, &settings);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.metrics.wirelength, b.metrics.wirelength);
    }
}
