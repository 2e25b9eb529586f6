//! Unified facade for the analog layout synthesis workspace.
//!
//! `apls-core` is the crate a downstream user depends on: it re-exports every
//! engine of the workspace under one namespace and offers [`AnalogPlacer`], a
//! single entry point that runs any of the three placement engines of the
//! DATE 2009 survey on a [`circuit::benchmarks::BenchmarkCircuit`] and returns
//! a uniform [`PlacementReport`]:
//!
//! * [`Engine::SequencePair`] — simulated annealing over symmetric-feasible
//!   sequence-pairs (Section II);
//! * [`Engine::HbTree`] — hierarchical B*-tree annealing with symmetry
//!   islands and common-centroid patterns (Section III);
//! * [`Engine::Deterministic`] — hierarchically bounded enumeration with
//!   enhanced shape functions (Section IV);
//! * [`Engine::Hier`] — the hierarchical cross-engine pipeline
//!   ([`shapefn::hier`]): enumeration for small basic sets, pinned-seed
//!   annealing sub-solvers for larger hierarchy nodes, rayon-parallel
//!   shape-function composition;
//! * [`Engine::Tempering`] — parallel-tempering sequence-pair annealing
//!   ([`seqpair::tempering`]): temperature replicas exchanging
//!   configurations on a deterministic pinned-seed swap schedule.
//!
//! Layout-aware sizing (Section V) lives in [`layoutaware`] and is exercised
//! through the example binaries and the `fig10` bench.
//!
//! Circuits travel as `.apls` text through [`io`] (parser, canonical
//! serializer, content hashing), and [`service`] serves placement jobs over
//! TCP with caching and a worker pool (see `apls serve` / `apls submit`).
//!
//! Beyond single-engine runs, [`AnalogPlacer::place_portfolio`] races all
//! five engines across seeded annealing restarts in parallel (the
//! [`portfolio`] crate) and returns the best-of-portfolio result.
//!
//! # Example
//!
//! ```
//! use apls_core::{AnalogPlacer, Engine};
//! use apls_core::circuit::benchmarks::miller_opamp_fig6;
//!
//! let circuit = miller_opamp_fig6();
//! let report = AnalogPlacer::new(Engine::HbTree)
//!     .with_seed(7)
//!     .with_fast_schedule(true)
//!     .place(&circuit);
//! assert_eq!(report.metrics.overlap_area, 0);
//! assert!(report.constraints.symmetry_satisfied);
//! ```
//!
//! # Portfolio example
//!
//! ```
//! use apls_core::{AnalogPlacer, Engine};
//! use apls_core::circuit::benchmarks::miller_opamp_fig6;
//!
//! let circuit = miller_opamp_fig6();
//! let report = AnalogPlacer::new(Engine::HbTree)
//!     .with_seed(7)
//!     .with_fast_schedule(true)
//!     .place_portfolio(&circuit, 2);
//! assert!(report.best().placement.is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use apls_anneal as anneal;
pub use apls_btree as btree;
pub use apls_circuit as circuit;
pub use apls_geometry as geometry;
pub use apls_io as io;
pub use apls_layoutaware as layoutaware;
pub use apls_portfolio as portfolio;
pub use apls_seqpair as seqpair;
pub use apls_service as service;
pub use apls_shapefn as shapefn;
pub use apls_telemetry as telemetry;

mod report;

pub use report::{ConstraintReport, PlacementReport};

use apls_circuit::benchmarks::BenchmarkCircuit;
use apls_portfolio::{run_engine_once, run_portfolio};
use apls_portfolio::{PortfolioConfig, PortfolioReport};
use std::time::Instant;

/// Which placement engine [`AnalogPlacer`] runs: the portfolio's own
/// engine enum, so a single run and a portfolio lane name engines alike.
pub use apls_portfolio::PortfolioEngine as Engine;

/// The unified placement entry point.
#[derive(Debug, Clone)]
pub struct AnalogPlacer {
    engine: Engine,
    seed: u64,
    fast_schedule: bool,
    wirelength_weight: f64,
}

impl AnalogPlacer {
    /// Creates a placer for the chosen engine with default settings.
    #[must_use]
    pub fn new(engine: Engine) -> Self {
        AnalogPlacer { engine, seed: 1, fast_schedule: false, wirelength_weight: 0.5 }
    }

    /// Sets the RNG seed (builder style). Deterministic engines ignore it.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects a short annealing schedule for quick runs and tests (builder
    /// style).
    #[must_use]
    pub fn with_fast_schedule(mut self, fast: bool) -> Self {
        self.fast_schedule = fast;
        self
    }

    /// Sets the wirelength weight of the annealing cost functions (builder
    /// style).
    #[must_use]
    pub fn with_wirelength_weight(mut self, weight: f64) -> Self {
        self.wirelength_weight = weight;
        self
    }

    /// The engine this placer runs.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// This placer's settings as a portfolio configuration racing all five
    /// engines with `restarts` restarts each: the seed becomes the root seed
    /// and the schedule/wirelength settings carry over.
    #[must_use]
    pub fn portfolio_config(&self, restarts: usize) -> PortfolioConfig {
        PortfolioConfig::new(self.seed)
            .with_restarts(restarts)
            .with_fast_schedule(self.fast_schedule)
            .with_wirelength_weight(self.wirelength_weight)
    }

    /// Places the circuit and reports the result.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's hierarchy or constraints are inconsistent with
    /// its netlist (validate them with [`apls_circuit::HierarchyTree::validate`]
    /// and [`apls_circuit::ConstraintSet::validate`] first when in doubt).
    #[must_use]
    pub fn place(&self, circuit: &BenchmarkCircuit) -> PlacementReport {
        let start = Instant::now();
        let settings = apls_portfolio::RestartSettings {
            fast_schedule: self.fast_schedule,
            wirelength_weight: self.wirelength_weight,
            ..apls_portfolio::RestartSettings::default()
        };
        // Dispatch through the portfolio's engine adapter: a single-engine
        // run IS restart 0 of that engine's portfolio lane, which is what
        // guarantees a portfolio can never lose to a single run.
        let outcome = run_engine_once(circuit, self.engine, self.seed, &settings);
        PlacementReport::new(self.engine, circuit, outcome.placement, start.elapsed())
    }

    /// Races all five engines across `restarts` seeded annealing restarts in
    /// parallel and returns the aggregated [`PortfolioReport`].
    ///
    /// Seeds derive from this placer's seed via
    /// [`anneal::rng::SeedStream`]; restart 0 of every engine replays the
    /// corresponding [`AnalogPlacer::place`] run exactly, so the portfolio's
    /// best cost is never worse than any single engine's under the uniform
    /// cost of [`portfolio::stats::placement_cost`]. Results are independent
    /// of the worker thread count. Use [`apls_portfolio::run_portfolio`]
    /// directly for full control (engine subsets, thread pinning, early
    /// stopping).
    ///
    /// # Panics
    ///
    /// Panics if `restarts == 0` or the circuit is inconsistent.
    #[must_use]
    pub fn place_portfolio(&self, circuit: &BenchmarkCircuit, restarts: usize) -> PortfolioReport {
        run_portfolio(circuit, &self.portfolio_config(restarts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks;

    #[test]
    fn every_engine_produces_a_legal_placement_report() {
        let circuit = benchmarks::miller_opamp_fig6();
        let all = [
            Engine::SequencePair,
            Engine::HbTree,
            Engine::Deterministic,
            Engine::Hier,
            Engine::Tempering,
        ];
        for engine in all {
            let report =
                AnalogPlacer::new(engine).with_seed(3).with_fast_schedule(true).place(&circuit);
            assert!(report.placement.is_complete(), "{engine:?}");
            assert_eq!(report.metrics.overlap_area, 0, "{engine:?}");
            assert!(report.metrics.area_usage >= 1.0, "{engine:?}");
        }
    }

    #[test]
    fn constraint_aware_engines_satisfy_symmetry_exactly() {
        let circuit = benchmarks::miller_v2();
        for engine in [Engine::SequencePair, Engine::HbTree] {
            let report =
                AnalogPlacer::new(engine).with_seed(1).with_fast_schedule(true).place(&circuit);
            assert!(report.constraints.symmetry_satisfied, "{engine:?}");
            assert_eq!(report.constraints.symmetry_error, 0, "{engine:?}");
        }
    }

    #[test]
    fn portfolio_beats_or_matches_every_single_engine() {
        use apls_portfolio::stats::placement_cost;
        let circuit = benchmarks::miller_opamp_fig6();
        let w = 0.5;
        let portfolio = AnalogPlacer::new(Engine::HbTree)
            .with_seed(7)
            .with_fast_schedule(true)
            .place_portfolio(&circuit, 2);
        let all = [
            Engine::SequencePair,
            Engine::HbTree,
            Engine::Deterministic,
            Engine::Hier,
            Engine::Tempering,
        ];
        for engine in all {
            let single =
                AnalogPlacer::new(engine).with_seed(7).with_fast_schedule(true).place(&circuit);
            assert!(
                portfolio.best_cost() <= placement_cost(&single.metrics, w) + 1e-9,
                "portfolio lost to {engine:?}"
            );
        }
    }

    #[test]
    fn reports_are_reproducible_for_a_fixed_seed() {
        let circuit = benchmarks::comparator_v2();
        let a =
            AnalogPlacer::new(Engine::HbTree).with_seed(9).with_fast_schedule(true).place(&circuit);
        let b =
            AnalogPlacer::new(Engine::HbTree).with_seed(9).with_fast_schedule(true).place(&circuit);
        assert_eq!(a.metrics.bounding_area, b.metrics.bounding_area);
    }
}
