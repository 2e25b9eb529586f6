//! Parallel multi-start portfolio placement.
//!
//! The DATE 2009 survey compares three topological placement approaches —
//! symmetric-feasible sequence-pairs, hierarchical B*-trees, and
//! deterministic shape-function enumeration. Each is competitive on some
//! circuits and loses on others, and each annealing engine's result depends
//! on its seed. Industrial placers (and the paper's own comparison tables)
//! therefore report *best-of-N*: race every engine across many restarts and
//! keep the winner. This crate is that execution layer:
//!
//! * [`PortfolioConfig`] — restarts per engine, engine subset, thread count,
//!   schedule, and an optional plateau-based [`EarlyStop`];
//! * [`run_portfolio`] — fans the restart plan out on a rayon pool; every
//!   restart's seed derives from the single root seed via
//!   [`apls_anneal::rng::SeedStream`], so results are bit-identical for any
//!   thread count;
//! * [`PortfolioReport`] — the winning placement plus per-engine statistics,
//!   per-restart records, a restart-cost histogram, and its JSON rendering
//!   through the workspace's one writer ([`apls_telemetry::json`]);
//! * [`svg::render_svg`] — an SVG rendering of any placement, used by the
//!   `apls` CLI for the winner.
//!
//! # Example
//!
//! ```
//! use apls_portfolio::{run_portfolio, PortfolioConfig};
//! use apls_circuit::benchmarks::miller_opamp_fig6;
//!
//! let circuit = miller_opamp_fig6();
//! let config = PortfolioConfig::new(42).with_restarts(2).with_fast_schedule(true);
//! let report = run_portfolio(&circuit, &config);
//! assert!(report.best().placement.is_complete());
//! // the portfolio can never lose to any of its own restarts
//! assert!(report.restarts.iter().all(|r| report.best_cost() <= r.cost));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod earlystop;
mod engine;
mod report;
mod runner;
pub mod stats;
pub mod svg;

pub use config::{EarlyStop, PortfolioConfig, RestartTask};
pub use earlystop::PlateauDetector;
pub use engine::{run_engine_once, PortfolioEngine, RestartOutcome, RestartSettings};
pub use report::{EngineSummary, PortfolioReport, RestartRecord};
pub use runner::{
    run_portfolio, run_portfolio_with, CancelToken, Cancelled, RestartObserver, RunContext,
};
