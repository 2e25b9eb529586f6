//! Portfolio results: per-restart records, per-engine summaries, and the
//! aggregate [`PortfolioReport`] with its JSON rendering.

use crate::config::PortfolioConfig;
use crate::engine::PortfolioEngine;
use crate::stats::{CostStats, RestartHistogram};
use apls_circuit::{Placement, PlacementMetrics};
use apls_telemetry::json::{self, Float, Layout, Writer};
use std::time::Duration;

/// The outcome of one completed restart.
#[derive(Debug, Clone)]
pub struct RestartRecord {
    /// Engine that ran.
    pub engine: PortfolioEngine,
    /// Restart index within the engine's lane.
    pub restart: usize,
    /// Seed the restart ran with.
    pub seed: u64,
    /// Uniform comparison cost (see [`crate::stats::placement_cost`]).
    pub cost: f64,
    /// Wall-clock time of this restart.
    pub runtime: Duration,
    /// Move acceptance ratio (`None` for the deterministic engine).
    pub acceptance_ratio: Option<f64>,
    /// Proposals evaluated.
    pub moves_attempted: u64,
    /// Annealing throughput in proposals per second, measured over the
    /// annealing loop only (`None` for the deterministic engine).
    pub moves_per_second: Option<f64>,
    /// Whether the hier engine's never-lose pure-enumeration fallback beat
    /// the hybrid pipeline in this restart (`None` for every other engine).
    pub enumeration_won: Option<bool>,
    /// Metrics of the restart's placement.
    pub metrics: PlacementMetrics,
    /// Largest symmetry deviation (doubled dbu).
    pub symmetry_error: i64,
    /// The placement itself.
    pub placement: Placement,
}

/// Aggregate statistics of all restarts of one engine.
#[derive(Debug, Clone)]
pub struct EngineSummary {
    /// The engine.
    pub engine: PortfolioEngine,
    /// Restarts that actually ran (early stop may cut the plan short).
    pub restarts_run: usize,
    /// Cost distribution over those restarts.
    pub cost: CostStats,
    /// Restart index that achieved `cost.min`.
    pub best_restart: usize,
    /// Mean acceptance ratio (`None` for the deterministic engine).
    pub mean_acceptance: Option<f64>,
    /// Mean annealing throughput in proposals per second (`None` for the
    /// deterministic engine).
    pub mean_moves_per_second: Option<f64>,
    /// How many restarts fell back to the pure-enumeration result (hier
    /// engine only; `None` for engines that have no such fallback).
    pub enumeration_wins: Option<usize>,
    /// Summed wall-clock time of the engine's restarts.
    pub total_runtime: Duration,
}

/// The result of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Circuit name.
    pub circuit_name: String,
    /// Root seed the restart seeds derive from.
    pub root_seed: u64,
    /// Restarts per stochastic engine the plan scheduled.
    pub restarts_scheduled: usize,
    /// `true` when the plateau policy cut the plan short.
    pub early_stopped: bool,
    /// Wall-clock time of the whole portfolio (all restarts plus overhead).
    pub wall_time: Duration,
    /// Every completed restart, in plan order (generation-major).
    pub restarts: Vec<RestartRecord>,
    /// Index into [`PortfolioReport::restarts`] of the winner.
    pub best_index: usize,
    /// Per-engine aggregates, in portfolio engine order.
    pub engines: Vec<EngineSummary>,
    /// Cost distribution of all restarts relative to the winner.
    pub histogram: RestartHistogram,
}

impl PortfolioReport {
    /// Builds the report from completed restart records (in plan order).
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    #[must_use]
    pub fn assemble(
        circuit_name: String,
        config: &PortfolioConfig,
        records: Vec<RestartRecord>,
        early_stopped: bool,
        wall_time: Duration,
    ) -> Self {
        assert!(!records.is_empty(), "portfolio produced no restarts");
        // strict < keeps the earliest record on ties, which makes the winner
        // independent of float noise in later identical restarts
        let mut best_index = 0;
        for (i, r) in records.iter().enumerate() {
            if r.cost < records[best_index].cost {
                best_index = i;
            }
        }
        let engines = config
            .engines
            .iter()
            .filter_map(|&engine| {
                let runs: Vec<&RestartRecord> =
                    records.iter().filter(|r| r.engine == engine).collect();
                if runs.is_empty() {
                    return None;
                }
                let costs: Vec<f64> = runs.iter().map(|r| r.cost).collect();
                let cost = CostStats::of(&costs);
                let best_restart = runs
                    .iter()
                    .min_by(|a, b| a.cost.total_cmp(&b.cost))
                    .map(|r| r.restart)
                    .unwrap_or(0);
                let ratios: Vec<f64> = runs.iter().filter_map(|r| r.acceptance_ratio).collect();
                let mean_acceptance = if ratios.is_empty() {
                    None
                } else {
                    Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
                };
                let throughputs: Vec<f64> =
                    runs.iter().filter_map(|r| r.moves_per_second).collect();
                let mean_moves_per_second = if throughputs.is_empty() {
                    None
                } else {
                    Some(throughputs.iter().sum::<f64>() / throughputs.len() as f64)
                };
                let enumeration_wins = if runs.iter().any(|r| r.enumeration_won.is_some()) {
                    Some(runs.iter().filter(|r| r.enumeration_won == Some(true)).count())
                } else {
                    None
                };
                Some(EngineSummary {
                    engine,
                    restarts_run: runs.len(),
                    cost,
                    best_restart,
                    mean_acceptance,
                    mean_moves_per_second,
                    enumeration_wins,
                    total_runtime: runs.iter().map(|r| r.runtime).sum(),
                })
            })
            .collect();
        let histogram = RestartHistogram::of(&records.iter().map(|r| r.cost).collect::<Vec<_>>());
        PortfolioReport {
            circuit_name,
            root_seed: config.root_seed,
            restarts_scheduled: config.restarts,
            early_stopped,
            wall_time,
            restarts: records,
            best_index,
            engines,
            histogram,
        }
    }

    /// The winning restart.
    #[must_use]
    pub fn best(&self) -> &RestartRecord {
        &self.restarts[self.best_index]
    }

    /// Cost of the winning restart.
    #[must_use]
    pub fn best_cost(&self) -> f64 {
        self.best().cost
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let best = self.best();
        format!(
            "portfolio on {}: {} restarts{}, best {} (restart {}, seed {:#x}), cost {:.0}, {}x{} dbu, HPWL {:.0}, {:.1} ms wall",
            self.circuit_name,
            self.restarts.len(),
            if self.early_stopped { " (early stop)" } else { "" },
            best.engine,
            best.restart,
            best.seed,
            best.cost,
            best.metrics.width,
            best.metrics.height,
            best.metrics.wirelength,
            self.wall_time.as_secs_f64() * 1e3,
        )
    }

    /// Serialises the full report as a JSON document.
    ///
    /// Written through the workspace's one JSON writer
    /// ([`apls_telemetry::json`]); the schema is documented in DESIGN.md §6.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// Serialises the report with every timing-derived field (`wall_ms`,
    /// `runtime_ms`, `total_runtime_ms`, `moves_per_sec`,
    /// `mean_moves_per_sec`) emitted as `null`.
    ///
    /// What remains is a pure function of `(circuit, config, root_seed)` —
    /// byte-identical across runs, thread counts and machines. This is the
    /// report body `apls-service` returns and caches, and the object of its
    /// determinism guarantee (DESIGN.md §10).
    #[must_use]
    pub fn to_json_deterministic(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timings: bool) -> String {
        // a timing-derived value, or `null` in the deterministic report
        let timed = |w: &mut Writer<'_>, v: Option<f64>, format: Float| {
            w.opt(v.filter(|_| timings), |w, v| w.f64(v, format));
        };
        let ms = |d: Duration| Some(d.as_secs_f64() * 1e3);
        let mut out = String::with_capacity(4096);
        json::object(&mut out, Layout::Indented, |w| {
            w.key("circuit").str(&self.circuit_name);
            w.key("root_seed").int(self.root_seed);
            w.key("restarts_scheduled").int(self.restarts_scheduled);
            w.key("restarts_run").int(self.restarts.len());
            w.key("early_stopped").bool(self.early_stopped);
            timed(w.key("wall_ms"), ms(self.wall_time), Float::Fixed(3));
            w.key("best").object(Layout::Indented, |w| write_best(w, self.best()));
            w.key("engines").array(Layout::Indented, |w| {
                for e in &self.engines {
                    w.object(Layout::Row, |w| {
                        w.key("engine").str(e.engine.name());
                        w.key("restarts_run").int(e.restarts_run);
                        w.key("best_cost").f64(e.cost.min, Float::Fixed(3));
                        w.key("mean_cost").f64(e.cost.mean, Float::Fixed(3));
                        w.key("worst_cost").f64(e.cost.max, Float::Fixed(3));
                        w.key("best_restart").int(e.best_restart);
                        w.key("mean_acceptance").opt(e.mean_acceptance, |w, a| {
                            w.f64(a, Float::Fixed(4));
                        });
                        timed(w.key("mean_moves_per_sec"), e.mean_moves_per_second, Float::Rounded);
                        w.key("enumeration_wins").opt(e.enumeration_wins, Writer::int);
                        timed(w.key("total_runtime_ms"), ms(e.total_runtime), Float::Fixed(3));
                    });
                }
            });
            w.key("restarts").array(Layout::Indented, |w| {
                for r in &self.restarts {
                    w.object(Layout::Row, |w| {
                        w.key("engine").str(r.engine.name());
                        w.key("restart").int(r.restart);
                        w.key("seed").int(r.seed);
                        w.key("cost").f64(r.cost, Float::Fixed(3));
                        timed(w.key("runtime_ms"), ms(r.runtime), Float::Fixed(3));
                        w.key("acceptance")
                            .opt(r.acceptance_ratio, |w, a| w.f64(a, Float::Fixed(4)));
                        timed(w.key("moves_per_sec"), r.moves_per_second, Float::Rounded);
                        w.key("enumeration_won").opt(r.enumeration_won, Writer::bool);
                        w.key("symmetry_error").int(r.symmetry_error);
                    });
                }
            });
            w.key("histogram").array(Layout::Indented, |w| {
                for (label, count) in RestartHistogram::labels().iter().zip(&self.histogram.counts)
                {
                    w.object(Layout::Row, |w| {
                        w.key("bucket").str(label);
                        w.key("count").int(*count);
                    });
                }
            });
        });
        out.push('\n');
        out
    }
}

/// Writes the winning restart's members into the open object `w`.
fn write_best(w: &mut Writer<'_>, r: &RestartRecord) {
    w.key("engine").str(r.engine.name());
    w.key("restart").int(r.restart);
    w.key("seed").int(r.seed);
    w.key("cost").f64(r.cost, Float::Fixed(3));
    w.key("width").int(r.metrics.width);
    w.key("height").int(r.metrics.height);
    w.key("area_usage").f64(r.metrics.area_usage, Float::Fixed(4));
    w.key("wirelength").f64(r.metrics.wirelength, Float::Fixed(3));
    w.key("symmetry_error").int(r.symmetry_error);
    w.key("overlap_area").int(r.metrics.overlap_area);
    w.key("enumeration_won").opt(r.enumeration_won, Writer::bool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_portfolio;
    use apls_circuit::benchmarks;

    fn small_report() -> PortfolioReport {
        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(3).with_restarts(2).with_fast_schedule(true);
        run_portfolio(&circuit, &config)
    }

    #[test]
    fn best_is_the_minimum_cost_record() {
        let report = small_report();
        let min = report.restarts.iter().map(|r| r.cost).fold(f64::INFINITY, f64::min);
        assert_eq!(report.best_cost(), min);
        assert!(report.best().placement.is_complete());
    }

    #[test]
    fn json_is_structurally_sound() {
        let report = small_report();
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"circuit\": \"miller_opamp\""));
        assert!(json.contains("\"engines\""));
        assert!(json.contains("\"histogram\""));
        // deterministic engine serialises a null acceptance
        assert!(json.contains("\"acceptance\": null"));
        // annealing throughput is surfaced per restart and per engine
        assert!(json.contains("\"moves_per_sec\""));
        assert!(json.contains("\"mean_moves_per_sec\""));
        assert!(json.contains("\"moves_per_sec\": null"));
    }

    #[test]
    fn stochastic_engines_report_throughput() {
        let report = small_report();
        for r in &report.restarts {
            if r.engine.reports_annealing_stats() && r.moves_attempted > 0 {
                // sub-microsecond clock resolution could in principle swallow a
                // run, but the smoke schedule always takes measurable time
                assert!(r.moves_per_second.unwrap_or(0.0) > 0.0, "{}", r.engine);
            } else if !r.engine.reports_annealing_stats() {
                assert_eq!(r.moves_per_second, None);
            }
        }
        for e in &report.engines {
            assert_eq!(e.mean_moves_per_second.is_some(), e.engine.reports_annealing_stats());
        }
    }

    #[test]
    fn enumeration_flag_is_hier_only() {
        use crate::engine::PortfolioEngine;
        let report = small_report();
        for r in &report.restarts {
            assert_eq!(
                r.enumeration_won.is_some(),
                r.engine == PortfolioEngine::Hier,
                "{}",
                r.engine
            );
        }
        for e in &report.engines {
            assert_eq!(
                e.enumeration_wins.is_some(),
                e.engine == PortfolioEngine::Hier,
                "{}",
                e.engine
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"enumeration_won\": null"));
        assert!(json.contains("\"enumeration_wins\""));
    }

    #[test]
    fn deterministic_json_is_reproducible_across_runs_and_threads() {
        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(3).with_restarts(2).with_fast_schedule(true);
        let a = run_portfolio(&circuit, &config).to_json_deterministic();
        let b = run_portfolio(&circuit, &config.clone().with_threads(2)).to_json_deterministic();
        assert_eq!(a, b);
        assert!(a.contains("\"wall_ms\": null"));
        assert!(a.contains("\"runtime_ms\": null"));
        assert!(a.contains("\"total_runtime_ms\": null"));
        assert!(!a.contains("\"moves_per_sec\": 0"));
    }

    #[test]
    fn tempering_lane_json_is_byte_identical_across_thread_counts() {
        // The tempering engine parallelises *within* a restart (one rayon
        // task per replica), so pin the portfolio to that lane alone and
        // compare the full deterministic report at 1 vs 4 worker threads.
        use crate::engine::PortfolioEngine;
        let circuit = benchmarks::comparator_v2();
        let config = PortfolioConfig::new(17)
            .with_restarts(2)
            .with_fast_schedule(true)
            .with_engines([PortfolioEngine::Tempering]);
        let one = run_portfolio(&circuit, &config.clone().with_threads(1)).to_json_deterministic();
        let four = run_portfolio(&circuit, &config.with_threads(4)).to_json_deterministic();
        assert_eq!(one, four);
        assert!(one.contains("\"tempering\""));
    }

    #[test]
    fn summary_names_the_circuit_and_winner() {
        let report = small_report();
        let text = report.summary();
        assert!(text.contains("miller_opamp"));
        assert!(text.contains(report.best().engine.name()));
    }
}
