//! Portfolio configuration and the deterministic restart plan.

use crate::engine::{PortfolioEngine, RestartSettings};
use apls_anneal::rng::SeedStream;

/// Early-stop policy: end the portfolio once the best cost has plateaued.
///
/// After each *generation* (one restart index across all engines) the runner
/// checks whether the best cost improved by more than `min_improvement`
/// (relative). Once `window` consecutive generations bring no such
/// improvement, the remaining restarts are skipped. Because generations are
/// fixed by restart index — never by completion time — early stopping is
/// deterministic and independent of the worker thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    /// Number of consecutive non-improving generations that triggers the stop.
    pub window: usize,
    /// Minimum relative cost improvement (e.g. `0.01` = 1%) that counts as
    /// progress.
    pub min_improvement: f64,
}

impl EarlyStop {
    /// A window of `window` generations with a 0.5% improvement threshold.
    #[must_use]
    pub fn after(window: usize) -> Self {
        EarlyStop { window, min_improvement: 0.005 }
    }
}

/// Configuration of one portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Root seed; every restart derives its own seed from it (see
    /// [`SeedStream`]). Restart 0 of each engine reuses the root seed
    /// verbatim so it replays the single-engine run.
    pub root_seed: u64,
    /// Restarts per stochastic engine (the deterministic engine always runs
    /// exactly once). Must be at least 1.
    pub restarts: usize,
    /// Which engines to race.
    pub engines: Vec<PortfolioEngine>,
    /// Worker threads (`0` = one per available core). Thread count never
    /// changes results, only wall time.
    pub threads: usize,
    /// Use the short test/smoke annealing schedule.
    pub fast_schedule: bool,
    /// Weight of the wirelength term in both the annealing cost functions
    /// and the portfolio's uniform comparison cost.
    pub wirelength_weight: f64,
    /// Hierarchy nodes with more than this many modules are refined by the
    /// hier engine's B*-tree annealing (hier engine only).
    pub hier_anneal_threshold: usize,
    /// Optional plateau-based early stop.
    pub early_stop: Option<EarlyStop>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            root_seed: 1,
            restarts: 8,
            engines: PortfolioEngine::ALL.to_vec(),
            threads: 0,
            fast_schedule: false,
            wirelength_weight: 0.5,
            hier_anneal_threshold: 5,
            early_stop: None,
        }
    }
}

impl PortfolioConfig {
    /// Default configuration rooted at `root_seed`.
    #[must_use]
    pub fn new(root_seed: u64) -> Self {
        PortfolioConfig { root_seed, ..PortfolioConfig::default() }
    }

    /// Sets the restarts per stochastic engine (builder style).
    #[must_use]
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Restricts the racing engines (builder style).
    #[must_use]
    pub fn with_engines(mut self, engines: impl Into<Vec<PortfolioEngine>>) -> Self {
        self.engines = engines.into();
        self
    }

    /// Sets the worker thread count, `0` meaning automatic (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the short annealing schedule (builder style).
    #[must_use]
    pub fn with_fast_schedule(mut self, fast: bool) -> Self {
        self.fast_schedule = fast;
        self
    }

    /// Sets the wirelength weight (builder style).
    #[must_use]
    pub fn with_wirelength_weight(mut self, weight: f64) -> Self {
        self.wirelength_weight = weight;
        self
    }

    /// Sets the hier engine's annealing threshold (builder style).
    #[must_use]
    pub fn with_hier_anneal_threshold(mut self, threshold: usize) -> Self {
        self.hier_anneal_threshold = threshold;
        self
    }

    /// Enables plateau-based early stopping (builder style).
    #[must_use]
    pub fn with_early_stop(mut self, early_stop: EarlyStop) -> Self {
        self.early_stop = Some(early_stop);
        self
    }

    /// The per-restart settings shared by every task of this run.
    #[must_use]
    pub fn restart_settings(&self) -> RestartSettings {
        RestartSettings {
            fast_schedule: self.fast_schedule,
            wirelength_weight: self.wirelength_weight,
            hier_anneal_threshold: self.hier_anneal_threshold,
        }
    }

    /// The full restart plan, grouped into generations: generation `i` holds
    /// restart `i` of every engine that still participates at that index.
    /// Seeds depend only on `(root_seed, engine, restart)`, so the plan is a
    /// pure function of the configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`PortfolioConfig::check`] refuses the configuration.
    #[must_use]
    pub fn generations(&self) -> Vec<Vec<RestartTask>> {
        self.validate();
        let stream = SeedStream::new(self.root_seed);
        (0..self.restarts)
            .map(|restart| {
                self.engines
                    .iter()
                    .filter(|e| restart == 0 || e.is_stochastic())
                    .map(|&engine| RestartTask {
                        engine,
                        restart,
                        seed: if restart == 0 {
                            self.root_seed
                        } else {
                            stream.seed_for(engine.lane(), restart as u64)
                        },
                    })
                    .collect()
            })
            .filter(|g: &Vec<RestartTask>| !g.is_empty())
            .collect()
    }

    /// Checks every range rule of a job's options: at least one restart, a
    /// non-empty list of distinct engines, a finite non-negative wirelength
    /// weight, a hier threshold and a plateau window of at least 1, and a
    /// finite non-negative improvement threshold. The CLI, `apls submit` and
    /// the service all apply these rules, and the messages name the fields
    /// as a `place` request spells them.
    ///
    /// # Errors
    ///
    /// Returns the message of the first rule the configuration breaks.
    pub fn check(&self) -> Result<(), String> {
        if self.restarts == 0 {
            return Err("'restarts' must be at least 1".to_string());
        }
        if self.engines.is_empty() {
            return Err("'engines' must name at least one engine".to_string());
        }
        for (i, engine) in self.engines.iter().enumerate() {
            if self.engines[..i].contains(engine) {
                return Err(format!("duplicate engine '{engine}'"));
            }
        }
        if !(self.wirelength_weight.is_finite() && self.wirelength_weight >= 0.0) {
            return Err("'wirelength_weight' must be finite and non-negative".to_string());
        }
        if self.hier_anneal_threshold == 0 {
            return Err("'hier_anneal_threshold' must be at least 1".to_string());
        }
        if let Some(es) = &self.early_stop {
            if es.window == 0 {
                return Err("'plateau' must be at least 1".to_string());
            }
            if !(es.min_improvement.is_finite() && es.min_improvement >= 0.0) {
                return Err(
                    "early-stop improvement threshold must be finite and non-negative".to_string()
                );
            }
        }
        Ok(())
    }

    /// Asserts [`PortfolioConfig::check`].
    ///
    /// # Panics
    ///
    /// Panics with the check's message if the configuration is invalid.
    pub fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

/// One scheduled restart: an engine plus its derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartTask {
    /// Engine to run.
    pub engine: PortfolioEngine,
    /// Restart index within that engine's lane.
    pub restart: usize,
    /// Seed derived from the root seed for this `(engine, restart)`.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_plan_is_deterministic_and_lane_separated() {
        let config = PortfolioConfig::new(77).with_restarts(4);
        let a = config.generations();
        let b = config.generations();
        assert_eq!(a, b);
        // generation 0 has all five engines, later ones only the stochastic four
        assert_eq!(a[0].len(), 5);
        assert!(a[1..].iter().all(|g| g.len() == 4));
        // restart 0 replays the root seed for every engine
        assert!(a[0].iter().all(|t| t.seed == 77));
        // later restarts get distinct seeds across engines and indices
        let mut seeds: Vec<u64> = a[1..].iter().flatten().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }

    #[test]
    fn single_engine_plans_shrink() {
        let config =
            PortfolioConfig::new(1).with_restarts(3).with_engines([PortfolioEngine::Deterministic]);
        let generations = config.generations();
        // the deterministic engine ignores seeds, so only restart 0 survives
        assert_eq!(generations.len(), 1);
        assert_eq!(generations[0].len(), 1);
    }

    #[test]
    #[should_panic(expected = "'restarts' must be at least 1")]
    fn zero_restarts_panic() {
        let _ = PortfolioConfig::new(1).with_restarts(0).generations();
    }

    #[test]
    #[should_panic(expected = "duplicate engine")]
    fn duplicate_engines_panic() {
        let _ = PortfolioConfig::new(1)
            .with_engines([PortfolioEngine::HbTree, PortfolioEngine::HbTree])
            .generations();
    }
}
