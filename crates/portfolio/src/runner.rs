//! The parallel multi-start runner.

use crate::config::{PortfolioConfig, RestartTask};
use crate::earlystop::PlateauDetector;
use crate::engine::run_engine_once_traced;
use crate::report::{PortfolioReport, RestartRecord};
use crate::stats::placement_cost;
use apls_circuit::benchmarks::BenchmarkCircuit;
use apls_shapefn::PureWalk;
use apls_telemetry::Telemetry;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A cooperative cancellation signal for a portfolio run.
///
/// The runner polls the token *between restart generations* — a restart that
/// has started always finishes, so cancellation never tears a solver down
/// mid-move and the records produced before the cut are exactly the records a
/// completed run would have produced for those generations. An unarmed token
/// (the default) costs one branch per generation and keeps the runner's
/// flattened single-batch fan-out.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// Wall-clock deadline after which the run is considered cancelled.
    deadline: Option<Instant>,
    /// Manual cancellation flag (shared with whoever wants to pull the plug).
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A token that cancels once `deadline` has passed.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { deadline: Some(deadline), flag: None }
    }

    /// A manually triggered token; call [`CancelToken::cancel`] to fire it.
    #[must_use]
    pub fn manual() -> CancelToken {
        CancelToken { deadline: None, flag: Some(Arc::new(AtomicBool::new(false))) }
    }

    /// Fires a manual token. No-op for deadline-only or unarmed tokens.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the run should stop at the next checkpoint.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.flag.as_ref().is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Whether this token can ever cancel. Armed tokens force the runner into
    /// per-generation batches so checkpoints actually exist.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some() || self.flag.is_some()
    }
}

/// A per-restart completion callback for a portfolio run.
///
/// The runner invokes [`RestartObserver::restart_complete`] from its driver
/// thread, in *plan order*, after each restart generation finishes — never
/// from inside the rayon pool, so implementations need not be `Sync`.
/// Observe-only: an installed observer forces per-generation batching
/// (exactly like an armed [`CancelToken`], which is pinned to never change a
/// completed report) but can never touch a seed stream or a record.
pub trait RestartObserver {
    /// Called once per completed restart with the finished record, the
    /// number of restarts completed so far (1-based, in plan order) and the
    /// planned total.
    fn restart_complete(&self, record: &RestartRecord, completed: usize, total: usize);
}

/// The error of a cancelled portfolio run: the deadline passed or the token
/// fired before every generation completed. No partial report is returned —
/// a cancelled run produces nothing, so it can never leak a
/// non-deterministic prefix as if it were a full result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("portfolio run cancelled before completion")
    }
}

/// How a portfolio run is traced, cut short and watched. The default runs
/// untraced, with an unarmed [`CancelToken`] and no observer — exactly
/// [`run_portfolio`].
#[derive(Clone, Default)]
pub struct RunContext<'a> {
    /// Telemetry threaded through every restart lane (observe-only; the
    /// report is bit-identical whatever collector is installed — telemetry
    /// never touches a seed stream).
    pub telemetry: Telemetry,
    /// Cooperative cancellation, checked between restart generations.
    pub cancel: CancelToken,
    /// Notified after every completed restart (the service's streaming
    /// `progress` frames hang off this hook).
    pub observer: Option<&'a dyn RestartObserver>,
}

/// Runs the full portfolio on `circuit`.
///
/// The restart plan is generated up front ([`PortfolioConfig::generations`]),
/// executed generation by generation on a rayon pool of `config.threads`
/// workers, and aggregated in plan order. Every restart is a pure function of
/// `(circuit, engine, seed, settings)` and the aggregation never looks at
/// completion timing, so the report — including early stopping — is
/// bit-identical across thread counts.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`PortfolioConfig::validate`]) or the circuit is inconsistent.
#[must_use]
pub fn run_portfolio(circuit: &BenchmarkCircuit, config: &PortfolioConfig) -> PortfolioReport {
    run_portfolio_with(circuit, config, &RunContext::default())
        .expect("an unarmed token never cancels")
}

/// [`run_portfolio`] under a [`RunContext`]: traced, cancellable and
/// observed.
///
/// Neither telemetry nor an observer nor an armed token changes a completed
/// report: armed tokens and observers only change *batching* (one batch per
/// generation, so checkpoints exist), never task seeds or aggregation order.
/// Cancellation is all-or-nothing: a run that is cut returns [`Cancelled`]
/// with no partial report.
///
/// # Errors
///
/// Returns [`Cancelled`] when the context's token fires before the last
/// generation completes.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`PortfolioConfig::validate`]) or the circuit is inconsistent.
pub fn run_portfolio_with(
    circuit: &BenchmarkCircuit,
    config: &PortfolioConfig,
    context: &RunContext<'_>,
) -> Result<PortfolioReport, Cancelled> {
    let RunContext { telemetry, cancel, observer } = context;
    config.validate();
    let start = Instant::now();
    let mut run_span = apls_telemetry::span!(
        telemetry,
        "portfolio",
        "portfolio_run",
        circuit = circuit.name.as_str(),
        seed = config.root_seed,
        restarts = config.restarts,
        threads = config.threads
    );
    let pool = ThreadPoolBuilder::new()
        .num_threads(config.threads)
        .build()
        .expect("portfolio thread pool builds");
    let mut detector = config.early_stop.map(PlateauDetector::new);
    let mut records: Vec<RestartRecord> = Vec::new();
    let mut early_stopped = false;
    // the pure-enumeration walk, computed by the first deterministic or hier
    // restart to need it and shared by all of them
    let pure_walk = OnceLock::new();

    let generations = config.generations();
    let planned: usize = generations.iter().map(Vec::len).sum();
    // Without early stopping (or an armed cancel token or an observer, which
    // need per-generation checkpoints) there is no reason to synchronise
    // between generations: flatten the plan into one fan-out so every worker
    // stays busy until the queue drains.
    let batches: Vec<Vec<RestartTask>> =
        if detector.is_some() || cancel.is_armed() || observer.is_some() {
            generations
        } else {
            vec![generations.into_iter().flatten().collect()]
        };

    for batch in batches {
        if cancel.is_cancelled() {
            if run_span.is_recording() {
                run_span.arg("cancelled", true);
            }
            return Err(Cancelled);
        }
        let batch_records: Vec<RestartRecord> = pool.install(|| {
            batch
                .into_par_iter()
                .map(|task| execute(circuit, task, config, telemetry, &pure_walk))
                .collect()
        });
        if let Some(observer) = observer {
            for (offset, record) in batch_records.iter().enumerate() {
                observer.restart_complete(record, records.len() + offset + 1, planned);
            }
        }
        records.extend(batch_records);
        if let Some(detector) = detector.as_mut() {
            let best_so_far = records.iter().map(|r| r.cost).fold(f64::INFINITY, f64::min);
            if detector.observe(best_so_far) {
                early_stopped = true;
                break;
            }
        }
    }

    if run_span.is_recording() {
        run_span.arg("restarts_executed", records.len() as u64);
        run_span.arg("early_stopped", early_stopped);
    }
    drop(run_span);
    Ok(PortfolioReport::assemble(
        circuit.name.clone(),
        config,
        records,
        early_stopped,
        start.elapsed(),
    ))
}

/// Runs one scheduled restart and scores it with the uniform cost.
fn execute(
    circuit: &BenchmarkCircuit,
    task: RestartTask,
    config: &PortfolioConfig,
    telemetry: &Telemetry,
    pure_walk: &OnceLock<PureWalk>,
) -> RestartRecord {
    let start = Instant::now();
    let mut span = apls_telemetry::span!(
        telemetry,
        "portfolio",
        "restart",
        engine = task.engine.name(),
        restart = task.restart,
        seed = task.seed
    );
    let outcome = run_engine_once_traced(
        circuit,
        task.engine,
        task.seed,
        &config.restart_settings(),
        telemetry,
        pure_walk,
    );
    let cost = placement_cost(&outcome.metrics, config.wirelength_weight);
    if span.is_recording() {
        span.arg("cost", cost);
        span.arg("moves_attempted", outcome.moves_attempted);
    }
    RestartRecord {
        engine: task.engine,
        restart: task.restart,
        seed: task.seed,
        cost,
        runtime: start.elapsed(),
        acceptance_ratio: outcome.acceptance_ratio,
        moves_attempted: outcome.moves_attempted,
        moves_per_second: outcome.moves_per_second,
        enumeration_won: outcome.enumeration_won,
        metrics: outcome.metrics,
        symmetry_error: outcome.symmetry_error,
        placement: outcome.placement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EarlyStop;
    use crate::engine::PortfolioEngine;
    use apls_circuit::benchmarks;

    fn costs(report: &PortfolioReport) -> Vec<(String, usize, f64)> {
        report.restarts.iter().map(|r| (r.engine.name().to_string(), r.restart, r.cost)).collect()
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        let circuit = benchmarks::miller_opamp_fig6();
        let base = PortfolioConfig::new(5).with_restarts(3).with_fast_schedule(true);
        let one = run_portfolio(&circuit, &base.clone().with_threads(1));
        let four = run_portfolio(&circuit, &base.with_threads(4));
        assert_eq!(costs(&one), costs(&four));
        assert_eq!(one.best_cost(), four.best_cost());
        assert_eq!(one.best().placement, four.best().placement);
    }

    #[test]
    fn portfolio_never_loses_to_its_own_restarts() {
        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(2).with_restarts(3).with_fast_schedule(true);
        let report = run_portfolio(&circuit, &config);
        for r in &report.restarts {
            assert!(report.best_cost() <= r.cost);
        }
        // restart 0 of each engine replays the root seed
        for engine in PortfolioEngine::ALL {
            let first = report
                .restarts
                .iter()
                .find(|r| r.engine == engine && r.restart == 0)
                .expect("restart 0 present");
            assert_eq!(first.seed, 2);
        }
    }

    #[test]
    fn armed_token_never_changes_a_completed_report() {
        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(3).with_restarts(3).with_fast_schedule(true);
        let plain = run_portfolio(&circuit, &config);
        // a far-future deadline arms the token (per-generation batches)
        // without ever firing
        let deadline = Instant::now() + std::time::Duration::from_secs(3600);
        let context =
            RunContext { cancel: CancelToken::with_deadline(deadline), ..RunContext::default() };
        let armed = run_portfolio_with(&circuit, &config, &context)
            .expect("far-future deadline never fires");
        assert_eq!(costs(&plain), costs(&armed));
        assert_eq!(plain.best().placement, armed.best().placement);
    }

    #[test]
    fn expired_deadline_cancels_before_the_first_generation() {
        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(3).with_restarts(2).with_fast_schedule(true);
        let token =
            CancelToken::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        let context = RunContext { cancel: token, ..RunContext::default() };
        let result = run_portfolio_with(&circuit, &config, &context);
        assert_eq!(result.unwrap_err(), Cancelled);
    }

    #[test]
    fn manual_token_cancels_and_unarmed_never_does() {
        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(3).with_restarts(1).with_fast_schedule(true);
        let token = CancelToken::manual();
        assert!(token.is_armed() && !token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        let context = RunContext { cancel: token, ..RunContext::default() };
        let result = run_portfolio_with(&circuit, &config, &context);
        assert_eq!(result.unwrap_err(), Cancelled);

        let none = CancelToken::default();
        assert!(!none.is_armed());
        none.cancel(); // no-op
        assert!(!none.is_cancelled());
    }

    #[test]
    fn observer_sees_every_restart_in_plan_order_without_changing_the_report() {
        use std::cell::RefCell;

        struct Recorder(RefCell<Vec<(String, usize, usize, usize)>>);
        impl RestartObserver for Recorder {
            fn restart_complete(&self, record: &RestartRecord, completed: usize, total: usize) {
                self.0.borrow_mut().push((
                    record.engine.name().to_string(),
                    record.restart,
                    completed,
                    total,
                ));
            }
        }

        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(4).with_restarts(2).with_fast_schedule(true);
        let plain = run_portfolio(&circuit, &config);
        let recorder = Recorder(RefCell::new(Vec::new()));
        let context = RunContext { observer: Some(&recorder), ..RunContext::default() };
        let observed = run_portfolio_with(&circuit, &config, &context)
            .expect("an unarmed token never cancels");
        // an observer changes batching, never results
        assert_eq!(costs(&plain), costs(&observed));
        assert_eq!(plain.best().placement, observed.best().placement);

        let seen = recorder.0.into_inner();
        assert_eq!(seen.len(), observed.restarts.len(), "one callback per restart");
        for (i, (engine, restart, completed, total)) in seen.iter().enumerate() {
            let record = &observed.restarts[i];
            assert_eq!((engine.as_str(), *restart), (record.engine.name(), record.restart));
            assert_eq!(*completed, i + 1, "completed counts up in plan order");
            assert_eq!(*total, observed.restarts.len());
        }
    }

    #[test]
    fn sharing_the_pure_walk_changes_no_restart_record() {
        use crate::engine::run_engine_once;
        let engines = [PortfolioEngine::Deterministic, PortfolioEngine::Hier];
        for name in benchmarks::names() {
            let circuit = benchmarks::by_name(name).expect("bundled name resolves");
            let config = PortfolioConfig::new(5)
                .with_restarts(2)
                .with_engines(engines)
                .with_fast_schedule(true);
            let alone: Vec<_> = config
                .generations()
                .into_iter()
                .flatten()
                .map(|task| {
                    let settings = config.restart_settings();
                    run_engine_once(&circuit, task.engine, task.seed, &settings)
                })
                .collect();
            for threads in [1, 2] {
                let report = run_portfolio(&circuit, &config.clone().with_threads(threads));
                assert_eq!(report.restarts.len(), alone.len(), "{name}");
                for (shared, alone) in report.restarts.iter().zip(&alone) {
                    let at = format!("{name} -t {threads}: {} {}", shared.engine, shared.restart);
                    assert_eq!(shared.placement, alone.placement, "{at}");
                    assert_eq!(
                        shared.cost,
                        placement_cost(&alone.metrics, config.wirelength_weight),
                        "{at}"
                    );
                    assert_eq!(shared.enumeration_won, alone.enumeration_won, "{at}");
                }
            }
        }
    }

    #[test]
    fn a_traced_portfolio_walks_the_pure_enumeration_once() {
        use apls_telemetry::RecordingCollector;
        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(3).with_restarts(3).with_fast_schedule(true);
        let recorder = Arc::new(RecordingCollector::new());
        let telemetry = Telemetry::with_collector(Arc::clone(&recorder) as _);
        let context = RunContext { telemetry, ..RunContext::default() };
        let report = run_portfolio_with(&circuit, &config, &context)
            .expect("an unarmed token never cancels");
        let hier_restarts =
            report.restarts.iter().filter(|r| r.engine == PortfolioEngine::Hier).count();
        assert_eq!(hier_restarts, 3);
        let spans = |name: &str| {
            recorder.events().iter().filter(|e| e.cat == "hier" && e.name == name).count()
        };
        assert_eq!(
            spans("pure_walk"),
            1,
            "the deterministic lane and hier restarts share one walk"
        );
        assert!(spans("enumerate_basic_set") > 0, "the walk is traced");
    }

    #[test]
    fn early_stop_cuts_the_plan_deterministically() {
        let circuit = benchmarks::miller_opamp_fig6();
        let config = PortfolioConfig::new(9)
            .with_restarts(12)
            .with_fast_schedule(true)
            .with_early_stop(EarlyStop { window: 2, min_improvement: 0.5 });
        // a 50% improvement threshold is effectively unreachable, so the run
        // must stop after the baseline generation plus the stale window
        let a = run_portfolio(&circuit, &config.clone().with_threads(1));
        let b = run_portfolio(&circuit, &config.with_threads(3));
        assert!(a.early_stopped);
        assert_eq!(costs(&a), costs(&b));
        assert!(a.restarts.len() < 12 * 2 + 1);
    }
}
