//! The simulated-annealing driver.

use crate::chain::Chain;
use crate::timing::MoveStats;
use crate::{rng::SeededRng, AnnealState, Schedule};
use apls_telemetry::{event, Telemetry};
use std::time::Instant;

/// Statistics of one annealing run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AnnealStats {
    /// Proposal counters and wall time (shared with the tempering driver).
    pub moves: MoveStats,
    /// Cost of the initial state.
    pub initial_cost: f64,
    /// Best cost observed during the run.
    pub best_cost: f64,
    /// Cost of the final (last accepted) state.
    pub final_cost: f64,
    /// Number of temperature steps executed.
    pub temperature_steps: u64,
}

impl AnnealStats {
    /// Acceptance ratio over the whole run.
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        self.moves.acceptance_ratio()
    }

    /// Relative cost improvement from the initial to the final state.
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.initial_cost == 0.0 {
            0.0
        } else {
            (self.initial_cost - self.final_cost) / self.initial_cost
        }
    }

    /// Annealing throughput: proposals per second of wall time
    /// (`None` when no move ran or the clock resolution swallowed the run).
    #[must_use]
    pub fn moves_per_second(&self) -> Option<f64> {
        self.moves.moves_per_second()
    }
}

/// Simulated-annealing driver with a deterministic seed.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct Annealer {
    seed: u64,
}

impl Annealer {
    /// Creates an annealer with an explicit seed; the same seed, state and
    /// schedule reproduce the identical run.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Annealer { seed }
    }

    /// Runs the annealing loop on `state` under `schedule` and returns the
    /// statistics together with the best snapshot.
    ///
    /// The classic Metropolis criterion is used: downhill moves are always
    /// accepted, uphill moves with probability `exp(-Δ/T)`. Each proposal is
    /// evaluated at most once: never when [`AnnealState::lower_bound`]
    /// already proves it rejected. The state is left in its last *accepted*
    /// configuration; the snapshot follows the rule of [`AnnealState`] and
    /// is `None` when no move was accepted, in which case the initial state
    /// (still in `state`) is the answer.
    pub fn run<S: AnnealState>(
        &self,
        state: &mut S,
        schedule: &Schedule,
    ) -> (AnnealStats, Option<S::Snapshot>) {
        self.run_traced(state, schedule, &Telemetry::disabled())
    }

    /// [`Annealer::run`] with telemetry: emits an `anneal/anneal` span over
    /// the run (its `early_rejected` arg counts the proposals rejected on
    /// their lower bound without a `cost` call), one `anneal/temp_step`
    /// event per temperature step (the cost trajectory and per-step
    /// acceptance rate) and a final `anneal/move_mix` event tallying
    /// [`AnnealState::move_kind`] labels.
    ///
    /// Telemetry is observe-only: the RNG stream, the visit order and the
    /// returned statistics are bit-identical to [`Annealer::run`] whatever
    /// collector is installed.
    pub fn run_traced<S: AnnealState>(
        &self,
        state: &mut S,
        schedule: &Schedule,
        telemetry: &Telemetry,
    ) -> (AnnealStats, Option<S::Snapshot>) {
        let started = Instant::now();
        let enabled = telemetry.is_enabled();
        let mut span = telemetry.span("anneal", "anneal");
        span.arg("seed", self.seed);
        let mut mix: Vec<(&'static str, u64)> = Vec::new();
        let mut chain = Chain::new(state, SeededRng::new(self.seed));
        let initial_cost = chain.cost;
        let mut temperature_steps = 0u64;
        let mut temperature = schedule.t_start();

        while temperature >= schedule.t_end() {
            temperature_steps += 1;
            let attempted_before = chain.moves.attempted;
            let accepted_before = chain.moves.accepted;
            let finished =
                chain.run(temperature, schedule.moves_per_step(), schedule.max_moves(), |s| {
                    if enabled {
                        tally(&mut mix, s.move_kind());
                    }
                });
            if !finished {
                break;
            }
            if enabled {
                event!(
                    telemetry,
                    "anneal",
                    "temp_step",
                    step = temperature_steps - 1,
                    temperature = temperature,
                    attempted = chain.moves.attempted - attempted_before,
                    accepted = chain.moves.accepted - accepted_before,
                    current_cost = chain.cost,
                    best_cost = chain.best_cost,
                );
            }
            temperature *= schedule.alpha();
        }
        let mut stats = AnnealStats {
            moves: chain.moves,
            initial_cost,
            best_cost: chain.best_cost,
            final_cost: chain.cost,
            temperature_steps,
        };
        stats.moves.wall_time = started.elapsed();
        if enabled {
            let args = mix
                .iter()
                .map(|&(kind, count)| (kind.to_string(), apls_telemetry::Value::U64(count)))
                .collect();
            telemetry.instant("anneal", "move_mix", args);
            span.arg("initial_cost", stats.initial_cost);
            span.arg("best_cost", stats.best_cost);
            span.arg("attempted", stats.moves.attempted);
            span.arg("accepted", stats.moves.accepted);
            span.arg("early_rejected", chain.early_rejected);
            span.arg("temperature_steps", stats.temperature_steps);
        }
        (stats, chain.into_best())
    }
}

/// Increments `kind`'s slot in the (tiny) move-mix tally.
fn tally(mix: &mut Vec<(&'static str, u64)>, kind: &'static str) {
    for entry in mix.iter_mut() {
        if entry.0 == kind {
            entry.1 += 1;
            return;
        }
    }
    mix.push((kind, 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_telemetry::RecordingCollector;
    use rand::RngCore;
    use std::sync::Arc;

    /// Minimises |x - 37| over integers.
    struct Target {
        x: i64,
        backup: i64,
    }

    impl AnnealState for Target {
        type Snapshot = i64;
        fn cost(&mut self) -> f64 {
            (self.x - 37).abs() as f64
        }
        fn snapshot(&self) -> i64 {
            self.x
        }
        fn propose(&mut self, rng: &mut dyn RngCore) {
            self.backup = self.x;
            let step = (rng.next_u32() % 11) as i64 - 5;
            self.x += step;
        }
        fn rollback(&mut self) {
            self.x = self.backup;
        }
        fn move_kind(&self) -> &'static str {
            if self.x >= self.backup {
                "step_up"
            } else {
                "step_down"
            }
        }
    }

    #[test]
    fn annealing_converges_on_simple_target() {
        let mut state = Target { x: 500, backup: 0 };
        let schedule = Schedule::geometric(50.0, 0.01, 0.9, 100);
        let stats = Annealer::with_seed(1).run(&mut state, &schedule).0;
        assert!(stats.final_cost <= stats.initial_cost);
        assert!(stats.final_cost < 20.0, "final cost {}", stats.final_cost);
        assert!(stats.moves.accepted > 0);
    }

    #[test]
    fn same_seed_reproduces_identical_runs() {
        let schedule = Schedule::fast();
        let mut a = Target { x: 400, backup: 0 };
        let mut b = Target { x: 400, backup: 0 };
        let sa = Annealer::with_seed(99).run(&mut a, &schedule).0;
        let sb = Annealer::with_seed(99).run(&mut b, &schedule).0;
        assert_eq!(a.x, b.x);
        assert_eq!(sa.moves.accepted, sb.moves.accepted);
        assert_eq!(sa.final_cost, sb.final_cost);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let schedule = Schedule::fast();
        let mut a = Target { x: 400, backup: 0 };
        let mut b = Target { x: 400, backup: 0 };
        Annealer::with_seed(1).run(&mut a, &schedule);
        Annealer::with_seed(2).run(&mut b, &schedule);
        // Not a hard guarantee, but with these seeds the trajectories differ.
        assert_ne!(a.x, b.x);
    }

    #[test]
    fn max_moves_caps_the_run() {
        let mut state = Target { x: 1000, backup: 0 };
        let schedule = Schedule::geometric(50.0, 0.01, 0.99, 1000).with_max_moves(10);
        let stats = Annealer::with_seed(3).run(&mut state, &schedule).0;
        assert_eq!(stats.moves.attempted, 10);
    }

    /// The single-evaluation contract: one `lower_bound` per proposal, at
    /// most one `cost` (plus the initial one), and one `commit` per accepted
    /// move. The bound is the cost itself, so it rejects early often.
    struct Auditing {
        inner: Target,
        evaluations: u64,
        bounds: u64,
        commits: u64,
    }

    impl AnnealState for Auditing {
        type Snapshot = i64;
        fn cost(&mut self) -> f64 {
            self.evaluations += 1;
            self.inner.cost()
        }
        fn lower_bound(&mut self) -> f64 {
            self.bounds += 1;
            self.inner.cost()
        }
        fn propose(&mut self, rng: &mut dyn RngCore) {
            self.inner.propose(rng);
        }
        fn rollback(&mut self) {
            self.inner.rollback();
        }
        fn snapshot(&self) -> i64 {
            self.inner.x
        }
        fn commit(&mut self) {
            self.commits += 1;
        }
    }

    /// Reads a `u64` argument of the one `anneal/anneal` span.
    fn anneal_span_arg(collector: &RecordingCollector, key: &str) -> u64 {
        let events = collector.events();
        let span = events.iter().find(|e| e.ph == 'X' && e.name == "anneal").expect("anneal span");
        match span.args.iter().find(|(k, _)| k == key) {
            Some((_, apls_telemetry::Value::U64(v))) => *v,
            other => panic!("anneal span argument {key}: {other:?}"),
        }
    }

    #[test]
    fn cost_calls_plus_early_rejections_equal_the_proposals() {
        let mut state =
            Auditing { inner: Target { x: 300, backup: 0 }, evaluations: 0, bounds: 0, commits: 0 };
        let collector = Arc::new(RecordingCollector::new());
        let telemetry = Telemetry::with_collector(collector.clone());
        let (stats, best) =
            Annealer::with_seed(8).run_traced(&mut state, &Schedule::fast(), &telemetry);
        let early_rejected = anneal_span_arg(&collector, "early_rejected");
        assert!(early_rejected > 0);
        assert_eq!(state.bounds, stats.moves.attempted);
        assert_eq!(state.evaluations - 1 + early_rejected, stats.moves.attempted);
        assert_eq!(state.commits, stats.moves.accepted);
        let best = best.expect("some move was accepted");
        assert_eq!((best - 37).abs() as f64, stats.best_cost);
    }

    /// Every proposal climbs by one, so every accepted move is uphill.
    struct Climber {
        x: i64,
    }

    impl AnnealState for Climber {
        type Snapshot = i64;
        fn cost(&mut self) -> f64 {
            self.x as f64
        }
        fn propose(&mut self, _rng: &mut dyn RngCore) {
            self.x += 1;
        }
        fn rollback(&mut self) {
            self.x -= 1;
        }
        fn snapshot(&self) -> i64 {
            self.x
        }
    }

    /// The snapshot rule: the first accepted state is taken even when it is
    /// worse than the initial one, while `best_cost` keeps the initial cost.
    #[test]
    fn the_first_accepted_state_is_the_snapshot_even_uphill() {
        let mut state = Climber { x: 10 };
        let schedule = Schedule::geometric(1e9, 1.0, 0.5, 20);
        let (stats, best) = Annealer::with_seed(4).run(&mut state, &schedule);
        assert!(stats.moves.accepted > 1);
        assert_eq!(stats.moves.uphill, stats.moves.accepted);
        assert_eq!(best, Some(11));
        assert_eq!(stats.best_cost, 10.0);
        assert_eq!(stats.initial_cost, 10.0);
    }

    /// Nothing accepted: no snapshot, and the state is the initial one.
    #[test]
    fn a_run_without_acceptances_returns_no_snapshot() {
        let mut state = Climber { x: 10 };
        let schedule = Schedule::geometric(1e-9, 1e-10, 0.5, 20);
        let (stats, best) = Annealer::with_seed(4).run(&mut state, &schedule);
        assert!(stats.moves.attempted > 0);
        assert_eq!(stats.moves.accepted, 0);
        assert_eq!(best, None);
        assert_eq!(state.x, 10);
    }

    /// `rollback` undoes only half of the climb.
    struct BadUndo {
        x: i64,
    }

    impl AnnealState for BadUndo {
        type Snapshot = i64;
        fn cost(&mut self) -> f64 {
            self.x as f64
        }
        fn propose(&mut self, _rng: &mut dyn RngCore) {
            self.x += 2;
        }
        fn rollback(&mut self) {
            self.x -= 1;
        }
        fn snapshot(&self) -> i64 {
            self.x
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rollback did not restore")]
    fn a_wrong_rollback_trips_the_undo_check() {
        let schedule = Schedule::geometric(1e-9, 1e-10, 0.5, 20);
        let _ = Annealer::with_seed(4).run(&mut BadUndo { x: 0 }, &schedule);
    }

    #[test]
    fn throughput_is_reported() {
        let mut state = Target { x: 250, backup: 0 };
        let stats = Annealer::with_seed(6).run(&mut state, &Schedule::fast()).0;
        assert!(stats.moves.attempted > 0);
        if let Some(mps) = stats.moves_per_second() {
            assert!(mps > 0.0);
        }
        assert_eq!(AnnealStats::default().moves_per_second(), None);
    }

    #[test]
    fn stats_ratios_are_sane() {
        let mut state = Target { x: 200, backup: 0 };
        let stats = Annealer::with_seed(5).run(&mut state, &Schedule::fast()).0;
        let ratio = stats.acceptance_ratio();
        assert!((0.0..=1.0).contains(&ratio));
        assert!(stats.moves.uphill <= stats.moves.accepted);
    }

    /// Telemetry is observe-only: the traced run returns bit-identical stats
    /// and state, and records the cost trajectory plus the move mix.
    #[test]
    fn traced_run_is_bit_identical_and_records_trajectory() {
        let schedule = Schedule::fast();
        let mut plain = Target { x: 400, backup: 0 };
        let plain_stats = Annealer::with_seed(42).run(&mut plain, &schedule).0;

        let collector = Arc::new(RecordingCollector::new());
        let telemetry = Telemetry::with_collector(collector.clone());
        let mut traced = Target { x: 400, backup: 0 };
        let traced_stats = Annealer::with_seed(42).run_traced(&mut traced, &schedule, &telemetry).0;

        assert_eq!(plain.x, traced.x);
        assert_eq!(plain_stats.moves.attempted, traced_stats.moves.attempted);
        assert_eq!(plain_stats.moves.accepted, traced_stats.moves.accepted);
        assert_eq!(plain_stats.best_cost, traced_stats.best_cost);
        assert_eq!(plain_stats.final_cost, traced_stats.final_cost);

        let events = collector.events();
        let steps = events.iter().filter(|e| e.name == "temp_step").count() as u64;
        assert_eq!(steps, traced_stats.temperature_steps);
        let mix = events.iter().find(|e| e.name == "move_mix").expect("move_mix event");
        let tallied: u64 = mix
            .args
            .iter()
            .map(|(_, v)| match v {
                apls_telemetry::Value::U64(n) => *n,
                _ => 0,
            })
            .sum();
        assert_eq!(tallied, traced_stats.moves.attempted);
        assert!(events.iter().any(|e| e.ph == 'X' && e.name == "anneal"));
    }
}
