//! Deterministic parallel tempering (replica exchange) over [`AnnealState`].
//!
//! Parallel tempering runs `K` replicas of the same annealing problem at a
//! ladder of temperatures. Between *rounds* of ordinary Metropolis moves,
//! adjacent temperature slots may exchange their replicas: a hot replica that
//! stumbled onto a good configuration hands it down the ladder, while the
//! cold slot's configuration is re-heated to escape its local minimum.
//!
//! # Determinism
//!
//! The driver is bit-identical at any worker thread count:
//!
//! * every replica owns a private RNG seeded via
//!   [`SeedStream::seed_for`]`(lane, replica_index)` — streams never depend
//!   on scheduling;
//! * the move phase is an order-preserving parallel map over the replicas
//!   (each replica touches only its own state and RNG);
//! * the exchange phase runs serially after every round, drawing from one
//!   dedicated swap RNG (`SeedStream::seed_for(lane, u64::MAX)`) with exactly
//!   one draw per attempted swap, so the swap schedule is a pure function of
//!   the seed and the replica costs.
//!
//! Every replica is one Metropolis chain, the same one [`crate::Annealer`]
//! runs, so acceptance and best-state tracking match the plain annealer's.
//! Telemetry ([`run_tempering_traced`]) observes the swap schedule without
//! participating in it: no collector ever touches a seed-stream lane.

use crate::chain::Chain;
use crate::rng::SeedStream;
use crate::timing::MoveStats;
use crate::{AnnealState, Schedule};
use apls_telemetry::{event, Telemetry};
use rand::Rng;
use rayon::prelude::*;
use std::time::Instant;

/// Configuration of a parallel-tempering run.
#[derive(Debug, Clone)]
pub struct TemperingConfig {
    /// Root seed; replica and swap RNGs derive from it via [`SeedStream`].
    pub seed: u64,
    /// Seed-stream lane that namespaces this run's RNGs.
    pub lane: u64,
    /// Number of temperature replicas (at least 1).
    pub replicas: usize,
    /// Geometric spacing between adjacent ladder slots: slot `s` runs at
    /// `t_round * ladder_ratio^s`. Must be at least 1.
    pub ladder_ratio: f64,
    /// Base cooling schedule. Slot 0 follows it exactly: one tempering round
    /// per temperature step, [`Schedule::moves_per_step`] moves per round,
    /// and an optional [`Schedule::max_moves`] budget applied per replica.
    pub schedule: Schedule,
}

impl TemperingConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics when `replicas == 0` or `ladder_ratio < 1`.
    pub fn validate(&self) {
        assert!(self.replicas >= 1, "tempering needs at least one replica");
        assert!(
            self.ladder_ratio.is_finite() && self.ladder_ratio >= 1.0,
            "ladder ratio must be finite and at least 1"
        );
    }
}

/// Statistics of one parallel-tempering run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TemperingStats {
    /// Proposal counters (summed over all replicas) and wall time of the
    /// tempering loop — shared with the plain annealer's stats.
    pub moves: MoveStats,
    /// Tempering rounds executed (= temperature steps of the base schedule).
    pub rounds: u64,
    /// Replica exchanges attempted between adjacent ladder slots.
    pub swaps_attempted: u64,
    /// Replica exchanges accepted.
    pub swaps_accepted: u64,
    /// Cost of replica 0's initial state (all replicas start identically in
    /// the placement wrappers, but the driver only guarantees replica 0).
    pub initial_cost: f64,
    /// Best cost observed by any replica at any point of the run.
    pub best_cost: f64,
    /// Index of the replica that observed [`TemperingStats::best_cost`]
    /// first (lowest index on ties).
    pub best_replica: usize,
}

impl TemperingStats {
    /// Move acceptance ratio over all replicas.
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        self.moves.acceptance_ratio()
    }

    /// Swap acceptance ratio over all rounds.
    #[must_use]
    pub fn swap_ratio(&self) -> f64 {
        if self.swaps_attempted == 0 {
            0.0
        } else {
            self.swaps_accepted as f64 / self.swaps_attempted as f64
        }
    }

    /// Tempering throughput: proposals per second of wall time
    /// (`None` when no move ran or the clock swallowed the run).
    #[must_use]
    pub fn moves_per_second(&self) -> Option<f64> {
        self.moves.moves_per_second()
    }
}

/// Runs parallel tempering over `states` (all assumed to encode the same
/// problem, typically from identical initial states) and returns the states,
/// the run statistics and the winner's best snapshot.
///
/// Replica `k` starts at ladder slot `k` (slot 0 coldest). The final states
/// come back in *replica* order. The winner is replica
/// [`TemperingStats::best_replica`]; its snapshot follows the rule of
/// [`AnnealState`] and is `None` when it accepted no move, in which case its
/// final state is the answer.
///
/// Emits a `tempering/tempering` span over the run (its `early_rejected` arg
/// sums the replicas' proposals rejected on their lower bound) and one
/// `tempering/swap_round` event per exchange phase (round index, slot-0
/// temperature, swaps attempted/accepted in the round). Telemetry is
/// observe-only: the replica streams, the swap schedule and the returned
/// statistics are bit-identical whatever collector is installed.
///
/// # Panics
///
/// Panics when `states.len() != config.replicas` or the configuration is
/// invalid (see [`TemperingConfig::validate`]).
pub fn run_tempering_traced<S>(
    mut states: Vec<S>,
    config: &TemperingConfig,
    telemetry: &Telemetry,
) -> (Vec<S>, TemperingStats, Option<S::Snapshot>)
where
    S: AnnealState + Send,
    S::Snapshot: Send,
{
    config.validate();
    assert_eq!(states.len(), config.replicas, "one state per replica required");
    let started = Instant::now();
    let enabled = telemetry.is_enabled();
    let mut span = telemetry.span("tempering", "tempering");
    span.arg("seed", config.seed);
    span.arg("replicas", config.replicas);
    let stream = SeedStream::new(config.seed);
    let schedule = &config.schedule;
    let k = config.replicas;

    // Each chain evaluates its initial cost, exactly like the plain annealer.
    let mut chains: Vec<Chain<'_, S>> = states
        .iter_mut()
        .enumerate()
        .map(|(i, state)| Chain::new(state, stream.rng_for(config.lane, i as u64)))
        .collect();
    let initial_cost = chains[0].cost;

    // Ladder slot -> replica index; swaps permute this assignment so the
    // (large) states never move.
    let mut slots: Vec<usize> = (0..k).collect();
    let mut swap_rng = stream.rng_for(config.lane, u64::MAX);
    let mut stats = TemperingStats { initial_cost, best_cost: initial_cost, ..Default::default() };

    let mut t_round = schedule.t_start();
    let mut round = 0u64;
    while t_round >= schedule.t_end() {
        stats.rounds += 1;

        // --- move phase: every slot runs one round at its ladder temperature
        let mut temp_of_replica = vec![0.0f64; k];
        let mut ladder_t = t_round;
        for &replica in &slots {
            temp_of_replica[replica] = ladder_t;
            ladder_t *= config.ladder_ratio;
        }
        let moves_per_round = schedule.moves_per_step();
        let max_moves = schedule.max_moves();
        chains = chains
            .into_iter()
            .zip(temp_of_replica)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(mut chain, temperature)| {
                chain.run(temperature, moves_per_round, max_moves, |_| {});
                chain
            })
            .collect();

        // --- exchange phase: adjacent slots, alternating parity per round
        let swaps_attempted_before = stats.swaps_attempted;
        let swaps_accepted_before = stats.swaps_accepted;
        let parity = (round % 2) as usize;
        let mut s = parity;
        while s + 1 < k {
            let (i, j) = (slots[s], slots[s + 1]);
            let t_cold = temp_of_slot(t_round, config.ladder_ratio, s);
            let t_hot = temp_of_slot(t_round, config.ladder_ratio, s + 1);
            stats.swaps_attempted += 1;
            // Replica-exchange criterion: accept with min(1, exp(Δ)),
            // Δ = (1/T_cold − 1/T_hot) · (E_cold − E_hot). One RNG draw per
            // attempt keeps the swap stream independent of the outcome.
            let delta = (1.0 / t_cold - 1.0 / t_hot) * (chains[i].cost - chains[j].cost);
            let u = swap_rng.gen::<f64>();
            if delta >= 0.0 || u < delta.exp() {
                slots.swap(s, s + 1);
                stats.swaps_accepted += 1;
            }
            s += 2;
        }
        if enabled {
            event!(
                telemetry,
                "tempering",
                "swap_round",
                round = round,
                temperature = t_round,
                swaps_attempted = stats.swaps_attempted - swaps_attempted_before,
                swaps_accepted = stats.swaps_accepted - swaps_accepted_before,
            );
        }

        t_round *= schedule.alpha();
        round += 1;
    }

    let mut early_rejected = 0u64;
    for (i, chain) in chains.iter().enumerate() {
        early_rejected += chain.early_rejected;
        stats.moves.attempted += chain.moves.attempted;
        stats.moves.accepted += chain.moves.accepted;
        stats.moves.uphill += chain.moves.uphill;
        if chain.best_cost < stats.best_cost {
            stats.best_cost = chain.best_cost;
            stats.best_replica = i;
        }
    }
    stats.moves.wall_time = started.elapsed();
    if enabled {
        span.arg("rounds", stats.rounds);
        span.arg("swaps_attempted", stats.swaps_attempted);
        span.arg("swaps_accepted", stats.swaps_accepted);
        span.arg("early_rejected", early_rejected);
        span.arg("best_cost", stats.best_cost);
        span.arg("best_replica", stats.best_replica);
    }
    let best = chains.swap_remove(stats.best_replica).into_best();
    (states, stats, best)
}

/// Temperature of ladder slot `s` in a round whose slot-0 temperature is
/// `t_round`, matching the repeated-multiplication ladder of the move phase.
fn temp_of_slot(t_round: f64, ratio: f64, s: usize) -> f64 {
    let mut t = t_round;
    for _ in 0..s {
        t *= ratio;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_telemetry::RecordingCollector;
    use rand::RngCore;
    use std::sync::Arc;

    /// Minimises |x - 37| over integers.
    #[derive(Debug, Clone)]
    struct Toy {
        x: i64,
        backup: i64,
    }

    impl Toy {
        fn new(x: i64) -> Self {
            Toy { x, backup: x }
        }
    }

    impl AnnealState for Toy {
        type Snapshot = i64;
        fn cost(&mut self) -> f64 {
            (self.x - 37).abs() as f64
        }
        fn propose(&mut self, rng: &mut dyn RngCore) {
            self.backup = self.x;
            self.x += (rng.next_u32() % 11) as i64 - 5;
        }
        fn rollback(&mut self) {
            self.x = self.backup;
        }
        fn snapshot(&self) -> i64 {
            self.x
        }
    }

    /// Untraced run; checks that an improving winner's snapshot has the
    /// reported best cost.
    fn temper(states: Vec<Toy>, config: &TemperingConfig) -> (Vec<Toy>, TemperingStats) {
        let (states, stats, best) = run_tempering_traced(states, config, &Telemetry::disabled());
        if stats.best_cost < stats.initial_cost {
            let best = best.expect("an improving winner accepted a move");
            assert_eq!((best - 37).abs() as f64, stats.best_cost);
        }
        (states, stats)
    }

    fn config(replicas: usize) -> TemperingConfig {
        TemperingConfig {
            seed: 5,
            lane: 9,
            replicas,
            ladder_ratio: 2.0,
            schedule: Schedule::geometric(50.0, 0.5, 0.8, 40),
        }
    }

    #[test]
    fn tempering_improves_and_reports_consistent_stats() {
        let states = vec![Toy::new(500); 4];
        let (finals, stats) = temper(states, &config(4));
        assert_eq!(finals.len(), 4);
        assert!(stats.best_cost <= stats.initial_cost);
        assert!(stats.moves.attempted > 0);
        assert!(stats.moves.accepted <= stats.moves.attempted);
        assert!(stats.swaps_accepted <= stats.swaps_attempted);
        assert!(stats.rounds > 0);
        assert!(stats.best_replica < 4);
    }

    #[test]
    fn identical_configs_reproduce_identical_runs() {
        let run = || temper(vec![Toy::new(200); 3], &config(3));
        let (a_states, a) = run();
        let (b_states, b) = run();
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.moves.accepted, b.moves.accepted);
        assert_eq!(a.swaps_accepted, b.swaps_accepted);
        for (x, y) in a_states.iter().zip(&b_states) {
            assert_eq!(x.x, y.x);
        }
        // an explicitly different run differs somewhere
        let mut other = config(3);
        other.seed = 6;
        let (_, c) = temper(vec![Toy::new(200); 3], &other);
        assert!((a.best_cost, a.moves.accepted) != (c.best_cost, c.moves.accepted));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| temper(vec![Toy::new(321); 5], &config(5)))
        };
        let (s1, a) = run_with(1);
        let (s4, b) = run_with(4);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.moves.accepted, b.moves.accepted);
        assert_eq!(a.swaps_accepted, b.swaps_accepted);
        for (x, y) in s1.iter().zip(&s4) {
            assert_eq!(x.x, y.x);
        }
    }

    #[test]
    #[should_panic(expected = "one state per replica")]
    fn replica_count_mismatch_panics() {
        let _ = temper(vec![Toy::new(0); 2], &config(3));
    }

    /// Telemetry observes the swap schedule without perturbing it.
    #[test]
    fn traced_tempering_is_bit_identical_and_records_rounds() {
        let (plain_states, plain) = temper(vec![Toy::new(250); 3], &config(3));
        let collector = Arc::new(RecordingCollector::new());
        let telemetry = Telemetry::with_collector(collector.clone());
        let (traced_states, traced, _) =
            run_tempering_traced(vec![Toy::new(250); 3], &config(3), &telemetry);
        assert_eq!(plain.best_cost, traced.best_cost);
        assert_eq!(plain.moves.attempted, traced.moves.attempted);
        assert_eq!(plain.swaps_accepted, traced.swaps_accepted);
        for (x, y) in plain_states.iter().zip(&traced_states) {
            assert_eq!(x.x, y.x);
        }
        let events = collector.events();
        let rounds = events.iter().filter(|e| e.name == "swap_round").count() as u64;
        assert_eq!(rounds, traced.rounds);
        assert!(events.iter().any(|e| e.ph == 'X' && e.name == "tempering"));
    }
}
