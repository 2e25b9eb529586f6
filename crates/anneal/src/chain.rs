//! The Metropolis chain every driver in this crate runs.
//!
//! [`crate::Annealer`] drives one chain through a cooling schedule and
//! [`crate::tempering`] drives one per replica, so acceptance, best-state
//! tracking and the debug-build undo check live here and nowhere else.

use crate::rng::SeededRng;
use crate::timing::MoveStats;
use crate::AnnealState;
use rand::Rng;

/// One Metropolis chain: a state, its private RNG, the running and best
/// costs, the move counters and the best snapshot.
pub(crate) struct Chain<'s, S: AnnealState> {
    state: &'s mut S,
    rng: SeededRng,
    /// Cost of the current (last accepted) state.
    pub(crate) cost: f64,
    /// Lowest cost seen, the initial cost included.
    pub(crate) best_cost: f64,
    pub(crate) moves: MoveStats,
    /// Snapshot of the best accepted state with its cost: the first accepted
    /// state, replaced only by a strictly cheaper one.
    best: Option<(S::Snapshot, f64)>,
}

impl<'s, S: AnnealState> Chain<'s, S> {
    /// Starts a chain on `state`, evaluating its initial cost once.
    pub(crate) fn new(state: &'s mut S, rng: SeededRng) -> Self {
        let cost = state.cost();
        Chain { state, rng, cost, best_cost: cost, moves: MoveStats::default(), best: None }
    }

    /// Runs up to `moves` Metropolis moves at `temperature`. Returns `false`
    /// when `cap` (a bound on [`MoveStats::attempted`]) stopped it before a
    /// move. `observe` sees the state between each proposal and its
    /// evaluation.
    pub(crate) fn run(
        &mut self,
        temperature: f64,
        moves: usize,
        cap: Option<u64>,
        mut observe: impl FnMut(&S),
    ) -> bool {
        for _ in 0..moves {
            if cap.is_some_and(|cap| self.moves.attempted >= cap) {
                return false;
            }
            self.moves.attempted += 1;
            #[cfg(debug_assertions)]
            let before = self.state.snapshot();
            self.state.propose(&mut self.rng);
            observe(self.state);
            let new_cost = self.state.cost();
            let delta = new_cost - self.cost;
            let accept = delta <= 0.0 || self.rng.gen::<f64>() < (-delta / temperature).exp();
            if accept {
                self.moves.accepted += 1;
                if delta > 0.0 {
                    self.moves.uphill += 1;
                }
                self.cost = new_cost;
                self.state.commit();
                if new_cost < self.best_cost {
                    self.best_cost = new_cost;
                }
                if self.best.as_ref().is_none_or(|&(_, best)| new_cost < best) {
                    self.best = Some((self.state.snapshot(), new_cost));
                }
            } else {
                self.state.rollback();
                #[cfg(debug_assertions)]
                assert!(
                    self.state.snapshot() == before,
                    "rollback did not restore the state the proposal started from"
                );
            }
        }
        true
    }

    /// The best snapshot, `None` when no move was accepted.
    pub(crate) fn into_best(self) -> Option<S::Snapshot> {
        self.best.map(|(snapshot, _)| snapshot)
    }
}
