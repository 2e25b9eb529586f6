//! The Metropolis chain every driver in this crate runs.
//!
//! [`crate::Annealer`] drives one chain through a cooling schedule and
//! [`crate::tempering`] drives one per replica, so acceptance, early
//! rejection, best-state tracking and the debug-build undo check live here
//! and nowhere else.

use crate::rng::SeededRng;
use crate::timing::MoveStats;
use crate::AnnealState;
use rand::Rng;

/// Slack on the early-rejection threshold `exp(-lb_delta/T)`. The bound
/// gives `lb_delta <= delta`, but `exp` is not guaranteed to be monotone to
/// the last ulp, so a draw rejects early only when it also clears the
/// threshold by this factor, far more than `exp`'s error.
const EXP_MARGIN: f64 = 1.0 + 4.0 * f64::EPSILON;

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
    /// Proposals rejected on [`AnnealState::lower_bound`] alone, without a
    /// call to [`AnnealState::cost`].
    pub(crate) early_rejected: u64,
    /// Snapshot of the best accepted state with its cost: the first accepted
    /// state, replaced only by a strictly cheaper one.
    best: Option<(S::Snapshot, f64)>,
}

impl<'s, S: AnnealState> Chain<'s, S> {
    /// Starts a chain on `state`, evaluating its initial cost once.
    pub(crate) fn new(state: &'s mut S, rng: SeededRng) -> Self {
        let cost = state.cost();
        Chain {
            state,
            rng,
            cost,
            best_cost: cost,
            moves: MoveStats::default(),
            early_rejected: 0,
            best: None,
        }
    }

    /// Runs up to `moves` Metropolis moves at `temperature`. Returns `false`
    /// when `cap` (a bound on [`MoveStats::attempted`]) stopped it before a
    /// move. `observe` sees the state between each proposal and its
    /// evaluation.
    ///
    /// Early rejection (Solonen et al., Bayesian Analysis 7(3), 2012): when
    /// the proposal's lower bound already lies above the current cost, the
    /// move is uphill whatever its cost, so the Metropolis draw is taken
    /// first. A draw that the bound alone proves to reject skips `cost`;
    /// any other draw is reused for the usual test. The draw is the one the
    /// plain loop would have taken, so the RNG stream and every decision are
    /// unchanged.
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
            let bound = self.state.lower_bound();
            let lb_delta = bound - self.cost;
            let mut draw = None;
            if lb_delta > 0.0 {
                let u = self.rng.gen::<f64>();
                if u >= (-lb_delta / temperature).exp() * EXP_MARGIN {
                    self.early_rejected += 1;
                    self.state.rollback();
                    #[cfg(debug_assertions)]
                    self.check_undo(&before);
                    continue;
                }
                draw = Some(u);
            }
            let new_cost = self.state.cost();
            let delta = new_cost - self.cost;
            // `-inf` claims nothing, also when infinite costs make `delta` NaN
            debug_assert!(
                lb_delta == f64::NEG_INFINITY || lb_delta <= delta,
                "lower bound {bound} above the cost {new_cost}"
            );
            let accept = delta <= 0.0
                || draw.unwrap_or_else(|| self.rng.gen::<f64>()) < (-delta / temperature).exp();
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
                self.check_undo(&before);
            }
        }
        true
    }

    /// Debug-build undo check: `rollback` must restore the state the
    /// proposal started from.
    #[cfg(debug_assertions)]
    fn check_undo(&self, before: &S::Snapshot) {
        assert!(
            self.state.snapshot() == *before,
            "rollback did not restore the state the proposal started from"
        );
    }

    /// The best snapshot, `None` when no move was accepted.
    pub(crate) fn into_best(self) -> Option<S::Snapshot> {
        self.best.map(|(snapshot, _)| snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// How [`Saw`] answers [`AnnealState::lower_bound`].
    #[derive(Clone, Copy, PartialEq)]
    enum Bound {
        /// The default: never rejects early.
        None,
        /// `|x - 37|`, which drops the sawtooth term: tight on every third
        /// state, strictly below the cost elsewhere.
        Loose,
        /// The cost itself.
        Exact,
    }

    /// Minimises `|x - 37|` plus a sawtooth of period 3.
    struct Saw {
        x: i64,
        backup: i64,
        bound: Bound,
    }

    impl AnnealState for Saw {
        type Snapshot = i64;
        fn cost(&mut self) -> f64 {
            (self.x - 37).abs() as f64 + 0.75 * self.x.rem_euclid(3) as f64
        }
        fn lower_bound(&mut self) -> f64 {
            match self.bound {
                Bound::None => f64::NEG_INFINITY,
                Bound::Loose => (self.x - 37).abs() as f64,
                Bound::Exact => self.cost(),
            }
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

    /// Everything a run shows: counters, best cost bits, best snapshot,
    /// final state and the chain's next RNG draw; plus its early rejections.
    type Outcome = ((MoveStats, u64, Option<i64>, i64, u64), u64);

    fn run(bound: Bound, seed: u64, temperature: f64, start: i64) -> Outcome {
        let mut state = Saw { x: start, backup: start, bound };
        let mut chain = Chain::new(&mut state, SeededRng::new(seed));
        assert!(chain.run(temperature, 300, None, |_| {}));
        let (moves, best_cost, early) =
            (chain.moves, chain.best_cost.to_bits(), chain.early_rejected);
        let next = chain.rng.next_u64();
        let best = chain.into_best();
        ((moves, best_cost, best, state.x, next), early)
    }

    proptest::proptest! {
        /// A bound changes only which proposals skip `cost`: counters, best
        /// cost, snapshot, final state and the RNG stream are the same as
        /// without it, from 1/1024 to 1024 in temperature, near and far from
        /// the optimum.
        #[test]
        fn a_bound_changes_no_decision_and_no_draw(
            seed in 0u64..u64::MAX,
            exponent in -10i32..=10,
            start in -200i64..400,
        ) {
            let temperature = 2f64.powi(exponent);
            let (plain, none) = run(Bound::None, seed, temperature, start);
            proptest::prop_assert_eq!(none, 0);
            for bound in [Bound::Loose, Bound::Exact] {
                let (bounded, _) = run(bound, seed, temperature, start);
                proptest::prop_assert_eq!(bounded, plain, "seed {}, T {}, start {}", seed, temperature, start);
            }
        }
    }

    /// Both bounds do reject early once the chain is cold.
    #[test]
    fn the_bounds_reject_early_on_a_cold_chain() {
        for bound in [Bound::Loose, Bound::Exact] {
            let (_, early) = run(bound, 5, 0.5, 37);
            assert!(early > 100, "{early} early rejections in 300 proposals");
        }
    }

    /// Climbs by one per proposal; its bound claims one more than the cost.
    struct Overbound {
        x: i64,
    }

    impl AnnealState for Overbound {
        type Snapshot = i64;
        fn cost(&mut self) -> f64 {
            self.x as f64
        }
        fn lower_bound(&mut self) -> f64 {
            self.x as f64 + 1.0
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

    /// At a temperature this hot almost no draw rejects on the bound, so
    /// `cost` runs and the debug check sees the bound above it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lower bound")]
    fn a_bound_above_the_cost_trips_the_debug_check() {
        let mut state = Overbound { x: 0 };
        let mut chain = Chain::new(&mut state, SeededRng::new(3));
        chain.run(1e9, 100, None, |_| {});
    }
}
