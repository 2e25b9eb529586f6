//! Generic simulated-annealing engine for topological analog placement.
//!
//! Both the sequence-pair placer (Section II of the DATE 2009 survey) and the
//! B*-tree / HB*-tree placer (Section III) explore their topological encodings
//! with simulated annealing. This crate provides the shared engine:
//!
//! * [`AnnealState`] — the trait an encoding implements: propose a
//!   perturbation, evaluate a cost, roll back, and take a snapshot;
//! * [`Schedule`] — geometric cooling schedules with configurable start/end
//!   temperature, moves per temperature step, and an optional move budget;
//! * [`Annealer`] — the driver, which reports [`AnnealStats`] and the best
//!   snapshot, and [`tempering`], which runs replicas with exchanges. Both
//!   run one Metropolis chain, which owns acceptance, early rejection on a
//!   state's [`AnnealState::lower_bound`], best-state tracking and, in debug
//!   builds, the check that every rollback restores the state;
//! * [`rng`] — deterministic seedable RNG helpers ([`rng::SeededRng`]) and
//!   stateless per-worker seed derivation ([`rng::SeedStream`]) so that every
//!   experiment in the workspace — including parallel multi-start portfolios
//!   — is exactly reproducible.
//!
//! # Example
//!
//! A toy "state" that anneals an integer toward zero:
//!
//! ```
//! use apls_anneal::{AnnealState, Annealer, Schedule};
//!
//! struct Toy { value: i64, backup: i64 }
//!
//! impl AnnealState for Toy {
//!     type Snapshot = i64;
//!     fn cost(&mut self) -> f64 { self.value.abs() as f64 }
//!     fn propose(&mut self, rng: &mut dyn rand::RngCore) {
//!         self.backup = self.value;
//!         let delta: i64 = (rng.next_u32() % 7) as i64 - 3;
//!         self.value += delta;
//!     }
//!     fn rollback(&mut self) { self.value = self.backup; }
//!     fn snapshot(&self) -> i64 { self.value }
//! }
//!
//! let mut state = Toy { value: 100, backup: 0 };
//! let schedule = Schedule::geometric(10.0, 0.01, 0.9, 50);
//! let (stats, best) = Annealer::with_seed(7).run(&mut state, &schedule);
//! let best = best.unwrap_or(state.value);
//! assert!(stats.moves.attempted > 0);
//! assert!(best.abs() <= 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annealer;
mod chain;
pub mod rng;
mod schedule;
pub mod tempering;
mod timing;

pub use annealer::{AnnealStats, Annealer};
pub use schedule::Schedule;
pub use tempering::{run_tempering_traced, TemperingConfig, TemperingStats};
pub use timing::MoveStats;

use rand::RngCore;

/// A state that can be explored by simulated annealing.
///
/// The protocol is propose → evaluate → [`AnnealState::commit`] or
/// [`AnnealState::rollback`].
///
/// **Single-evaluation contract:** the driver calls [`AnnealState::propose`]
/// exactly once per move, then [`AnnealState::lower_bound`] once, then
/// [`AnnealState::cost`] at most once for that proposal, and finally either
/// `commit` or `rollback`. `cost` is skipped only when the bound alone
/// proves the proposal rejected (early rejection), and then `rollback`
/// follows the bound directly. `lower_bound` and `cost` may therefore
/// freely reuse internal scratch buffers (they take `&mut self` for exactly
/// that reason), and `cost` may reuse whatever `lower_bound` computed for
/// the same proposal. `rollback` is only ever called for the most recent
/// proposal, so one undo record suffices.
///
/// **Snapshot rule:** the driver keeps the best state, not the state. It
/// takes a [`AnnealState::snapshot`] of the first accepted state, and after
/// that of every accepted state whose cost is strictly lower than the kept
/// snapshot's. The initial state is never snapshotted: a run that accepts no
/// move returns no snapshot, and the caller falls back to the state itself.
/// In debug builds the driver also snapshots before every proposal and
/// asserts that `rollback` restored exactly that snapshot.
pub trait AnnealState {
    /// What the driver keeps of the best state: enough to rebuild the
    /// result, and comparable so the debug undo check can use it.
    type Snapshot: PartialEq;

    /// Cost of the current state (lower is better).
    ///
    /// Called at most once per proposal (and once before the run starts for
    /// the initial cost), so this is the natural place to pack the encoding
    /// into reusable scratch storage.
    fn cost(&mut self) -> f64;

    /// A lower bound on what [`AnnealState::cost`] would return for the open
    /// proposal, for early rejection: when the bound lies above the current
    /// cost, the driver draws its Metropolis number first and skips `cost`
    /// if the bound alone rejects. Decisions, RNG stream and results are
    /// the same as without a bound; only the skipped work differs.
    ///
    /// Called once per proposal, after [`AnnealState::propose`] and before
    /// `cost`; never for the initial state. The bound must never exceed the
    /// cost (debug builds assert it). The default, `f64::NEG_INFINITY`,
    /// never rejects early.
    fn lower_bound(&mut self) -> f64 {
        f64::NEG_INFINITY
    }

    /// Applies a random perturbation to the state.
    ///
    /// Implementations must store whatever is needed to undo this single
    /// perturbation if the engine rejects it (an O(1) undo log; cloning the
    /// whole state works but defeats the hot path).
    fn propose(&mut self, rng: &mut dyn RngCore);

    /// Undoes the most recent proposal.
    fn rollback(&mut self);

    /// Copies the current state (see the snapshot rule above).
    fn snapshot(&self) -> Self::Snapshot;

    /// Called when a proposal is accepted, for states that keep incremental
    /// caches to settle. The default does nothing.
    fn commit(&mut self) {}

    /// Short static label of the *most recent* proposal's move type, used by
    /// telemetry to report the move-type mix of a run. Only queried between
    /// [`AnnealState::propose`] and the accept/reject decision, and only when
    /// a trace collector is installed — implementations just return a label
    /// recorded during `propose`. The default lumps everything under
    /// `"move"`.
    fn move_kind(&self) -> &'static str {
        "move"
    }
}
