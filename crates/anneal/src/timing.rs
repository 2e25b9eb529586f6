//! Shared move-counting and timing statistics.
//!
//! Both the plain annealer ([`crate::AnnealStats`]) and the parallel-tempering
//! driver ([`crate::TemperingStats`]) count proposals and wall time the same
//! way; [`MoveStats`] is the single source of truth for those fields, so the
//! telemetry layer and the report JSON derive throughput from one place.

use std::time::Duration;

/// Proposal counters and wall time of one annealing-style run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MoveStats {
    /// Total proposals made (early rejections included: a proposal the
    /// chain rejects on its lower bound counts without being evaluated).
    pub attempted: u64,
    /// Proposals accepted (including uphill moves).
    pub accepted: u64,
    /// Uphill proposals accepted thanks to the Metropolis criterion.
    pub uphill: u64,
    /// Wall-clock time of the driving loop (evaluation included).
    pub wall_time: Duration,
}

impl MoveStats {
    /// Acceptance ratio over the whole run.
    #[must_use]
    pub fn acceptance_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.attempted as f64
        }
    }

    /// Throughput: proposals per second of wall time (`None` when
    /// no move ran or the clock resolution swallowed the run).
    #[must_use]
    pub fn moves_per_second(&self) -> Option<f64> {
        let secs = self.wall_time.as_secs_f64();
        if self.attempted == 0 || secs <= 0.0 {
            None
        } else {
            Some(self.attempted as f64 / secs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_runs() {
        let stats = MoveStats::default();
        assert_eq!(stats.acceptance_ratio(), 0.0);
        assert_eq!(stats.moves_per_second(), None);
    }

    #[test]
    fn ratios_compute() {
        let stats =
            MoveStats { attempted: 10, accepted: 4, uphill: 1, wall_time: Duration::from_secs(2) };
        assert!((stats.acceptance_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(stats.moves_per_second(), Some(5.0));
    }
}
