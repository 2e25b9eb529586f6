//! Aggregation of a recorded trace into a per-phase summary table, backing
//! the `apls trace` subcommand.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate of one phase (one `(category, name)` pair of complete events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of complete events.
    pub count: u64,
    /// Summed duration in microseconds.
    pub total_us: u64,
    /// Shortest event.
    pub min_us: u64,
    /// Longest event.
    pub max_us: u64,
}

impl PhaseStats {
    /// Mean duration in microseconds.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// A one-line description for the known instrumentation phases, so
/// `apls trace` renders an annotated table instead of bare identifiers.
///
/// Covers the engine phases, the legacy service path, and the PR-9 reactor /
/// streaming-frame phases. Unknown `(category, name)` pairs simply render
/// without a note — the table never hides a phase it does not recognise.
#[must_use]
pub fn phase_note(cat: &str, name: &str) -> Option<&'static str> {
    Some(match (cat, name) {
        // Engine phases.
        ("portfolio", "portfolio_run") => "one multi-start portfolio run",
        ("portfolio", "restart") => "one engine restart inside a portfolio run",
        ("anneal", "anneal") => {
            "one simulated-annealing descent (early_rejected: proposals rejected on a cost bound)"
        }
        ("anneal", "temp_step") => "per-temperature annealing progress",
        ("anneal", "move_mix") => "accepted-move histogram for one descent",
        ("tempering", "tempering") => {
            "one parallel-tempering lane (early_rejected: proposals rejected on a cost bound)"
        }
        ("tempering", "swap_round") => "replica-swap round between temperatures",
        ("seqpair", "legalise") => {
            "sequence-pair legalisation counters of one run (island shortcuts, repack steps)"
        }
        // Service phases (legacy thread-per-connection and reactor).
        ("service", "accept") => "TCP connection accepted",
        ("service", "request") => "request line parsed and dispatched",
        ("service", "place") => "place request: admission through final reply",
        ("service", "enqueue") => "job admitted into the bounded queue",
        ("service", "solve") => "worker solving one job",
        ("service", "frame") => "streaming frame queued to a client",
        ("service", "recovery_skip") => "journal replay skipped a completed job",
        ("service", "journal_torn_tail") => "journal ended in a torn record",
        ("service", "journal_write_failure") => "durable journal append failed",
        ("service", "flight_dump") => "flight recorder dumped to disk",
        ("service", "reactor_start") => "event-driven reactor came up",
        // Reactor health phases.
        ("reactor", "stall") => "one reactor iteration exceeded the stall threshold",
        _ => return None,
    })
}

/// Accumulates trace events into per-phase statistics.
///
/// The caller parses the trace file (any JSON parser works — events are one
/// object per line) and feeds complete events through
/// [`TraceSummary::record_complete`], instant/counter events through
/// [`TraceSummary::record_instant`], and every numeric argument of either
/// through [`TraceSummary::record_arg`].
#[derive(Debug, Default)]
pub struct TraceSummary {
    phases: BTreeMap<(String, String), PhaseStats>,
    instants: BTreeMap<(String, String), u64>,
    /// Per phase, each numeric argument summed over the phase's events.
    args: BTreeMap<(String, String), BTreeMap<String, f64>>,
}

impl TraceSummary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        TraceSummary::default()
    }

    /// Records one complete (`'X'`) event.
    pub fn record_complete(&mut self, cat: &str, name: &str, dur_us: u64) {
        let entry = self.phases.entry((cat.to_string(), name.to_string())).or_insert(PhaseStats {
            count: 0,
            total_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        });
        entry.count += 1;
        entry.total_us += dur_us;
        entry.min_us = entry.min_us.min(dur_us);
        entry.max_us = entry.max_us.max(dur_us);
    }

    /// Records one instant (`'i'`) or counter (`'C'`) event.
    pub fn record_instant(&mut self, cat: &str, name: &str) {
        *self.instants.entry((cat.to_string(), name.to_string())).or_insert(0) += 1;
    }

    /// Adds one numeric argument of a `(category, name)` event to the
    /// phase's sum for `key`, so counters such as `early_rejected` or the
    /// `seqpair/legalise` counts add up over every event of the phase.
    pub fn record_arg(&mut self, cat: &str, name: &str, key: &str, value: f64) {
        let phase = self.args.entry((cat.to_string(), name.to_string())).or_default();
        *phase.entry(key.to_string()).or_insert(0.0) += value;
    }

    /// Number of distinct phases seen.
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// Whether nothing was recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.instants.is_empty()
    }

    /// Renders the summary as an aligned text table: one row per phase
    /// (sorted by total time, descending) followed by instant-event counts.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.phases.is_empty() {
            let mut rows: Vec<(&(String, String), &PhaseStats)> = self.phases.iter().collect();
            rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then_with(|| a.0.cmp(b.0)));
            let label_width = rows
                .iter()
                .map(|((cat, name), _)| cat.len() + name.len() + 1)
                .chain(std::iter::once("phase".len()))
                .max()
                .unwrap_or(5);
            let _ = writeln!(
                out,
                "{:<label_width$}  {:>8}  {:>12}  {:>10}  {:>10}  {:>10}",
                "phase", "count", "total ms", "mean µs", "min µs", "max µs"
            );
            for ((cat, name), stats) in rows {
                let _ = write!(
                    out,
                    "{:<label_width$}  {:>8}  {:>12.3}  {:>10.1}  {:>10}  {:>10}",
                    format!("{cat}/{name}"),
                    stats.count,
                    stats.total_us as f64 / 1000.0,
                    stats.mean_us(),
                    stats.min_us,
                    stats.max_us,
                );
                if let Some(note) = phase_note(cat, name) {
                    let _ = write!(out, "  {note}");
                }
                out.push('\n');
            }
        }
        if !self.instants.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "instant events:");
            for ((cat, name), count) in &self.instants {
                match phase_note(cat, name) {
                    Some(note) => {
                        let _ = writeln!(out, "  {cat}/{name}: {count}  {note}");
                    }
                    None => {
                        let _ = writeln!(out, "  {cat}/{name}: {count}");
                    }
                }
            }
        }
        if !self.args.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "event args (summed per phase):");
            for ((cat, name), sums) in &self.args {
                let _ = write!(out, "  {cat}/{name}:");
                for (key, sum) in sums {
                    let _ = write!(out, " {key}={sum}");
                }
                out.push('\n');
            }
        }
        if out.is_empty() {
            out.push_str("(empty trace)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_renders() {
        let mut summary = TraceSummary::new();
        summary.record_complete("engine", "anneal", 100);
        summary.record_complete("engine", "anneal", 300);
        summary.record_complete("service", "parse", 10);
        summary.record_instant("service", "accept");
        summary.record_instant("service", "accept");
        let stats = summary.phases[&("engine".to_string(), "anneal".to_string())];
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total_us, 400);
        assert_eq!(stats.min_us, 100);
        assert_eq!(stats.max_us, 300);
        assert!((stats.mean_us() - 200.0).abs() < 1e-9);
        let table = summary.render();
        let anneal_pos = table.find("engine/anneal").unwrap();
        let parse_pos = table.find("service/parse").unwrap();
        assert!(anneal_pos < parse_pos, "rows sort by total time:\n{table}");
        assert!(table.contains("service/accept: 2"));
    }

    #[test]
    fn numeric_args_sum_per_phase() {
        let mut summary = TraceSummary::new();
        summary.record_arg("anneal", "anneal", "early_rejected", 40.0);
        summary.record_arg("anneal", "anneal", "early_rejected", 2.0);
        summary.record_arg("anneal", "anneal", "best_cost", 1.25);
        summary.record_arg("anneal", "anneal", "best_cost", 2.5);
        summary.record_arg("seqpair", "legalise", "island_shortcuts", 7.0);
        assert_eq!(
            summary.render(),
            "event args (summed per phase):\n  anneal/anneal: best_cost=3.75 early_rejected=42\n  \
             seqpair/legalise: island_shortcuts=7\n"
        );
    }

    #[test]
    fn empty_summary_renders_placeholder() {
        assert_eq!(TraceSummary::new().render(), "(empty trace)\n");
    }

    #[test]
    fn known_reactor_and_streaming_phases_get_notes() {
        let mut summary = TraceSummary::new();
        summary.record_complete("service", "place", 50);
        summary.record_instant("reactor", "stall");
        summary.record_instant("service", "frame");
        summary.record_instant("custom", "thing");
        let table = summary.render();
        assert!(table.contains("place request: admission through final reply"), "{table}");
        assert!(table.contains("reactor/stall: 1  one reactor iteration exceeded"), "{table}");
        assert!(table.contains("service/frame: 1  streaming frame queued"), "{table}");
        // Unknown phases still render, just without a note.
        assert!(table.contains("custom/thing: 1\n"), "{table}");
        assert!(phase_note("service", "reactor_start").is_some());
        assert!(phase_note("nope", "nope").is_none());
    }
}
