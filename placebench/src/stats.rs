//! Sample statistics and the service's `stats` reply.

use apls_service::json::Json;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts a sample ascending (samples are finite timings).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().fold(0.0, |sum, v| sum + v) / samples.len().max(1) as f64
}

pub fn geomean(samples: &[f64]) -> f64 {
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    pub value: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The tail at `pct`, only when at least [`MIN_BEYOND`] samples lie beyond
/// its rank; a thinner tail is not reported at all.
pub fn tail_at(sorted: &[f64], pct: f64) -> Option<Tail> {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let beyond = n.checked_sub(rank.max(1))?;
    (beyond >= MIN_BEYOND).then(|| Tail {
        pct,
        value: quantile(sorted, pct / 100.0),
        samples: n,
        beyond,
    })
}

/// The highest of p99.9, p99, p95 and p90 that the sample supports.
pub fn highest_tail(sorted: &[f64]) -> Option<Tail> {
    [99.9, 99.0, 95.0, 90.0].into_iter().find_map(|pct| tail_at(sorted, pct))
}

/// The fields of one `stats` reply the benchmark reconciles and reports.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    pub ready: bool,
    pub jobs_completed: u64,
    pub cache_hits: u64,
    pub cache_insertions: u64,
    pub errors_total: u64,
    pub retries_total: u64,
    pub timeouts_total: u64,
    pub frames_sent_total: u64,
    pub readiness_wakeups_total: u64,
    pub jobs_recovered_total: u64,
    pub jobs_replayed_total: u64,
    /// Cumulative `(upper bound, cumulative count)` buckets of the
    /// `admit_ms` histogram (`None` = the overflow bucket).
    pub admit_ms: Vec<(Option<f64>, u64)>,
    pub flush_ms: Vec<(Option<f64>, u64)>,
}

impl ServiceStats {
    pub fn parse(line: &str) -> Result<ServiceStats, String> {
        let json = Json::parse(line)?;
        if json.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("stats failed: {line}"));
        }
        let metrics = json.get("metrics").ok_or("stats reply has no metrics")?;
        let counter = |name: &str| {
            metrics.get("counters").and_then(|c| c.get(name)).and_then(Json::as_u64).unwrap_or(0)
        };
        let top = |name: &str| json.get(name).and_then(Json::as_u64).unwrap_or(0);
        let buckets = |name: &str| -> Vec<(Option<f64>, u64)> {
            let Some(list) = metrics
                .get("histograms")
                .and_then(|h| h.get(name))
                .and_then(|h| h.get("buckets"))
                .and_then(Json::as_arr)
            else {
                return Vec::new();
            };
            list.iter()
                .map(|b| {
                    let le = b.get("le").and_then(Json::as_f64);
                    (le, b.get("count").and_then(Json::as_u64).unwrap_or(0))
                })
                .collect()
        };
        Ok(ServiceStats {
            ready: json.get("ready").and_then(Json::as_bool).unwrap_or(false),
            jobs_completed: top("jobs_completed"),
            cache_hits: top("cache_hits"),
            cache_insertions: json
                .get("cache")
                .and_then(|c| c.get("insertions"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            errors_total: counter("errors_total"),
            retries_total: counter("retries_total"),
            timeouts_total: counter("timeouts_total"),
            frames_sent_total: counter("frames_sent_total"),
            readiness_wakeups_total: counter("readiness_wakeups_total"),
            jobs_recovered_total: counter("jobs_recovered_total"),
            jobs_replayed_total: counter("jobs_replayed_total"),
            admit_ms: buckets("admit_ms"),
            flush_ms: buckets("flush_ms"),
        })
    }
}

/// The median of the observations a cumulative histogram gained between two
/// snapshots, interpolated inside its bucket the way the service's own
/// registry interpolates quantiles. `None` when nothing was observed.
pub fn histogram_delta_median(
    before: &[(Option<f64>, u64)],
    after: &[(Option<f64>, u64)],
) -> Option<f64> {
    let counts: Vec<(Option<f64>, u64)> = after
        .iter()
        .enumerate()
        .map(|(i, &(le, c))| (le, c - before.get(i).map_or(0, |b| b.1)))
        .collect();
    let total = counts.last()?.1;
    if total == 0 {
        return None;
    }
    let rank = 0.5 * total as f64;
    let (mut prev, mut lower) = (0u64, 0.0f64);
    for (le, cum) in counts {
        if cum as f64 >= rank {
            let upper = le.unwrap_or(lower);
            let fraction = (rank - prev as f64) / (cum - prev).max(1) as f64;
            return Some(lower + (upper - lower) * fraction);
        }
        prev = cum;
        lower = le.unwrap_or(lower);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_is_reported_only_with_ten_samples_beyond_it() {
        let hundred = sorted((1..=100).map(f64::from).collect());
        // p90 of 100 samples leaves exactly 10 above it; p95 leaves 5.
        assert_eq!(
            tail_at(&hundred, 90.0),
            Some(Tail { pct: 90.0, value: 90.0, samples: 100, beyond: 10 })
        );
        assert_eq!(tail_at(&hundred, 95.0), None);
        assert_eq!(highest_tail(&hundred).map(|t| t.pct), Some(90.0));
        let thousand = sorted((1..=1000).map(f64::from).collect());
        let p99 = highest_tail(&thousand).expect("1000 samples support p99");
        assert_eq!((p99.pct, p99.value, p99.beyond), (99.0, 990.0, 10));
        let few = sorted((1..=19).map(f64::from).collect());
        assert_eq!(highest_tail(&few), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_delta_median_ignores_earlier_observations() {
        let before = vec![(Some(1.0), 10), (Some(2.0), 10), (None, 10)];
        let after = vec![(Some(1.0), 10), (Some(2.0), 20), (None, 20)];
        assert_eq!(histogram_delta_median(&before, &after), Some(1.5));
        assert_eq!(histogram_delta_median(&after, &after), None);
    }
}
