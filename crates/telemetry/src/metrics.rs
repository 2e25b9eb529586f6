//! A small metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! The registry is independent of the tracing side of the crate — a service
//! keeps metrics even when no trace collector is installed. Handles returned
//! by the registry ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones updating lock-free atomics; the registry lock is only taken at
//! registration and snapshot time. Snapshots render in `BTreeMap` name order,
//! so metric JSON is deterministic.

use crate::json::{self, Float, Layout, Writer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency histogram bucket upper bounds, in milliseconds.
pub const LATENCY_MS_BOUNDS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    5000.0,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Bucket upper bounds (inclusive); an implicit `+inf` bucket follows.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    /// Sum of observed values, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations (typically latencies in
/// milliseconds, see [`LATENCY_MS_BOUNDS`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    ///
    /// Non-finite values (NaN, ±∞) are ignored entirely — they carry no
    /// latency information and would otherwise poison `sum` and the quantile
    /// estimates. Negative values land in the first bucket (every bound is an
    /// inclusive *upper* bound).
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let core = &self.0;
        let idx = core.bounds.iter().position(|&b| v <= b).unwrap_or(core.bounds.len());
        core.counts[idx].fetch_add(1, Ordering::Relaxed);
        core.total.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket cumulative snapshot: `(upper_bound, count ≤ bound)` pairs,
    /// the final entry with `None` bound covering everything.
    #[must_use]
    pub fn buckets(&self) -> Vec<(Option<f64>, u64)> {
        let core = &self.0;
        let mut cumulative = 0u64;
        let mut out = Vec::with_capacity(core.counts.len());
        for (i, count) in core.counts.iter().enumerate() {
            cumulative += count.load(Ordering::Relaxed);
            out.push((core.bounds.get(i).copied(), cumulative));
        }
        out
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts by
    /// linear interpolation inside the matched bucket, the same estimator as
    /// Prometheus's `histogram_quantile`.
    ///
    /// The estimate is a pure function of the bucket counts, so two
    /// histograms with identical counts produce bit-identical quantiles.
    /// Returns `None` for an empty histogram. The first bucket interpolates
    /// from 0 (observations are assumed non-negative latencies); a rank that
    /// falls in the overflow bucket is clamped to the largest finite bound.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let buckets = self.buckets();
        let total = buckets.last().map_or(0, |&(_, c)| c);
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(f64::MIN_POSITIVE);
        let mut prev_cum = 0u64;
        let mut lower = 0.0f64;
        for (bound, cum) in buckets {
            if cum as f64 >= rank {
                let Some(upper) = bound else {
                    // Overflow bucket: no finite upper edge to interpolate
                    // toward; report the largest finite bound (or `None` for
                    // a bound-less histogram).
                    return if lower > 0.0 || prev_cum > 0 { Some(lower) } else { None };
                };
                let in_bucket = (cum - prev_cum) as f64;
                let fraction = (rank - prev_cum as f64) / in_bucket;
                return Some(lower + (upper - lower) * fraction);
            }
            prev_cum = cum;
            if let Some(b) = bound {
                lower = b;
            }
        }
        None
    }

    /// Writes the histogram as the next value of `w`: count, sum, the
    /// p50/p95/p99 estimates (`null` while empty) and the cumulative buckets.
    fn write_json(&self, w: &mut Writer<'_>) {
        w.object(Layout::Compact, |w| {
            w.key("count").int(self.count());
            w.key("sum").f64(self.sum(), Float::Shortest);
            for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                w.key(label).opt(self.quantile(q), |w, v| w.f64(v, Float::Shortest));
            }
            w.key("buckets").array(Layout::Compact, |w| {
                for (bound, count) in self.buckets() {
                    w.object(Layout::Compact, |w| {
                        w.key("le").opt(bound, |w, b| w.f64(b, Float::Shortest));
                        w.key("count").int(count);
                    });
                }
            });
        });
    }
}

/// A registry of named counters, gauges, histograms and info metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// Info metrics: constant label sets exposed as a gauge fixed at 1
    /// (the Prometheus `build_info` idiom).
    infos: Mutex<BTreeMap<String, BTreeMap<String, String>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given bucket bounds on first use (later calls keep the first bounds).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histograms
            .lock()
            .expect("metrics registry poisoned")
            .entry(name.to_string())
            .or_insert_with(|| {
                let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
                Histogram(Arc::new(HistogramCore {
                    bounds: bounds.to_vec(),
                    counts,
                    total: AtomicU64::new(0),
                    sum_bits: AtomicU64::new(0.0f64.to_bits()),
                }))
            })
            .clone()
    }

    /// Registers (or replaces) an info metric: a set of constant string
    /// labels published under `name` with a fixed value of 1, e.g.
    /// `build_info{version="0.1.0",git="abc1234",poller="epoll"} 1`.
    pub fn set_info(&self, name: &str, labels: &[(&str, &str)]) {
        let labels: BTreeMap<String, String> =
            labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        self.infos.lock().expect("metrics registry poisoned").insert(name.to_string(), labels);
    }

    /// Renders the whole registry as one deterministic JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..},"infos":{..}}`,
    /// keys in name order.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |w| self.write_snapshot(w));
        out
    }

    /// Writes the four sections of [`MetricsRegistry::snapshot_json`] as
    /// members of the open object `w`.
    pub fn write_snapshot(&self, w: &mut Writer<'_>) {
        w.key("counters").object(Layout::Compact, |w| {
            for (name, c) in self.counters.lock().expect("metrics registry poisoned").iter() {
                w.key(name).int(c.get());
            }
        });
        w.key("gauges").object(Layout::Compact, |w| {
            for (name, g) in self.gauges.lock().expect("metrics registry poisoned").iter() {
                w.key(name).int(g.get());
            }
        });
        w.key("histograms").object(Layout::Compact, |w| {
            for (name, h) in self.histograms.lock().expect("metrics registry poisoned").iter() {
                h.write_json(w.key(name));
            }
        });
        w.key("infos").object(Layout::Compact, |w| {
            for (name, labels) in self.infos.lock().expect("metrics registry poisoned").iter() {
                w.key(name).object(Layout::Compact, |w| {
                    for (k, v) in labels {
                        w.key(k).str(v);
                    }
                });
            }
        });
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4), every metric name prefixed with `prefix`.
    ///
    /// Counters and gauges render as single samples, histograms as
    /// `_bucket{le="..."}` / `_sum` / `_count` families with a trailing
    /// `le="+Inf"` bucket, and info metrics as a labelled gauge fixed at 1.
    /// Output is deterministic: sections in counter/gauge/histogram/info
    /// order, names in `BTreeMap` order, label keys sorted.
    #[must_use]
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, c) in self.counters.lock().expect("metrics registry poisoned").iter() {
            let _ = writeln!(out, "# TYPE {prefix}{name} counter");
            let _ = writeln!(out, "{prefix}{name} {}", c.get());
        }
        for (name, g) in self.gauges.lock().expect("metrics registry poisoned").iter() {
            let _ = writeln!(out, "# TYPE {prefix}{name} gauge");
            let _ = writeln!(out, "{prefix}{name} {}", g.get());
        }
        for (name, h) in self.histograms.lock().expect("metrics registry poisoned").iter() {
            let _ = writeln!(out, "# TYPE {prefix}{name} histogram");
            for (bound, cum) in h.buckets() {
                match bound {
                    Some(b) => {
                        let _ = writeln!(out, "{prefix}{name}_bucket{{le=\"{b}\"}} {cum}");
                    }
                    None => {
                        let _ = writeln!(out, "{prefix}{name}_bucket{{le=\"+Inf\"}} {cum}");
                    }
                }
            }
            let _ = writeln!(out, "{prefix}{name}_sum {}", prom_f64(h.sum()));
            let _ = writeln!(out, "{prefix}{name}_count {}", h.count());
        }
        for (name, labels) in self.infos.lock().expect("metrics registry poisoned").iter() {
            let _ = writeln!(out, "# TYPE {prefix}{name} gauge");
            let _ = write!(out, "{prefix}{name}{{");
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}=\"{}\"", prom_label_escape(v));
            }
            out.push_str("} 1\n");
        }
        out
    }
}

/// Prometheus sample value: non-finite values render per the exposition
/// format (`NaN`, `+Inf`, `-Inf`).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escapes a label value per the exposition format: backslash, double quote
/// and newline.
fn prom_label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("jobs");
        c.inc();
        c.add(2);
        assert_eq!(registry.counter("jobs").get(), 3);
        let g = registry.gauge("depth");
        g.set(5);
        g.sub(2);
        g.add(1);
        assert_eq!(registry.gauge("depth").get(), 4);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-9);
        assert_eq!(h.buckets(), vec![(Some(1.0), 1), (Some(10.0), 2), (None, 3)]);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_ordered() {
        let registry = MetricsRegistry::new();
        registry.counter("b").inc();
        registry.counter("a").add(2);
        registry.gauge("g").set(-1);
        registry.histogram("h", &[1.0]).observe(2.0);
        let json = registry.snapshot_json();
        assert_eq!(json, registry.snapshot_json());
        let a = json.find("\"a\":2").unwrap();
        let b = json.find("\"b\":1").unwrap();
        assert!(a < b, "counters must render in name order: {json}");
        assert!(json.contains("\"g\":-1"));
        assert!(json.contains("{\"le\":null,\"count\":1}"));
    }

    #[test]
    fn observation_exactly_on_a_bound_counts_in_that_bucket() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", &[1.0, 10.0]);
        h.observe(1.0);
        h.observe(10.0);
        // `le` semantics: v <= bound lands in the bound's own bucket.
        assert_eq!(h.buckets(), vec![(Some(1.0), 1), (Some(10.0), 2), (None, 2)]);
    }

    #[test]
    fn negative_observations_land_in_the_first_bucket() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", &[1.0, 10.0]);
        h.observe(-5.0);
        assert_eq!(h.buckets(), vec![(Some(1.0), 1), (Some(10.0), 1), (None, 1)]);
        assert_eq!(h.count(), 1);
        assert!((h.sum() + 5.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", &[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        h.observe(0.5);
        assert_eq!(h.count(), 1);
        assert!(h.sum().is_finite());
    }

    #[test]
    fn quantiles_interpolate_deterministically() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", &[10.0, 20.0, 40.0]);
        // 10 observations in (0,10], 10 in (10,20]; none beyond.
        for _ in 0..10 {
            h.observe(5.0);
            h.observe(15.0);
        }
        // rank(0.5) = 10 → exactly fills the first bucket → its upper bound.
        assert_eq!(h.quantile(0.5), Some(10.0));
        // rank(0.95) = 19 → 9/10 through the second bucket: 10 + 10*0.9.
        assert_eq!(h.quantile(0.95), Some(19.0));
        // rank clamps just above zero → the bottom edge of the first bucket.
        assert!(h.quantile(0.0).unwrap().abs() < 1e-300);
        assert_eq!(h.quantile(1.0), Some(20.0));
        // Determinism: identical counts → bit-identical estimates and JSON.
        let h2 = registry.histogram("lat2", &[10.0, 20.0, 40.0]);
        for _ in 0..10 {
            h2.observe(5.0);
            h2.observe(15.0);
        }
        assert_eq!(h.quantile(0.99), h2.quantile(0.99));
        let json = registry.snapshot_json();
        assert_eq!(json, registry.snapshot_json());
        assert!(json.contains("\"p50\":10,\"p95\":19,\"p99\":19.8"), "quantiles in json: {json}");
    }

    #[test]
    fn quantile_in_overflow_bucket_clamps_to_last_bound() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat", &[1.0, 2.0]);
        h.observe(100.0);
        h.observe(200.0);
        assert_eq!(h.quantile(0.99), Some(2.0));
    }

    #[test]
    fn info_metrics_round_trip_json_and_prometheus() {
        let registry = MetricsRegistry::new();
        registry.set_info("build_info", &[("version", "1.2.3"), ("git", "abc\"123")]);
        let json = registry.snapshot_json();
        assert!(json
            .contains("\"infos\":{\"build_info\":{\"git\":\"abc\\\"123\",\"version\":\"1.2.3\"}}"));
        let text = registry.render_prometheus("apls_");
        assert!(text.contains("# TYPE apls_build_info gauge"));
        assert!(text.contains("apls_build_info{git=\"abc\\\"123\",version=\"1.2.3\"} 1"));
    }

    #[test]
    fn prometheus_exposition_renders_all_metric_kinds() {
        let registry = MetricsRegistry::new();
        registry.counter("jobs_total").add(3);
        registry.gauge("depth").set(-2);
        let h = registry.histogram("lat_ms", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(50.0);
        let text = registry.render_prometheus("apls_");
        assert_eq!(text, registry.render_prometheus("apls_"));
        assert!(text.contains("# TYPE apls_jobs_total counter\napls_jobs_total 3\n"));
        assert!(text.contains("# TYPE apls_depth gauge\napls_depth -2\n"));
        assert!(text.contains("apls_lat_ms_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("apls_lat_ms_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("apls_lat_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("apls_lat_ms_sum 50.5\n"));
        assert!(text.contains("apls_lat_ms_count 2\n"));
    }
}
