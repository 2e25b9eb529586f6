//! Byte-identity goldens for the JSON the workspace writes: a full
//! deterministic portfolio report as a checked-in fixture, the other bundled
//! circuits by length and hash, the timed report with its timings masked,
//! the request line, the metrics snapshot, trace events, the Chrome trace
//! document and the shape of the daemon's `stats` line.
//!
//! Each golden was taken from the emitter it pins; a change to any writer
//! that moves one byte fails here.

use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::io::canonical_hash;
use analog_layout_synthesis::portfolio::{run_portfolio, PortfolioConfig, PortfolioEngine};
use analog_layout_synthesis::service::{JobSpec, PlacementService, ServiceClient, ServiceConfig};
use analog_layout_synthesis::telemetry::{
    Collector, MetricsRegistry, RecordingCollector, TraceEvent, Value,
};

/// The fixture's run: every engine, two restarts, fast schedule, seed 3.
fn config() -> PortfolioConfig {
    PortfolioConfig::new(3).with_restarts(2).with_fast_schedule(true)
}

const MILLER_REPORT: &str = include_str!("fixtures/miller_opamp_fig6.json");

#[test]
fn miller_report_matches_its_fixture() {
    let report = run_portfolio(&benchmarks::miller_opamp_fig6(), &config());
    assert_eq!(report.to_json_deterministic(), MILLER_REPORT);
}

/// `(circuit, length, canonical_hash)` of the deterministic report of every
/// other bundled circuit under [`config`].
const REPORT_DIGESTS: [(&str, usize, u64); 6] = [
    ("miller_v2", 3703, 0xb2691c0bcf115c0a),
    ("comparator_v2", 3689, 0x684b76fc64524950),
    ("folded_cascode", 3706, 0x8141a673fe5ec08e),
    ("biasynth", 3712, 0xa55b98f4ef2f61a4),
    ("lnamixbias", 3731, 0x13ce1c00b8666faa),
    ("buffer", 3699, 0xddc399a5f9197b54),
];

#[test]
fn every_other_bundled_report_keeps_its_length_and_hash() {
    let mut names: Vec<&str> = benchmarks::names().to_vec();
    names.retain(|&name| name != "miller_opamp_fig6");
    names.sort_unstable();
    let mut pinned: Vec<&str> = REPORT_DIGESTS.iter().map(|&(name, ..)| name).collect();
    pinned.sort_unstable();
    assert_eq!(names, pinned, "one digest per bundled circuit");
    for (name, len, hash) in REPORT_DIGESTS {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let json = run_portfolio(&circuit, &config()).to_json_deterministic();
        assert_eq!((json.len(), canonical_hash(&json)), (len, hash), "{name}");
    }
}

/// Replaces the value of every timing field of a timed report with `null`,
/// after checking it has the format the field is written in: `{:.3}`
/// milliseconds, whole moves per second (or `null` for an engine without
/// annealing statistics).
fn mask_timings(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    let timing = |key: &str| -> Option<bool> {
        match key {
            "wall_ms" | "runtime_ms" | "total_runtime_ms" => Some(true),
            "moves_per_sec" | "mean_moves_per_sec" => Some(false),
            _ => None,
        }
    };
    while let Some(open) = rest.find('"') {
        let close = open + 1 + rest[open + 1..].find('"').expect("closed key");
        let key = &rest[open + 1..close];
        out.push_str(&rest[..=close]);
        rest = &rest[close + 1..];
        let Some(millis) = timing(key) else { continue };
        let value_at = rest.find(|c: char| c != ':' && c != ' ').expect("value");
        let value_end = value_at + rest[value_at..].find([',', '}', '\n']).expect("value ends");
        let value = &rest[value_at..value_end];
        let shaped = if millis {
            value.split_once('.').is_some_and(|(whole, frac)| {
                !whole.is_empty()
                    && whole.bytes().all(|b| b.is_ascii_digit())
                    && frac.len() == 3
                    && frac.bytes().all(|b| b.is_ascii_digit())
            })
        } else {
            value == "null" || (!value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()))
        };
        assert!(shaped, "{key}: {value:?}");
        out.push_str(&rest[..value_at]);
        out.push_str("null");
        rest = &rest[value_end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn timed_report_matches_the_fixture_once_timings_are_masked() {
    let report = run_portfolio(&benchmarks::miller_opamp_fig6(), &config());
    let timed = report.to_json();
    assert_ne!(timed, MILLER_REPORT, "the timed report carries timings");
    assert_eq!(mask_timings(&timed), MILLER_REPORT);
}

#[test]
fn request_lines_are_pinned() {
    let mut spec = JobSpec::inline("apls 1\ncircuit \"x\\y\"\t\u{1}\n")
        .with_seed(u64::MAX)
        .with_restarts(3)
        .with_engines([PortfolioEngine::SequencePair, PortfolioEngine::Hier])
        .with_fast(true)
        .with_deadline_ms(250)
        .with_stream(17);
    spec.wirelength_weight = Some(0.25);
    spec.hier_anneal_threshold = Some(6);
    spec.plateau = Some(4);
    spec.threads = Some(2);
    assert_eq!(
        spec.to_json_line(),
        r#"{"op":"place","apls":"apls 1\ncircuit \"x\\y\"\t\u0001\n","seed":18446744073709551615,"restarts":3,"engines":["seqpair","hier"],"fast":true,"wirelength_weight":0.25,"hier_anneal_threshold":6,"plateau":4,"threads":2,"deadline_ms":250,"stream":true,"id":17}"#
    );
    assert_eq!(
        JobSpec::bundled("miller_v2").to_json_line(),
        r#"{"op":"place","circuit":"miller_v2"}"#
    );
}

#[test]
fn metrics_snapshot_is_pinned() {
    let registry = MetricsRegistry::new();
    registry.counter("jobs_total").add(3);
    registry.gauge("depth").set(-2);
    let _ = registry.histogram("empty_ms", &[1.0, 10.0]);
    let filled = registry.histogram("lat_ms", &[0.5, 2.5]);
    for v in [0.25, 1.0, 2.0, 40.0] {
        filled.observe(v);
    }
    registry.set_info("build_info", &[("version", "1.2.3"), ("git", "a\"b\\c\n")]);
    assert_eq!(
        registry.snapshot_json(),
        r#"{"counters":{"jobs_total":3},"gauges":{"depth":-2},"histograms":{"empty_ms":{"count":0,"sum":0,"p50":null,"p95":null,"p99":null,"buckets":[{"le":1,"count":0},{"le":10,"count":0},{"le":null,"count":0}]},"lat_ms":{"count":4,"sum":43.25,"p50":1.5,"p95":2.5,"p99":2.5,"buckets":[{"le":0.5,"count":1},{"le":2.5,"count":3},{"le":null,"count":4}]}},"infos":{"build_info":{"git":"a\"b\\c\n","version":"1.2.3"}}}"#
    );
}

fn event(name: &str, ph: char, dur_us: Option<u64>, args: Vec<(&str, Value)>) -> TraceEvent {
    TraceEvent {
        name: name.to_string(),
        cat: "engine".to_string(),
        ph,
        ts_us: 12,
        dur_us,
        tid: 2,
        args: args.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    }
}

fn every_value_event() -> TraceEvent {
    event(
        "anneal \"x\"",
        'X',
        Some(34),
        vec![
            ("u", Value::U64(u64::MAX)),
            ("i", Value::I64(-7)),
            ("f", Value::F64(1.5)),
            ("nan", Value::F64(f64::NAN)),
            ("inf", Value::F64(f64::NEG_INFINITY)),
            ("b", Value::Bool(false)),
            ("s", Value::Str("a\\b\n".to_string())),
        ],
    )
}

#[test]
fn trace_event_lines_are_pinned() {
    assert_eq!(
        every_value_event().to_json_line(),
        r#"{"name":"anneal \"x\"","cat":"engine","ph":"X","ts":12,"pid":1,"tid":2,"dur":34,"args":{"u":18446744073709551615,"i":-7,"f":1.5,"nan":null,"inf":null,"b":false,"s":"a\\b\n"}}"#
    );
    assert_eq!(
        event("stall", 'i', None, Vec::new()).to_json_line(),
        r#"{"name":"stall","cat":"engine","ph":"i","ts":12,"pid":1,"tid":2}"#
    );
}

#[test]
fn chrome_trace_document_is_pinned() {
    let collector = RecordingCollector::new();
    collector.record(every_value_event());
    collector.record(event("stall", 'i', None, Vec::new()));
    assert_eq!(
        collector.to_chrome_trace(),
        r#"{"traceEvents":[{"name":"anneal \"x\"","cat":"engine","ph":"X","ts":12,"pid":1,"tid":2,"dur":34,"args":{"u":18446744073709551615,"i":-7,"f":1.5,"nan":null,"inf":null,"b":false,"s":"a\\b\n"}},{"name":"stall","cat":"engine","ph":"i","ts":12,"pid":1,"tid":2}],"displayTimeUnit":"ms"}"#
    );
}

/// Replaces every number outside a string with `#`, and the values of the
/// build-info labels (they name the commit and the platform) with `"#"`.
fn mask_numbers(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut chars = json.chars().peekable();
    let mut last_key = String::new();
    while let Some(c) = chars.next() {
        if c == '"' {
            let mut text = String::new();
            while let Some(c) = chars.next() {
                if c == '"' {
                    break;
                }
                text.push(c);
                if c == '\\' {
                    text.push(chars.next().expect("escaped char"));
                }
            }
            if chars.peek() == Some(&':') {
                last_key.clone_from(&text);
            } else if matches!(last_key.as_str(), "version" | "git" | "poller") {
                text = "#".to_string();
            }
            out.push('"');
            out.push_str(&text);
            out.push('"');
        } else if c == '-' || c.is_ascii_digit() {
            while chars.peek().is_some_and(|c| c.is_ascii_digit() || ".eE+-".contains(*c)) {
                chars.next();
            }
            out.push('#');
        } else {
            out.push(c);
        }
    }
    out
}

#[test]
fn stats_line_keeps_its_keys_and_shape() {
    let service = PlacementService::start(ServiceConfig::default()).expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(mask_numbers(&stats), include_str!("fixtures/stats_masked.json").trim_end());
    service.shutdown();
    service.join();
}
