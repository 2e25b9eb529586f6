//! The telemetry contract (DESIGN.md §11): telemetry *observes* and never
//! *participates*. Attaching a recording collector must not change a single
//! byte of any deterministic report body — portfolio runs and service
//! responses alike — because telemetry holds no RNG, consumes no `SeedStream`
//! lane, and instrumented code paths branch only on whether to *record*.

use std::sync::Arc;

use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::portfolio::{
    run_portfolio, run_portfolio_with, PortfolioConfig, RunContext,
};
use analog_layout_synthesis::seqpair::tempering::{TemperingPlacerConfig, TemperingSeqPairPlacer};
use analog_layout_synthesis::seqpair::{SeqPairPlacer, SeqPairPlacerConfig};
use analog_layout_synthesis::service::{JobSpec, PlacementService, ServiceClient, ServiceConfig};
use analog_layout_synthesis::telemetry::{RecordingCollector, Telemetry, TraceEvent, Value};

/// Every bundled circuit's portfolio report is byte-identical whether the
/// run records a full trace or runs with the no-op handle.
#[test]
fn portfolio_reports_are_byte_identical_with_and_without_telemetry() {
    for name in benchmarks::names() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let config = PortfolioConfig::new(13).with_restarts(2).with_fast_schedule(true);

        let quiet = run_portfolio(&circuit, &config).to_json_deterministic();

        let recorder = Arc::new(RecordingCollector::new());
        let telemetry = Telemetry::with_collector(Arc::clone(&recorder) as _);
        let context = RunContext { telemetry, ..RunContext::default() };
        let traced = run_portfolio_with(&circuit, &config, &context)
            .expect("an unarmed token never cancels")
            .to_json_deterministic();

        assert!(!recorder.is_empty(), "{name}: traced run must actually record events");
        assert_eq!(quiet, traced, "{name}: report body changed under telemetry");
    }
}

/// The `early_rejected` argument of the one `cat/name` span of a trace.
fn early_rejected(events: &[TraceEvent], cat: &str, name: &str) -> u64 {
    let spans: Vec<_> =
        events.iter().filter(|e| e.ph == 'X' && e.cat == cat && e.name == name).collect();
    assert_eq!(spans.len(), 1, "one {cat}/{name} span per run");
    match spans[0].args.iter().find(|(k, _)| k == "early_rejected") {
        Some((_, Value::U64(v))) => *v,
        other => panic!("{cat}/{name} early_rejected: {other:?}"),
    }
}

/// Early rejection is visible in the trace and, like every other recorded
/// figure, changes nothing: a full-schedule sequence-pair run and a
/// tempering run give the same results traced and untraced, and both reject
/// some proposals on their area bound alone.
#[test]
fn early_rejections_are_traced_without_changing_results() {
    let circuit = benchmarks::by_name("miller_v2").expect("bundled name resolves");
    let placer = SeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
    let config =
        SeqPairPlacerConfig { seed: 21, ..SeqPairPlacerConfig::for_netlist(&circuit.netlist) };
    let quiet = placer.run(&config);
    let recorder = Arc::new(RecordingCollector::new());
    let traced = placer.run_traced(&config, &Telemetry::with_collector(Arc::clone(&recorder) as _));
    assert_eq!(quiet.placement, traced.placement);
    assert_eq!(quiet.sequence_pair, traced.sequence_pair);
    assert_eq!(quiet.stats.best_cost.to_bits(), traced.stats.best_cost.to_bits());
    assert_eq!(quiet.stats.moves.attempted, traced.stats.moves.attempted);
    assert_eq!(quiet.stats.moves.accepted, traced.stats.moves.accepted);
    let early = early_rejected(&recorder.events(), "anneal", "anneal");
    assert!(early > 0, "a full schedule rejects some proposals on the bound");
    assert!(early < traced.stats.moves.attempted - traced.stats.moves.accepted);

    let tempering = TemperingSeqPairPlacer::new(&circuit.netlist, &circuit.constraints);
    let config = TemperingPlacerConfig::fast(21);
    let quiet = tempering.run(&config);
    let recorder = Arc::new(RecordingCollector::new());
    let traced =
        tempering.run_traced(&config, &Telemetry::with_collector(Arc::clone(&recorder) as _));
    assert_eq!(quiet.placement, traced.placement);
    assert_eq!(quiet.stats.best_cost.to_bits(), traced.stats.best_cost.to_bits());
    assert_eq!(quiet.stats.moves.attempted, traced.stats.moves.attempted);
    assert_eq!(quiet.stats.swaps_accepted, traced.stats.swaps_accepted);
    let early = early_rejected(&recorder.events(), "tempering", "tempering");
    assert!(early > 0, "tempering replicas reject on the bound too");
    assert!(early < traced.stats.moves.attempted - traced.stats.moves.accepted);
}

/// Runs one job per bundled circuit against a fresh service and returns the
/// report bodies in submission order.
fn collect_service_reports(telemetry: Telemetry) -> Vec<String> {
    let service = PlacementService::start_with_telemetry(
        ServiceConfig { workers: 2, ..ServiceConfig::default() },
        telemetry,
    )
    .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    let reports = benchmarks::names()
        .iter()
        .map(|name| {
            let spec = JobSpec::bundled(*name).with_seed(7).with_restarts(1).with_fast(true);
            client.place(&spec).expect("solves").report.expect("ok response carries a report")
        })
        .collect();

    client.shutdown().expect("acknowledged");
    service.join();
    reports
}

/// The service answers byte-identical report bodies whether the daemon was
/// started with a recording collector or the disabled handle.
#[test]
fn service_reports_are_byte_identical_with_and_without_telemetry() {
    let quiet = collect_service_reports(Telemetry::disabled());

    let recorder = Arc::new(RecordingCollector::new());
    let traced = collect_service_reports(Telemetry::with_collector(Arc::clone(&recorder) as _));

    assert!(!recorder.is_empty(), "traced service must actually record events");
    assert_eq!(quiet.len(), benchmarks::names().len());
    for ((name, a), b) in benchmarks::names().iter().zip(&quiet).zip(&traced) {
        assert_eq!(a, b, "{name}: service report body changed under telemetry");
    }
}

/// Runs one job per bundled circuit against a service with `config` and
/// returns the report bodies in submission order.
fn collect_reports_with_config(config: ServiceConfig) -> Vec<String> {
    let service = PlacementService::start(config).expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let reports = benchmarks::names()
        .iter()
        .map(|name| {
            let spec = JobSpec::bundled(*name).with_seed(7).with_restarts(1).with_fast(true);
            client.place(&spec).expect("solves").report.expect("ok response carries a report")
        })
        .collect();
    client.shutdown().expect("acknowledged");
    service.join();
    reports
}

/// The full observability surface — metrics sidecar, always-on flight
/// recorder with an on-disk spill — observes without participating: report
/// bodies are byte-identical to a daemon with everything switched off.
#[test]
fn service_reports_are_byte_identical_with_observability_on_and_off() {
    let off = collect_reports_with_config(ServiceConfig {
        workers: 2,
        flight_recorder: 0,
        metrics_addr: None,
        ..ServiceConfig::default()
    });

    let spill = std::env::temp_dir()
        .join(format!("apls-telemetry-determinism-{}.jsonl", std::process::id()));
    let on = collect_reports_with_config(ServiceConfig {
        workers: 2,
        flight_recorder: 2048,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        flight_recorder_path: Some(spill.clone()),
        ..ServiceConfig::default()
    });
    for suffix in ["a", "b"] {
        let mut os = spill.clone().into_os_string();
        os.push(format!(".{suffix}"));
        let _ = std::fs::remove_file(os);
    }

    assert_eq!(off.len(), benchmarks::names().len());
    for ((name, a), b) in benchmarks::names().iter().zip(&off).zip(&on) {
        assert_eq!(a, b, "{name}: report body changed with observability enabled");
    }
}
