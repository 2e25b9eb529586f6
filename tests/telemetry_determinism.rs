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
use analog_layout_synthesis::service::{JobSpec, PlacementService, ServiceClient, ServiceConfig};
use analog_layout_synthesis::telemetry::{RecordingCollector, Telemetry};

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
