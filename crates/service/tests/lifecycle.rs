//! Service lifecycle tests: backpressure on a full queue, graceful shutdown
//! that drains queued work, derived-seed replayability, and protocol errors.

use apls_portfolio::PortfolioEngine;
use apls_service::{FaultPlan, JobSpec, PlacementService, ServiceClient, ServiceConfig};
use std::ops::Range;
use std::time::Duration;

/// A fault plan that slows the solve of each job in `jobs` by `ms`.
fn slow_jobs(jobs: Range<u64>, ms: u64) -> FaultPlan {
    jobs.fold(FaultPlan::new(), |plan, job| plan.with_slow_solve(job, ms))
}

/// A cheap job: single deterministic-engine run of the 9-module Miller
/// op-amp.
fn cheap_spec() -> JobSpec {
    JobSpec::bundled("miller_opamp_fig6")
        .with_restarts(1)
        .with_engines([PortfolioEngine::Deterministic])
        .with_fast(true)
}

#[test]
fn full_queue_answers_retry() {
    // One worker, queue depth 1, and an artificial 400 ms solve time for
    // every job the burst can admit (indices 0-5): the first job occupies
    // the worker, the second fills the queue, the rest of the burst must be
    // told to retry.
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 0,
        fault_plan: Some(slow_jobs(0..6, 400)),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = service.local_addr();

    let mut first = ServiceClient::connect(addr).expect("connects");
    let pioneer = std::thread::spawn(move || first.place(&cheap_spec().with_seed(0)));
    // give the pioneer time to occupy the worker before the burst
    std::thread::sleep(Duration::from_millis(100));

    let burst: Vec<_> = (1..=5u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connects");
                client.place(&cheap_spec().with_seed(seed)).expect("round-trips")
            })
        })
        .collect();
    let responses: Vec<_> = burst.into_iter().map(|h| h.join().expect("no panic")).collect();
    let retries = responses.iter().filter(|r| r.is_retry()).count();
    let oks = responses.iter().filter(|r| r.is_ok()).count();
    assert_eq!(retries + oks, responses.len(), "only ok/retry are acceptable");
    assert!(retries >= 1, "a 5-job burst into a 1-deep queue must shed load");
    for r in responses.iter().filter(|r| r.is_retry()) {
        assert!(r.error.as_deref().unwrap_or("").contains("queue full"));
    }
    assert!(pioneer.join().expect("no panic").expect("round-trips").is_ok());
    service.shutdown();
    service.join();
}

#[test]
fn shutdown_drains_queued_jobs() {
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        fault_plan: Some(slow_jobs(0..3, 150)),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = service.local_addr();

    let clients: Vec<_> = (0..3u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connects");
                client.place(&cheap_spec().with_seed(seed)).expect("round-trips")
            })
        })
        .collect();
    // let all three jobs reach the queue, then pull the plug mid-flight
    std::thread::sleep(Duration::from_millis(100));
    service.shutdown();
    for handle in clients {
        let response = handle.join().expect("no panic");
        assert!(response.is_ok(), "queued jobs must still be answered: {response:?}");
    }
    service.join();
}

#[test]
fn derived_seeds_replay_across_service_restarts() {
    let config = ServiceConfig { workers: 2, seed: 99, ..ServiceConfig::default() };
    let run = |config: &ServiceConfig| -> Vec<(u64, String)> {
        let service = PlacementService::start(config.clone()).expect("service starts");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
        let mut out = Vec::new();
        for _ in 0..3 {
            // no pinned seed: the service derives one from (its seed, job index)
            let response = client.place(&cheap_spec()).expect("round-trips");
            assert!(response.is_ok());
            out.push((response.seed.expect("seed echoed"), response.report.expect("report")));
        }
        service.shutdown();
        service.join();
        out
    };
    let first = run(&config);
    let second = run(&config);
    assert_eq!(first, second, "same job log, same service seed: bit-identical replies");
    assert_ne!(first[0].0, first[1].0, "distinct jobs draw distinct seeds");

    let other = run(&ServiceConfig { seed: 100, ..config });
    assert_ne!(
        first.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        other.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        "a different service seed shifts the derived job seeds"
    );
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let service = PlacementService::start(ServiceConfig::default()).expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    let cases = [
        ("this is not json", "invalid JSON"),
        ("{\"op\":\"warp\"}", "unknown op 'warp'"),
        ("{\"no_op\":1}", "needs an 'op' field"),
        ("{\"op\":\"place\"}", "needs a circuit"),
        ("{\"op\":\"place\",\"circuit\":\"no_such\"}", "unknown circuit 'no_such'"),
        // inline parse failures surface the positioned .apls diagnostic
        ("{\"op\":\"place\",\"apls\":\"apls 1\\ncircuit 7\\n\"}", "2:9: expected circuit name"),
    ];
    for (request, fragment) in cases {
        let response = client.request_line(request).expect("server keeps talking");
        assert!(response.contains("\"status\":\"error\""), "{request}: {response}");
        assert!(response.contains(fragment), "{request}: {response}");
    }

    // the connection survived all of that
    let pong = client.ping().expect("ping");
    assert!(pong.contains("\"status\":\"ok\""));
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"jobs_completed\":0"));

    let bye = client.shutdown().expect("shutdown ack");
    assert!(bye.contains("shutting_down"));
    service.join();
}

#[test]
fn cache_capacity_zero_never_reports_hits() {
    let service =
        PlacementService::start(ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() })
            .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let spec = cheap_spec().with_seed(5);
    let a = client.place(&spec).expect("round-trips");
    let b = client.place(&spec).expect("round-trips");
    assert!(!a.cache_hit && !b.cache_hit);
    // determinism holds with or without the cache
    assert_eq!(a.report, b.report);
    service.shutdown();
    service.join();
}
