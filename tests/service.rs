//! End-to-end placement-service tests over the whole stack: ephemeral-port
//! servers, concurrent mixed jobs (bundled names and inline `.apls` text),
//! and the determinism contract — responses for the same (circuit, config,
//! seed) are byte-identical regardless of worker count, arrival order, or
//! whether the cache served them.

use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::io::serialize_circuit;
use analog_layout_synthesis::portfolio::PortfolioEngine;
use analog_layout_synthesis::service::json::Json;
use analog_layout_synthesis::service::{JobSpec, PlacementService, ServiceClient, ServiceConfig};

/// A mixed workload: different circuits, sources, engine subsets and seeds —
/// every job pins its seed so reports are comparable across services.
fn mixed_jobs() -> Vec<JobSpec> {
    let inline_comparator = serialize_circuit(&benchmarks::comparator_v2());
    let inline_generated = serialize_circuit(&benchmarks::generate(
        "load_test",
        benchmarks::GeneratorConfig { module_count: 18, seed: 77, ..Default::default() },
    ));
    vec![
        JobSpec::bundled("miller_opamp_fig6").with_seed(11).with_restarts(2).with_fast(true),
        JobSpec::bundled("miller_v2")
            .with_seed(7)
            .with_restarts(2)
            .with_engines([PortfolioEngine::SequencePair, PortfolioEngine::Hier])
            .with_fast(true),
        JobSpec::bundled("folded_cascode")
            .with_seed(2)
            .with_restarts(1)
            .with_engines([PortfolioEngine::Deterministic])
            .with_fast(true),
        JobSpec::inline(inline_comparator)
            .with_seed(5)
            .with_restarts(2)
            .with_engines([PortfolioEngine::HbTree])
            .with_fast(true),
        JobSpec::inline(inline_generated)
            .with_seed(3)
            .with_restarts(1)
            .with_engines([PortfolioEngine::SequencePair])
            .with_fast(true),
    ]
}

#[test]
fn responses_are_independent_of_worker_count_and_arrival_order() {
    let jobs = mixed_jobs();

    // 4 workers, all jobs submitted concurrently from separate connections
    let concurrent = {
        let service =
            PlacementService::start(ServiceConfig { workers: 4, ..ServiceConfig::default() })
                .expect("service starts");
        let addr = service.local_addr();
        let handles: Vec<_> = jobs
            .iter()
            .cloned()
            .map(|spec| {
                std::thread::spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("connects");
                    client.place(&spec).expect("round-trips")
                })
            })
            .collect();
        let responses: Vec<_> = handles.into_iter().map(|h| h.join().expect("no panic")).collect();
        service.shutdown();
        service.join();
        responses
    };

    // 1 worker, same jobs submitted serially in reverse order
    let serial = {
        let service =
            PlacementService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() })
                .expect("service starts");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
        let mut responses: Vec<_> =
            jobs.iter().rev().map(|spec| client.place(spec).expect("round-trips")).collect();
        responses.reverse();
        service.shutdown();
        service.join();
        responses
    };

    for ((job, concurrent), serial) in jobs.iter().zip(&concurrent).zip(&serial) {
        assert!(concurrent.is_ok() && serial.is_ok(), "{job:?}");
        assert_eq!(concurrent.seed, serial.seed, "{job:?}");
        let a = concurrent.report.as_deref().expect("report");
        let b = serial.report.as_deref().expect("report");
        assert_eq!(a, b, "report bodies must be byte-identical for {job:?}");
        assert!(a.contains("\"wall_ms\": null"), "service reports carry no timings");
    }
}

#[test]
fn repeat_requests_hit_the_cache_with_identical_bodies() {
    let service = PlacementService::start(ServiceConfig { workers: 2, ..ServiceConfig::default() })
        .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    let spec = JobSpec::bundled("miller_opamp_fig6").with_seed(42).with_restarts(2).with_fast(true);
    let first = client.place(&spec).expect("round-trips");
    let second = client.place(&spec).expect("round-trips");
    assert!(first.is_ok() && !first.cache_hit);
    assert!(second.is_ok() && second.cache_hit, "identical resubmission must be served from cache");
    assert_eq!(first.report, second.report, "cached body is the original, byte for byte");

    // a different seed is a different cache key
    let third = client.place(&spec.clone().with_seed(43)).expect("round-trips");
    assert!(third.is_ok() && !third.cache_hit);
    assert_ne!(first.report, third.report);

    // …and so is a different config with the same seed
    let fourth = client.place(&spec.with_restarts(1)).expect("round-trips");
    assert!(fourth.is_ok() && !fourth.cache_hit);

    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"jobs_completed\":4"), "{stats}");
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");

    service.shutdown();
    service.join();
}

#[test]
fn inline_and_bundled_sources_share_cache_entries() {
    // The cache keys on canonical circuit content, not on how it was sent:
    // an inline copy of a bundled circuit hits the bundled run's entry,
    // whether it is sent canonical (resolved by its bytes once interned) or
    // hand-edited (parsed, then resolved to the same canonical text).
    let service = PlacementService::start(ServiceConfig::default()).expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    let job = |spec: JobSpec| {
        spec.with_seed(8)
            .with_restarts(1)
            .with_engines([PortfolioEngine::SequencePair])
            .with_fast(true)
    };
    let canonical = serialize_circuit(&benchmarks::comparator_v2());
    let hand_edited = format!(
        "# comparator, hand-edited\n\n{}\n\n",
        canonical.replace("module ", "module   ").replace('\n', "  \n# spacer\n")
    );
    assert_ne!(hand_edited, canonical);

    let first = client.place(&job(JobSpec::bundled("comparator_v2"))).expect("round-trips");
    assert!(first.is_ok() && !first.cache_hit);
    // the canonical copy twice: parsed and interned, then found by its bytes
    let sources = [
        JobSpec::inline(canonical.clone()),
        JobSpec::inline(hand_edited),
        JobSpec::inline(canonical),
    ];
    for spec in sources {
        let response = client.place(&job(spec)).expect("round-trips");
        assert!(response.is_ok() && response.cache_hit, "same canonical circuit, same cache entry");
        assert_eq!(first.report, response.report);
    }

    // one solved miss, counted once although the reactor probed it and the
    // worker re-checked it; one insertion: resolving inline circuits adds no
    // cache insertions
    let stats = Json::parse(&client.stats().expect("stats")).expect("stats parse");
    let cache = stats.get("cache").expect("cache stats");
    let count = |field: &str| cache.get(field).and_then(Json::as_u64).expect(field);
    assert_eq!((count("hits"), count("misses"), count("insertions")), (3, 1, 1), "{stats:?}");
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(3));

    service.shutdown();
    service.join();
}

/// `submit` refuses a weight the cost function cannot use before it
/// connects, with the message a local run gives: the request line it would
/// send is never written.
#[test]
fn submit_refuses_a_non_finite_weight_before_connecting() {
    for weight in ["nan", "inf", "-1"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_apls"))
            .args(["submit", "--addr", "127.0.0.1:9", "-c", "miller_opamp_fig6"])
            .args(["--wirelength-weight", weight])
            .output()
            .expect("apls runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{weight}: {stderr}");
        assert!(
            stderr.contains("--wirelength-weight must be finite and non-negative"),
            "{weight}: {stderr}"
        );
    }
}
