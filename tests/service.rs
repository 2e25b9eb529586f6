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
    let counters = stats.get("metrics").and_then(|m| m.get("counters")).expect("counters");
    let count = |field: &str| counters.get(field).and_then(Json::as_u64).expect(field);
    assert_eq!(
        (count("cache_hits_total"), count("cache_misses_total"), count("cache_insertions_total")),
        (3, 1, 1),
        "{stats:?}"
    );
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(3));

    service.shutdown();
    service.join();
}

/// Runs `apls` with `args` and returns its exit code and stderr.
fn apls(args: &[&str]) -> (Option<i32>, String) {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_apls"))
        .args(args)
        .output()
        .expect("apls runs");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

/// Every range rule of a job is one rule, whichever way the job arrives: a
/// `place` request is refused by `JobSpec::from_json`, `apls submit` exits 2
/// before it connects (the address is a closed port, so a connection
/// attempt would say "cannot connect" instead), and a local run exits 2, all
/// with the service's wording.
#[test]
fn every_job_rule_refuses_alike_on_the_wire_in_submit_and_in_a_local_run() {
    // (CLI options, none where the CLI cannot say it; the request field with
    // the same value; whether a local run takes the options; the message)
    let rows: [(&[&str], Option<&str>, bool, &str); 11] = [
        (&["--restarts", "0"], Some(r#""restarts":0"#), true, "'restarts' must be at least 1"),
        (&["--plateau", "0"], Some(r#""plateau":0"#), true, "'plateau' must be at least 1"),
        (
            &["--hier-anneal-threshold", "0"],
            Some(r#""hier_anneal_threshold":0"#),
            true,
            "'hier_anneal_threshold' must be at least 1",
        ),
        // a deadline is a service matter: the local run has no such option
        (
            &["--deadline-ms", "0"],
            Some(r#""deadline_ms":0"#),
            false,
            "'deadline_ms' must be at least 1",
        ),
        // JSON has no NaN literal: a NaN weight goes out as null, which the
        // decoder refuses as not a number (see the protocol unit tests)
        (&["-w", "nan"], None, true, "'wirelength_weight' must be finite and non-negative"),
        (
            &["-w", "inf"],
            Some(r#""wirelength_weight":1e999"#),
            true,
            "'wirelength_weight' must be finite and non-negative",
        ),
        (
            &["-w", "-1"],
            Some(r#""wirelength_weight":-1"#),
            true,
            "'wirelength_weight' must be finite and non-negative",
        ),
        // the CLI also accepts "portfolio", so its list of names is longer
        (&["-e", "warp"], Some(r#""engines":["warp"]"#), true, "unknown engine 'warp'"),
        // the CLI names one engine or all of them, so only a request can
        // repeat one
        (&[], Some(r#""engines":["hier","hier"]"#), false, "duplicate engine 'hier'"),
        // client-side rules of `submit` alone
        (
            &["--stream", "--retries", "2"],
            None,
            false,
            "--retries cannot be combined with --stream",
        ),
        (&["--retries", "0"], None, false, "--retries must be at least 1"),
    ];
    for (args, request, local, message) in rows {
        if let Some(field) = request {
            let line = format!(r#"{{"op":"place","circuit":"miller_opamp_fig6",{field}}}"#);
            let err = JobSpec::from_json(&Json::parse(&line).expect("valid JSON")).unwrap_err();
            assert!(err.contains(message), "{line}: {err}");
        }

        if args.is_empty() {
            continue;
        }
        let submit =
            [&["submit", "--addr", "127.0.0.1:9", "-c", "miller_opamp_fig6"], args].concat();
        let (code, stderr) = apls(&submit);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");

        if local {
            let (code, stderr) = apls(&[&["-c", "miller_opamp_fig6", "--fast"], args].concat());
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains(message), "{args:?}: {stderr}");
        }
    }

    // the same submit with every option valid gets as far as connecting,
    // and a failed connection is a failed run, not a refused command line
    let (code, stderr) = apls(&["submit", "--addr", "127.0.0.1:9", "-c", "miller_opamp_fig6"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot connect to 127.0.0.1:9"), "{stderr}");

    let mut spec = JobSpec::bundled("miller_opamp_fig6");
    spec.wirelength_weight = Some(f64::NAN);
    assert_eq!(spec.check().unwrap_err(), "'wirelength_weight' must be finite and non-negative");
}
