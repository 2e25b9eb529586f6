//! Fault-injection matrix for the placement service: deterministic
//! [`FaultPlan`]s degrade the daemon at pinned points — worker panics,
//! forced-slow solves, dropped connections — and the service must keep
//! serving, answer the affected jobs with typed envelopes, count every
//! fault, and preserve the determinism contract for everything else.

use analog_layout_synthesis::service::json::Json;
use analog_layout_synthesis::service::{
    FaultPlan, JobSpec, PlacementService, RetryPolicy, ServiceClient, ServiceConfig,
};
use std::time::Duration;

fn fast_spec(circuit: &str, seed: u64) -> JobSpec {
    JobSpec::bundled(circuit).with_seed(seed).with_restarts(1).with_fast(true)
}

/// The report a healthy, fault-free service produces for `spec` — the
/// reference every degraded run is compared against.
fn reference_report(spec: &JobSpec) -> String {
    let service = PlacementService::start(ServiceConfig::default()).expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let response = client.place(spec).expect("round-trips");
    assert!(response.is_ok());
    service.shutdown();
    service.join();
    response.report.expect("report")
}

#[test]
fn a_worker_panic_is_isolated_answered_and_counted() {
    // Job index 0 panics mid-solve; the same worker must go on to solve the
    // next job, and the resubmitted spec (now index 1+) must match a clean
    // service byte for byte.
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        fault_plan: Some(FaultPlan::new().with_panic_job(0)),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    let spec = fast_spec("miller_opamp_fig6", 11);
    let failed = client.place(&spec).expect("the envelope still round-trips");
    assert_eq!(failed.status, "error", "{failed:?}");
    assert_eq!(failed.kind.as_deref(), Some("internal"), "{failed:?}");
    assert!(failed.report.is_none());

    let healed = client.place(&spec).expect("round-trips");
    assert!(healed.is_ok(), "the worker must survive the panic: {healed:?}");
    assert_eq!(healed.report.as_deref(), Some(reference_report(&spec).as_str()));

    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"worker_panics_total\":1"), "{stats}");

    service.shutdown();
    service.join();
}

#[test]
fn deadlines_time_out_slow_jobs_and_never_touch_the_cache_key() {
    // An injected 30s solve against a 50ms deadline must answer `timeout`
    // (cooperative cancellation, not 30s later), and a generous deadline on
    // an identical spec must still share the no-deadline cache entry.
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        fault_plan: Some(FaultPlan::new().with_slow_solve(0, 200)),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    let spec = fast_spec("folded_cascode", 5);
    let timed_out =
        client.place(&spec.clone().with_deadline_ms(50)).expect("the envelope round-trips");
    assert!(timed_out.is_timeout(), "{timed_out:?}");
    assert_eq!(timed_out.kind.as_deref(), Some("deadline"), "{timed_out:?}");

    // job 1 has no injected latency: solves normally, no deadline
    let computed = client.place(&spec).expect("round-trips");
    assert!(computed.is_ok() && !computed.cache_hit, "{computed:?}");

    // deadline_ms is excluded from the cache key: the deadlined resubmission
    // must be a cache hit with the byte-identical report
    let cached = client.place(&spec.clone().with_deadline_ms(60_000)).expect("round-trips");
    assert!(cached.is_ok() && cached.cache_hit, "{cached:?}");
    assert_eq!(cached.report, computed.report);

    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"timeouts_total\":1"), "{stats}");

    service.shutdown();
    service.join();
}

#[test]
fn dropped_connections_are_counted_and_the_next_one_serves() {
    let service = PlacementService::start(ServiceConfig {
        fault_plan: Some(FaultPlan::new().with_drop_connection(0)),
        ..ServiceConfig::default()
    })
    .expect("service starts");

    // accepted connection #0 is dropped on the floor: the client sees EOF
    // (or a reset) instead of a ping response
    let mut doomed = ServiceClient::connect(service.local_addr()).expect("tcp connects");
    assert!(doomed.ping().is_err(), "connection 0 must be dropped");

    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    assert!(client.ping().expect("connection 1 serves").contains("\"status\":\"ok\""));
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"connections_dropped_total\":1"), "{stats}");

    service.shutdown();
    service.join();
}

#[test]
fn a_saturated_queue_answers_retry_and_place_with_retry_rides_it_out() {
    // One worker pinned down by a 400ms injected solve, a queue of depth 1:
    // the first job occupies the worker, a streamed second job fills the
    // queue, the third must be refused with `retry` — on the stream and on
    // a plain line alike — and a retrying client must eventually land it.
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        fault_plan: Some(FaultPlan::new().with_slow_solve(0, 400)),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = service.local_addr();
    let connect = || ServiceClient::connect(addr).expect("connects");
    let (mut client, mut slow, mut stream) = (connect(), connect(), connect());

    slow.send_line(&fast_spec("miller_opamp_fig6", 1).to_json_line()).expect("sends");
    // let the slow job reach the worker before filling the queue behind it
    std::thread::sleep(Duration::from_millis(100));
    let refused_spec = fast_spec("comparator_v2", 3);
    stream.send_line(&fast_spec("miller_v2", 2).with_stream(1).to_json_line()).expect("sends");
    stream.send_line(&refused_spec.clone().with_stream(2).to_json_line()).expect("sends");
    let mut lines = frames_until_report(&mut stream, 2);
    let retry = r#""status":"retry","error":"job queue full, retry later"}"#;
    assert_eq!(lines[lines.len() - 1], format!("{{\"frame\":\"report\",\"id\":2,{retry}"));
    lines.push(client.request_line(&refused_spec.to_json_line()).expect("answers"));
    assert_eq!(lines[lines.len() - 1], format!("{{{retry}"), "a full queue must answer retry");

    // bounded backoff with deterministic jitter outlasts the 400ms clog
    let policy = RetryPolicy {
        max_attempts: 10,
        base: Duration::from_millis(100),
        cap: Duration::from_millis(400),
        jitter_seed: 7,
    };
    let landed = ServiceClient::place_with_retry(addr, &refused_spec, &policy)
        .expect("retries must eventually land");
    assert!(landed.is_ok(), "{landed:?}");
    assert!(landed.attempts >= 1);

    // the clogging job and the streamed job behind it both complete
    lines.push(slow.read_line().expect("reads"));
    assert!(lines[lines.len() - 1].starts_with(r#"{"id":0,"status":"ok","#));
    lines.extend(frames_until_report(&mut stream, 1));
    assert!(
        lines[lines.len() - 1].starts_with(r#"{"frame":"report","id":1,"job":1,"status":"ok","#)
    );
    // every refused attempt of the retrying client was one more retry
    let mut expected = tally(&lines);
    expected[1] += u64::from(landed.attempts - 1);
    assert_eq!(counters(&mut client), expected, "{lines:?}");

    service.shutdown();
    service.join();
}

#[test]
fn the_connection_limit_refuses_with_an_error_line() {
    let service =
        PlacementService::start(ServiceConfig { max_connections: 1, ..ServiceConfig::default() })
            .expect("service starts");

    let mut first = ServiceClient::connect(service.local_addr()).expect("connects");
    // ensure the first handler is registered before probing the limit
    assert!(first.ping().expect("serves").contains("\"status\":\"ok\""));

    let mut refused = ServiceClient::connect(service.local_addr()).expect("tcp connects");
    // the service writes the refusal line without reading a request, then
    // closes; request_line surfaces either the line or the hangup
    match refused.request_line("{\"op\":\"ping\"}") {
        Ok(line) => {
            assert!(line.contains("connection limit"), "{line}");
            assert!(line.starts_with("{\"status\":\"error\""), "{line}");
        }
        Err(e) => panic!("expected the refusal line, got {e}"),
    }

    // the slot frees once the first connection closes
    drop(first);
    for _ in 0..50 {
        let mut again = ServiceClient::connect(service.local_addr()).expect("tcp connects");
        if again.ping().is_ok_and(|line| line.contains("\"status\":\"ok\"")) {
            service.shutdown();
            service.join();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("connection slot never freed after the first client disconnected");
}

#[test]
fn oversized_requests_are_refused_and_the_connection_closed() {
    let service = PlacementService::start(ServiceConfig {
        max_request_bytes: 1024,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    // a small request still round-trips under the tiny cap
    assert!(client.ping().expect("serves").contains("\"status\":\"ok\""));

    let huge = format!("{{\"op\":\"place\",\"circuit\":\"{}\"}}", "x".repeat(4096));
    let line = client.request_line(&huge).expect("the refusal line arrives");
    assert!(line.starts_with("{\"status\":\"error\""), "{line}");
    assert!(line.contains("\"kind\":\"request_too_large\""), "{line}");

    // the contract says the connection closes after the refusal
    assert!(client.ping().is_err(), "connection must be closed after an oversized request");

    // a fresh connection is unaffected
    let mut fresh = ServiceClient::connect(service.local_addr()).expect("connects");
    assert!(fresh.ping().expect("serves").contains("\"status\":\"ok\""));

    service.shutdown();
    service.join();
}

#[test]
fn fault_runs_preserve_determinism_for_unaffected_jobs() {
    // A degraded service (panic on job 0, slow job 1, dropped connection 2)
    // must still answer every *unaffected* job byte-identically to a clean
    // service.
    let specs = [fast_spec("miller_opamp_fig6", 21), fast_spec("folded_cascode", 22)];
    let references: Vec<String> = specs.iter().map(reference_report).collect();

    let service = PlacementService::start(ServiceConfig {
        workers: 2,
        fault_plan: Some(
            FaultPlan::new().with_panic_job(0).with_slow_solve(1, 50).with_drop_connection(2),
        ),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    // job 0: sacrificial panic
    let sacrificial = client.place(&fast_spec("miller_v2", 20)).expect("envelope round-trips");
    assert_eq!(sacrificial.kind.as_deref(), Some("internal"));

    // job 1 runs slow but completes; job 2 is untouched
    for (spec, reference) in specs.iter().zip(&references) {
        let response = client.place(spec).expect("round-trips");
        assert!(response.is_ok(), "{response:?}");
        assert_eq!(response.report.as_deref(), Some(reference.as_str()), "{spec:?}");
    }

    service.shutdown();
    service.join();
}

/// Reads raw frames up to and including the report frame of stream `cid`.
fn frames_until_report(client: &mut ServiceClient, cid: u64) -> Vec<String> {
    let report = format!("{{\"frame\":\"report\",\"id\":{cid},");
    let mut frames = vec![client.read_line().expect("reads")];
    while !frames[frames.len() - 1].starts_with(&report) {
        frames.push(client.read_line().expect("reads"));
    }
    frames
}

/// The counters [`tally`] reconciles, from a `stats` reply. A fresh
/// service starts them at zero, and `stats` requests never move them.
fn counters(client: &mut ServiceClient) -> [u64; 4] {
    let stats = Json::parse(&client.stats().expect("stats")).expect("stats is JSON");
    let counters = stats.get("metrics").and_then(|m| m.get("counters")).expect("counters");
    ["errors_total", "retries_total", "timeouts_total", "frames_sent_total"]
        .map(|name| counters.get(name).and_then(Json::as_u64).expect(name))
}

/// Error, retry and timeout answers, and frames, among the lines a client
/// received.
fn tally(lines: &[String]) -> [u64; 4] {
    let json: Vec<Json> =
        lines.iter().map(|l| Json::parse(l).expect("every line is JSON")).collect();
    let count = |pred: &dyn Fn(&Json) -> bool| json.iter().filter(|j| pred(j)).count() as u64;
    let status = |s: &str| count(&|j| j.get("status").and_then(Json::as_str) == Some(s));
    [status("error"), status("retry"), status("timeout"), count(&|j| j.get("frame").is_some())]
}

/// A timeout and a worker panic, each sent plain (job 0) and then streamed
/// as `cid` 9 (job 1): both lines share one body behind their heads, and
/// the counters count exactly what the client received.
#[test]
fn plain_and_streamed_failures_share_one_body_and_are_counted_once() {
    let timeout = r#""status":"timeout","kind":"deadline","circuit":"folded_cascode","seed":5,"error":"deadline of 50 ms exceeded"}"#;
    let panic = r#""status":"error","kind":"internal","error":"placement worker panicked while solving this job; the service is still up"}"#;
    let cases = [
        (
            FaultPlan::new().with_slow_solve(0, 300).with_slow_solve(1, 300),
            fast_spec("folded_cascode", 5).with_deadline_ms(50),
            [r#""id":0,"#, r#""job":1,"#, timeout],
            [0, 0, 2, 3],
        ),
        // an error carries no job: each head is its tags alone
        (
            FaultPlan::new().with_panic_job(0).with_panic_job(1),
            fast_spec("miller_v2", 8),
            ["", "", panic],
            [2, 0, 0, 3],
        ),
    ];
    for (plan, spec, [plain_head, job, body], expected) in cases {
        let service = PlacementService::start(ServiceConfig {
            workers: 1,
            fault_plan: Some(plan),
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
        let mut lines = vec![client.request_line(&spec.to_json_line()).expect("answers")];
        client.send_line(&spec.clone().with_stream(9).to_json_line()).expect("sends");
        lines.extend(frames_until_report(&mut client, 9));
        assert_eq!(lines.len(), 4, "plain answer, accepted, queued, report: {lines:?}");
        assert_eq!(lines[0], format!("{{{plain_head}{body}"));
        assert!(lines[1].starts_with(r#"{"frame":"accepted","id":9,"job":1,"#), "{}", lines[1]);
        assert!(lines[2].starts_with(r#"{"frame":"queued","id":9,"#), "{}", lines[2]);
        assert_eq!(lines[3], format!("{{\"frame\":\"report\",\"id\":9,{job}{body}"));
        assert_eq!(tally(&lines), expected);
        assert_eq!(counters(&mut client), expected, "{lines:?}");
        service.shutdown();
        service.join();
    }
}
