//! The production observability surface (DESIGN.md §14): the Prometheus
//! sidecar must expose honest metrics without becoming a second stateful
//! protocol, readiness must track recovery and queue pressure, and the
//! always-on flight recorder must produce a parseable dump after the exact
//! failures it exists for — worker panics and hard kills.

use analog_layout_synthesis::service::json::Json;
use analog_layout_synthesis::service::{
    FaultPlan, JobSpec, PlacementService, ServiceClient, ServiceConfig,
};
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// A fresh flight-recorder path under a per-test temp directory.
struct TempDump {
    dir: PathBuf,
    path: PathBuf,
}

impl TempDump {
    fn new(tag: &str) -> TempDump {
        let dir =
            std::env::temp_dir().join(format!("apls-observability-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("flight.jsonl");
        TempDump { dir, path }
    }
}

impl Drop for TempDump {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One blocking HTTP/1.1 GET against the sidecar; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("sidecar accepts");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Sends `request` in one write and returns every byte the server sends
/// back before it closes the connection. A reset after the answer (the
/// server closed with request bytes still unread) ends the read like a
/// close does; the bytes received before it are kept.
fn http_raw(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("metrics listener accepts");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout sets");
    stream.write_all(request).expect("request writes");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset && !raw.is_empty() => break,
            Err(e) => panic!("response read failed after {} bytes: {e}", raw.len()),
        }
    }
    raw
}

#[test]
fn endpoint_responses_are_pinned_byte_for_byte() {
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = service.metrics_addr().expect("metrics listener bound");
    let get = |path: &str| {
        let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
        String::from_utf8(http_raw(addr, request.as_bytes())).expect("UTF-8 response")
    };
    let text = "Content-Type: text/plain; charset=utf-8\r\n";
    assert_eq!(
        get("/healthz"),
        format!("HTTP/1.1 200 OK\r\n{text}Content-Length: 3\r\nConnection: close\r\n\r\nok\n")
    );
    assert_eq!(
        get("/readyz"),
        format!("HTTP/1.1 200 OK\r\n{text}Content-Length: 6\r\nConnection: close\r\n\r\nready\n")
    );
    assert_eq!(
        get("/nope"),
        format!(
            "HTTP/1.1 404 Not Found\r\n{text}Content-Length: 10\r\nConnection: close\r\n\r\nnot found\n"
        )
    );
    let post = http_raw(addr, b"POST / HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(
        String::from_utf8(post).expect("UTF-8 response"),
        format!(
            "HTTP/1.1 400 Bad Request\r\n{text}Content-Length: 12\r\nConnection: close\r\n\r\nbad request\n"
        )
    );

    // the exposition's numbers move, so pin its head and its framing
    let metrics = get("/metrics");
    let (head, body) = metrics.split_once("\r\n\r\n").expect("head and body");
    let mut head_lines = head.split("\r\n");
    assert_eq!(head_lines.next(), Some("HTTP/1.1 200 OK"));
    assert_eq!(head_lines.next(), Some("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
    assert_eq!(head_lines.next(), Some(format!("Content-Length: {}", body.len()).as_str()));
    assert_eq!(head_lines.next(), Some("Connection: close"));
    assert_eq!(head_lines.next(), None);
    assert!(body.starts_with("# "), "{body}");
    assert!(body.contains("apls_build_info{"), "{body}");

    service.shutdown();
    service.join();
}

/// A GET whose reads give up after `timeout`: `Err` when no complete
/// answer arrives in time, else its status.
fn http_get_within(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    raw.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("no status line in {raw:?}")))
}

/// One peer dribbling a request head with no newline must not hold up any
/// other scrape, any job request or the shutdown: every connection is the
/// reactor's, and none of them is read with a blocking call.
#[test]
fn a_slow_metrics_peer_wedges_no_scrape_no_job_and_no_shutdown() {
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let metrics_addr = service.metrics_addr().expect("metrics listener bound");

    // one byte every 200 ms, never a newline; it stops after 10 s (or as
    // soon as the test ends), so a failing run still finishes. It connects
    // first, so the listener accepts it before every client below.
    let mut slow = TcpStream::connect(metrics_addr).expect("slow peer connects");
    let (stop, stopped) = mpsc::channel::<()>();
    let dribbler = std::thread::spawn(move || {
        let end = Instant::now() + Duration::from_secs(10);
        while Instant::now() < end && slow.write_all(b"G").is_ok() {
            if stopped.recv_timeout(Duration::from_millis(200)) != Err(RecvTimeoutError::Timeout) {
                break;
            }
        }
    });

    for path in ["/healthz", "/metrics"] {
        let status = http_get_within(metrics_addr, path, Duration::from_secs(1))
            .unwrap_or_else(|e| panic!("{path} got no answer within 1 s beside a slow peer: {e}"));
        assert_eq!(status, 200, "{path}");
    }
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let pong = client.ping().expect("ping answers beside a slow peer");
    assert!(pong.contains("\"status\":\"ok\""), "{pong}");

    service.shutdown();
    let (joined, join_done) = mpsc::channel();
    std::thread::spawn(move || {
        service.join();
        let _ = joined.send(());
    });
    let join = join_done.recv_timeout(Duration::from_secs(2));
    drop(stop);
    dribbler.join().expect("dribbler exits");
    assert!(join.is_ok(), "shutdown + join took over 2 s while a slow peer held a connection");
}

#[test]
fn a_metrics_peer_beyond_the_connection_limit_gets_503() {
    let service = PlacementService::start(ServiceConfig {
        max_connections: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let metrics_addr = service.metrics_addr().expect("metrics listener bound");
    let mut holder = ServiceClient::connect(service.local_addr()).expect("connects");
    // the job connection holds the one slot before the scrape arrives
    assert!(holder.ping().expect("serves").contains("\"status\":\"ok\""));

    let raw = http_raw(metrics_addr, b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    let raw = String::from_utf8(raw).expect("UTF-8 response");
    let refusal = "{\"status\":\"error\",\"kind\":\"overloaded\",\"error\":\"connection limit reached, retry later\"}\n";
    assert_eq!(
        raw,
        format!(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{refusal}",
            refusal.len()
        )
    );

    holder.shutdown().expect("acknowledged");
    service.join();
}

#[test]
fn an_oversized_request_head_gets_400_and_the_connection_closes() {
    let service = PlacementService::start(ServiceConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let metrics_addr = service.metrics_addr().expect("metrics listener bound");
    let request = format!("GET /{} HTTP/1.1\r\nHost: test\r\n\r\n", "a".repeat(9 * 1024));
    // http_raw returns only once the server has closed the connection
    let raw = String::from_utf8(http_raw(metrics_addr, request.as_bytes())).expect("UTF-8");
    assert!(raw.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{raw}");
    assert!(raw.ends_with("\r\n\r\nbad request\n"), "{raw}");

    // a scrape is not a protocol request
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"requests_total\":1,"), "{stats}");
    assert!(stats.contains("\"errors_total\":0,"), "{stats}");

    service.shutdown();
    service.join();
}

/// Every complete line of a flight-recorder file must round-trip through the
/// service's own JSON parser; a final torn line (no trailing newline) is
/// tolerated because a hard kill can cut the last write short.
fn assert_dump_parses(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).expect("dump file readable");
    let complete = match text.strip_suffix('\n') {
        Some(whole) => whole,
        None => text.rsplit_once('\n').map_or("", |(head, _torn)| head),
    };
    let mut events = 0;
    for line in complete.lines() {
        let event = Json::parse(line).unwrap_or_else(|e| panic!("bad dump line {line:?}: {e}"));
        assert!(event.get("name").and_then(Json::as_str).is_some(), "unnamed event: {line}");
        assert!(event.get("cat").and_then(Json::as_str).is_some(), "uncategorised event: {line}");
        events += 1;
    }
    events
}

#[test]
fn metrics_sidecar_serves_exposition_health_and_readiness() {
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let sidecar = service.metrics_addr().expect("sidecar bound");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let spec = JobSpec::bundled("miller_opamp_fig6").with_seed(7).with_restarts(1).with_fast(true);
    assert!(client.place(&spec).expect("solves").is_ok());

    let (status, body) = http_get(sidecar, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE apls_requests_total counter"), "{body}");
    assert!(body.contains("apls_build_info{"), "{body}");
    assert!(body.contains("apls_uptime_seconds"), "{body}");
    assert!(body.contains("apls_total_ms_bucket{le=\"+Inf\"} 1"), "{body}");
    assert!(body.contains("apls_total_ms_count 1"), "{body}");

    let (status, body) = http_get(sidecar, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = http_get(sidecar, "/readyz");
    assert_eq!((status, body.as_str()), (200, "ready\n"));
    let (status, _) = http_get(sidecar, "/nope");
    assert_eq!(status, 404);

    // the stats reply carries the same readiness and uptime surface
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"ready\":true"), "{stats}");
    assert!(stats.contains("\"uptime_seconds\":"), "{stats}");

    service.shutdown();
    service.join();
}

/// `stats` and `/metrics` render one registry. With no traffic between the
/// two but the scrape itself, every counter and gauge of the `stats`
/// snapshot is the same-named `apls_` sample of the scrape, and the members
/// `stats` keeps beside the snapshot for older readers equal their registry
/// twins.
#[test]
fn stats_and_metrics_render_one_snapshot() {
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        cache_capacity: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let sidecar = service.metrics_addr().expect("metrics listener bound");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let job = |name| JobSpec::bundled(name).with_seed(7).with_restarts(1).with_fast(true);
    // two solves into a one-entry cache, so the second evicts the first,
    // then one hit on the entry left
    for (name, hit) in
        [("miller_opamp_fig6", false), ("comparator_v2", false), ("comparator_v2", true)]
    {
        let response = client.place(&job(name)).expect("round-trips");
        assert!(response.is_ok() && response.cache_hit == hit, "{name}: {response:?}");
    }

    let stats = Json::parse(&client.stats().expect("stats")).expect("stats is JSON");
    let (status, body) = http_get(sidecar, "/metrics");
    assert_eq!(status, 200);
    let scraped: HashMap<&str, i64> = body
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split_once(' '))
        .filter_map(|(name, value)| Some((name, value.parse().ok()?)))
        .collect();

    let Json::Obj(top) = &stats else { panic!("stats is an object: {stats:?}") };
    let keys: Vec<&str> = top.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, ["status", "ready", "jobs_completed", "cache_hits", "cache", "metrics"]);

    let metrics = stats.get("metrics").expect("snapshot");
    let mut snapshot = HashMap::new();
    for section in ["counters", "gauges"] {
        let Some(Json::Obj(series)) = metrics.get(section) else { panic!("no {section}") };
        for (name, value) in series {
            let Json::Num(text) = value else { panic!("{name} is not a number: {value:?}") };
            let value: i64 = text.parse().expect("integer sample");
            let sample = *scraped
                .get(format!("apls_{name}").as_str())
                .unwrap_or_else(|| panic!("/metrics lacks apls_{name}:\n{body}"));
            // The scrape is itself reactor traffic: its connection is live
            // and registered while the exposition renders, and accepting and
            // reading it wakes the reactor.
            let slack = match name.as_str() {
                "uptime_seconds" => -1..=1,
                "connections_active" | "poller_registered_fds" => 0..=1,
                "readiness_wakeups_total" => 0..=i64::MAX,
                _ => 0..=0,
            };
            assert!(slack.contains(&(sample - value)), "{name}: stats {value}, scrape {sample}");
            snapshot.insert(name.as_str(), value);
        }
    }
    let series = |name: &str| *snapshot.get(name).unwrap_or_else(|| panic!("no series {name}"));
    assert_eq!(series("cache_insertions_total"), 2);
    assert_eq!(series("cache_evictions_total"), 1);
    assert_eq!(series("cache_entries"), 1);
    assert_eq!(series("ready"), 1);

    // the compatibility members are the registry's figures
    let count = |member: Option<&Json>| member.and_then(Json::as_u64).expect("a count") as i64;
    assert_eq!(stats.get("ready").and_then(Json::as_bool), Some(series("ready") == 1));
    assert_eq!(count(stats.get("jobs_completed")), series("jobs_completed_total"));
    assert_eq!(count(stats.get("cache_hits")), series("cache_hits_total"));
    let insertions = stats.get("cache").and_then(|cache| cache.get("insertions"));
    assert_eq!(count(insertions), series("cache_insertions_total"));

    service.shutdown();
    service.join();
}

#[test]
fn readyz_goes_unready_while_the_queue_sits_at_high_water() {
    // One worker pinned on a slow job plus queue_capacity 1 puts the queue at
    // its high-water mark (max(1, 0.9 * 1) = 1) while the second job waits.
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 0,
        fault_plan: Some(FaultPlan::new().with_slow_solve(0, 800).with_slow_solve(1, 800)),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let sidecar = service.metrics_addr().expect("sidecar bound");
    let addr = service.local_addr();

    let submit = |seed: u64| {
        std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("connects");
            let spec = JobSpec::bundled("miller_opamp_fig6")
                .with_seed(seed)
                .with_restarts(1)
                .with_fast(true);
            client.place(&spec).expect("solves")
        })
    };
    let first = submit(1);
    // wait for the worker to own job 1 before queueing job 2, so the second
    // submission can never race job 1 for the single queue slot (a full
    // queue would answer `retry` instead of waiting at high-water)
    let mut stats_client = ServiceClient::connect(addr).expect("connects");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = stats_client.stats().expect("stats");
        if stats.contains("\"in_flight_jobs\":1") {
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never reached a worker: {stats}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let second = submit(2);

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut saw_unready = false;
    while Instant::now() < deadline {
        let (status, body) = http_get(sidecar, "/readyz");
        if status == 503 {
            assert_eq!(body, "job queue above high-water\n");
            saw_unready = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_unready, "readiness never dipped while the queue was full");

    assert!(first.join().expect("no panic").is_ok());
    assert!(second.join().expect("no panic").is_ok());
    let (status, _) = http_get(sidecar, "/readyz");
    assert_eq!(status, 200, "readiness must recover once the queue drains");

    service.shutdown();
    service.join();
}

#[test]
fn dump_op_writes_a_parseable_flight_recorder_file() {
    let dump = TempDump::new("dump-op");
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        flight_recorder_path: Some(dump.path.clone()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let spec = JobSpec::bundled("miller_opamp_fig6").with_seed(3).with_restarts(1).with_fast(true);
    assert!(client.place(&spec).expect("solves").is_ok());

    let reply = client.dump().expect("dump round-trips");
    let reply = Json::parse(&reply).expect("dump reply is JSON");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        reply.get("path").and_then(Json::as_str),
        Some(dump.path.to_str().expect("utf-8 path"))
    );
    let reported = reply.get("events").and_then(Json::as_usize).expect("event count");
    assert!(reported > 0, "an active service must have recorded events");
    assert_eq!(assert_dump_parses(&dump.path), reported);

    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"flight_dumps_total\":1"), "{stats}");

    service.shutdown();
    service.join();
}

#[test]
fn dump_op_without_a_recorder_answers_unavailable() {
    let service =
        PlacementService::start(ServiceConfig { flight_recorder: 0, ..ServiceConfig::default() })
            .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let reply = client.dump().expect("round-trips");
    assert!(reply.contains("\"kind\":\"unavailable\""), "{reply}");
    service.shutdown();
    service.join();
}

#[test]
fn a_worker_panic_dumps_the_flight_recorder() {
    let dump = TempDump::new("panic");
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        fault_plan: Some(FaultPlan::new().with_panic_job(0)),
        flight_recorder_path: Some(dump.path.clone()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let spec = JobSpec::bundled("miller_opamp_fig6").with_seed(5).with_restarts(1).with_fast(true);
    let response = client.place(&spec).expect("round-trips");
    assert!(!response.is_ok(), "job 0 is the sacrificial panic: {response:?}");

    assert!(dump.path.exists(), "a worker panic must leave a dump on disk");
    assert!(assert_dump_parses(&dump.path) > 0);
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"flight_dumps_total\":1"), "{stats}");

    service.shutdown();
    service.join();
}

/// A SIGKILL leaves no chance to dump, so the recorder's continuous spill
/// files must carry the story: every complete line parses, and a torn final
/// line is tolerated (each event is a single `write_all`, so only the very
/// last line can tear).
#[test]
fn sigkilled_daemon_leaves_a_parseable_spill_file() {
    let dump = TempDump::new("sigkill");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_apls"))
        .args(["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1"])
        .arg("--flight-recorder")
        .arg(&dump.path)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let stdout = child.stdout.take().expect("piped");
    let mut daemon_lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = daemon_lines.next().expect("daemon prints its address").expect("readable");
        if let Some(rest) = line.strip_prefix("apls service listening on ") {
            break rest.split_whitespace().next().expect("address").to_string();
        }
    };
    let drain = std::thread::spawn(move || while let Some(Ok(_)) = daemon_lines.next() {});

    let mut client = ServiceClient::connect(addr.as_str()).expect("connects");
    let spec = JobSpec::bundled("miller_opamp_fig6").with_seed(9).with_restarts(1).with_fast(true);
    assert!(client.place(&spec).expect("solves").is_ok());

    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();
    drain.join().expect("drain thread exits");

    let spill_a = {
        let mut os = dump.path.clone().into_os_string();
        os.push(".a");
        PathBuf::from(os)
    };
    assert!(spill_a.exists(), "the always-on recorder must have been spilling");
    let events = assert_dump_parses(&spill_a);
    assert!(events > 0, "the spill must carry the pre-kill service events");
}
