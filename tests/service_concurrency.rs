//! Saturation and resource-bound tests for the service core: hundreds of
//! connections held open against the reactor with streamed jobs interleaved
//! among them (stats counters must reconcile), and ten thousand short-lived
//! connections whose poller slots must all be recycled.

use std::net::TcpStream;

use analog_layout_synthesis::portfolio::PortfolioEngine;
use analog_layout_synthesis::service::{
    JobSpec, PlacementService, ServiceClient, ServiceConfig, StreamFrame,
};

/// Extracts an integer metric/field value from the `stats` JSON by name.
/// Good enough for the flat `"name":123` shapes the stats envelope uses.
fn metric(stats: &str, name: &str) -> i64 {
    let needle = format!("\"{name}\":");
    let at = stats.find(&needle).unwrap_or_else(|| panic!("stats lacks {name}: {stats}"));
    let digits: String = stats[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().unwrap_or_else(|_| panic!("unparsable {name} in {stats}"))
}

/// 256 connections held open at once against the reactor; every 16th one
/// streams a real job while the rest sit idle. All jobs complete, and the
/// stats counters reconcile with what the clients observed.
#[test]
fn event_loop_holds_256_connections_with_interleaved_streaming() {
    const HELD: usize = 256;
    const STREAMERS: usize = 16;

    let service = PlacementService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = service.local_addr();

    let mut clients: Vec<ServiceClient> =
        (0..HELD).map(|_| ServiceClient::connect(addr).expect("connects")).collect();

    // Submit from every 16th connection first so the jobs run concurrently,
    // then collect each stream — frames interleave server-side while idle
    // connections stay registered.
    let mut submitted: Vec<(usize, u64)> = Vec::new();
    for i in (0..HELD).step_by(HELD / STREAMERS) {
        let spec = JobSpec::bundled("miller_opamp_fig6")
            .with_seed(1000 + i as u64)
            .with_restarts(1)
            .with_engines([PortfolioEngine::Deterministic])
            .with_fast(true);
        let id = clients[i].submit_streaming(&spec).expect("submits");
        submitted.push((i, id));
    }

    let mut frames_seen = 0u64;
    for (i, id) in &submitted {
        loop {
            let frame = clients[*i].read_frame().expect("complete frame");
            assert_eq!(frame.id(), *id, "connection {i} must only see its own stream");
            frames_seen += 1;
            if let StreamFrame::Report { response, .. } = frame {
                assert_eq!(response.status, "ok");
                assert!(!response.cache_hit, "seeds differ, so every job is a real solve");
                break;
            }
        }
    }

    let stats = clients[0].stats().expect("stats");
    assert_eq!(metric(&stats, "connections_active"), HELD as i64);
    assert_eq!(
        metric(&stats, "poller_registered_fds"),
        2 + HELD as i64,
        "listener + wake pipe + one fd per held connection"
    );
    assert_eq!(metric(&stats, "jobs_completed"), STREAMERS as i64);
    assert!(
        metric(&stats, "frames_sent_total") >= frames_seen as i64,
        "server counted fewer frames than clients received: {stats}"
    );
    assert_eq!(metric(&stats, "errors_total"), 0);
    assert_eq!(metric(&stats, "retries_total"), 0);
    assert!(metric(&stats, "readiness_wakeups_total") > 0);

    clients[0].shutdown().expect("acknowledged");
    drop(clients);
    service.join();
}

/// Connection churn: closed connections must leave the poller's fd table
/// (slots are recycled), so after 10k accept/close cycles only the listener,
/// the wake pipe and the one live stats connection remain registered.
#[test]
fn event_loop_recycles_slots_across_short_lived_connections() {
    let service = PlacementService::start(ServiceConfig::default()).expect("service starts");
    let addr = service.local_addr();

    // 100 batches of 100: batching amortizes the per-EOF scheduling
    // round-trip on one core while still churning 10k distinct connections.
    for _ in 0..100 {
        let batch: Vec<TcpStream> =
            (0..100).map(|_| TcpStream::connect(addr).expect("connects")).collect();
        drop(batch);
    }

    let mut client = ServiceClient::connect(addr).expect("connects");
    // The reactor processes the tail of hangups asynchronously; poll the
    // gauge until it settles instead of racing it.
    let mut fds = i64::MAX;
    for _ in 0..50 {
        fds = metric(&client.stats().expect("stats"), "poller_registered_fds");
        if fds <= 8 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    assert!(
        (3..=8).contains(&fds),
        "expected ~3 registered fds (listener, wake pipe, this connection), found {fds}"
    );

    client.shutdown().expect("acknowledged");
    service.join();
}
