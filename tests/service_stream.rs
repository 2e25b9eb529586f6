//! Streaming-protocol tests: tagged frames arrive in protocol order
//! (`accepted → queued → progress* → report`), concurrent streamed jobs on
//! one connection never interleave mid-line, and the streamed report body is
//! byte-identical to the blocking path for every bundled circuit.

use std::collections::HashMap;

use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::portfolio::PortfolioEngine;
use analog_layout_synthesis::service::{
    JobSpec, PlaceResponse, PlacementService, ServiceClient, ServiceConfig, StreamFrame,
};

fn start() -> PlacementService {
    PlacementService::start(ServiceConfig { workers: 2, ..ServiceConfig::default() })
        .expect("service starts")
}

/// A small pinned-seed job that still runs more than one restart, so the
/// stream carries real `progress` frames.
fn fast_spec(circuit: &str, seed: u64) -> JobSpec {
    JobSpec::bundled(circuit)
        .with_seed(seed)
        .with_restarts(2)
        .with_engines([PortfolioEngine::SequencePair])
        .with_fast(true)
}

/// Drives one streamed job and checks the full frame grammar.
#[test]
fn streamed_frames_arrive_in_order_event_loop() {
    let service = start();
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let spec = fast_spec("miller_opamp_fig6", 11);

    let mut frames: Vec<StreamFrame> = Vec::new();
    let response =
        client.place_streaming(&spec, |frame| frames.push(frame.clone())).expect("streams");

    assert!(frames.len() >= 2, "expected at least accepted + queued: {frames:?}");
    match &frames[0] {
        StreamFrame::Accepted { circuit, seed, .. } => {
            assert_eq!(
                Some(circuit.as_str()),
                response.circuit.as_deref(),
                "accepted frame and final envelope must echo the same circuit"
            );
            assert_eq!(*seed, 11, "pinned seed must be echoed in the accepted frame");
        }
        other => panic!("first frame must be accepted, got {other:?}"),
    }
    assert!(
        matches!(&frames[1], StreamFrame::Queued { .. }),
        "second frame must be queued, got {:?}",
        frames[1]
    );

    let mut last_completed = 0;
    for frame in &frames[2..] {
        match frame {
            StreamFrame::Progress { completed, total, cost, .. } => {
                assert!(
                    *completed > last_completed,
                    "progress frames must advance: {completed} after {last_completed}"
                );
                assert!(*completed <= *total, "completed {completed} exceeds total {total}");
                assert!(cost.is_finite());
                last_completed = *completed;
            }
            other => panic!("only progress frames may follow queued, got {other:?}"),
        }
    }
    assert!(last_completed >= 1, "a 2-restart job must stream at least one progress frame");

    assert_eq!(response.status, "ok");
    assert!(!response.cache_hit);
    assert!(response.report.is_some());

    client.shutdown().expect("acknowledged");
    service.join();
}

#[test]
fn cache_hit_streams_accepted_queued_report_without_progress() {
    let service = start();
    let addr = service.local_addr();
    let mut client = ServiceClient::connect(addr).expect("connects");
    let spec = fast_spec("folded_cascode", 3);

    let cold = client.place(&spec).expect("solves");
    assert!(!cold.cache_hit);

    let mut frames: Vec<StreamFrame> = Vec::new();
    let warm = client.place_streaming(&spec, |frame| frames.push(frame.clone())).expect("streams");

    assert!(warm.cache_hit, "second identical job must come from the cache");
    assert_eq!(warm.report, cold.report, "cache must serve the identical report body");
    assert_eq!(frames.len(), 2, "a cache hit streams exactly accepted + queued: {frames:?}");
    assert!(matches!(&frames[0], StreamFrame::Accepted { .. }));
    match &frames[1] {
        StreamFrame::Queued { depth, .. } => {
            assert_eq!(*depth, 0, "a cache hit never consumes a queue slot")
        }
        other => panic!("expected queued frame, got {other:?}"),
    }

    client.shutdown().expect("acknowledged");
    service.join();
}

/// Several streamed jobs pipelined on ONE connection: frames for different
/// jobs may interleave at line granularity, but every line must parse as a
/// complete frame (no mid-line interleaving) and each job's own frames must
/// respect the grammar.
#[test]
fn pipelined_streams_on_one_connection_interleave_only_at_line_boundaries() {
    let service = start();
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    let circuits = ["miller_opamp_fig6", "comparator_v2", "buffer", "biasynth"];
    let mut stage: HashMap<u64, u8> = HashMap::new();
    for (i, name) in circuits.iter().enumerate() {
        let id = client.submit_streaming(&fast_spec(name, 20 + i as u64)).expect("submits");
        stage.insert(id, 0);
    }

    let mut reports: Vec<PlaceResponse> = Vec::new();
    while reports.len() < circuits.len() {
        // `read_frame` fails on any line that is not one complete frame, so
        // mid-line interleaving cannot sneak past this loop.
        let frame = client.read_frame().expect("every line is a complete frame");
        let id = frame.id();
        let at = *stage.get(&id).expect("frame for a job this connection submitted");
        match frame {
            StreamFrame::Accepted { .. } => {
                assert_eq!(at, 0, "accepted must be job {id}'s first frame");
                stage.insert(id, 1);
            }
            StreamFrame::Queued { .. } => {
                assert_eq!(at, 1, "queued must directly follow accepted for job {id}");
                stage.insert(id, 2);
            }
            StreamFrame::Progress { .. } => {
                assert_eq!(at, 2, "progress may only follow queued for job {id}");
            }
            StreamFrame::Report { response, .. } => {
                assert_eq!(at, 2, "report must terminate job {id}'s stream");
                stage.insert(id, 3);
                reports.push(*response);
            }
        }
    }

    for response in &reports {
        assert_eq!(response.status, "ok");
        assert!(response.report.is_some());
    }

    client.shutdown().expect("acknowledged");
    service.join();
}

/// A second `place` carrying a stream id that is still in flight on the same
/// connection is refused with an error report frame, while the original job
/// still completes normally.
#[test]
fn duplicate_in_flight_stream_id_is_refused() {
    let service = start();
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");

    let first = fast_spec("miller_v2", 5).with_stream(7);
    let second = fast_spec("buffer", 6).with_stream(7);
    // One write so both lines land in the same read batch: the duplicate is
    // parsed while the first job is still pending.
    client
        .send_line(&format!("{}\n{}", first.to_json_line(), second.to_json_line()))
        .expect("sends");

    let mut errors = 0;
    let mut oks = 0;
    while errors + oks < 2 {
        if let StreamFrame::Report { id, response } = client.read_frame().expect("parses") {
            assert_eq!(id, 7);
            match response.status.as_str() {
                "error" => {
                    let message = response.error.as_deref().unwrap_or_default();
                    assert!(
                        message.contains("already in flight"),
                        "unexpected error message: {message}"
                    );
                    errors += 1;
                }
                "ok" => {
                    assert_eq!(response.circuit.as_deref(), Some("miller_v2"));
                    oks += 1;
                }
                other => panic!("unexpected report status {other}"),
            }
        }
    }
    assert_eq!((errors, oks), (1, 1));

    client.shutdown().expect("acknowledged");
    service.join();
}

/// The determinism contract survives the streaming path: for every bundled
/// circuit, a blocking solve and a streamed solve on two separate services
/// (separate caches, both cold) produce byte-identical report bodies.
#[test]
fn streamed_reports_are_byte_identical_to_blocking_on_all_bundled_circuits() {
    let blocking_service = start();
    let streaming_service = start();
    let mut blocking = ServiceClient::connect(blocking_service.local_addr()).expect("connects");
    let mut streaming = ServiceClient::connect(streaming_service.local_addr()).expect("connects");

    for (i, name) in benchmarks::names().iter().enumerate() {
        let spec = JobSpec::bundled(*name)
            .with_seed(100 + i as u64)
            .with_restarts(1)
            .with_engines([PortfolioEngine::Deterministic])
            .with_fast(true);

        let cold = blocking.place(&spec).expect("blocking solve");
        let streamed = streaming.place_streaming(&spec, |_| {}).expect("streamed solve");

        assert!(!cold.cache_hit && !streamed.cache_hit, "both caches start cold for {name}");
        assert_eq!(cold.seed, streamed.seed, "derived seed must match for {name}");
        assert_eq!(
            cold.report, streamed.report,
            "streamed report body must be byte-identical to blocking for {name}"
        );
    }

    blocking.shutdown().expect("acknowledged");
    streaming.shutdown().expect("acknowledged");
    blocking_service.join();
    streaming_service.join();
}
