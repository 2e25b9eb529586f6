//! Throughput and saturation of the placement service: a 16-job batch of
//! small fast jobs round-tripped through TCP at 1, 4, and one-per-core
//! workers (distinct seeds, cache disabled — the full solve path), the
//! cache-hit fast path, the same 16-job batch over 4 connections at 2
//! workers (`service_saturation`), and the cache-hit round trip with
//! 64–4096 idle connections held open against the server
//! (`service_held_open`) — the reactor holds them all in one thread. Divide
//! batch times by 16 for the per-job cost; jobs/sec is its inverse.

use apls_portfolio::PortfolioEngine;
use apls_service::{JobSpec, JournalConfig, PlacementService, ServiceClient, ServiceConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BATCH: usize = 16;

fn spec_with_seed(seed: u64) -> JobSpec {
    JobSpec::bundled("miller_opamp_fig6")
        .with_seed(seed)
        .with_restarts(1)
        .with_engines([PortfolioEngine::SequencePair])
        .with_fast(true)
}

/// Round-trips exactly `BATCH` jobs through the service over `connections`
/// parallel client connections (the remainder spreads over the first
/// connections, so the per-job arithmetic in `BENCH_service.json` stays
/// honest on core counts that do not divide `BATCH`).
fn run_batch(addr: SocketAddr, connections: usize, seeds: &AtomicU64) {
    std::thread::scope(|scope| {
        for i in 0..connections {
            let share = BATCH / connections + usize::from(i < BATCH % connections);
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connects");
                for _ in 0..share {
                    let seed = seeds.fetch_add(1, Ordering::Relaxed);
                    let response = client.place(&spec_with_seed(seed)).expect("round-trips");
                    assert!(response.is_ok(), "{:?}", response.error);
                }
            });
        }
    });
}

fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("service_{BATCH}_jobs"));
    group.sample_size(4);
    let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut worker_counts = vec![1usize, 4, auto];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    // fresh seeds per job so every request takes the full solve path
    let seeds = AtomicU64::new(1);
    for workers in worker_counts {
        let service = PlacementService::start(ServiceConfig {
            workers,
            queue_capacity: BATCH * 2,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let addr = service.local_addr();
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &workers| {
            b.iter(|| run_batch(addr, workers.min(BATCH), &seeds));
        });
        service.shutdown();
        service.join();
    }
    group.finish();
}

fn bench_cache_hit_path(c: &mut Criterion) {
    // The durability tax on the fastest path: a journaled cache hit appends
    // (and fsyncs, per policy) an enqueue + complete record pair before
    // answering. `round_trip` is the everything-off baseline; the journal
    // variants price per-record fsync against 5ms group commit, and the
    // flight-recorder variant prices the always-on telemetry ring that is
    // the default in production (gated in CI alongside `round_trip`).
    let journal_dir =
        std::env::temp_dir().join(format!("apls-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("temp dir");
    let variants: [(&str, Option<JournalConfig>, usize); 4] = [
        ("round_trip", None, 0),
        ("round_trip_flight_recorder", None, apls_service::DEFAULT_FLIGHT_RECORDER_CAPACITY),
        (
            "round_trip_journal_fsync_each",
            Some(JournalConfig::new(journal_dir.join("fsync_each.jsonl"))),
            0,
        ),
        (
            "round_trip_journal_batched_5ms",
            Some(
                JournalConfig::new(journal_dir.join("batched.jsonl"))
                    .with_batched_sync(Duration::from_millis(5)),
            ),
            0,
        ),
    ];
    let mut group = c.benchmark_group("service_cache_hit");
    group.sample_size(8);
    for (name, journal, flight_recorder) in variants {
        let service = PlacementService::start(ServiceConfig {
            journal,
            flight_recorder,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
        let spec = spec_with_seed(0xCAFE);
        // prime the cache once; every timed request is then a pure cache hit
        assert!(!client.place(&spec).expect("round-trips").cache_hit);
        group.bench_function(name, |b| {
            b.iter(|| {
                let response = client.place(&spec).expect("round-trips");
                assert!(response.cache_hit);
            });
        });
        service.shutdown();
        service.join();
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Jobs/sec at saturation: the same 16-job batch over 4 concurrent
/// connections, cache off, so every request runs the full solve path
/// through the reactor. `16 / (ns_per_iter * 1e-9)` is the sustained
/// jobs/sec.
fn bench_saturation(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_saturation");
    group.sample_size(4);
    let seeds = AtomicU64::new(0x5EED_0000);
    let service = PlacementService::start(ServiceConfig {
        workers: 2,
        queue_capacity: BATCH * 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let addr = service.local_addr();
    group.bench_with_input(BenchmarkId::new("connections", 4), &4usize, |b, &connections| {
        b.iter(|| run_batch(addr, connections, &seeds));
    });
    service.shutdown();
    service.join();
    group.finish();
}

/// Cache-hit round-trip latency while N idle connections are held open
/// against the server; the reactor keeps every idle socket as a registered
/// fd in one thread.
fn bench_held_open_connections(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_held_open");
    group.sample_size(8);
    for held in [64usize, 256, 1024, 4096] {
        let service = PlacementService::start(ServiceConfig {
            max_connections: 8192,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let addr = service.local_addr();
        let idle: Vec<TcpStream> =
            (0..held).map(|_| TcpStream::connect(addr).expect("held connection")).collect();
        let mut client = ServiceClient::connect(addr).expect("connects");
        let spec = spec_with_seed(0xBEEF);
        // prime once; every timed round trip is then a pure cache hit
        assert!(!client.place(&spec).expect("round-trips").cache_hit);
        group.bench_with_input(BenchmarkId::new("held", held), &held, |b, _| {
            b.iter(|| {
                let response = client.place(&spec).expect("round-trips");
                assert!(response.cache_hit);
            });
        });
        drop(idle);
        service.shutdown();
        service.join();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_service_throughput,
    bench_cache_hit_path,
    bench_saturation,
    bench_held_open_connections
);
criterion_main!(benches);
