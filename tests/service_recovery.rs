//! Crash-recovery contract of the placement service: a durable job journal
//! must make reports survive a restart — completed jobs are served from the
//! recovered store, incomplete jobs are re-solved with their recorded seeds,
//! and everything stays byte-identical to a service that never crashed.

use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::io::{canonical_hash, circuit_fingerprint};
use analog_layout_synthesis::service::json::quote;
use analog_layout_synthesis::service::{
    FaultPlan, JobSpec, JournalConfig, PlaceResponse, PlacementService, ServiceClient,
    ServiceConfig,
};
use std::io::BufRead;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A fresh journal path under a per-test temp directory (cleaned up by
/// [`TempJournal::drop`]).
struct TempJournal {
    dir: PathBuf,
    path: PathBuf,
}

impl TempJournal {
    fn new(tag: &str) -> TempJournal {
        let dir = std::env::temp_dir().join(format!("apls-recovery-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("journal.jsonl");
        TempJournal { dir, path }
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Every bundled circuit as a fast, unpinned-seed job — the service derives
/// each job's seed from its index, which is exactly what recovery must keep
/// stable across restarts.
fn bundled_specs() -> Vec<JobSpec> {
    benchmarks::names()
        .iter()
        .map(|name| JobSpec::bundled(name.to_string()).with_restarts(1).with_fast(true))
        .collect()
}

/// Runs `specs` in order on a fresh, journal-free service and returns the
/// responses — the never-crashed reference for byte-identity checks.
fn reference_run(specs: &[JobSpec]) -> Vec<PlaceResponse> {
    let service = PlacementService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() })
        .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let responses: Vec<PlaceResponse> = specs
        .iter()
        .map(|spec| {
            let response = client.place(spec).expect("round-trips");
            assert!(response.is_ok(), "{response:?}");
            response
        })
        .collect();
    service.shutdown();
    service.join();
    responses
}

/// Polls the restarted service until recovery finished replaying, bounded by
/// a generous timeout so a wedged replay fails loudly instead of hanging.
fn await_stat(client: &mut ServiceClient, needle: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().expect("stats");
        if stats.contains(needle) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {needle} in {stats}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn a_restart_on_the_same_journal_serves_completed_reports_byte_identically() {
    let journal = TempJournal::new("restart");
    let specs = bundled_specs();
    let reference = reference_run(&specs);

    // first life: journal on, all bundled circuits, derived seeds
    {
        let service = PlacementService::start(ServiceConfig {
            workers: 1,
            journal: Some(JournalConfig::new(&journal.path)),
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
        for (spec, reference) in specs.iter().zip(&reference) {
            let response = client.place(spec).expect("round-trips");
            assert!(response.is_ok(), "{response:?}");
            assert_eq!(response.seed, reference.seed, "derived seeds must match the reference");
            assert_eq!(response.report, reference.report, "journal-on must not change reports");
        }
        service.shutdown();
        service.join();
    }

    // second life: same journal; every pre-restart report must come from the
    // recovered store (cache_hit) and match the reference byte for byte
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        journal: Some(JournalConfig::new(&journal.path)),
        ..ServiceConfig::default()
    })
    .expect("service restarts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    {
        let stats = client.stats().expect("stats");
        assert!(
            stats.contains(&format!("\"jobs_recovered_total\":{}", specs.len())),
            "all completed jobs must be restored: {stats}"
        );
    }
    // job-index continuity first (every request below consumes an index): a
    // new unpinned job on the restarted service must derive the same seed
    // (and thus report) as job N on a never-crashed one
    let extra = JobSpec::bundled("miller_opamp_fig6").with_restarts(2).with_fast(true);
    let mut extended = specs.clone();
    extended.push(extra.clone());
    let extended_reference = reference_run(&extended);
    let continued = client.place(&extra).expect("round-trips");
    assert!(continued.is_ok(), "{continued:?}");
    let reference_extra = extended_reference.last().expect("reference");
    assert_eq!(continued.seed, reference_extra.seed, "job indices must continue, not restart");
    assert_eq!(continued.report, reference_extra.report);

    for (spec, reference) in specs.iter().zip(&reference) {
        let pinned = spec.clone().with_seed(reference.seed.expect("seed reported"));
        let response = client.place(&pinned).expect("round-trips");
        assert!(response.is_ok(), "{response:?}");
        assert!(response.cache_hit, "must be served from the recovered store: {response:?}");
        assert_eq!(response.report, reference.report, "{spec:?}");
    }

    service.shutdown();
    service.join();
}

#[test]
fn a_failed_completion_record_degrades_durability_not_service_and_replays() {
    let journal = TempJournal::new("journal-fault");
    let spec_a = JobSpec::bundled("folded_cascode").with_seed(9).with_restarts(1).with_fast(true);
    let spec_b = JobSpec::bundled("miller_v2").with_seed(10).with_restarts(1).with_fast(true);

    // first life: record 1 (job A's completion) fails to append — the job is
    // still answered, the failure is counted, and the journal is left with
    // an enqueue record but no completion for A
    let (report_a, report_b) = {
        let service = PlacementService::start(ServiceConfig {
            workers: 1,
            journal: Some(JournalConfig::new(&journal.path)),
            fault_plan: Some(FaultPlan::new().with_journal_fail(1)),
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
        let a = client.place(&spec_a).expect("round-trips");
        let b = client.place(&spec_b).expect("round-trips");
        assert!(a.is_ok() && b.is_ok(), "a journal fault must not fail the jobs");
        let stats = client.stats().expect("stats");
        assert!(stats.contains("\"journal_write_failures_total\":1"), "{stats}");
        service.shutdown();
        service.join();
        (a.report.expect("report"), b.report.expect("report"))
    };

    // second life: B restores from its completion record, A replays from its
    // enqueue record — and resolves to the byte-identical report
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        journal: Some(JournalConfig::new(&journal.path)),
        ..ServiceConfig::default()
    })
    .expect("service restarts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    await_stat(&mut client, "\"jobs_replayed_total\":1");
    await_stat(&mut client, "\"jobs_completed\":1");
    {
        let stats = client.stats().expect("stats");
        assert!(stats.contains("\"jobs_recovered_total\":1"), "{stats}");
    }
    let a = client.place(&spec_a).expect("round-trips");
    assert!(a.is_ok() && a.cache_hit, "replayed job must be in the recovered store: {a:?}");
    assert_eq!(a.report.as_deref(), Some(report_a.as_str()));
    let b = client.place(&spec_b).expect("round-trips");
    assert!(b.is_ok() && b.cache_hit, "{b:?}");
    assert_eq!(b.report.as_deref(), Some(report_b.as_str()));

    service.shutdown();
    service.join();
}

#[test]
fn a_complete_record_written_before_its_enqueue_restores_the_job() {
    // A fast worker can append a job's complete record before the reactor
    // appends its enqueue record; recovery must still restore the report
    // rather than re-solve the job.
    let journal = TempJournal::new("complete-first");
    let spec = JobSpec::bundled("miller_v2").with_seed(31).with_restarts(1).with_fast(true);
    let report = reference_run(std::slice::from_ref(&spec))[0].report.clone().expect("report");
    let complete = format!(
        "{{\"v\":1,\"type\":\"complete\",\"index\":0,\"report_fp\":{},\"report\":{}}}\n",
        canonical_hash(&report),
        quote(&report),
    );
    let enqueue = format!(
        "{{\"v\":1,\"type\":\"enqueue\",\"index\":0,\"seed\":31,\"circuit_hash\":{},\"config_fp\":{},\"spec\":{}}}\n",
        circuit_fingerprint(&benchmarks::miller_v2()),
        spec.config_fingerprint(),
        quote(&spec.to_json_line()),
    );
    std::fs::write(&journal.path, complete + &enqueue).expect("journal written");

    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        journal: Some(JournalConfig::new(&journal.path)),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"jobs_recovered_total\":1"), "restored: {stats}");
    assert!(stats.contains("\"jobs_replayed_total\":0"), "not replayed: {stats}");
    let response = client.place(&spec).expect("round-trips");
    assert!(response.is_ok() && response.cache_hit, "{response:?}");
    assert_eq!(response.report.as_deref(), Some(report.as_str()));
    assert!(client.stats().expect("stats").contains("\"jobs_completed\":1"), "no solve ran");

    service.shutdown();
    service.join();
}

#[test]
fn sigkill_mid_queue_loses_no_accepted_job() {
    let journal = TempJournal::new("sigkill");

    // the workload: two quick jobs that complete pre-crash (derived seeds),
    // two pinned-seed jobs that are mid-solve / queued when the daemon dies
    let quick_a = JobSpec::bundled("miller_opamp_fig6").with_restarts(1).with_fast(true);
    let quick_b = JobSpec::bundled("folded_cascode").with_restarts(1).with_fast(true);
    let doomed_c = JobSpec::bundled("miller_v2").with_seed(1002).with_restarts(1).with_fast(true);
    let doomed_d =
        JobSpec::bundled("comparator_v2").with_seed(1003).with_restarts(1).with_fast(true);

    // never-crashed reference for all four (same submission order, so the
    // quick jobs' derived seeds line up)
    let reference =
        reference_run(&[quick_a.clone(), quick_b.clone(), doomed_c.clone(), doomed_d.clone()]);

    // first life: a real daemon process, artificially slow (400ms for each
    // of jobs 0-3) so the kill lands mid-solve with one job still queued
    let plan = journal.dir.join("slow.json");
    let slow_solves = (0..4).map(|job| format!(r#"{{"job":{job},"ms":400}}"#));
    let slow_solves = slow_solves.collect::<Vec<_>>().join(",");
    std::fs::write(&plan, format!(r#"{{"slow_solves":[{slow_solves}]}}"#)).expect("plan writes");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_apls"))
        .args(["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1", "--journal"])
        .arg(&journal.path)
        .arg("--fault-plan")
        .arg(&plan)
        .env("APLS_FAULT_INJECTION", "1")
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
    // keep the daemon's stdout pipe open and drained — dropping it would make
    // the daemon's next println! fail, which is not the crash under test
    let drain = std::thread::spawn(move || while let Some(Ok(_)) = daemon_lines.next() {});

    let mut client = ServiceClient::connect(addr.as_str()).expect("connects");
    let pre_crash_a = client.place(&quick_a).expect("round-trips");
    let pre_crash_b = client.place(&quick_b).expect("round-trips");
    assert!(pre_crash_a.is_ok() && pre_crash_b.is_ok());
    assert_eq!(pre_crash_a.report, reference[0].report, "daemon must match the reference");
    assert_eq!(pre_crash_b.report, reference[1].report);

    // push C into the worker and D into the queue, then SIGKILL mid-solve
    let submit = |spec: JobSpec, addr: String| {
        std::thread::spawn(move || {
            let mut client = ServiceClient::connect(addr.as_str()).expect("connects");
            let _ = client.place(&spec); // dies with the daemon
        })
    };
    let c_handle = submit(doomed_c.clone(), addr.clone());
    std::thread::sleep(Duration::from_millis(120));
    let d_handle = submit(doomed_d.clone(), addr.clone());
    std::thread::sleep(Duration::from_millis(120));
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");
    let _ = c_handle.join();
    let _ = d_handle.join();
    let _ = drain.join();

    // second life: in-process restart on the same journal (same default
    // service seed as the daemon), no artificial delay
    let service = PlacementService::start(ServiceConfig {
        workers: 1,
        journal: Some(JournalConfig::new(&journal.path)),
        ..ServiceConfig::default()
    })
    .expect("service restarts");
    let mut client = ServiceClient::connect(service.local_addr()).expect("connects");
    await_stat(&mut client, "\"jobs_replayed_total\":2");
    await_stat(&mut client, "\"jobs_completed\":2");

    // completed-pre-crash reports come from the recovered store ...
    for (spec, reference) in [&quick_a, &quick_b].into_iter().zip(&reference) {
        let pinned = spec.clone().with_seed(reference.seed.expect("seed reported"));
        let response = client.place(&pinned).expect("round-trips");
        assert!(response.is_ok() && response.cache_hit, "{response:?}");
        assert_eq!(response.report, reference.report, "{spec:?}");
    }
    // ... and the killed-mid-flight jobs were re-solved byte-identically
    for (spec, reference) in [&doomed_c, &doomed_d].into_iter().zip(&reference[2..]) {
        let response = client.place(spec).expect("round-trips");
        assert!(response.is_ok() && response.cache_hit, "{response:?}");
        assert_eq!(response.report, reference.report, "{spec:?}");
    }

    service.shutdown();
    service.join();
}
