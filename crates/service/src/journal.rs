//! The durable job journal: an append-only JSON-lines log that carries the
//! daemon's replay guarantee across a crash.
//!
//! Two record types, one JSON object per line, each written (and by default
//! fsync'd) before the service acts on the event it describes:
//!
//! ```json
//! {"v":1,"type":"enqueue","index":0,"seed":…,"circuit_hash":…,"config_fp":…,"spec":"{…}"}
//! {"v":1,"type":"complete","index":0,"report_fp":…,"report":"{…}"}
//! ```
//!
//! * An **enqueue** record is appended at job-index assignment — atomically
//!   with the index, inside the enqueue lock — and carries everything needed
//!   to re-run the job: the resolved seed and a self-contained [`JobSpec`]
//!   request line (bundled name or full inline `.apls` text plus every
//!   result-relevant config field). `circuit_hash`/`config_fp` are
//!   fingerprints for integrity checking at recovery.
//! * A **complete** record is appended when a worker (or the cache-hit fast
//!   path) finishes the job, with the full deterministic report body — the
//!   journal doubles as the result store a restarted daemon serves
//!   pre-crash reports from. A worker can finish a job before the reactor
//!   has appended its enqueue record, so a complete record may precede its
//!   enqueue; replay holds it until the next enqueue record (see `replay`).
//!
//! **Recovery** (`Journal::open`) replays the log: completed jobs seed the
//! result cache, incomplete jobs are re-enqueued with their *recorded* seed —
//! which is exactly the seed `SeedStream::seed_for(JOB_SEED_LANE, index)`
//! would have derived — so the restarted daemon produces byte-identical
//! reports to the ones the dead process would have written. The job counter
//! resumes past the highest journaled index, so post-restart derived seeds
//! never collide with pre-crash ones. A truncated or torn final line (the
//! usual signature of a crash mid-append) is tolerated: replay stops at the
//! first unparseable line and the file is re-opened for append.
//!
//! **Failure policy**: journal append errors (disk full, injected faults)
//! degrade the service to non-durable instead of failing jobs — the caller
//! counts the failure and keeps serving.

use crate::fault::FaultPlan;
use crate::json::Json;
use crate::protocol::JobSpec;
use crate::sync::lock_or_recover;
use apls_telemetry::json::{self, Layout};
use apls_telemetry::Counter;
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Journal record format version.
const JOURNAL_VERSION: u64 = 1;

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every record before the append returns: nothing the
    /// service has acted on can be lost, at ~one disk flush per record.
    EveryRecord,
    /// Records are written immediately but fsync'd by a background flusher
    /// every `interval`: a crash can lose at most the last interval's
    /// records (the jobs whose clients a dead process never answered
    /// anyway); appends cost a buffered write. Graceful shutdown still
    /// syncs everything.
    Batched {
        /// Time between background fsyncs.
        interval: Duration,
    },
}

/// Where and how the daemon journals jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// The JSON-lines journal file (created if missing, replayed if not).
    pub path: PathBuf,
    /// Fsync policy for appended records.
    pub sync: SyncPolicy,
}

impl JournalConfig {
    /// A per-record-fsync journal at `path` (the strict default).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig { path: path.into(), sync: SyncPolicy::EveryRecord }
    }

    /// Switches to batched fsync (builder style).
    #[must_use]
    pub fn with_batched_sync(mut self, interval: Duration) -> JournalConfig {
        self.sync = SyncPolicy::Batched { interval };
        self
    }
}

/// One record to append.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JournalRecord<'a> {
    /// Job `index` was assigned and enqueued (or answered from cache).
    Enqueue {
        /// Arrival-order job index.
        index: u64,
        /// The resolved root seed (pinned by the client or derived).
        seed: u64,
        /// `canonical_hash` of the canonical circuit text.
        circuit_hash: u64,
        /// `JobSpec::config_fingerprint` of the resolved config.
        config_fp: u64,
        /// Self-contained request line that re-runs the job
        /// (`JobSpec::to_json_line` with the seed pinned).
        spec: &'a str,
    },
    /// Job `index` finished with the given deterministic report body.
    Complete {
        /// Arrival-order job index.
        index: u64,
        /// `canonical_hash` of the report body.
        report_fp: u64,
        /// The deterministic report JSON, already escaped as a JSON string
        /// literal (the service caches it that way), written verbatim.
        quoted_report: &'a str,
    },
}

impl JournalRecord<'_> {
    fn render(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, Layout::Compact, |w| {
            w.key("v").int(JOURNAL_VERSION);
            match *self {
                JournalRecord::Enqueue { index, seed, circuit_hash, config_fp, spec } => {
                    w.key("type").str("enqueue");
                    w.key("index").int(index);
                    w.key("seed").int(seed);
                    w.key("circuit_hash").int(circuit_hash);
                    w.key("config_fp").int(config_fp);
                    w.key("spec").str(spec);
                }
                JournalRecord::Complete { index, report_fp, quoted_report } => {
                    w.key("type").str("complete");
                    w.key("index").int(index);
                    w.key("report_fp").int(report_fp);
                    w.key("report").raw(quoted_report);
                }
            }
        });
        out.push('\n');
        out
    }
}

/// One job reconstructed from the journal at startup.
#[derive(Debug, Clone)]
pub(crate) struct RecoveredJob {
    /// Arrival-order job index.
    pub index: u64,
    /// The seed the job ran (or must run) with.
    pub seed: u64,
    /// Recorded circuit fingerprint, verified against the re-resolved spec.
    pub circuit_hash: u64,
    /// Recorded config fingerprint, verified against the re-resolved spec.
    pub config_fp: u64,
    /// The decoded job request.
    pub spec: JobSpec,
    /// The completed report body, when the job finished before the crash.
    pub report: Option<String>,
}

/// What [`Journal::open`] reconstructed from an existing journal file.
#[derive(Debug, Default)]
pub(crate) struct Recovery {
    /// Jobs in index order (completed and incomplete).
    pub jobs: Vec<RecoveredJob>,
    /// The job counter resumes here (highest index in any record + 1).
    pub next_index: u64,
    /// Unparseable lines skipped at the tail (torn final append ⇒ 1).
    pub torn_lines: usize,
}

struct Inner {
    file: File,
    /// Sequence number of the next record (drives fault injection).
    seq: u64,
    /// Batched policy: records written since the last fsync.
    dirty: bool,
}

/// An open, append-only job journal (see the module docs).
pub(crate) struct Journal {
    inner: Arc<Mutex<Inner>>,
    sync: SyncPolicy,
    fault: Option<Arc<FaultPlan>>,
    stop_flusher: Arc<AtomicBool>,
    /// The service's `poison_recoveries_total`.
    recoveries: Counter,
}

impl Journal {
    /// Opens (creating if missing) the journal at `config.path`, replaying
    /// any existing records into a [`Recovery`].
    ///
    /// `fault` injects deterministic append failures (tests/CI only);
    /// `recoveries` counts poisoned-lock recoveries.
    pub(crate) fn open(
        config: &JournalConfig,
        fault: Option<Arc<FaultPlan>>,
        recoveries: Counter,
    ) -> std::io::Result<(Journal, Recovery)> {
        let mut text = String::new();
        match File::open(&config.path) {
            Ok(mut existing) => {
                existing.read_to_string(&mut text)?;
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let recovery = replay(&text);
        let file = OpenOptions::new().create(true).append(true).open(&config.path)?;
        let seq = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        let inner = Arc::new(Mutex::new(Inner { file, seq, dirty: false }));
        let stop_flusher = Arc::new(AtomicBool::new(false));
        if let SyncPolicy::Batched { interval } = config.sync {
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&stop_flusher);
            let recoveries = recoveries.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    let mut guard = lock_or_recover(&inner, &recoveries);
                    if guard.dirty {
                        let _ = guard.file.sync_data();
                        guard.dirty = false;
                    }
                }
            });
        }
        Ok((Journal { inner, sync: config.sync, fault, stop_flusher, recoveries }, recovery))
    }

    /// Appends one record, fsync'ing per the configured policy.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors (and injected fault failures). The
    /// record is *not* durably recorded on error; callers degrade to
    /// non-durable operation rather than failing the job.
    pub(crate) fn append(&self, record: &JournalRecord<'_>) -> std::io::Result<()> {
        let line = record.render();
        let mut guard = lock_or_recover(&self.inner, &self.recoveries);
        let seq = guard.seq;
        guard.seq += 1;
        if self.fault.as_ref().is_some_and(|plan| plan.fail_journal_record(seq)) {
            return Err(std::io::Error::other(format!(
                "fault injection: journal record {seq} write failure"
            )));
        }
        guard.file.write_all(line.as_bytes())?;
        match self.sync {
            SyncPolicy::EveryRecord => guard.file.sync_data()?,
            SyncPolicy::Batched { .. } => guard.dirty = true,
        }
        Ok(())
    }

    /// Forces everything written so far to disk (graceful shutdown).
    pub(crate) fn sync(&self) {
        let mut guard = lock_or_recover(&self.inner, &self.recoveries);
        let _ = guard.file.sync_data();
        guard.dirty = false;
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.stop_flusher.store(true, Ordering::SeqCst);
        self.sync();
    }
}

/// Replays journal text into per-job state. Stops at the first unparseable
/// line (a torn tail write); records after a torn line are unreachable by
/// construction, since appends are strictly ordered.
///
/// A complete record that arrives before its job's enqueue record is held
/// until the next enqueue record. Enqueue records are appended in index
/// order under the admission lock, so the next one belongs to the held
/// job if its enqueue was written at all; any other held record is an
/// orphan (a crash or a failed append lost its enqueue) and is dropped.
/// Orphans still count towards `next_index`, so their index is never
/// handed to another job whose recovery could pick up the old report.
fn replay(text: &str) -> Recovery {
    let mut jobs: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
    let mut early_reports: HashMap<u64, String> = HashMap::new();
    let mut next_index = 0;
    let mut torn = 0usize;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for (i, line) in lines.iter().enumerate() {
        let Some(record) = parse_record(line) else {
            torn = lines.len() - i;
            break;
        };
        match record {
            ParsedRecord::Enqueue(mut job) => {
                next_index = next_index.max(job.index + 1);
                job.report = early_reports.remove(&job.index);
                early_reports.clear();
                jobs.insert(job.index, *job);
            }
            ParsedRecord::Complete { index, report } => {
                next_index = next_index.max(index + 1);
                match jobs.get_mut(&index) {
                    Some(job) => job.report = Some(report),
                    None => {
                        early_reports.insert(index, report);
                    }
                }
            }
        }
    }
    Recovery { jobs: jobs.into_values().collect(), next_index, torn_lines: torn }
}

enum ParsedRecord {
    Enqueue(Box<RecoveredJob>),
    Complete { index: u64, report: String },
}

fn parse_record(line: &str) -> Option<ParsedRecord> {
    let json = Json::parse(line).ok()?;
    if json.get("v").and_then(Json::as_u64) != Some(JOURNAL_VERSION) {
        return None;
    }
    let index = json.get("index").and_then(Json::as_u64)?;
    match json.get("type").and_then(Json::as_str)? {
        "enqueue" => {
            let seed = json.get("seed").and_then(Json::as_u64)?;
            let circuit_hash = json.get("circuit_hash").and_then(Json::as_u64)?;
            let config_fp = json.get("config_fp").and_then(Json::as_u64)?;
            let spec_text = json.get("spec").and_then(Json::as_str)?;
            let spec = JobSpec::from_json(&Json::parse(spec_text).ok()?).ok()?;
            Some(ParsedRecord::Enqueue(Box::new(RecoveredJob {
                index,
                seed,
                circuit_hash,
                config_fp,
                spec,
                report: None,
            })))
        }
        "complete" => {
            let report = json.get("report").and_then(Json::as_str)?.to_string();
            // report_fp is integrity metadata; a missing field is torn
            json.get("report_fp").and_then(Json::as_u64)?;
            Some(ParsedRecord::Complete { index, report })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::quote;
    use crate::protocol::CircuitSource;

    /// Opens a journal whose lock recoveries are counted nowhere else.
    fn open(
        config: &JournalConfig,
        fault: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<(Journal, Recovery)> {
        let recoveries = apls_telemetry::MetricsRegistry::new().counter("poison_recoveries_total");
        Journal::open(config, fault, recoveries)
    }

    fn tempfile(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("apls-journal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn enqueue_record(index: u64, seed: u64, spec: &str) -> String {
        JournalRecord::Enqueue { index, seed, circuit_hash: 11, config_fp: 22, spec }.render()
    }

    #[test]
    fn records_round_trip_through_replay() {
        let path = tempfile("roundtrip");
        let config = JournalConfig::new(&path);
        let spec = JobSpec::bundled("miller_v2").with_seed(7).to_json_line();
        {
            let (journal, recovery) = open(&config, None).expect("opens");
            assert_eq!(recovery.next_index, 0);
            assert!(recovery.jobs.is_empty());
            journal
                .append(&JournalRecord::Enqueue {
                    index: 0,
                    seed: 7,
                    circuit_hash: 11,
                    config_fp: 22,
                    spec: &spec,
                })
                .expect("appends");
            journal
                .append(&JournalRecord::Complete {
                    index: 0,
                    report_fp: 33,
                    quoted_report: &quote("{\"x\":1}"),
                })
                .expect("appends");
            journal
                .append(&JournalRecord::Enqueue {
                    index: 1,
                    seed: 9,
                    circuit_hash: 11,
                    config_fp: 22,
                    spec: &spec,
                })
                .expect("appends");
        }
        let (_journal, recovery) = open(&config, None).expect("re-opens");
        assert_eq!(recovery.next_index, 2);
        assert_eq!(recovery.torn_lines, 0);
        assert_eq!(recovery.jobs.len(), 2);
        let done = &recovery.jobs[0];
        assert_eq!((done.index, done.seed), (0, 7));
        assert_eq!(done.report.as_deref(), Some("{\"x\":1}"));
        assert_eq!(done.circuit_hash, 11);
        assert_eq!(done.spec.circuit, CircuitSource::Bundled("miller_v2".to_string()));
        let pending = &recovery.jobs[1];
        assert_eq!((pending.index, pending.seed), (1, 9));
        assert!(pending.report.is_none());
        let _ = std::fs::remove_file(&path);
    }

    fn complete_record(index: u64, report: &str) -> String {
        JournalRecord::Complete { index, report_fp: 33, quoted_report: &quote(report) }.render()
    }

    #[test]
    fn both_records_are_pinned_byte_for_byte() {
        let spec = JobSpec::inline("apls 1\ncircuit \"x\"\n").with_seed(7).to_json_line();
        assert_eq!(
            JournalRecord::Enqueue {
                index: 4,
                seed: u64::MAX,
                circuit_hash: 11,
                config_fp: 22,
                spec: &spec
            }
            .render(),
            concat!(
                r#"{"v":1,"type":"enqueue","index":4,"seed":18446744073709551615,"circuit_hash":11,"#,
                r#""config_fp":22,"spec":"{\"op\":\"place\",\"apls\":\"apls 1\\ncircuit "#,
                r#"\\\"x\\\"\\n\",\"seed\":7}"}"#,
                "\n"
            )
        );
        assert_eq!(
            complete_record(4, "{\n  \"circuit\": \"a\\b\"\n}\n"),
            concat!(
                r#"{"v":1,"type":"complete","index":4,"report_fp":33,"#,
                r#""report":"{\n  \"circuit\": \"a\\b\"\n}\n"}"#,
                "\n"
            )
        );
    }

    #[test]
    fn a_complete_record_before_its_enqueue_restores_the_job() {
        let spec = JobSpec::bundled("miller_v2").with_seed(7).to_json_line();
        // job 0 completes before its enqueue lands; job 5's enqueue never
        // lands at all
        let text = [
            complete_record(0, "{\"x\":1}"),
            enqueue_record(0, 7, &spec),
            complete_record(5, "{\"x\":5}"),
            enqueue_record(1, 9, &spec),
        ]
        .concat();
        let recovery = replay(&text);
        assert_eq!(recovery.jobs.len(), 2);
        assert_eq!(recovery.jobs[0].index, 0);
        assert_eq!(recovery.jobs[0].report.as_deref(), Some("{\"x\":1}"), "restored, not replayed");
        assert_eq!(recovery.jobs[1].index, 1);
        assert!(recovery.jobs[1].report.is_none());
        assert_eq!(recovery.next_index, 6, "an orphaned complete record's index is never reused");
    }

    #[test]
    fn an_orphaned_complete_record_never_attaches_to_a_later_job() {
        let spec = JobSpec::bundled("miller_v2").with_seed(7).to_json_line();
        // complete 2 is orphaned (its enqueue was lost); a journal that
        // later hands index 2 out again must not restore the new job from it
        let text = [
            enqueue_record(0, 7, &spec),
            complete_record(2, "{\"x\":2}"),
            enqueue_record(1, 9, &spec),
            enqueue_record(2, 11, &spec),
        ]
        .concat();
        let recovery = replay(&text);
        assert_eq!(recovery.jobs.len(), 3);
        assert_eq!(recovery.jobs[2].index, 2);
        assert!(recovery.jobs[2].report.is_none(), "the orphan's report is not this job's");
        assert_eq!(recovery.next_index, 3);

        // The way this daemon writes journals: a crash leaves complete 4
        // as the last record; the next run resumes past it, and its own
        // incomplete job recovers as incomplete.
        let path = tempfile("orphan");
        let config = JournalConfig::new(&path);
        std::fs::write(
            &path,
            [enqueue_record(3, 7, &spec), complete_record(4, "{\"x\":4}")].concat(),
        )
        .unwrap();
        {
            let (journal, recovery) = open(&config, None).expect("opens");
            assert_eq!(recovery.next_index, 5);
            let spec = JobSpec::bundled("miller_v2").with_seed(13).to_json_line();
            journal
                .append(&JournalRecord::Enqueue {
                    index: recovery.next_index,
                    seed: 13,
                    circuit_hash: 11,
                    config_fp: 22,
                    spec: &spec,
                })
                .expect("appends");
        }
        let (_journal, recovery) = open(&config, None).expect("re-opens");
        let indices: Vec<u64> = recovery.jobs.iter().map(|job| job.index).collect();
        assert_eq!(indices, [3, 5]);
        assert!(recovery.jobs.iter().all(|job| job.report.is_none()));
        assert_eq!(recovery.next_index, 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tempfile("torn");
        let spec = JobSpec::bundled("miller_v2").with_seed(7).to_json_line();
        let mut text = enqueue_record(0, 7, &spec);
        text.push_str("{\"v\":1,\"type\":\"enqueue\",\"index\":1,\"se"); // torn mid-append
        std::fs::write(&path, &text).unwrap();
        let (_journal, recovery) = open(&JournalConfig::new(&path), None).expect("opens");
        assert_eq!(recovery.jobs.len(), 1);
        assert_eq!(recovery.next_index, 1);
        assert_eq!(recovery.torn_lines, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_write_failure_is_an_error_but_later_appends_work() {
        let path = tempfile("fault");
        let fault = Arc::new(FaultPlan::new().with_journal_fail(0));
        let (journal, _) = open(&JournalConfig::new(&path), Some(fault)).expect("opens");
        let spec = JobSpec::bundled("miller_v2").with_seed(7).to_json_line();
        let record = JournalRecord::Enqueue {
            index: 0,
            seed: 7,
            circuit_hash: 11,
            config_fp: 22,
            spec: &spec,
        };
        assert!(journal.append(&record).is_err(), "record 0 fails by plan");
        assert!(journal.append(&record).is_ok(), "record 1 appends normally");
        drop(journal);
        let (_journal, recovery) = open(&JournalConfig::new(&path), None).unwrap();
        assert_eq!(recovery.jobs.len(), 1, "only the surviving record replays");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batched_sync_flushes_on_drop() {
        let path = tempfile("batched");
        let config = JournalConfig::new(&path).with_batched_sync(Duration::from_millis(5));
        let spec = JobSpec::bundled("miller_v2").with_seed(7).to_json_line();
        {
            let (journal, _) = open(&config, None).expect("opens");
            journal
                .append(&JournalRecord::Enqueue {
                    index: 0,
                    seed: 7,
                    circuit_hash: 11,
                    config_fp: 22,
                    spec: &spec,
                })
                .expect("appends");
        }
        let (_journal, recovery) = open(&config, None).expect("re-opens");
        assert_eq!(recovery.jobs.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
