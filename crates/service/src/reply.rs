//! Every line the daemon writes to a client.
//!
//! The answer to a request — `ok`, `timeout`, `error` or `retry` — has one
//! writer, [`render`], for both destinations. A plain envelope is a stream
//! report frame without its frame tags: a head (see [`Head`]) followed by a
//! body both forms share byte for byte. The remaining lines (`ping`,
//! `stats`, `dump`, `shutdown` and the `accepted`/`queued`/`progress`
//! frames) have fixed shapes of their own.

use crate::json::quote;
use crate::metrics::ServiceMetrics;
use crate::server::{FlightDump, Shared, PROTOCOL_VERSION};
use crate::sync::poison_recoveries;
use std::fmt::{self, Write as _};

/// Where an answer goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dest {
    /// A plain request-response line.
    Plain,
    /// A report frame of the streamed job with this client-chosen id.
    Stream(u64),
}

/// The answer to a request.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Answer<'a> {
    /// A finished job: its report, escaped as a JSON string literal, and
    /// where the time went.
    Ok {
        job: u64,
        circuit: &'a str,
        seed: u64,
        cache_hit: bool,
        queue_ms: f64,
        solve_ms: f64,
        total_ms: f64,
        quoted_report: &'a str,
    },
    /// A job that expired its deadline.
    Timeout { job: u64, circuit: &'a str, seed: u64, deadline_ms: u64 },
    /// A refused or failed request.
    Error { kind: &'a str, message: &'a str },
    /// The job queue was full; nothing was admitted.
    Retry,
}

/// The leading fields of an answer line. A stream report frame opens with
/// `"frame":"report","id":CID,` (the client-chosen stream id), a plain line
/// with nothing; then an answer that carries a job (`ok`, `timeout`) adds
/// the server job index, as `"job":N,` in a frame and `"id":N,` in a plain
/// line.
struct Head {
    to: Dest,
    job: Option<u64>,
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Dest::Stream(cid) = self.to {
            write!(f, "\"frame\":\"report\",\"id\":{cid},")?;
            if let Some(job) = self.job {
                write!(f, "\"job\":{job},")?;
            }
        } else if let Some(job) = self.job {
            write!(f, "\"id\":{job},")?;
        }
        Ok(())
    }
}

/// The panic answer's message.
pub(crate) const PANIC_ERROR: &str =
    "placement worker panicked while solving this job; the service is still up";

/// Writes `answer` for `to` and counts its outcome (`errors_total`,
/// `retries_total`; timeouts are counted by the worker that saw the
/// deadline pass). Call it only for a line that will be queued on a live
/// connection, so the counters match what clients receive.
///
/// The `ok` line is one `write!` into one pre-sized `String`: the report
/// arrives already escaped and is copied, not re-quoted.
pub(crate) fn render(metrics: &ServiceMetrics, to: Dest, answer: &Answer<'_>) -> String {
    let job = match *answer {
        Answer::Ok { job, .. } | Answer::Timeout { job, .. } => Some(job),
        Answer::Error { .. } | Answer::Retry => None,
    };
    let head = Head { to, job };
    match *answer {
        Answer::Ok {
            job: _,
            circuit,
            seed,
            cache_hit,
            queue_ms,
            solve_ms,
            total_ms,
            quoted_report,
        } => {
            let mut line = String::with_capacity(quoted_report.len() + 256);
            let _ = write!(
                line,
                "{{{head}\"status\":\"ok\",\"circuit\":{},\"seed\":{seed},\"cache_hit\":{cache_hit},\"queue_ms\":{queue_ms:.3},\"solve_ms\":{solve_ms:.3},\"total_ms\":{total_ms:.3},\"report\":{quoted_report}}}",
                quote(circuit),
            );
            line
        }
        Answer::Timeout { job: _, circuit, seed, deadline_ms } => format!(
            "{{{head}\"status\":\"timeout\",\"kind\":\"deadline\",\"circuit\":{},\"seed\":{seed},\"error\":\"deadline of {deadline_ms} ms exceeded\"}}",
            quote(circuit),
        ),
        Answer::Error { kind, message } => {
            metrics.errors_total.inc();
            format!("{{{head}\"status\":\"error\",\"kind\":{},\"error\":{}}}", quote(kind), quote(message))
        }
        Answer::Retry => {
            metrics.retries_total.inc();
            format!("{{{head}\"status\":\"retry\",\"error\":\"job queue full, retry later\"}}")
        }
    }
}

/// The refusal line written when the connection limit is reached. It goes
/// straight to a socket that never becomes a connection, so it is not
/// counted as an error answer.
pub(crate) const OVERLOADED_LINE: &[u8] =
    b"{\"status\":\"error\",\"kind\":\"overloaded\",\"error\":\"connection limit reached, retry later\"}\n";

/// The acknowledgement of a `shutdown` request.
pub(crate) const SHUTTING_DOWN: &str = "{\"status\":\"shutting_down\"}";

pub(crate) fn ping() -> String {
    format!("{{\"status\":\"ok\",\"service\":\"apls\",\"protocol\":{PROTOCOL_VERSION}}}")
}

/// The answer to a `dump` request that wrote the flight recorder to disk.
pub(crate) fn dump(dump: &FlightDump) -> String {
    format!(
        "{{\"status\":\"ok\",\"events\":{},\"overwritten\":{},\"capacity\":{},\"path\":{}}}",
        dump.events,
        dump.overwritten,
        dump.capacity,
        quote(&dump.path.display().to_string()),
    )
}

pub(crate) fn stats(shared: &Shared) -> String {
    let (cache_stats, cache_entries) = shared.cache_stats();
    let uptime_seconds = shared.refresh_uptime();
    let (ready, _) = shared.is_ready();
    let metrics = &shared.metrics;
    format!(
        "{{\"status\":\"ok\",\"workers\":{},\"queue_capacity\":{},\"cache_capacity\":{},\"jobs_completed\":{},\"cache_hits\":{},\"cache_entries\":{},\"uptime_ms\":{:.0},\"uptime_seconds\":{},\"ready\":{},\"queue_depth\":{},\"in_flight\":{},\"connections\":{},\"telemetry_enabled\":{},\"journal_enabled\":{},\"poison_recoveries\":{},\"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\"entries\":{},\"capacity\":{}}},\"metrics\":{}}}",
        shared.config.workers,
        shared.config.queue_capacity,
        shared.config.cache_capacity,
        metrics.jobs_completed_total.get(),
        metrics.cache_hits_total.get(),
        cache_entries,
        shared.started.elapsed().as_secs_f64() * 1e3,
        uptime_seconds,
        ready,
        metrics.queue_depth.get(),
        metrics.in_flight.get(),
        metrics.connections_active.get(),
        shared.telemetry.is_enabled(),
        shared.journal.is_some(),
        poison_recoveries(),
        metrics.cache_hits_total.get(),
        metrics.cache_misses_total.get(),
        cache_stats.insertions,
        cache_stats.evictions,
        cache_entries,
        shared.config.cache_capacity,
        metrics.registry.snapshot_json(),
    )
}

// --- stream frames before the report ------------------------------------
//
// Every frame is one JSON line tagged `"frame"` plus the client-chosen
// correlation `"id"`; the server job index travels as `"job"`.

pub(crate) fn accepted_frame(cid: u64, job: u64, circuit: &str, seed: u64) -> String {
    format!(
        "{{\"frame\":\"accepted\",\"id\":{cid},\"job\":{job},\"circuit\":{},\"seed\":{seed}}}",
        quote(circuit),
    )
}

pub(crate) fn queued_frame(cid: u64, depth: u64) -> String {
    format!("{{\"frame\":\"queued\",\"id\":{cid},\"depth\":{depth}}}")
}

pub(crate) fn progress_frame(
    cid: u64,
    engine: &str,
    restart: usize,
    completed: usize,
    total: usize,
    cost: f64,
) -> String {
    format!(
        "{{\"frame\":\"progress\",\"id\":{cid},\"engine\":{},\"restart\":{restart},\"completed\":{completed},\"total\":{total},\"cost\":{cost}}}",
        quote(engine),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every answer for both destinations, pinned byte for byte. The
    /// expected lines are the ones the per-shape builders this writer
    /// replaced produced, except the plain timeout, whose `"id"` moved to
    /// the head.
    const GOLDEN: [&str; 13] = [
        r#"{"id":3,"status":"ok","circuit":"c\"1","seed":9,"cache_hit":true,"queue_ms":0.000,"solve_ms":1.500,"total_ms":2.250,"report":"{\"x\":\"a\\nb\"}"}"#,
        r#"{"frame":"report","id":5,"job":3,"status":"ok","circuit":"c\"1","seed":9,"cache_hit":true,"queue_ms":0.000,"solve_ms":1.500,"total_ms":2.250,"report":"{\"x\":\"a\\nb\"}"}"#,
        r#"{"id":3,"status":"ok","circuit":"c","seed":9,"cache_hit":false,"queue_ms":0.500,"solve_ms":1.000,"total_ms":2.000,"report":"{\"x\":\"a\\nb\"}"}"#,
        r#"{"frame":"report","id":5,"job":3,"status":"ok","circuit":"c","seed":9,"cache_hit":false,"queue_ms":0.500,"solve_ms":1.000,"total_ms":2.000,"report":"{\"x\":\"a\\nb\"}"}"#,
        r#"{"id":4,"status":"timeout","kind":"deadline","circuit":"folded_cascode","seed":5,"error":"deadline of 50 ms exceeded"}"#,
        r#"{"frame":"report","id":6,"job":4,"status":"timeout","kind":"deadline","circuit":"folded_cascode","seed":5,"error":"deadline of 50 ms exceeded"}"#,
        r#"{"status":"error","kind":"bad_request","error":"invalid JSON: \"x\"\n"}"#,
        r#"{"frame":"report","id":7,"status":"error","kind":"bad_request","error":"invalid JSON: \"x\"\n"}"#,
        r#"{"status":"error","kind":"internal","error":"placement worker panicked while solving this job; the service is still up"}"#,
        r#"{"frame":"report","id":7,"status":"error","kind":"internal","error":"placement worker panicked while solving this job; the service is still up"}"#,
        r#"{"status":"retry","error":"job queue full, retry later"}"#,
        r#"{"frame":"report","id":8,"status":"retry","error":"job queue full, retry later"}"#,
        r#"{"status":"error","kind":"request_too_large","error":"request exceeds 1024 bytes, closing connection"}"#,
    ];

    #[test]
    fn every_answer_line_is_pinned_for_both_destinations() {
        let quoted = quote("{\"x\":\"a\\nb\"}");
        let ok = |circuit, cache_hit, [queue_ms, solve_ms, total_ms]: [f64; 3]| Answer::Ok {
            job: 3,
            circuit,
            seed: 9,
            cache_hit,
            queue_ms,
            solve_ms,
            total_ms,
            quoted_report: &quoted,
        };
        let (hit, solved) = (ok("c\"1", true, [0.0, 1.5, 2.25]), ok("c", false, [0.5, 1.0, 2.0]));
        let timeout =
            Answer::Timeout { job: 4, circuit: "folded_cascode", seed: 5, deadline_ms: 50 };
        let error = |kind, message| Answer::Error { kind, message };
        let bad_json = error("bad_request", "invalid JSON: \"x\"\n");
        let panic = error("internal", PANIC_ERROR);
        let too_large =
            error("request_too_large", "request exceeds 1024 bytes, closing connection");
        let cases =
            [(hit, 5), (solved, 5), (timeout, 6), (bad_json, 7), (panic, 7), (Answer::Retry, 8)];
        let metrics = ServiceMetrics::new();
        let mut lines: Vec<String> = cases
            .iter()
            .flat_map(|(answer, cid)| {
                [Dest::Plain, Dest::Stream(*cid)].map(|to| render(&metrics, to, answer))
            })
            .collect();
        lines.push(render(&metrics, Dest::Plain, &too_large));
        assert_eq!(lines.len(), GOLDEN.len());
        for (i, (line, expected)) in lines.iter().zip(GOLDEN).enumerate() {
            assert_eq!(line, expected, "row {i}");
        }
        // the writer counts from the variant: five errors, two retries
        assert_eq!(metrics.errors_total.get(), 5);
        assert_eq!(metrics.retries_total.get(), 2);
        assert_eq!(metrics.timeouts_total.get(), 0, "the worker counts timeouts");
    }
}
