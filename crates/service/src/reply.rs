//! Every line the daemon writes to a client.
//!
//! The answer to a request — `ok`, `timeout`, `error` or `retry` — has one
//! writer, [`render`], for both destinations. A plain envelope is a stream
//! report frame without its frame tags: a head (see [`head`]) followed by a
//! body both forms share byte for byte. The remaining lines (`ping`,
//! `stats`, `dump`, `shutdown` and the `accepted`/`queued`/`progress`
//! frames) have fixed shapes of their own.

use crate::metrics::ServiceMetrics;
use crate::server::{FlightDump, Shared, PROTOCOL_VERSION};
use apls_telemetry::json::{self, Float, Layout, Writer};

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

/// Writes the leading fields of an answer line. A stream report frame opens
/// with `"frame":"report","id":CID,` (the client-chosen stream id), a plain
/// line with nothing; then an answer that carries a job (`ok`, `timeout`)
/// adds the server job index, as `"job":N,` in a frame and `"id":N,` in a
/// plain line.
fn head(w: &mut Writer<'_>, to: Dest, job: Option<u64>) {
    if let Dest::Stream(cid) = to {
        w.key("frame").str("report");
        w.key("id").int(cid);
        if let Some(job) = job {
            w.key("job").int(job);
        }
    } else if let Some(job) = job {
        w.key("id").int(job);
    }
}

/// The panic answer's message.
pub(crate) const PANIC_ERROR: &str =
    "placement worker panicked while solving this job; the service is still up";

/// One compact JSON object line.
fn line(members: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::new();
    json::object(&mut out, Layout::Compact, members);
    out
}

/// Writes `answer` for `to` and counts its outcome (`errors_total`,
/// `retries_total`; timeouts are counted by the worker that saw the
/// deadline pass). Call it only for a line that will be queued on a live
/// connection, so the counters match what clients receive.
///
/// The `ok` line is written into one pre-sized `String`: the report arrives
/// already escaped and is copied, not re-quoted.
pub(crate) fn render(metrics: &ServiceMetrics, to: Dest, answer: &Answer<'_>) -> String {
    match *answer {
        Answer::Ok {
            job,
            circuit,
            seed,
            cache_hit,
            queue_ms,
            solve_ms,
            total_ms,
            quoted_report,
        } => {
            let mut line = String::with_capacity(quoted_report.len() + 256);
            json::object(&mut line, Layout::Compact, |w| {
                head(w, to, Some(job));
                w.key("status").str("ok");
                w.key("circuit").str(circuit);
                w.key("seed").int(seed);
                w.key("cache_hit").bool(cache_hit);
                w.key("queue_ms").f64(queue_ms, Float::Fixed(3));
                w.key("solve_ms").f64(solve_ms, Float::Fixed(3));
                w.key("total_ms").f64(total_ms, Float::Fixed(3));
                w.key("report").raw(quoted_report);
            });
            line
        }
        Answer::Timeout { job, circuit, seed, deadline_ms } => line(|w| {
            head(w, to, Some(job));
            w.key("status").str("timeout");
            w.key("kind").str("deadline");
            w.key("circuit").str(circuit);
            w.key("seed").int(seed);
            w.key("error").str(&format!("deadline of {deadline_ms} ms exceeded"));
        }),
        Answer::Error { kind, message } => {
            metrics.errors_total.inc();
            line(|w| {
                head(w, to, None);
                w.key("status").str("error");
                w.key("kind").str(kind);
                w.key("error").str(message);
            })
        }
        Answer::Retry => {
            metrics.retries_total.inc();
            line(|w| {
                head(w, to, None);
                w.key("status").str("retry");
                w.key("error").str("job queue full, retry later");
            })
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
    line(|w| {
        w.key("status").str("ok");
        w.key("service").str("apls");
        w.key("protocol").int(PROTOCOL_VERSION);
    })
}

/// The answer to a `dump` request that wrote the flight recorder to disk.
pub(crate) fn dump(dump: &FlightDump) -> String {
    line(|w| {
        w.key("status").str("ok");
        w.key("events").int(dump.events);
        w.key("overwritten").int(dump.overwritten);
        w.key("capacity").int(dump.capacity);
        w.key("path").str(&dump.path.display().to_string());
    })
}

/// The registry snapshot under `metrics`, after four members older readers
/// parse, each read from its twin in the snapshot.
pub(crate) fn stats(shared: &Shared) -> String {
    shared.refresh_gauges();
    let metrics = &shared.metrics;
    line(|w| {
        w.key("status").str("ok");
        w.key("ready").bool(metrics.ready.get() == 1);
        w.key("jobs_completed").int(metrics.jobs_completed_total.get());
        w.key("cache_hits").int(metrics.cache_hits_total.get());
        w.key("cache").object(Layout::Compact, |w| {
            w.key("insertions").int(metrics.cache_insertions_total.get());
        });
        w.key("metrics").object(Layout::Compact, |w| metrics.registry.write_snapshot(w));
    })
}

// --- stream frames before the report ------------------------------------
//
// Every frame is one JSON line tagged `"frame"` plus the client-chosen
// correlation `"id"`; the server job index travels as `"job"`.

/// Writes a frame's tag and correlation id.
fn frame(w: &mut Writer<'_>, tag: &str, cid: u64) {
    w.key("frame").str(tag);
    w.key("id").int(cid);
}

pub(crate) fn accepted_frame(cid: u64, job: u64, circuit: &str, seed: u64) -> String {
    line(|w| {
        frame(w, "accepted", cid);
        w.key("job").int(job);
        w.key("circuit").str(circuit);
        w.key("seed").int(seed);
    })
}

pub(crate) fn queued_frame(cid: u64, depth: u64) -> String {
    line(|w| {
        frame(w, "queued", cid);
        w.key("depth").int(depth);
    })
}

pub(crate) fn progress_frame(
    cid: u64,
    engine: &str,
    restart: usize,
    completed: usize,
    total: usize,
    cost: f64,
) -> String {
    line(|w| {
        frame(w, "progress", cid);
        w.key("engine").str(engine);
        w.key("restart").int(restart);
        w.key("completed").int(completed);
        w.key("total").int(total);
        w.key("cost").f64(cost, Float::Shortest);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::quote;

    /// Every answer for both destinations, then the `ping` and `dump`
    /// answers and the three frames before a report, pinned byte for byte.
    /// The answer lines are the ones the per-shape builders [`render`]
    /// replaced produced, except the plain timeout, whose `"id"` moved to
    /// the head.
    const GOLDEN: [&str; 18] = [
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
        r#"{"status":"ok","service":"apls","protocol":1}"#,
        r#"{"status":"ok","events":3,"overwritten":1,"capacity":4096,"path":"/tmp/flight \"1\".jsonl"}"#,
        r#"{"frame":"accepted","id":5,"job":3,"circuit":"c\"1","seed":9}"#,
        r#"{"frame":"queued","id":5,"depth":2}"#,
        r#"{"frame":"progress","id":5,"engine":"seqpair","restart":1,"completed":2,"total":8,"cost":1234.5}"#,
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
        lines.push(ping());
        let flight = FlightDump {
            path: "/tmp/flight \"1\".jsonl".into(),
            events: 3,
            overwritten: 1,
            capacity: 4096,
        };
        lines.push(dump(&flight));
        lines.push(accepted_frame(5, 3, "c\"1", 9));
        lines.push(queued_frame(5, 2));
        lines.push(progress_frame(5, "seqpair", 1, 2, 8, 1234.5));
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
