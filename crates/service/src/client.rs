//! A small blocking client for the placement service.
//!
//! One connection, synchronous request/response over JSON lines. Concurrency
//! comes from opening several clients — the service interleaves jobs from
//! different connections across its worker pool.
//!
//! For lossy paths (daemon restarting, queue saturated) use
//! [`ServiceClient::place_with_retry`]: bounded exponential backoff with
//! deterministic seeded jitter, reconnecting on transient transport errors
//! and honouring the service's explicit `{"status":"retry"}` backpressure
//! signal.

use crate::protocol::{JobSpec, PlaceResponse, StreamFrame};
use apls_anneal::rng::SeedStream;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The seed-stream lane retry jitter derives from (client-side only; job
/// seeds use [`crate::JOB_SEED_LANE`] in the *service's* stream, so the two
/// can never collide in effect — jitter never touches placement results).
const RETRY_JITTER_LANE: u64 = 0x3E7;

/// Retry schedule for [`ServiceClient::place_with_retry`]: bounded
/// exponential backoff with deterministic, seeded jitter.
///
/// Attempt `k` (0-based) sleeps `min(base << k, cap)` plus a jitter drawn
/// from [`SeedStream::seed_for`]`(RETRY_JITTER_LANE, k)` — a pure function
/// of `(jitter_seed, k)`, so two runs of the same test back off identically
/// while two clients with different seeds spread their retries apart.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub cap: Duration,
    /// Root of the jitter stream; vary per client to de-synchronise fleets.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            jitter_seed: 1,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based): exponential,
    /// capped, plus deterministic jitter in `[0, backoff/2]`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let backoff = exp.min(self.cap);
        let jitter_word =
            SeedStream::new(self.jitter_seed).seed_for(RETRY_JITTER_LANE, u64::from(attempt));
        let half = backoff.as_nanos() as u64 / 2;
        let jitter = if half == 0 { 0 } else { jitter_word % (half + 1) };
        backoff + Duration::from_nanos(jitter)
    }
}

/// Transport errors worth retrying: the daemon may be restarting (crash
/// recovery) or the connection got dropped mid-flight. Anything else
/// (invalid data, permission) will not heal by waiting.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
    )
}

/// A blocking JSON-lines client.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Next auto-assigned correlation id for streamed jobs.
    next_stream_id: u64,
}

impl ServiceClient {
    /// Connects to a running service.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServiceClient> {
        let writer = TcpStream::connect(addr)?;
        // request/response turns are latency-bound; don't let Nagle pair
        // small writes with the peer's delayed ACK
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(ServiceClient { reader, writer, next_stream_id: 1 })
    }

    /// Sends one raw request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a closed connection reads as
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        self.send_line(line)?;
        self.read_line()
    }

    /// Reads one raw line off the connection, without its line ending.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a closed connection reads as
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Submits a placement job and decodes the response envelope.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an undecodable response becomes
    /// [`io::ErrorKind::InvalidData`].
    pub fn place(&mut self, spec: &JobSpec) -> io::Result<PlaceResponse> {
        let line = self.request_line(&spec.to_json_line())?;
        PlaceResponse::from_json_line(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends one raw request line without waiting for a response (used to
    /// multiplex several streamed jobs over the connection).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.writer.write_all(request.as_bytes())?;
        self.writer.flush()
    }

    /// Reads and decodes one stream frame off the connection.
    ///
    /// Only valid on a connection where every in-flight job was submitted
    /// with `stream: true` — a plain response line is reported as
    /// [`io::ErrorKind::InvalidData`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a closed connection reads as
    /// [`io::ErrorKind::UnexpectedEof`]; an undecodable line becomes
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_frame(&mut self) -> io::Result<StreamFrame> {
        StreamFrame::from_json_line(&self.read_line()?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Submits a streamed placement job and returns its correlation id
    /// without waiting for any frame. Use [`ServiceClient::read_frame`] to
    /// collect frames, matching them to jobs by [`StreamFrame::id`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn submit_streaming(&mut self, spec: &JobSpec) -> io::Result<u64> {
        let id = self.next_stream_id;
        self.next_stream_id += 1;
        let spec = spec.clone().with_stream(id);
        self.send_line(&spec.to_json_line())?;
        Ok(id)
    }

    /// Submits a streamed placement job and blocks until its report frame,
    /// handing every intermediate frame (`accepted`, `queued`, `progress`)
    /// to `on_frame`. The returned envelope's report body is byte-identical
    /// to a non-streaming [`ServiceClient::place`] of the same job.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an undecodable or foreign-id frame becomes
    /// [`io::ErrorKind::InvalidData`].
    pub fn place_streaming(
        &mut self,
        spec: &JobSpec,
        mut on_frame: impl FnMut(&StreamFrame),
    ) -> io::Result<PlaceResponse> {
        let id = self.submit_streaming(spec)?;
        loop {
            let frame = self.read_frame()?;
            if frame.id() != id {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame for unexpected stream id {} (want {id})", frame.id()),
                ));
            }
            match frame {
                StreamFrame::Report { response, .. } => return Ok(*response),
                other => on_frame(&other),
            }
        }
    }

    /// Health check; returns the raw response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn ping(&mut self) -> io::Result<String> {
        self.request_line("{\"op\":\"ping\"}")
    }

    /// Service statistics; returns the raw response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn stats(&mut self) -> io::Result<String> {
        self.request_line("{\"op\":\"stats\"}")
    }

    /// Asks the service to dump its flight recorder to disk; returns the raw
    /// response line (the dump path and event count, or an `unavailable`
    /// error when the recorder is disabled).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn dump(&mut self) -> io::Result<String> {
        self.request_line("{\"op\":\"dump\"}")
    }

    /// Asks the service to shut down gracefully; returns the raw response
    /// line (normally `{"status":"shutting_down"}`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn shutdown(&mut self) -> io::Result<String> {
        self.request_line("{\"op\":\"shutdown\"}")
    }

    /// Submits a placement job, retrying through transient failures.
    ///
    /// Opens a fresh connection per attempt and retries — after the
    /// [`RetryPolicy`] backoff — on transient transport errors (connection
    /// refused/reset/aborted, EOF, broken pipe, timeout: the daemon may be
    /// restarting after a crash) and on the service's explicit
    /// `{"status":"retry"}` backpressure answer. Terminal responses
    /// (`ok`, `error`, `timeout`) are returned as soon as they arrive, with
    /// [`PlaceResponse::attempts`] set to the number of attempts spent.
    ///
    /// Retrying is safe even when an earlier attempt's job actually ran:
    /// reports are pure functions of `(circuit, config, seed)`, so a repeat
    /// submission returns the byte-identical report (usually from cache).
    ///
    /// # Errors
    ///
    /// Returns the last error once `policy.max_attempts` is exhausted, or
    /// immediately for non-transient I/O errors.
    pub fn place_with_retry(
        addr: impl ToSocketAddrs,
        spec: &JobSpec,
        policy: &RetryPolicy,
    ) -> io::Result<PlaceResponse> {
        assert!(policy.max_attempts >= 1, "retry policy needs at least one attempt");
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt - 1));
            }
            let result = ServiceClient::connect(&addr).and_then(|mut client| client.place(spec));
            match result {
                Ok(mut response) => {
                    response.attempts = attempt + 1;
                    if response.is_retry() {
                        // explicit backpressure: queue full right now
                        last_err = Some(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            response
                                .error
                                .clone()
                                .unwrap_or_else(|| "service asked to retry".to_string()),
                        ));
                        continue;
                    }
                    return Ok(response);
                }
                Err(e) if is_transient(e.kind()) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("retry budget exhausted")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(50),
            cap: Duration::from_millis(400),
            jitter_seed: 42,
        };
        let first: Vec<Duration> = (0..8).map(|k| policy.backoff(k)).collect();
        let second: Vec<Duration> = (0..8).map(|k| policy.backoff(k)).collect();
        assert_eq!(first, second, "jitter must be deterministic per (seed, attempt)");
        // pre-jitter schedule is 50, 100, 200, 400, 400, ... and jitter adds
        // at most half the backoff
        for (k, d) in first.iter().enumerate() {
            let base = Duration::from_millis((50u64 << k).min(400));
            assert!(
                *d >= base && *d <= base + base / 2 + Duration::from_nanos(1),
                "attempt {k}: {d:?}"
            );
        }
        let other = RetryPolicy { jitter_seed: 43, ..policy };
        assert_ne!(
            (0..8).map(|k| other.backoff(k)).collect::<Vec<_>>(),
            first,
            "different seeds should de-synchronise"
        );
    }

    #[test]
    fn transient_errors_are_the_connection_shaped_ones() {
        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::BrokenPipe,
        ] {
            assert!(is_transient(kind), "{kind:?}");
        }
        for kind in [io::ErrorKind::InvalidData, io::ErrorKind::PermissionDenied] {
            assert!(!is_transient(kind), "{kind:?}");
        }
    }
}
