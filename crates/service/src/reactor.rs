//! The service core: one reactor thread owns the listeners and every
//! connection behind a readiness poller (epoll on Linux, `poll(2)` on other
//! Unixes — see [`crate::poller`]). Non-Unix targets have no poller, so the
//! service does not run there.
//!
//! ```text
//!            ┌───────────────── reactor thread ─────────────────┐
//!  TCP ──────► poller: listeners + self-pipe + every connection │
//!  clients   │ nonblocking reads ─ line framing ─ dispatch      │
//!            │ per-connection write buffers ─ interest-based    │
//!            │ backpressure ─ completion queue drain            │
//!            └───────▲──────────────────────────────┬───────────┘
//!                    │ CompletionQueue + wake pipe  │ admit_place
//!                    │ (JobMsg::Progress / Done)    ▼
//!                  workers ◄───── bounded job queue ─┘
//! ```
//!
//! Connections cost buffers, not threads: thousands of held-open peers sit
//! as registered fds until bytes arrive. Workers never touch a socket — a
//! finished (or progressing) job goes into the [`CompletionQueue`], the
//! self-pipe pops the reactor out of its poll, and the reactor writes the
//! response into the owning connection's buffer. Write interest is
//! registered only while a buffer is non-empty; a slow reader stalls its own
//! connection (reads pause past the high-water mark), never the reactor.
//!
//! A second, optional listener takes HTTP scrapes: the first line framed on
//! such a connection is answered by [`crate::http`], then it closes. Those
//! connections share the job connections' slots, limit and nonblocking reads.
//!
//! Everything behind the protocol — admission under the enqueue lock,
//! derived seeds, cache, journal, deadlines, fault injection — lives in
//! [`crate::server`] ([`admit_place`] and the worker pool), and every line
//! written back comes from [`crate::reply`]; this module only frames lines,
//! dispatches ops and moves bytes.

use crate::http::{self, MAX_HEAD_BYTES};
use crate::json::Json;
pub(crate) use crate::poller::WakeSender;
use crate::poller::{new_poller, Interest, PollEvent, Poller, WakePipe};
use crate::protocol::JobSpec;
use crate::reply::{self, Answer, Dest, OVERLOADED_LINE, PANIC_ERROR};
use crate::server::{admit_place, initiate_shutdown, Admission, JobFailure, JobMsg, Shared};
use apls_circuit::benchmarks::BenchmarkCircuit;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::Instant;

/// Poller token of the listener socket.
const LISTENER: usize = 0;
/// Poller token of the wake pipe's read end.
const WAKE: usize = 1;
/// Poller token of the metrics listener, registered only when one is bound.
const METRICS: usize = 2;
/// First connection token; connection at slot `s` gets token `CONN_BASE + s`.
const CONN_BASE: usize = 3;

/// Reads pause once a connection's outbound buffer exceeds this, resuming
/// when the peer drains it: a slow reader stalls itself, not the service.
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Bytes read per `read` call on a readable connection.
const READ_CHUNK: usize = 16 * 1024;

/// Stall watchdog threshold: one reactor iteration (everything between two
/// readiness polls) spending longer than this is counted and traced — it
/// means every connection the reactor owns sat unserviced that long.
const STALL_WARN_MS: f64 = 250.0;

/// Finds the next newline in `buf` at or after `*scanned` and moves
/// `*scanned` past it, or to the end of `buf` when there is none: the bytes
/// before `*scanned` are never searched again.
fn next_line_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    match buf[*scanned..].iter().position(|&b| b == b'\n') {
        Some(offset) => {
            let end = *scanned + offset;
            *scanned = end + 1;
            Some(end)
        }
        None => {
            *scanned = buf.len();
            None
        }
    }
}

/// One reactor-owned connection.
struct Conn {
    stream: TcpStream,
    /// Accepted on the metrics listener: its first line is an HTTP request
    /// line, answered by [`http::answer`], and no request is dispatched.
    http: bool,
    /// The longest request line the peer may send: an HTTP head is capped
    /// far below a job request.
    max_line: usize,
    /// Bytes received but not yet framed into lines.
    read_buf: Vec<u8>,
    /// Length of the prefix of `read_buf` already searched for a newline
    /// (none found), so a line arriving in many pieces is scanned once.
    scanned: usize,
    /// Bytes queued for the peer; `wpos` marks how much is already written.
    write_buf: Vec<u8>,
    wpos: usize,
    /// A plain (non-streaming) `place` is in flight. The protocol is
    /// strictly request-response for plain jobs, so parsing pauses until
    /// the response is queued.
    blocked: bool,
    /// Client-chosen ids of streamed jobs in flight on this connection.
    streaming_ids: HashSet<u64>,
    /// Peer closed its write half (or the socket errored).
    peer_eof: bool,
    /// Close once the write buffer drains (fatal protocol error, shutdown
    /// acknowledgement).
    close_after_flush: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Total bytes ever queued on this connection (monotonic, survives
    /// write-buffer resets), pairing with `abs_flushed` to resolve flush
    /// marks.
    abs_queued: u64,
    /// Total bytes ever written to the socket.
    abs_flushed: u64,
    /// Queue time of each pending response line, keyed by the `abs_queued`
    /// offset its last byte occupies; drained into the `flush_ms` histogram
    /// as writes catch up.
    flush_marks: VecDeque<(u64, Instant)>,
}

impl Conn {
    /// Queues one response line (newline appended) for the peer.
    fn push_line(&mut self, line: &str) {
        self.write_buf.reserve(line.len() + 1);
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
        self.abs_queued += line.len() as u64 + 1;
        self.flush_marks.push_back((self.abs_queued, Instant::now()));
    }

    fn flushed(&self) -> bool {
        self.wpos >= self.write_buf.len()
    }

    fn backpressured(&self) -> bool {
        self.write_buf.len() - self.wpos > WRITE_HIGH_WATER
    }
}

/// A job admitted by the reactor, awaiting worker messages. `slot`/`gen`
/// identify the owning connection; a connection that died (and whose slot
/// was possibly reused) fails the generation check and the response is
/// dropped.
struct PendingJob {
    slot: usize,
    gen: u64,
    /// Where the job's messages go: a plain reply, or the frames of the
    /// stream with the client's correlation id.
    to: Dest,
    /// The job's circuit (for the name its responses echo).
    circuit: Arc<BenchmarkCircuit>,
    seed: u64,
    deadline_ms: Option<u64>,
    start: Instant,
}

/// Everything the reactor mutates per iteration.
struct Reactor {
    shared: Arc<Shared>,
    poller: Box<dyn Poller>,
    conns: Vec<Option<Conn>>,
    /// Slot generations: bumped on every allocation so stale completions
    /// can never reach a reused slot.
    gens: Vec<u64>,
    /// Reusable slots. Slots freed this iteration are parked in
    /// `freed_this_round` until the event batch is fully processed, so a
    /// stale readiness event later in the same batch cannot hit a brand-new
    /// peer.
    free: Vec<usize>,
    freed_this_round: Vec<usize>,
    /// Slots touched this iteration that need a flush/interest/close pass.
    dirty: Vec<usize>,
    /// In-flight jobs by job index.
    pending: HashMap<u64, PendingJob>,
    /// Every connection's reads land here first (allocated once).
    read_chunk: Box<[u8]>,
    /// Listeners registered with the poller (none once draining).
    listeners: i64,
    live: usize,
    accepted: u64,
    draining: bool,
}

/// The nonblocking job listener, the optional metrics listener and the
/// self-pipe, all registered with a fresh poller: everything the reactor
/// needs before it can run.
pub(crate) struct Listening {
    listener: TcpListener,
    metrics: Option<TcpListener>,
    poller: Box<dyn Poller>,
    pipe: WakePipe,
}

impl Listening {
    /// Builds the poller and the self-pipe and registers every fd.
    ///
    /// # Errors
    ///
    /// Propagates poller, pipe and registration failures (fd exhaustion).
    pub(crate) fn new(listener: TcpListener, metrics: Option<TcpListener>) -> io::Result<Self> {
        let mut poller = new_poller()?;
        let pipe = WakePipe::new()?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        if let Some(metrics) = &metrics {
            metrics.set_nonblocking(true)?;
            poller.register(metrics.as_raw_fd(), METRICS, Interest::READ)?;
        }
        poller.register(pipe.fd(), WAKE, Interest::READ)?;
        Ok(Listening { listener, metrics, poller, pipe })
    }

    /// A waker for other threads: interrupts the reactor's readiness poll.
    pub(crate) fn waker(&self) -> WakeSender {
        self.pipe.sender()
    }

    /// The poller backend's name (`apls_build_info{poller=…}`).
    pub(crate) fn poller_name(&self) -> &'static str {
        self.poller.name()
    }
}

/// Runs the service core on the current thread until shutdown.
pub(crate) fn run(listening: Listening, shared: &Arc<Shared>) {
    let Listening { listener, metrics, poller, pipe } = listening;
    let listeners = 1 + i64::from(metrics.is_some());
    shared.metrics.poller_registered_fds.set(1 + listeners);
    apls_telemetry::event!(
        shared.telemetry,
        "service",
        "reactor_start",
        poller = poller.name().to_string()
    );

    let mut reactor = Reactor {
        shared: Arc::clone(shared),
        poller,
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        freed_this_round: Vec::new(),
        dirty: Vec::new(),
        pending: HashMap::new(),
        read_chunk: vec![0; READ_CHUNK].into_boxed_slice(),
        listeners,
        live: 0,
        accepted: 0,
        draining: false,
    };
    let mut events: Vec<PollEvent> = Vec::new();

    loop {
        if reactor.shared.shutdown.load(std::sync::atomic::Ordering::SeqCst) && !reactor.draining {
            reactor.draining = true;
            reactor.listeners = 0;
            for listener in std::iter::once(&listener).chain(&metrics) {
                let _ = reactor.poller.deregister(listener.as_raw_fd());
            }
            // every idle connection should flush and close now
            for slot in 0..reactor.conns.len() {
                if reactor.conns[slot].is_some() {
                    reactor.mark_dirty(slot);
                }
            }
            reactor.finalize_dirty();
            reactor.recycle_freed();
        }
        if reactor.draining && reactor.live == 0 {
            break;
        }
        let poll_start = Instant::now();
        match reactor.poller.poll(&mut events, None) {
            Ok(n) => {
                if n > 0 {
                    reactor.shared.metrics.readiness_wakeups_total.inc();
                }
            }
            Err(_) => break, // poller died: no way to serve anything further
        }
        let work_start = Instant::now();
        reactor.shared.metrics.poll_wait_ms.observe((work_start - poll_start).as_secs_f64() * 1e3);
        for event in &events {
            match event.token {
                LISTENER => reactor.accept_burst(&listener, false),
                METRICS => reactor.accept_burst(metrics.as_ref().expect("metrics listener"), true),
                WAKE => pipe.drain(),
                token => {
                    let slot = token - CONN_BASE;
                    if event.readable || event.hangup {
                        reactor.handle_conn_event(slot, true);
                    }
                    if event.writable {
                        // flushing happens in the finalize pass
                        reactor.mark_dirty(slot);
                    }
                }
            }
        }
        reactor.drain_completions();
        reactor.finalize_dirty();
        reactor.recycle_freed();
        reactor.update_fd_gauge();
        // Iteration-duration histogram + stall watchdog: time spent serving
        // this batch is time every other connection waited.
        let loop_ms = work_start.elapsed().as_secs_f64() * 1e3;
        reactor.shared.metrics.loop_ms.observe(loop_ms);
        if loop_ms > STALL_WARN_MS {
            reactor.shared.metrics.reactor_stalls_total.inc();
            apls_telemetry::event!(reactor.shared.telemetry, "reactor", "stall", ms = loop_ms);
        }
    }
    reactor.shared.metrics.poller_registered_fds.set(0);
    // conns dropped here close their sockets; the gauge must follow
    reactor.shared.metrics.connections_active.sub(reactor.live as i64);
}

impl Reactor {
    fn mark_dirty(&mut self, slot: usize) {
        if !self.dirty.contains(&slot) {
            self.dirty.push(slot);
        }
    }

    fn recycle_freed(&mut self) {
        let freed: Vec<usize> = self.freed_this_round.drain(..).collect();
        self.free.extend(freed);
    }

    fn update_fd_gauge(&self) {
        // the wake pipe, the listeners and every connection
        self.shared.metrics.poller_registered_fds.set(1 + self.listeners + self.live as i64);
    }

    /// Accepts until the listener would block; `http` marks the metrics
    /// listener.
    fn accept_burst(&mut self, listener: &TcpListener, http: bool) {
        if self.draining {
            return;
        }
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => break, // WouldBlock, or a transient accept error
            };
            let connection = self.accepted;
            self.accepted += 1;
            if self.shared.fault.as_ref().is_some_and(|plan| plan.drop_connection(connection)) {
                self.shared.metrics.connections_dropped_total.inc();
                continue; // dropping the stream closes it mid-handshake
            }
            if self.live >= self.shared.config.max_connections {
                let mut stream = stream;
                // freshly accepted socket: the refusal fits the empty kernel
                // buffer, so a nonblocking write is effectively reliable
                let _ = stream.set_nonblocking(true);
                let refusal = if http { http::overloaded() } else { OVERLOADED_LINE.to_vec() };
                let _ = stream.write_all(&refusal);
                continue; // dropping the stream closes it
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let max_line = if http { MAX_HEAD_BYTES } else { self.shared.config.max_request_bytes };
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.conns.push(None);
                    self.gens.push(0);
                    self.conns.len() - 1
                }
            };
            if self.poller.register(stream.as_raw_fd(), CONN_BASE + slot, Interest::READ).is_err() {
                self.free.push(slot);
                continue; // dropping the stream closes it
            }
            self.gens[slot] += 1;
            self.conns[slot] = Some(Conn {
                stream,
                http,
                max_line,
                read_buf: Vec::new(),
                scanned: 0,
                write_buf: Vec::new(),
                wpos: 0,
                blocked: false,
                streaming_ids: HashSet::new(),
                peer_eof: false,
                close_after_flush: false,
                interest: Interest::READ,
                abs_queued: 0,
                abs_flushed: 0,
                flush_marks: VecDeque::new(),
            });
            self.live += 1;
            self.shared.metrics.connections_active.add(1);
            apls_telemetry::event!(self.shared.telemetry, "service", "accept");
        }
    }

    fn handle_conn_event(&mut self, slot: usize, readable: bool) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // stale event for a slot freed earlier in this batch
        };
        if readable && !conn.peer_eof && !conn.close_after_flush {
            let chunk = &mut self.read_chunk;
            loop {
                // stop pulling bytes while backpressured or blocked;
                // level-triggered polling re-delivers readability once
                // interest returns
                if conn.blocked || conn.backpressured() {
                    break;
                }
                match conn.stream.read(chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        if conn.read_buf.len() > conn.max_line {
                            break; // oversized: process_lines answers + closes
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.peer_eof = true;
                        break;
                    }
                }
            }
            self.process_lines(slot);
        }
        self.mark_dirty(slot);
    }

    /// Frames and dispatches every complete line buffered on `slot`; on an
    /// HTTP connection, answers the first line instead.
    ///
    /// Each line is dispatched as a trimmed slice of the connection's read
    /// buffer, which is taken out of the connection meanwhile (dispatching
    /// needs `&mut self`) and put back with the consumed bytes dropped once
    /// per call. Bytes already searched are never searched again.
    fn process_lines(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        let mut buf = std::mem::take(&mut conn.read_buf);
        let mut scanned = conn.scanned;
        let mut consumed = 0;
        let (http, cap) = (conn.http, conn.max_line);
        while let Some(conn) = self.conns.get(slot).and_then(Option::as_ref) {
            if conn.blocked || conn.close_after_flush || self.draining {
                break;
            }
            if conn.backpressured() {
                break; // finish writing before parsing more requests
            }
            let Some(end) = next_line_end(&buf, &mut scanned) else {
                if buf.len() - consumed > cap {
                    // a peer streaming bytes without newlines can never
                    // make the daemon buffer more than the request cap
                    self.overlong_request(slot, cap);
                }
                break;
            };
            let line = &buf[consumed..end];
            consumed = end + 1;
            if line.len() > cap {
                self.overlong_request(slot, cap);
                break;
            }
            if http {
                self.answer_http(slot, std::str::from_utf8(line).ok());
                break;
            }
            let Ok(text) = std::str::from_utf8(line) else {
                self.refuse(slot, "bad_request", "request is not valid UTF-8");
                break;
            };
            let request = text.trim();
            if request.is_empty() {
                continue;
            }
            self.dispatch_line(slot, request);
            self.mark_dirty(slot);
        }
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            buf.drain(..consumed);
            conn.read_buf = buf;
            conn.scanned = scanned - consumed;
        }
    }

    /// Answers an over-limit request line and schedules the close.
    fn overlong_request(&mut self, slot: usize, cap: usize) {
        if self.conns.get(slot).and_then(Option::as_ref).is_some_and(|conn| conn.http) {
            self.answer_http(slot, None);
            return;
        }
        let message = format!("request exceeds {cap} bytes, closing connection");
        self.refuse(slot, "request_too_large", &message);
    }

    /// Answers an HTTP request line (`None`: over the head cap or not
    /// UTF-8) and closes the connection once the answer is flushed. A scrape
    /// is not a protocol request: it counts in no request or error total.
    fn answer_http(&mut self, slot: usize, request_line: Option<&str>) {
        let response = http::answer(request_line, &self.shared);
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            // no flush mark: `flush_ms` times protocol replies only
            conn.write_buf.extend_from_slice(response.as_bytes());
            conn.abs_queued += response.len() as u64;
            conn.close_after_flush = true;
        }
    }

    /// Answers a request line that cannot be read with an error and closes
    /// the connection once the answer is flushed.
    fn refuse(&mut self, slot: usize, kind: &str, message: &str) {
        self.shared.metrics.requests_total.inc();
        self.answer(slot, Dest::Plain, &Answer::Error { kind, message });
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            conn.close_after_flush = true;
        }
    }

    fn dispatch_line(&mut self, slot: usize, line: &str) {
        self.shared.metrics.requests_total.inc();
        let json = match Json::parse(line) {
            Ok(json) => json,
            Err(e) => {
                let message = format!("invalid JSON: {e}");
                let answer = Answer::Error { kind: "bad_request", message: &message };
                self.answer(slot, Dest::Plain, &answer);
                return;
            }
        };
        let op = json.get("op").and_then(Json::as_str);
        apls_telemetry::event!(
            self.shared.telemetry,
            "service",
            "request",
            op = op.unwrap_or("(missing)").to_string()
        );
        match op {
            Some("ping") => self.send(slot, Dest::Plain, &reply::ping()),
            Some("stats") => {
                let line = reply::stats(&self.shared);
                self.send(slot, Dest::Plain, &line);
            }
            Some("shutdown") => {
                self.send(slot, Dest::Plain, reply::SHUTTING_DOWN);
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    conn.close_after_flush = true;
                }
                initiate_shutdown(&self.shared);
            }
            Some("place") => self.place(slot, &json),
            Some("dump") => match self.shared.dump_flight("dump_op") {
                Some(Ok(dump)) => self.send(slot, Dest::Plain, &reply::dump(&dump)),
                Some(Err(e)) => {
                    let message = format!("flight recorder dump failed: {e}");
                    let answer = Answer::Error { kind: "internal", message: &message };
                    self.answer(slot, Dest::Plain, &answer);
                }
                None => {
                    let message = "flight recorder is disabled (capacity 0)";
                    self.answer(slot, Dest::Plain, &Answer::Error { kind: "unavailable", message });
                }
            },
            Some(other) => {
                let message = format!("unknown op '{other}' (place, ping, stats, dump, shutdown)");
                let answer = Answer::Error { kind: "bad_request", message: &message };
                self.answer(slot, Dest::Plain, &answer);
            }
            None => {
                let message = "request needs an 'op' field";
                self.answer(slot, Dest::Plain, &Answer::Error { kind: "bad_request", message });
            }
        }
    }

    /// Queues one line for `slot`'s peer; a line for a stream is a frame,
    /// counted and traced as sent.
    fn send(&mut self, slot: usize, to: Dest, line: &str) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        if let Dest::Stream(_) = to {
            self.shared.metrics.frames_sent_total.inc();
            apls_telemetry::event!(self.shared.telemetry, "service", "frame");
        }
        conn.push_line(line);
    }

    /// Queues the answer to a request for `slot`'s peer and counts its
    /// outcome. Every caller answers a connection that is still open, so
    /// the counters match what clients receive.
    fn answer(&mut self, slot: usize, to: Dest, answer: &Answer<'_>) {
        let line = reply::render(&self.shared.metrics, to, answer);
        self.send(slot, to, &line);
    }

    fn place(&mut self, slot: usize, json: &Json) {
        let start = Instant::now();
        let spec = match JobSpec::from_json(json) {
            Ok(spec) => spec,
            Err(message) => {
                let answer = Answer::Error { kind: "bad_request", message: &message };
                self.answer(slot, Dest::Plain, &answer);
                return;
            }
        };
        let to =
            spec.stream_id.filter(|_| spec.stream == Some(true)).map_or(Dest::Plain, Dest::Stream);
        if let Dest::Stream(cid) = to {
            let duplicate = self
                .conns
                .get(slot)
                .and_then(Option::as_ref)
                .is_some_and(|c| c.streaming_ids.contains(&cid));
            if duplicate {
                let message = format!("stream id {cid} is already in flight on this connection");
                self.answer(slot, to, &Answer::Error { kind: "bad_request", message: &message });
                return;
            }
        }
        let canonical = match self.shared.circuits.resolve(&spec.circuit) {
            Ok(canonical) => canonical,
            Err(message) => {
                self.answer(slot, to, &Answer::Error { kind: "bad_request", message: &message });
                return;
            }
        };
        let circuit = Arc::clone(&canonical.circuit);
        let circuit_name = circuit.name.as_str();
        let deadline_ms = spec.deadline_ms;
        // the span handle must not borrow self (send/answer take &mut self),
        // so it hangs off an owned clone of the shared state
        let shared = Arc::clone(&self.shared);
        let mut request_span =
            apls_telemetry::span!(shared.telemetry, "service", "place", circuit = circuit_name);
        match admit_place(&spec, canonical, &shared, to, start) {
            Admission::ShuttingDown => {
                let message = "service is shutting down";
                self.answer(slot, to, &Answer::Error { kind: "unavailable", message });
            }
            Admission::QueueFull => self.answer(slot, to, &Answer::Retry),
            Admission::Cached { index, seed, quoted_report } => {
                let total_ms = start.elapsed().as_secs_f64() * 1e3;
                self.shared.metrics.total_ms.observe(total_ms);
                if request_span.is_recording() {
                    request_span.arg("id", index);
                    request_span.arg("seed", seed);
                    request_span.arg("cache_hit", true);
                }
                if let Dest::Stream(cid) = to {
                    self.send(slot, to, &reply::accepted_frame(cid, index, circuit_name, seed));
                    // a hit never consumed a queue slot: depth 0
                    self.send(slot, to, &reply::queued_frame(cid, 0));
                }
                let answer = Answer::Ok {
                    job: index,
                    circuit: circuit_name,
                    seed,
                    cache_hit: true,
                    queue_ms: 0.0,
                    solve_ms: total_ms,
                    total_ms,
                    quoted_report: &quoted_report,
                };
                self.answer(slot, to, &answer);
            }
            Admission::Enqueued { index, seed } => {
                if request_span.is_recording() {
                    request_span.arg("id", index);
                    request_span.arg("seed", seed);
                }
                self.pending.insert(
                    index,
                    PendingJob {
                        slot,
                        gen: self.gens[slot],
                        to,
                        circuit: Arc::clone(&circuit),
                        seed,
                        deadline_ms,
                        start,
                    },
                );
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                match to {
                    Dest::Stream(cid) => {
                        conn.streaming_ids.insert(cid);
                        self.send(slot, to, &reply::accepted_frame(cid, index, circuit_name, seed));
                        let depth = self.shared.metrics.queue_depth.get().max(0) as u64;
                        self.send(slot, to, &reply::queued_frame(cid, depth));
                    }
                    Dest::Plain => conn.blocked = true,
                }
            }
        }
    }

    /// Routes every queued worker message to its owning connection.
    fn drain_completions(&mut self) {
        for (index, msg) in self.shared.completions.drain() {
            match msg {
                JobMsg::Progress { engine, restart, completed, total, cost } => {
                    let Some(p) = self.pending.get(&index) else { continue };
                    let (slot, gen, to) = (p.slot, p.gen, p.to);
                    if self.gens.get(slot).copied() != Some(gen) {
                        continue; // connection died; nothing to stream to
                    }
                    if let Dest::Stream(cid) = to {
                        let frame =
                            reply::progress_frame(cid, engine, restart, completed, total, cost);
                        self.send(slot, to, &frame);
                        self.mark_dirty(slot);
                    }
                }
                JobMsg::Done { outcome, queue_ms, solve_ms } => {
                    let Some(p) = self.pending.remove(&index) else { continue };
                    let total_ms = p.start.elapsed().as_secs_f64() * 1e3;
                    self.shared.metrics.total_ms.observe(total_ms);
                    let alive = self.gens.get(p.slot).copied() == Some(p.gen)
                        && self.conns.get(p.slot).and_then(Option::as_ref).is_some();
                    if !alive {
                        continue; // client hung up; the report is cached/journaled
                    }
                    let (slot, to) = (p.slot, p.to);
                    let answer = match &outcome {
                        Ok((report, cache_hit)) => Answer::Ok {
                            job: index,
                            circuit: &p.circuit.name,
                            seed: p.seed,
                            cache_hit: *cache_hit,
                            queue_ms,
                            solve_ms,
                            total_ms,
                            quoted_report: report,
                        },
                        Err(JobFailure::Timeout) => Answer::Timeout {
                            job: index,
                            circuit: &p.circuit.name,
                            seed: p.seed,
                            deadline_ms: p.deadline_ms.unwrap_or(0),
                        },
                        Err(JobFailure::Panic) => {
                            Answer::Error { kind: "internal", message: PANIC_ERROR }
                        }
                    };
                    self.answer(slot, to, &answer);
                    let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                        continue;
                    };
                    match to {
                        Dest::Stream(cid) => {
                            conn.streaming_ids.remove(&cid);
                        }
                        Dest::Plain => {
                            conn.blocked = false;
                            // unblocked: serve any requests the peer pipelined
                            self.process_lines(slot);
                        }
                    }
                    self.mark_dirty(slot);
                }
            }
        }
    }

    /// Flushes, closes and re-registers every connection touched this
    /// iteration.
    fn finalize_dirty(&mut self) {
        let dirty: Vec<usize> = self.dirty.drain(..).collect();
        let mut pass_high_water: u64 = 0;
        for slot in dirty {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { continue };
            // eager flush: most responses fit the socket buffer, so the
            // common case never registers write interest at all
            let mut broken = false;
            while conn.wpos < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.wpos..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.abs_flushed += n as u64;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            // every response line whose last byte reached the socket resolves
            // its queue-time mark into the flush-stage histogram
            while conn.flush_marks.front().is_some_and(|&(end, _)| end <= conn.abs_flushed) {
                let (_, queued_at) = conn.flush_marks.pop_front().expect("front checked");
                self.shared.metrics.flush_ms.observe(queued_at.elapsed().as_secs_f64() * 1e3);
            }
            pass_high_water = pass_high_water.max((conn.write_buf.len() - conn.wpos) as u64);
            if conn.flushed() {
                conn.write_buf.clear();
                conn.wpos = 0;
            }
            // idle: no job in flight, plain or streamed, and nothing to write
            let idle = !conn.blocked && conn.streaming_ids.is_empty() && conn.flushed();
            let close = broken
                || (conn.close_after_flush && conn.flushed())
                || (conn.peer_eof && idle)
                || (self.draining && idle);
            if close {
                self.close_conn(slot);
                continue;
            }
            let desired = Interest {
                read: !conn.close_after_flush
                    && !conn.peer_eof
                    && !conn.blocked
                    && !self.draining
                    && !conn.backpressured(),
                write: !conn.flushed(),
            };
            if desired != conn.interest {
                let fd = conn.stream.as_raw_fd();
                if self.poller.reregister(fd, CONN_BASE + slot, desired).is_ok() {
                    if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                        conn.interest = desired;
                    }
                } else {
                    self.close_conn(slot);
                }
            }
        }
        // the reactor is single-threaded, so the get-then-set ratchet on the
        // high-water gauge cannot race
        let metrics = &self.shared.metrics;
        metrics.write_buffer_bytes.set(pass_high_water as i64);
        if pass_high_water as i64 > metrics.write_buffer_high_water.get() {
            metrics.write_buffer_high_water.set(pass_high_water as i64);
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.live -= 1;
            self.shared.metrics.connections_active.sub(1);
            self.freed_this_round.push(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::next_line_end;

    #[test]
    fn a_line_dribbled_one_byte_at_a_time_is_searched_once() {
        const LEN: usize = 200_000;
        let mut buf = Vec::with_capacity(LEN + 8);
        let mut scanned = 0;
        let mut searched = 0;
        for _ in 0..LEN {
            buf.push(b'x');
            searched += buf.len() - scanned;
            assert_eq!(next_line_end(&buf, &mut scanned), None);
            assert_eq!(scanned, buf.len());
        }
        buf.extend_from_slice(b"\n{}\n");
        searched += buf.len() - scanned;
        assert_eq!(next_line_end(&buf, &mut scanned), Some(LEN));
        assert_eq!(next_line_end(&buf, &mut scanned), Some(LEN + 3));
        assert_eq!(next_line_end(&buf, &mut scanned), None);
        // each byte once (a rescan from the start would be LEN^2 / 2)
        assert_eq!(searched, LEN + 4);
    }
}
