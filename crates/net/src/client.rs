//! The `msq send` side: a producer client with windowed acks, retry with
//! exponential backoff, and resume-from-last-acked-timestamp — plus a
//! small blocking [`Subscription`] for `msq tail`-style consumers.
//!
//! ## Delivery contract
//!
//! [`StreamClient`] assigns every outgoing frame a sequence number and
//! keeps it in an unacked window until the server's cumulative
//! [`Frame::Ack`] covers it. When the window is full, `send` stalls until
//! acks make progress — the client never buffers unboundedly. On any I/O
//! failure the client reconnects with exponential backoff, re-handshakes,
//! prunes frames at or below the server's `resume_ts` (they were durably
//! ingested; the ack was lost), and retransmits the rest. Retransmitted
//! tuples that raced the crash are deduplicated server-side, which is
//! sound because producer data timestamps are **strictly increasing** —
//! that is this protocol's resume contract.
//!
//! Frames are encoded once, when `send` (or `heartbeat`/`close`) queues
//! them: a tuple the wire cannot carry (a `STRING` over 64 KiB, a frame
//! over `MAX_FRAME_LEN`) is refused there with an error and never
//! queued, so only link I/O can fail a write, and only link I/O is
//! retried. A link that fails `connect_retries` times in a row with no
//! ack progress in between ends the session with an error.

use std::collections::VecDeque;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use millstream_types::{Error, Result, Schema, Timestamp, Tuple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::frame::{write_frame, Frame, FrameReader, ReadOutcome, Role, PROTOCOL_VERSION};

/// One reconnect delay of the jittered exponential-backoff schedule.
///
/// The nominal schedule doubles from `base` per attempt and saturates at
/// `max`; `jitter` (any `u64`, typically random) then pulls the delay
/// uniformly down into `[nominal/2, nominal]`, de-synchronizing clients
/// that lost the same server at the same instant (a thundering herd of
/// lock-step retries is exactly what a recovering server does not need).
/// The result is always clamped to `[base, max]`, whatever the inputs —
/// property-tested in `tests/feedback.rs`.
pub fn backoff_delay(base: Duration, max: Duration, attempt: u32, jitter: u64) -> Duration {
    let base = base.min(max);
    let mut nominal = base;
    // Saturating doubling: `attempt` is 1-based for the first retry.
    for _ in 1..attempt.max(1) {
        nominal = nominal.checked_mul(2).unwrap_or(max).min(max);
        if nominal == max {
            break;
        }
    }
    let spread = nominal / 2;
    let pulled = nominal.saturating_sub(Duration::from_nanos(
        jitter % (spread.as_nanos().min(u64::MAX as u128) as u64 + 1),
    ));
    pulled.clamp(base, max)
}

/// A machine-random seed without any extra dependency: the std hasher's
/// per-process randomness.
fn entropy_seed() -> u64 {
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

/// Configuration for [`StreamClient::connect`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Stream (source) name to produce into.
    pub stream: String,
    /// Schema to claim in the handshake; `None` adopts the server's.
    pub schema: Option<Schema>,
    /// Max frames in flight before `send` stalls on acks.
    pub ack_window: usize,
    /// Connection attempts per (re)connect before giving up; also the
    /// number of consecutive link failures, with no ack progress between
    /// them, that ends the session.
    pub connect_retries: u32,
    /// First retry backoff; doubles per attempt up to `max_backoff`.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Max silence waiting for an ack before the link is declared dead
    /// and the reconnect path runs.
    pub io_timeout: Duration,
    /// Seed for the reconnect-backoff jitter; `None` (default) seeds from
    /// process randomness. Fix it for deterministic tests.
    pub backoff_seed: Option<u64>,
}

impl ClientConfig {
    /// Defaults tuned for loopback tests: small backoffs, modest window.
    pub fn new(addr: impl Into<String>, stream: impl Into<String>) -> Self {
        ClientConfig {
            addr: addr.into(),
            stream: stream.into(),
            schema: None,
            ack_window: 32,
            connect_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
            backoff_seed: None,
        }
    }
}

/// Counters a producer session accumulates; returned by
/// [`StreamClient::close`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Frames handed to `send`/`heartbeat`/`close`.
    pub sent: u64,
    /// Frames covered by a server ack.
    pub acked: u64,
    /// Frames written more than once (reconnect retransmission).
    pub retransmitted: u64,
    /// Times the link was re-established.
    pub reconnects: u64,
    /// Unacked frames dropped on reconnect because the server's
    /// `resume_ts` proved them durably ingested.
    pub resume_skipped: u64,
    /// Feedback pacing frames received from the server.
    pub feedback_frames: u64,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

/// A sequenced frame awaiting its ack, encoded once when it was queued.
#[derive(Debug)]
struct Pending {
    seq: u64,
    /// The data or heartbeat timestamp (micros) the resume prune compares
    /// against; `None` for `Close`, which is never pruned.
    ts: Option<u64>,
    /// The encoded frame, length prefix included.
    bytes: Vec<u8>,
}

/// A producer connection to an `msq serve` instance.
#[derive(Debug)]
pub struct StreamClient {
    cfg: ClientConfig,
    conn: Option<Conn>,
    /// Schema negotiated in the last handshake.
    schema: Option<Schema>,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Highest cumulatively acked sequence number.
    acked_seq: u64,
    /// Highest sequence written on the *current* connection; frames above
    /// it are pending (re)transmission.
    written_seq: u64,
    unacked: VecDeque<Pending>,
    /// Link failures since the window last made progress (an ack, or a
    /// resume prune); reaching `connect_retries` ends the session.
    link_failures: u32,
    /// Highest source high-water the server has acked (micros); echoed
    /// as the resume hint when re-handshaking.
    acked_ts: u64,
    report: ClientReport,
    /// Chaos hook: sever the link after this many more frame writes.
    fail_after: Option<u64>,
    /// Send window requested by the server's last [`Frame::Feedback`];
    /// `None` means no server limit (use the configured window).
    server_window: Option<usize>,
    /// Jitter source for the reconnect backoff schedule.
    rng: SmallRng,
}

impl StreamClient {
    /// Connects (with retry/backoff) and completes the handshake.
    pub fn connect(cfg: ClientConfig) -> Result<StreamClient> {
        let rng = SmallRng::seed_from_u64(cfg.backoff_seed.unwrap_or_else(entropy_seed));
        let mut c = StreamClient {
            cfg,
            conn: None,
            schema: None,
            next_seq: 1,
            acked_seq: 0,
            written_seq: 0,
            unacked: VecDeque::new(),
            link_failures: 0,
            acked_ts: 0,
            report: ClientReport::default(),
            fail_after: None,
            server_window: None,
            rng,
        };
        c.ensure_connected()?;
        Ok(c)
    }

    /// The schema the server confirmed for this stream.
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// Session counters so far.
    pub fn report(&self) -> &ClientReport {
        &self.report
    }

    /// The send window the server last requested via feedback, if any.
    pub fn server_window(&self) -> Option<usize> {
        self.server_window
    }

    /// The window `pump` actually enforces: the configured window, further
    /// narrowed by the server's last feedback request.
    fn effective_window(&self) -> usize {
        let configured = self.cfg.ack_window.max(1);
        match self.server_window {
            Some(requested) => configured.min(requested.max(1)),
            None => configured,
        }
    }

    /// Test chaos hook: after `frames` more successful frame writes, the
    /// socket is severed (as if the network dropped), exercising the
    /// reconnect + resume + retransmit path deterministically.
    pub fn fail_link_after(&mut self, frames: u64) {
        self.fail_after = Some(frames);
    }

    /// Sends one data tuple. May block while the ack window is full and
    /// may transparently reconnect; returns an error when the tuple cannot
    /// be encoded (it is not queued, and the session goes on), when the
    /// server rejects the session, or when retries are exhausted.
    pub fn send(&mut self, tuple: Tuple) -> Result<()> {
        self.queue(Frame::Data {
            seq: self.next_seq,
            tuple,
        })?;
        self.pump()
    }

    /// Sends an explicit heartbeat for the stream.
    pub fn heartbeat(&mut self, ts: Timestamp) -> Result<()> {
        self.queue(Frame::Heartbeat {
            seq: self.next_seq,
            ts,
        })?;
        self.pump()
    }

    /// Encodes `frame` (which carries `next_seq`) and appends it to the
    /// unacked window. An encoding error leaves the window and the
    /// sequence untouched.
    fn queue(&mut self, frame: Frame) -> Result<()> {
        let bytes = frame.encode()?;
        let ts = match &frame {
            Frame::Data { tuple, .. } => Some(tuple.ts.as_micros()),
            Frame::Heartbeat { ts, .. } => Some(ts.as_micros()),
            _ => None,
        };
        self.unacked.push_back(Pending {
            seq: self.next_seq,
            ts,
            bytes,
        });
        self.next_seq += 1;
        self.report.sent += 1;
        Ok(())
    }

    /// Blocks until every buffered frame is acked, surfacing any server
    /// rejection already on the wire (pipelined `send`s return before the
    /// server's verdict arrives; this is the synchronization point).
    pub fn flush(&mut self) -> Result<()> {
        self.pump()?;
        while !self.unacked.is_empty() {
            self.await_ack_progress()?;
        }
        Ok(())
    }

    /// Declares end-of-stream, waits for every frame to be acked, and
    /// returns the session report.
    pub fn close(mut self) -> Result<ClientReport> {
        self.queue(Frame::Close { seq: self.next_seq })?;
        self.flush()?;
        if let Some(conn) = &mut self.conn {
            let _ = write_frame(&mut conn.stream, &Frame::Bye);
        }
        Ok(self.report)
    }

    /// Writes everything pending and enforces the ack window.
    fn pump(&mut self) -> Result<()> {
        loop {
            self.ensure_connected()?;
            if self.write_pending().is_err() {
                self.note_link_down()?;
                continue;
            }
            if self.unacked.len() < self.effective_window() {
                return Ok(());
            }
            // Window full: stall until the server makes ack progress.
            // (Feedback frames narrowing the window are also consumed
            // here, so pacing takes effect within one ack round-trip.)
            self.await_ack_progress()?;
            if self.unacked.len() < self.effective_window() {
                return Ok(());
            }
        }
    }

    /// Writes buffered frames not yet sent on this connection. `unacked`
    /// is in sequence order, so the unwritten frames are a suffix, found
    /// by binary search instead of a rescan of the whole window. Frames
    /// are already encoded, so every error here is a link error.
    fn write_pending(&mut self) -> io::Result<()> {
        let conn = self.conn.as_mut().expect("ensure_connected ran");
        let first = self.unacked.partition_point(|p| p.seq <= self.written_seq);
        for p in self.unacked.range(first..) {
            conn.stream.write_all(&p.bytes)?;
            self.written_seq = p.seq;
            if let Some(n) = &mut self.fail_after {
                if *n <= 1 {
                    self.fail_after = None;
                    // Simulate a dropped link: both directions die; the
                    // next operation fails over to reconnect.
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    return Err(io::Error::other("link severed (chaos hook)"));
                }
                *n -= 1;
            }
        }
        Ok(())
    }

    /// Blocks until at least one ack arrives (or the link proves dead and
    /// a reconnect round is triggered).
    fn await_ack_progress(&mut self) -> Result<()> {
        loop {
            self.ensure_connected()?;
            if self.write_pending().is_err() {
                self.note_link_down()?;
                continue;
            }
            let before = self.acked_seq;
            let deadline = Instant::now() + self.cfg.io_timeout;
            loop {
                let outcome = {
                    let conn = self.conn.as_mut().expect("ensure_connected ran");
                    conn.reader.poll(&mut conn.stream)
                };
                match outcome {
                    Ok(ReadOutcome::Frame(f)) => {
                        self.handle_server_frame(f)?;
                        break;
                    }
                    Ok(ReadOutcome::Timeout) => {
                        if Instant::now() > deadline {
                            self.note_link_down()?;
                            break;
                        }
                    }
                    Ok(ReadOutcome::Eof) | Err(_) => {
                        self.note_link_down()?;
                        break;
                    }
                }
            }
            if self.acked_seq > before || self.unacked.is_empty() {
                return Ok(());
            }
        }
    }

    /// Processes one server-to-producer frame.
    fn handle_server_frame(&mut self, f: Frame) -> Result<()> {
        match f {
            Frame::Ack { seq, high_water } => {
                if seq > self.acked_seq {
                    self.acked_seq = seq;
                    self.link_failures = 0;
                }
                self.acked_ts = self.acked_ts.max(high_water);
                while self
                    .unacked
                    .front()
                    .is_some_and(|p| p.seq <= self.acked_seq)
                {
                    self.unacked.pop_front();
                    self.report.acked += 1;
                }
                Ok(())
            }
            Frame::Feedback { window, .. } => {
                // Upstream pacing: adopt (or clear) the server-requested
                // send window. Never an error — feedback is advisory
                // punctuation, not a session verdict.
                self.server_window = if window == 0 {
                    None
                } else {
                    Some(window.min(usize::MAX as u64) as usize)
                };
                self.report.feedback_frames += 1;
                Ok(())
            }
            Frame::Error { code, message } => Err(Error::runtime(format!(
                "server rejected the session ({code:?}): {message}"
            ))),
            Frame::Bye => {
                // Server is going away; treat like a broken link so a
                // restart (tests) or final close path can proceed.
                self.note_link_down()
            }
            other => Err(Error::runtime(format!(
                "unexpected frame from server: {other:?}"
            ))),
        }
    }

    /// Drops the connection so the next operation reconnects, and ends
    /// the session once the link has failed `connect_retries` times in a
    /// row without the window making progress.
    fn note_link_down(&mut self) -> Result<()> {
        if self.conn.take().is_some() {
            self.report.reconnects += 1;
        }
        self.written_seq = self.acked_seq;
        self.link_failures += 1;
        if self.link_failures >= self.cfg.connect_retries.max(1) {
            return Err(Error::runtime(format!(
                "wire: link failed {} time(s) in a row with no ack progress; giving up",
                self.link_failures
            )));
        }
        Ok(())
    }

    /// (Re)establishes the connection, with exponential backoff, and
    /// prunes the unacked window against the server's resume point.
    fn ensure_connected(&mut self) -> Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last_err = None;
        for attempt in 0..self.cfg.connect_retries.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(
                    self.cfg.base_backoff,
                    self.cfg.max_backoff,
                    attempt,
                    self.rng.next_u64(),
                ));
            }
            match self.try_handshake() {
                Ok(conn) => {
                    self.conn = Some(conn);
                    return Ok(());
                }
                Err(Retryable::No(e)) => return Err(e),
                Err(Retryable::Yes(e)) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| Error::runtime("wire: connect failed")))
    }

    fn try_handshake(&mut self) -> std::result::Result<Conn, Retryable> {
        let stream = TcpStream::connect(&self.cfg.addr).map_err(|e| {
            Retryable::Yes(Error::runtime(format!("connect {}: {e}", self.cfg.addr)))
        })?;
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .map_err(|e| Retryable::Yes(Error::runtime(format!("set_read_timeout: {e}"))))?;
        stream
            .set_nodelay(true)
            .map_err(|e| Retryable::Yes(Error::runtime(format!("set_nodelay: {e}"))))?;
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(),
        };
        write_frame(
            &mut conn.stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                role: Role::Producer,
                stream: self.cfg.stream.clone(),
                schema: self.cfg.schema.clone(),
                resume_hint: self.acked_ts,
            },
        )
        .map_err(Retryable::Yes)?;
        let deadline = Instant::now() + self.cfg.io_timeout;
        let reply = loop {
            match conn.reader.poll(&mut conn.stream) {
                Ok(ReadOutcome::Frame(f)) => break f,
                Ok(ReadOutcome::Timeout) => {
                    if Instant::now() > deadline {
                        return Err(Retryable::Yes(Error::runtime("wire: handshake timed out")));
                    }
                }
                Ok(ReadOutcome::Eof) => {
                    return Err(Retryable::Yes(Error::runtime(
                        "wire: server closed during handshake",
                    )));
                }
                Err(e) => return Err(Retryable::Yes(e)),
            }
        };
        match reply {
            Frame::HelloAck {
                version: _,
                schema,
                resume_ts,
            } => {
                self.schema = Some(schema);
                self.prune_resumed(resume_ts);
                // Everything still buffered needs (re)transmission on
                // this fresh connection.
                self.report.retransmitted += self
                    .unacked
                    .iter()
                    .filter(|p| p.seq <= self.written_seq)
                    .count() as u64;
                self.written_seq = self.acked_seq;
                Ok(conn)
            }
            // A handshake rejection (unknown stream, schema mismatch,
            // version skew) will not improve with retries.
            Frame::Error { code, message } => Err(Retryable::No(Error::runtime(format!(
                "server refused the handshake ({code:?}): {message}"
            )))),
            other => Err(Retryable::Yes(Error::runtime(format!(
                "unexpected handshake reply: {other:?}"
            )))),
        }
    }

    /// Drops buffered data frames the server has durably ingested (their
    /// ack was lost in the crash): anything at or below `resume_ts`.
    fn prune_resumed(&mut self, resume_ts: u64) {
        if resume_ts == 0 {
            return;
        }
        let before = self.unacked.len();
        // Data at or below the resume point was ingested. A heartbeat
        // there asserts nothing the server doesn't already know —
        // retransmitting it would only be dropped as stale engine-side —
        // so it is pruned and counted as resumed, like the data it rode
        // with. Closes (`ts: None`) are idempotent server-side; keep them.
        self.unacked
            .retain(|p| p.ts.is_none_or(|ts| ts > resume_ts));
        let skipped = (before - self.unacked.len()) as u64;
        if skipped > 0 {
            self.link_failures = 0;
        }
        self.report.resume_skipped += skipped;
        self.report.acked += skipped;
    }
}

enum Retryable {
    Yes(Error),
    No(Error),
}

/// A blocking subscriber to the server's sink output.
pub struct Subscription {
    stream: TcpStream,
    reader: FrameReader,
    schema: Schema,
    /// Cumulative outputs shed server-side for this subscriber, as
    /// declared by [`Frame::Feedback`] drop notices.
    dropped: u64,
    /// Feedback notices received.
    feedback_frames: u64,
}

impl Subscription {
    /// Connects as a subscriber and completes the handshake.
    pub fn connect(addr: &str) -> Result<Subscription> {
        let stream =
            TcpStream::connect(addr).map_err(|e| Error::runtime(format!("connect {addr}: {e}")))?;
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .map_err(|e| Error::runtime(format!("set_read_timeout: {e}")))?;
        let mut sub = Subscription {
            stream,
            reader: FrameReader::new(),
            schema: Schema::empty(),
            dropped: 0,
            feedback_frames: 0,
        };
        write_frame(
            &mut sub.stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                role: Role::Subscriber,
                stream: String::new(),
                schema: None,
                resume_hint: 0,
            },
        )?;
        match sub.read_deadline(Duration::from_secs(5))? {
            Some(Frame::HelloAck { schema, .. }) => {
                sub.schema = schema;
                Ok(sub)
            }
            Some(Frame::Error { code, message }) => Err(Error::runtime(format!(
                "server refused the subscription ({code:?}): {message}"
            ))),
            other => Err(Error::runtime(format!(
                "unexpected subscription handshake reply: {other:?}"
            ))),
        }
    }

    /// The query's output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Cumulative outputs the server declared shed for this subscriber
    /// (via [`Frame::Feedback`] drop notices). `received + dropped()`
    /// reconciles with the server's delivered count.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Feedback drop-notice frames received so far.
    pub fn feedback_frames(&self) -> u64 {
        self.feedback_frames
    }

    /// Next output tuple (punctuation marks included, so final-ETS
    /// propagation is observable). `Ok(None)` at graceful end of stream;
    /// an error if nothing arrives within `patience`. Feedback drop
    /// notices are absorbed into [`Subscription::dropped`] — they never
    /// end the stream.
    pub fn next(&mut self, patience: Duration) -> Result<Option<Tuple>> {
        loop {
            match self.read_deadline(patience)? {
                Some(Frame::Output { tuple }) => return Ok(Some(tuple)),
                Some(Frame::Feedback { dropped, .. }) => {
                    self.dropped = self.dropped.max(dropped);
                    self.feedback_frames += 1;
                }
                Some(Frame::Bye) | None => return Ok(None),
                Some(Frame::Error { code, message }) => {
                    return Err(Error::runtime(format!(
                        "subscription ended ({code:?}): {message}"
                    )));
                }
                Some(other) => {
                    return Err(Error::runtime(format!(
                        "unexpected frame on subscription: {other:?}"
                    )));
                }
            }
        }
    }

    fn read_deadline(&mut self, patience: Duration) -> Result<Option<Frame>> {
        let deadline = Instant::now() + patience;
        loop {
            match self.reader.poll(&mut self.stream)? {
                ReadOutcome::Frame(f) => return Ok(Some(f)),
                ReadOutcome::Eof => return Ok(None),
                ReadOutcome::Timeout => {
                    if Instant::now() > deadline {
                        return Err(Error::runtime(format!(
                            "no frame within {patience:?} on subscription"
                        )));
                    }
                }
            }
        }
    }
}
